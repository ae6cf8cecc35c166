import numpy as np

from nsdpkit import caratheodory, linalg, selftest


def reduce_ok(vectors, coeffs, red):
    """All three reduction postconditions at once."""
    target = sum(a * v for a, v in zip(coeffs, vectors))
    combined = red.combined() if red.vectors else np.zeros_like(target)
    if np.linalg.norm(combined - target) > 1e-10 * (1.0 + np.linalg.norm(target)):
        return False
    if red.vectors and linalg.lin_dependent(list(red.vectors)):
        return False
    for idx, new in zip(red.indices, red.coeffs):
        if coeffs[idx] * new <= 0.0:
            return False
    return True


def test_already_independent_is_identity():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    red = caratheodory.reduce(vectors, [1.0, 2.0])
    assert sorted(red.indices) == [0, 1]
    assert reduce_ok(vectors, [1.0, 2.0], red)


def test_three_vectors_in_plane_drop_one():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    coeffs = [1.0, 1.0, 1.0]
    red = caratheodory.reduce(vectors, coeffs)
    assert len(red.indices) <= 2
    assert reduce_ok(vectors, coeffs, red)


def test_all_zero_coefficients_reduce_to_empty():
    red = caratheodory.reduce([np.array([1.0]), np.array([2.0])], [0.0, 0.0])
    assert len(red.indices) == 0


def test_zero_coefficients_never_enter():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    red = caratheodory.reduce(vectors, [0.0, 1.0, 1.0])
    assert 0 not in red.indices
    assert reduce_ok(vectors, [0.0, 1.0, 1.0], red)


def test_support_bounded_by_dimension():
    gen = np.random.default_rng(4)
    for _ in range(50):
        d = int(gen.integers(1, 5))
        p = int(gen.integers(d + 1, 9))
        vectors = [gen.normal(size=d) for _ in range(p)]
        coeffs = list(gen.normal(size=p))
        red = caratheodory.reduce(vectors, coeffs)
        assert len(red.indices) <= d
        assert reduce_ok(vectors, coeffs, red)


def test_each_round_decomposes_one_gram_matrix(monkeypatch):
    """Within one reduce call no matrix is decomposed twice."""
    seen = []
    decompose = linalg.spectral_decompose

    def recording(M):
        seen.append((M.shape, M.tobytes()))
        return decompose(M)

    monkeypatch.setattr(linalg, "spectral_decompose", recording)
    gen = np.random.default_rng(11)
    rounds = 0
    for _ in range(100):
        d = int(gen.integers(1, 4))
        p = int(gen.integers(1, 7))
        vectors = [gen.normal(size=d) for _ in range(p)]
        seen.clear()
        red = caratheodory.reduce(vectors, list(gen.normal(size=p)))
        assert len(seen) == len(set(seen))
        # one decomposition per exchange round, one for the final test
        assert len(seen) <= p - len(red.indices) + 1
        rounds += len(seen) - 1
    assert rounds > 100


def brute_force_reduction_exists(vectors, coeffs, eps=1e-9):
    """Search all index subsets for a valid sign-preserving reduction."""
    target = sum(a * v for a, v in zip(coeffs, vectors))
    p = len(vectors)
    for mask in range(2 ** p):
        subset = [i for i in range(p) if mask >> i & 1]
        if any(coeffs[i] == 0.0 for i in subset):
            continue
        sub = [vectors[i] for i in subset]
        if sub and linalg.lin_dependent(sub):
            continue
        if not sub:
            if np.linalg.norm(target) <= eps:
                return True
            continue
        A = np.column_stack(sub)
        sol, res, *_ = np.linalg.lstsq(A, target, rcond=None)
        if np.linalg.norm(A @ sol - target) > 1e-8 * (1 + np.linalg.norm(target)):
            continue
        if all(coeffs[i] * s > 0.0 for i, s in zip(subset, sol)):
            return True
    return False


def test_thousand_random_combinations():
    gen = np.random.default_rng(10)
    for _ in range(1000):
        d = int(gen.integers(1, 7))
        p = int(gen.integers(1, 11))
        vectors = [gen.normal(size=d) for _ in range(p)]
        coeffs = list(gen.normal(size=p))
        red = caratheodory.reduce(vectors, coeffs)
        assert reduce_ok(vectors, coeffs, red)


def test_matches_brute_force_on_small_cases():
    gen = np.random.default_rng(20)
    for _ in range(150):
        d = int(gen.integers(1, 4))
        p = int(gen.integers(1, 6))
        vectors = [gen.integers(-2, 3, size=d).astype(float) for _ in range(p)]
        coeffs = [float(c) for c in gen.integers(-2, 3, size=p)]
        red = caratheodory.reduce(vectors, coeffs)
        assert reduce_ok(vectors, coeffs, red)
        assert brute_force_reduction_exists(vectors, coeffs)


def test_idempotent():
    gen = np.random.default_rng(30)
    for _ in range(100):
        d = int(gen.integers(1, 5))
        p = int(gen.integers(1, 9))
        vectors = [gen.normal(size=d) for _ in range(p)]
        coeffs = list(gen.normal(size=p))
        red = caratheodory.reduce(vectors, coeffs)
        again = caratheodory.reduce(list(red.vectors), list(red.coeffs))
        assert len(again.indices) == len(red.indices)
        assert np.allclose(sorted(again.coeffs), sorted(red.coeffs), atol=1e-12)


def test_exact_rational_support_independence():
    gen = np.random.default_rng(40)
    for _ in range(200):
        d = int(gen.integers(1, 5))
        p = int(gen.integers(1, 7))
        vectors = [gen.integers(-3, 4, size=d).astype(float) for _ in range(p)]
        coeffs = [float(c) for c in gen.integers(-3, 4, size=p)]
        red = caratheodory.reduce(vectors, coeffs)
        if red.vectors:
            assert selftest._fraction_rank(list(red.vectors)) == len(red.vectors)
