"""Span tracing of nsdpkit layers, installed from outside the package.

`Tracer.installed()` replaces public functions of the nsdpkit modules
(module attributes, plus two `NsdpProblem` methods) with wrappers that
record one span per call: name, start, end, parent span and operation
id.  Because the package calls its own layers through module attributes
(`linalg.spectral_decompose`, `solvers.inner_minimize`, ...), the
wrappers also see the calls one layer makes into another.  Nothing
under `src/` changes.

Spans live in compact arrays until the run ends; `Summary` then
reduces a range of spans to per-name call counts, inclusive time and
self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import contextlib
import inspect
import os
from array import array
from time import perf_counter

STOP_REASONS = ("converged", "max_iter", "stagnation", "line_search",
                "radius_exceeded")
# Layers whose spans record the matrix dimension m, for per-m figures.
BY_M = ("linalg.spectral_decompose", "linalg.moreau_split", "linalg.proj_psd",
        "solvers.al_value", "solvers.al_gradient")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.value = array("q")      # one integer per span (m, bytes, ...)
        self.details: dict[int, tuple] = {}
        self.current_op = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, annotate=None):
        fixed_id = self._name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(fixed_id if fixed_id is not None
                             else self._name_id(name(args, kwargs)))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.value.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, nsdpkit_modules: dict):
        """Wrap every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, annotate in _targets(nsdpkit_modules):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, annotate))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# what gets wrapped


def _check_name(default_kind, prefix=""):
    def name(args, kwargs):
        kind = kwargs.get("kind", args[2] if len(args) > 2 else default_kind)
        return f"cq.check.{prefix}{kind}"
    return name


def _record_matrix_m(tracer, idx, args, kwargs, result):
    tracer.value[idx] = len(args[0])


def _record_problem_m(tracer, idx, args, kwargs, result):
    tracer.value[idx] = args[0].m


def _record_outer(tracer, idx, args, kwargs, result):
    tracer.value[idx] = len(result)


def _record_text_bytes(tracer, idx, args, kwargs, result):
    tracer.value[idx] = len(result.encode("utf-8"))


def _record_file_bytes(tracer, idx, args, kwargs, result):
    tracer.value[idx] = os.path.getsize(args[1])


def _inner_recorder(inner_minimize):
    params = list(inspect.signature(inner_minimize).parameters.values())
    pos = [p.name for p in params].index("stagnation_window")
    default_window = params[pos].default

    def record(tracer, idx, args, kwargs, result):
        stats = result[1]
        window = kwargs.get("stagnation_window",
                            args[pos] if len(args) > pos else default_window)
        tracer.value[idx] = stats.iterations
        tracer.details[idx] = (stats.reason, int(window))
    return record


def _record_msr(tracer, idx, args, kwargs, result):
    tracer.details[idx] = (result.n_infeasible, result.n_failed)


def _targets(mods):
    linalg, model, caratheodory = mods["linalg"], mods["model"], mods["caratheodory"]
    kkt, solvers, cq = mods["kkt"], mods["solvers"], mods["cq"]
    return (
        (linalg, "spectral_decompose", "linalg.spectral_decompose", _record_matrix_m),
        (linalg, "moreau_split", "linalg.moreau_split", _record_matrix_m),
        (linalg, "proj_psd", "linalg.proj_psd", _record_matrix_m),
        (linalg, "lin_dependent", "linalg.lin_dependent", None),
        (linalg, "pos_lin_dependent", "linalg.pos_lin_dependent", None),
        (model.NsdpProblem, "g", "model.NsdpProblem.g", None),
        (model.NsdpProblem, "dg", "model.NsdpProblem.dg", None),
        (caratheodory, "reduce", "caratheodory.reduce", None),
        (kkt, "kkt_residual", "kkt.kkt_residual", None),
        (kkt, "akkt_check", "kkt.akkt_check", None),
        (kkt, "recover_multiplier", "kkt.recover_multiplier", None),
        (kkt, "write_trace", "kkt.write_trace", _record_file_bytes),
        (solvers, "inner_minimize", "solvers.inner_minimize",
         _inner_recorder(solvers.inner_minimize)),
        (solvers, "al_value", "solvers.al_value", _record_problem_m),
        (solvers, "al_gradient", "solvers.al_gradient", _record_problem_m),
        (solvers, "solve_external_penalty", "solvers.solve_external_penalty",
         _record_outer),
        (solvers, "solve_augmented_lagrangian",
         "solvers.solve_augmented_lagrangian", _record_outer),
        (solvers, "solve_sqp", "solvers.solve_sqp", _record_outer),
        (cq, "check_nondegeneracy", "cq.check.nondegeneracy", None),
        (cq, "check_robinson", "cq.check.robinson", None),
        (cq, "check_weak_cq", _check_name("weak-crcq"), None),
        (cq, "check_seq_cq", _check_name("seq-crcq"), None),
        (cq, "nlp_constant_rank_check", _check_name("crcq", "nlp-"), None),
        (cq, "check_msr", "cq.check.msr", None),
        (cq, "estimate_msr_modulus", "cq.estimate_msr_modulus", _record_msr),
        (cq, "replay_witness", "cq.replay_witness", None),
        (cq, "write_verdict", "cq.write_verdict", _record_text_bytes),
    )


# ---------------------------------------------------------------------------
# reduction


class Summary:
    """Per-name aggregates over one contiguous range of spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        names = tracer.names
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.value: dict[str, int] = {}
        self.by_m: dict[str, dict[int, list]] = {n: {} for n in BY_M}
        self.stops = dict.fromkeys(STOP_REASONS, 0)
        self.stagnant_iterations = 0
        self.msr_infeasible = 0
        self.msr_failed = 0
        self.msr_projection_solves = 0
        dur = [tracer.end[i] - tracer.start[i] for i in range(lo, hi)]
        own = list(dur)
        for i in range(lo, hi):
            p = tracer.parent[i]
            if p >= lo:
                own[p - lo] -= dur[i - lo]
        msr = tracer._name_ids.get("cq.estimate_msr_modulus")
        al = tracer._name_ids.get("solvers.solve_augmented_lagrangian")
        for i in range(lo, hi):
            nid = tracer.name[i]
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dur[i - lo]
            self.self_s[name] = self.self_s.get(name, 0.0) + own[i - lo]
            if name in self.by_m:
                acc = self.by_m[name].setdefault(tracer.value[i], [0, 0.0])
                acc[0] += 1
                acc[1] += dur[i - lo]
            else:
                self.value[name] = self.value.get(name, 0) + tracer.value[i]
            if nid == al and tracer.parent[i] >= 0 \
                    and tracer.name[tracer.parent[i]] == msr:
                self.msr_projection_solves += 1
            detail = tracer.details.get(i)
            if detail is None:
                continue
            if nid == msr:
                self.msr_infeasible += detail[0]
                self.msr_failed += detail[1]
            else:
                reason, window = detail
                self.stops[reason] += 1
                if reason == "stagnation":
                    self.stagnant_iterations += window

    def counts(self) -> dict:
        """Every deterministic count, for run-to-run comparison."""
        out = {f"{k}.calls": v for k, v in sorted(self.calls.items())}
        out.update({f"{k}.value": v for k, v in sorted(self.value.items())})
        out.update({f"{name}.m{m}": acc[0] for name, per_m in self.by_m.items()
                    for m, acc in sorted(per_m.items())})
        out.update({f"stop.{k}": v for k, v in self.stops.items()})
        out["msr"] = (self.msr_infeasible, self.msr_failed,
                      self.msr_projection_solves)
        return out
