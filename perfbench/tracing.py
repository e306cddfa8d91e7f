"""Spans and call counters around the public functions of each greenbound layer.

Tracing works from outside the program: `Tracer.install` rebinds each traced
name in the namespace of the module that calls it (for example
`greenbound.transforms.legendre_P_negm`, which `h_U_pm` looks up at call
time) to a wrapper, and `Tracer.uninstall` puts the originals back.  Nothing
in `greenbound` is edited.  A target that a later version of the program no
longer has is skipped, and the metrics built on it read 0.

Every wrapped call updates per-name aggregates: calls, inclusive time, and
self time (inclusive time minus the time of wrapped calls made inside it).
Calls of the coarse layers are also kept as spans (id, name, start, end,
parent id) in memory and written out at the end; the hot functions are kept
as aggregates only, so the span list stays small.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

WORKLOAD_MODULE = "perfbench_workloads"

SPAN, FRAME, LEAF = "span", "frame", "leaf"

# (module that calls the function, attribute, span name, kind).  A SPAN keeps
# one span per call.  FRAME and LEAF calls, up to hundreds of thousands per
# job, are kept as aggregates only; a LEAF wraps no other traced function,
# so it skips the call stack, which keeps the tracing overhead down.
TARGETS = (
    # The benchmark's job runners call these through their own module.
    (WORKLOAD_MODULE, "count_bound", "lattice.count_bound", SPAN),
    (WORKLOAD_MODULE, "I_delta_pm", "transforms.I_delta_pm", SPAN),
    (WORKLOAD_MODULE, "N_delta_eps", "cusps.N_delta_eps", SPAN),
    (WORKLOAD_MODULE, "compute_D", "bounds.compute_D", SPAN),
    (WORKLOAD_MODULE, "cli_main", "cli.main", SPAN),
    # lattice
    ("greenbound.cli", "count_bound", "lattice.count_bound", SPAN),
    ("greenbound.verify", "count_bound", "lattice.count_bound", SPAN),
    ("greenbound.lattice", "enumerate_candidates", "lattice.enumerate_candidates", SPAN),
    ("greenbound.lattice", "min_u_over_rect", "lattice.min_u_over_rect", LEAF),
    # specfun
    ("greenbound.transforms", "legendre_P_negm", "specfun.legendre_P_negm", FRAME),
    ("greenbound.verify", "legendre_P_negm", "specfun.legendre_P_negm", FRAME),
    ("greenbound.specfun", "log_gamma_complex", "specfun.log_gamma_complex", LEAF),
    ("greenbound.verify", "log_gamma_complex", "specfun.log_gamma_complex", LEAF),
    ("greenbound.bounds", "p_sigma", "specfun.p_sigma", LEAF),
    # transforms
    ("greenbound.transforms", "h_U_pm", "transforms.h_U_pm", FRAME),
    ("greenbound.verify", "h_U_pm", "transforms.h_U_pm", FRAME),
    ("greenbound.transforms", "averaged_transform_tail", "transforms.averaged_transform_tail", LEAF),
    ("greenbound.bounds", "averaged_transform_tail", "transforms.averaged_transform_tail", LEAF),
    # _quad
    ("greenbound.transforms", "integrate_to_infinity", "quad.integrate_to_infinity", SPAN),
    ("greenbound.bounds", "integrate_to_infinity", "quad.integrate_to_infinity", SPAN),
    # bounds
    ("greenbound.bounds", "compute_D", "bounds.compute_D", SPAN),
    ("greenbound.verify", "compute_D", "bounds.compute_D", SPAN),
    ("greenbound.bounds", "_D_one_sign", "bounds.D_one_sign", SPAN),
    ("greenbound.optimize", "_D_one_sign", "bounds.D_one_sign", SPAN),
    ("greenbound.cli", "assemble", "bounds.assemble", SPAN),
    ("greenbound.verify", "assemble", "bounds.assemble", SPAN),
    ("greenbound.optimize", "compute_q", "bounds.compute_q", LEAF),
    # cusps
    ("greenbound.verify", "N_delta_eps", "cusps.N_delta_eps", SPAN),
    ("greenbound.cli", "extend_bounds", "cusps.extend_bounds", SPAN),
    # optimize
    ("greenbound.cli", "search", "optimize.search", SPAN),
    # verify
    ("greenbound.cli", "property_battery", "verify.property_battery", SPAN),
    ("greenbound.cli", "reproduction_battery", "verify.reproduction_battery", SPAN),
    # cli: build_parser looks the handlers up each time main runs
    ("greenbound.cli", "cmd_count", "cli.count", SPAN),
    ("greenbound.cli", "cmd_bounds", "cli.bounds", SPAN),
    ("greenbound.cli", "cmd_reproduce_paper", "cli.reproduce_paper", SPAN),
    ("greenbound.cli", "cmd_cusp_extend", "cli.cusp_extend", SPAN),
    ("greenbound.cli", "cmd_optimize", "cli.optimize", SPAN),
    ("greenbound.cli", "cmd_selftest", "cli.selftest", SPAN),
)


class Tracer:
    """In-memory spans, per-name aggregates and the counters the metrics need."""

    def __init__(self, workload_module):
        self._workload_module = workload_module
        self._saved: list[tuple[object, str, object]] = []
        # A frame is [name, child_time, span id of the nearest kept span, note].
        self._stack: list[list] = []
        self.spans: list[tuple | None] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()

    def install(self) -> None:
        wrappers: dict[tuple[int, str], object] = {}
        for module_name, attr, name, kind in TARGETS:
            if module_name == WORKLOAD_MODULE:
                module = self._workload_module
            else:
                module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            key = (id(original), name)
            if key not in wrappers:
                if kind == LEAF:
                    wrappers[key] = self._wrap_leaf(original, name)
                else:
                    wrappers[key] = self._wrap(original, name, kind == SPAN)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, fn, name: str, keep_span: bool):
        """Wrapper that pushes a frame, so wrapped calls inside it count as its children."""
        stack, spans = self._stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        on_enter = _ENTER_HOOKS.get(name)
        on_exit = _EXIT_HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            anchor = parent[2] if parent is not None else None
            if keep_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = anchor
            note = on_enter(args, kwargs) if on_enter is not None else None
            frame = [name, 0.0, span_id, note]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - frame[1]
                if keep_span:
                    spans[span_id] = (span_id, name, start, end, anchor)
            if on_exit is not None:
                on_exit(self, parent, args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, fn, name: str):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        on_exit = _EXIT_HOOKS.get(name)
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed
            if on_exit is not None:
                on_exit(self, stack[-1] if stack else None, args, kwargs, result, elapsed)
            return result

        leaf.__wrapped__ = fn
        return leaf

    def write(self, path: str) -> None:
        spans = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in self.spans
            if s is not None
        ]
        aggregates = {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "aggregates": aggregates, "counts": dict(self.counts)}, handle)


def _count_bound_cutoff(args, kwargs):
    # count_bound counts a (matrix, cell) pair when min u <= U (1 + SAFE_MARGIN).
    lattice = importlib.import_module("greenbound.lattice")
    U = float(kwargs["U"] if "U" in kwargs else args[1])
    return U * (1.0 + getattr(lattice, "SAFE_MARGIN", 0.0))


def _count_bound_exit(tracer, parent, args, kwargs, result, elapsed):
    nx, ny = kwargs["grid"] if "grid" in kwargs else args[2]
    tracer.counts["lattice.cells"] += int(nx) * int(ny)


def _enumerate_exit(tracer, parent, args, kwargs, result, elapsed):
    tracer.counts["lattice.candidates"] += len(result.matrices)


def _min_u_exit(tracer, parent, args, kwargs, result, elapsed):
    # Calls made directly by count_bound resolve ambiguous cells; the calls
    # under enumerate_candidates only annotate the candidate list.
    if parent is None or parent[0] != "lattice.count_bound":
        return
    tracer.counts["lattice.resolve_calls"] += 1
    tracer.total["lattice.resolve"] += elapsed
    if result <= parent[3]:
        tracer.counts["lattice.resolve_hits"] += 1


def _D_one_sign_exit(tracer, parent, args, kwargs, result, elapsed):
    if tracer.inside("optimize.search"):
        tracer.counts["optimize.D_evals"] += 1


def _compute_q_exit(tracer, parent, args, kwargs, result, elapsed):
    if tracer.inside("optimize.search"):
        tracer.counts["optimize.evaluations"] += 1


_ENTER_HOOKS = {"lattice.count_bound": _count_bound_cutoff}
_EXIT_HOOKS = {
    "lattice.count_bound": _count_bound_exit,
    "lattice.enumerate_candidates": _enumerate_exit,
    "lattice.min_u_over_rect": _min_u_exit,
    "bounds.D_one_sign": _D_one_sign_exit,
    "bounds.compute_q": _compute_q_exit,
}
