"""Traced in-process run of the refugia command line.

    python3 perfbench/traced_run.py SUMMARY_JSON <refugia CLI arguments>

Wraps the scipy.sparse.linalg entry points the package calls (before refugia
is imported, so later `from scipy.sparse.linalg import ...` bindings see the
wrappers too), then imports every refugia module and wraps each public
module-level function in every refugia namespace that bound it, including
the `from .x import f` copies. Spans live in memory with a parent index; at
exit the per-layer aggregates are written to SUMMARY_JSON as
{metric: [value, unit]}. The exit status is the CLI's.

The package is found on PYTHONPATH (run.py points it at the checkout's src/).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import sys
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "value")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.value = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def wrap(self, name: str, fn, value=None):
        """value(args, result) -> number is recorded on the span after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if value is not None:
                rec.value = value(args, result)
            return result

        return traced

    def wrap_cg(self, fn):
        """Counts iterations through an injected callback, chaining the caller's."""

        @functools.wraps(fn)
        def traced(*args, callback=None, **kwargs):
            iters = 0

            def count(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)

            with self.span("scipy.cg") as rec:
                result = fn(*args, callback=count, **kwargs)
            rec.value = iters
            return result

        return traced


#: span values recorded per wrapped function (result attributes or file sizes)
VALUES = {
    "scipy.splu": lambda args, lu: lu.nnz,
    "spectral.leading_eigenvalue": lambda args, ep: ep.residual,
    "steady.newton_solve": lambda args, res: res.iterations,
    "continuation.continue_branch": lambda args, branch: len(branch.points),
    "dynamics.run_to_steady": lambda args, res: res.steps,
}


def _file_size(args, result):
    return os.path.getsize(args[0])


def install_scipy(tracer: Tracer) -> None:
    import scipy.sparse.linalg as spla

    spla.splu = tracer.wrap("scipy.splu", spla.splu, VALUES["scipy.splu"])
    spla.cg = tracer.wrap_cg(spla.cg)
    spla.eigs = tracer.wrap("scipy.eigs", spla.eigs)


def install_refugia(tracer: Tracer) -> None:
    import refugia

    modules = [
        importlib.import_module(f"refugia.{info.name}")
        for info in pkgutil.iter_modules(refugia.__path__)
    ]
    namespaces = [refugia, *modules]
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            span_name = f"{layer}.{name}"
            value = _file_size if layer == "csvio" else VALUES.get(span_name)
            traced = tracer.wrap(span_name, fn, value)
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        setattr(ns, attr, traced)


class Aggregate:
    """Per-layer figures computed from the span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds
        self.self_s = [s.seconds - c for s, c in zip(spans, child_s)]

    def of(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def total_s(self, name: str) -> float:
        return sum(self.spans[i].seconds for i in self.of(name))

    def self_total_s(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.of(name))

    def p50_ms(self, name: str) -> float:
        durations = [self.spans[i].seconds for i in self.of(name)]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def values(self, name: str) -> list[float]:
        return [self.spans[i].value for i in self.of(name) if self.spans[i].value is not None]

    def ancestors(self, i: int):
        p = self.spans[i].parent
        while p >= 0:
            yield self.spans[p].name
            p = self.spans[p].parent

    def nested(self, name: str, under: str, not_under: str | None = None) -> int:
        """Spans called name with an `under` ancestor and no `not_under` one."""
        n = 0
        for i in self.of(name):
            anc = set(self.ancestors(i))
            if under in anc and (not_under is None or not_under not in anc):
                n += 1
        return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, list]:
    a = Aggregate(spans)
    m: dict[str, list] = {}

    def put(name, value, unit):
        m[name] = [value, unit]

    eig = "spectral.leading_eigenvalue"
    put(f"{eig}.calls", a.calls(eig), "count")
    put(f"{eig}.total_s", a.total_s(eig), "s")
    put(f"{eig}.self_s", a.self_total_s(eig), "s")
    put(f"{eig}.p50_ms", a.p50_ms(eig), "ms")
    put("spectral.lu_per_call", _ratio(a.nested("scipy.splu", eig), a.calls(eig)), "lu/call")
    put("spectral.eigen_residual_max", max(a.values(eig), default=0.0), "1")

    put("continuation.trace_semitrivial.total_s", a.total_s("continuation.trace_semitrivial"), "s")
    put("continuation.detect_transcritical.total_s",
        a.total_s("continuation.detect_transcritical"), "s")
    put("continuation.detect_transcritical.eigen_calls",
        a.nested(eig, "continuation.detect_transcritical"), "count")
    put("continuation.branch_switch.total_s", a.total_s("continuation.branch_switch"), "s")
    cb = "continuation.continue_branch"
    points = sum(a.values(cb))
    put(f"{cb}.total_s", a.total_s(cb), "s")
    put(f"{cb}.self_s", a.self_total_s(cb), "s")
    put(f"{cb}.points", points, "count")
    # the start point comes from branch_switch; continue_branch computes the rest
    put("continuation.lu_per_branch_point",
        _ratio(a.nested("scipy.splu", cb), points - a.calls(cb)), "lu/point")
    put("continuation.corrector_lu", a.nested("scipy.splu", cb, not_under=eig), "count")

    put("steady.newton_solve.calls", a.calls("steady.newton_solve"), "count")
    put("steady.newton_solve.total_s", a.total_s("steady.newton_solve"), "s")
    put("steady.newton_solve.iters", sum(a.values("steady.newton_solve")), "count")
    put("steady.solve_kernel_function.calls", a.calls("steady.solve_kernel_function"), "count")
    put("steady.solve_kernel_function.total_s", a.total_s("steady.solve_kernel_function"), "s")

    for fn in ("assemble_jacobian", "residual_steady", "frozen_diffusion_matrix", "rhs_transient"):
        put(f"operators.{fn}.calls", a.calls(f"operators.{fn}"), "count")
        put(f"operators.{fn}.total_s", a.total_s(f"operators.{fn}"), "s")

    step = "dynamics.imex_step"
    put("dynamics.run_to_steady.total_s", a.total_s("dynamics.run_to_steady"), "s")
    put("dynamics.run_to_steady.steps", sum(a.values("dynamics.run_to_steady")), "count")
    put(f"{step}.calls", a.calls(step), "count")
    put(f"{step}.self_s", a.self_total_s(step), "s")
    put(f"{step}.p50_ms", a.p50_ms(step), "ms")
    cg_in_steps = sum(a.spans[i].value for i in a.of("scipy.cg") if step in a.ancestors(i))
    put("dynamics.cg_iters_per_step", _ratio(cg_in_steps, a.calls(step)), "iters/step")

    put("scipy.splu.calls", a.calls("scipy.splu"), "count")
    put("scipy.splu.total_s", a.total_s("scipy.splu"), "s")
    put("scipy.splu.fill_nnz_max", max(a.values("scipy.splu"), default=0), "count")
    put("scipy.cg.calls", a.calls("scipy.cg"), "count")
    put("scipy.cg.iters", sum(a.values("scipy.cg")), "count")
    put("scipy.cg.total_s", a.total_s("scipy.cg"), "s")
    put("scipy.eigs.calls", a.calls("scipy.eigs"), "count")

    put("report.build_report.total_s", a.total_s("report.build_report"), "s")
    put("svgplot.emit_plot.total_s", a.total_s("svgplot.emit_plot"), "s")
    csv = [i for i, s in enumerate(spans) if s.name.startswith("csvio.")]
    put("csvio.calls", len(csv), "count")
    put("csvio.total_s", sum(spans[i].seconds for i in csv), "s")
    put("csvio.bytes_written", sum(spans[i].value for i in csv), "bytes")

    put("config.parse_config.total_s", a.total_s("config.parse_config"), "s")
    put("geometry.build_geometry.total_s", a.total_s("geometry.build_geometry"), "s")
    return m


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install_scipy(tracer)
    install_refugia(tracer)
    from refugia import cli

    status = cli.main(cli_args)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(layer_metrics(tracer.spans), fh, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
