"""Span tracing of the distsynth pipeline from outside the package.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, at the module attribute its caller looks it up by (``cli`` calls
``synthesizer.alternate`` through the module, ``alternate`` calls ``p_step``
through its module globals, ``verifier`` imported ``solve_lp`` by name, ...).
Outside that block the package runs unmodified, so untraced runs pay nothing.

Spans (name, start, end, parent and a few attributes) stay in memory; the
caller writes them out when the run ends.  ``layer_metrics`` folds one pass's
spans into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field

from distsynth import cli, encoder, lp_solver, setgeom, synthesizer, verifier


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.name, self.parent, self.start, self.end, self.thread, self.attrs]


def _lp_shape(lp) -> dict:
    rows = nnz = 0
    for mat in (lp.a_ub, lp.a_eq):
        if mat is not None:
            rows += mat.shape[0]
            nnz += mat.nnz
    return {"rows": rows, "cols": lp.n_vars, "nnz": nnz}


def _solve_lp_attrs(args, kwargs, out) -> dict:
    attrs = {**_lp_shape(args[0]), "status": out.status}
    if out.optimal:
        attrs["residual"] = out.residual
        attrs["gap"] = abs(out.objective - out.dual_objective) / max(1.0, abs(out.objective))
    return attrs


def _linprog_attrs(args, kwargs, res) -> dict:
    return {
        "nit": int(res.nit),
        "status": int(res.status),
        "retry": not kwargs.get("options", {}).get("presolve", True),
    }


# (module, attribute, span name, attrs from (args, kwargs, result), adopts worker threads)
_TARGETS = (
    (cli, "parse_spec", "cli.parse_spec", None, False),
    (cli, "select_params", "rpi_params.select_params", lambda a, k, r: {"s": r.s}, False),
    (cli, "vertices_hpoly", "setgeom.vertices_hpoly", None, False),
    (cli, "reachable_outline", "cli.reachable_outline", None, False),
    (encoder, "assemble", "encoder.assemble", None, False),
    (synthesizer, "alternate", "synthesizer.alternate", lambda a, k, r: {"iterations": r.iterations}, False),
    (synthesizer, "refine", "synthesizer.refine", lambda a, k, r: {"restarts": int(a[2])}, True),
    (synthesizer, "p_step", "synthesizer.p_step", None, False),
    (synthesizer, "q_step", "synthesizer.q_step", None, False),
    (synthesizer, "solve_lp", "synthesizer.solve_lp", _solve_lp_attrs, False),
    (verifier, "solve_lp", "verifier.solve_lp", _solve_lp_attrs, False),
    (setgeom, "solve_lp", "setgeom.solve_lp", _solve_lp_attrs, False),
    (lp_solver, "linprog", "lp_solver.linprog", _linprog_attrs, False),
    (verifier, "verify_params", "verifier.verify_params", None, False),
    (verifier, "verify_gamma", "verifier.verify_gamma", None, False),
    (verifier, "verify_output_inclusion", "verifier.verify_output_inclusion", None, False),
    (verifier, "verify_coverage", "verifier.verify_coverage", None, False),
    (verifier, "distance_dY", "verifier.distance_dY", None, False),
    (verifier, "monte_carlo", "verifier.monte_carlo", lambda a, k, r: {"steps": r.steps}, False),
    (verifier, "simulate", "setgeom.simulate", None, False),
)

_LP_SPANS = ("synthesizer.solve_lp", "verifier.solve_lp", "setgeom.solve_lp")


class Tracer:
    """Collects spans in memory; parents come from a per-thread span stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # refine() runs restarts on pool threads whose stacks start empty;
        # spans opened there are children of the refine span that spawned them
        self._adopter: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self._adopter
        span = Span(next(self._ids), name, parent, time.perf_counter(), thread=threading.get_ident())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, fn, name, attrs_of, adopts):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            if adopts:
                tracer._adopter = span.id
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    span.attrs.update(attrs_of(args, kwargs, result))
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                if adopts:
                    tracer._adopter = None
                tracer.close(span)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name, attrs_of, adopts in _TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs_of, adopts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        with self._lock:
            out, self.spans = self.spans, []
        return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _union_length(children.get(s.id, ())) for s in spans}


def by_name(spans: list[Span]) -> dict[str, dict]:
    """Count, inclusive and self seconds per span name."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one pass (sums over the pass's problems)."""
    own = self_times(spans)
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    for step in ("p", "q"):
        steps = named(f"synthesizer.{step}_step")
        lps = [c for s in steps for c in kids.get(s.id, ()) if c.name == "synthesizer.solve_lp"]
        highs = [c for lp in lps for c in kids.get(lp.id, ()) if c.name == "lp_solver.linprog"]
        m[f"synthesizer.{step}_step_s"] = sum(s.duration for s in steps)
        m[f"synthesizer.{step}_build_s"] = sum(own[s.id] for s in steps)
        m[f"synthesizer.{step}_solve_s"] = sum(lp.duration for lp in lps)
        m[f"synthesizer.{step}_calls"] = len(steps)
        for key in ("rows", "cols", "nnz"):
            m[f"synthesizer.{step}_{key}"] = max((lp.attrs[key] for lp in lps), default=0)
        m[f"synthesizer.{step}_nit"] = sum(h.attrs.get("nit", 0) for h in highs)
    m["synthesizer.iterations"] = attr_sum("synthesizer.alternate", "iterations")
    m["synthesizer.refine_s"] = total("synthesizer.refine")
    m["synthesizer.restarts"] = attr_sum("synthesizer.refine", "restarts")
    m["rpi_params.select_s"] = total("rpi_params.select_params")
    m["rpi_params.horizon"] = attr_sum("rpi_params.select_params", "s")
    m["encoder.assemble_s"] = total("encoder.assemble")
    m["setgeom.vertices_s"] = total("setgeom.vertices_hpoly")

    lps = [s for s in spans if s.name in _LP_SPANS]
    highs = named("lp_solver.linprog")
    m["lp_solver.calls"] = len(lps)
    m["lp_solver.highs_s"] = sum(h.duration for h in highs)
    m["lp_solver.post_s"] = sum(own[s.id] for s in lps)
    m["lp_solver.retries"] = sum(1 for h in highs if h.attrs.get("retry"))
    m["lp_solver.failed"] = sum(1 for s in lps if s.attrs.get("status") != lp_solver.OPTIMAL)
    m["lp_solver.max_residual"] = max((s.attrs.get("residual", 0.0) for s in lps), default=0.0)
    m["lp_solver.max_gap"] = max((s.attrs.get("gap", 0.0) for s in lps), default=0.0)

    m["verifier.params_s"] = total("verifier.verify_params")
    m["verifier.gamma_s"] = total("verifier.verify_gamma")
    m["verifier.inclusion_s"] = total("verifier.verify_output_inclusion")
    m["verifier.coverage_s"] = total("verifier.verify_coverage")
    m["verifier.coverage_lps"] = len(named("verifier.solve_lp"))
    m["verifier.distance_s"] = total("verifier.distance_dY")
    m["verifier.mc_s"] = total("verifier.monte_carlo")
    m["verifier.mc_steps"] = attr_sum("verifier.monte_carlo", "steps")
    m["setgeom.simulate_s"] = total("setgeom.simulate")
    m["cli.outline_s"] = total("cli.reachable_outline")
    m["cli.synth_s"] = total("cli.cmd_synth")
    return m
