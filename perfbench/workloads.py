"""The benchmark's workloads and the operations they time.

One operation is one problem's ``cmd_synth`` followed by ``cmd_verify`` of its
result, or one re-certification of the frozen illustrative result.  An
operation fails when the pipeline raises one of the errors the CLI maps to
exit codes 3 and 4, or when a certificate fails; the pass goes on with the
next operation.  Output checks that a correct program never trips are
recorded separately in ``OpResult.wrong``.

Every call into the package goes through a module attribute at call time
(``cli.cmd_synth``, ``verifier.distance_dY``, ...), so the tracer's wrappers
see it.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from distsynth import cli, verifier
from distsynth.setgeom import GeometryError

# what the CLI turns into exit code 3 or 4 (SynthesisError and
# ParamSearchError are RuntimeErrors)
PIPELINE_ERRORS = (RuntimeError, cli.AssumptionError, GeometryError)

MC_RUNS = 20
MC_STEPS = 10_000
# the certificates' own tolerance (verifier: 1e-8)
TOL = 1e-8

FROZEN_RESULT = Path(__file__).resolve().parent / "data" / "illustrative_result.json"


@dataclass
class OpResult:
    name: str
    wall_s: float = 0.0
    synth_s: float = 0.0
    verify_s: float = 0.0
    objective: float = 0.0
    failed: str = ""
    wrong: list[str] = field(default_factory=list)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def synth_verify(name: str, spec, tracer=None) -> OpResult:
    """``cmd_synth``, a result.json round trip, then ``cmd_verify``."""
    op = OpResult(name)
    try:
        t0 = time.perf_counter()
        try:
            with _span(tracer, "cli.cmd_synth"):
                doc = cli.cmd_synth(spec)
        finally:
            op.synth_s = time.perf_counter() - t0
        failing = sorted(k for k, c in doc.certificates.items() if not c["passed"])
        if failing:
            op.failed = "certificates failed: " + ", ".join(failing)
            return op
        stored = cli.ResultDoc.from_dict(json.loads(json.dumps(cli._to_jsonable(doc.to_dict()))))
        t0 = time.perf_counter()
        try:
            with _span(tracer, "cli.cmd_verify"):
                cert = cli.cmd_verify(spec, stored)
        finally:
            op.verify_s = time.perf_counter() - t0
        op.objective = doc.objective
        if not cert.passed:
            op.failed = f"cmd_verify rejects the synthesized W: {cert.worst()}"
            op.wrong.append(op.failed)
        if not np.isfinite(doc.objective):
            op.wrong.append(f"objective is {doc.objective}")
    except PIPELINE_ERRORS as exc:
        op.failed = f"{type(exc).__name__}: {exc}"
    return op


def recertify(spec, doc, rng: np.random.Generator, tracer=None) -> OpResult:
    """Re-certify a stored result: verify, exact distance, Monte-Carlo, outline."""
    op = OpResult("recertify")
    try:
        t0 = time.perf_counter()
        try:
            with _span(tracer, "cli.cmd_verify"):
                cert = cli.cmd_verify(spec, doc)
        finally:
            op.verify_s = time.perf_counter() - t0
        if not cert.passed:
            op.failed = f"cmd_verify rejects the frozen W: {cert.worst()}"
            op.wrong.append(op.failed)
        _, distance = verifier.distance_dY(
            spec.sys, spec.resolve_vertices(), doc.W, doc.horizon, doc.H
        )
        op.objective = distance
        if not distance <= doc.objective + TOL:
            op.wrong.append(f"distance_dY {distance!r} exceeds the stored objective {doc.objective!r}")
        mc = verifier.monte_carlo(spec.sys, doc.W, spec.Y, MC_STEPS, MC_RUNS, rng)
        if mc.violations:
            op.wrong.append(f"{mc.violations} Monte-Carlo violations (worst {mc.max_excursion:.3e})")
        outline = cli.reachable_outline(spec.sys, doc.params, doc.W)
        excess = float(np.max(outline @ spec.Y.G.T - spec.Y.g))
        if excess > TOL:
            op.wrong.append(f"reachable outline leaves Y by {excess:.3e}")
    except PIPELINE_ERRORS as exc:
        op.failed = f"{type(exc).__name__}: {exc}"
    return op


# an operation runs with (tracer, pass index)
Operation = tuple[str, Callable[[object, int], OpResult]]


def _synth_op(name, spec) -> Operation:
    return name, lambda tracer, k: synth_verify(name, spec, tracer)


def prepare_illustrative(root: Path, seed: int) -> list[Operation]:
    spec = cli.parse_spec(_load(root / "specs" / "illustrative.json"))
    return [_synth_op("illustrative", spec)]


def prepare_long_horizon(root: Path, seed: int) -> list[Operation]:
    spec = cli.cmd_reduce(_load(root / "specs" / "reduced_order_plant.json"))
    return [_synth_op("long-horizon", spec)]


GEN_STATES = (3, 6)
GEN_SEEDS = (0, 1)
GEN_RESTARTS = 2


def gen_problem(n_x: int, gen_seed: int, rho: float = 0.7):
    spec = cli.cmd_gen(n_x, 2, 2, rho, gen_seed)
    spec.options.restarts = GEN_RESTARTS
    return spec


def prepare_gen_batch(root: Path, seed: int) -> list[Operation]:
    return [
        _synth_op(f"gen-nx{n_x}-seed{g}", gen_problem(n_x, g))
        for n_x in GEN_STATES
        for g in GEN_SEEDS
    ]


def prepare_recertify(root: Path, seed: int) -> list[Operation]:
    spec = cli.parse_spec(_load(root / "specs" / "illustrative.json"))
    doc = cli.ResultDoc.from_dict(_load(FROZEN_RESULT))

    def op(tracer, k):
        return recertify(spec, doc, np.random.default_rng([seed, k]), tracer)

    return [("recertify", op)]


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int], list[Operation]]
    threads: str  # DISTSYNTH_THREADS while the workload runs


WORKLOADS = {
    "illustrative": Workload(prepare_illustrative, "1"),
    "long-horizon": Workload(prepare_long_horizon, "1"),
    "gen-batch": Workload(prepare_gen_batch, "2"),
    "recertify": Workload(prepare_recertify, "1"),
}


def run_pass(ops: list[Operation], k: int, tracer=None, between=None) -> list[OpResult]:
    """Run every operation once, one at a time, calling ``between()`` after each."""
    results = []
    for _, fn in ops:
        t0 = time.perf_counter()
        result = fn(tracer, k)
        result.wall_s = time.perf_counter() - t0
        results.append(result)
        if between is not None:
            between()
    return results
