"""Checks of the benchmark harness itself, kept apart from the package's tests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from distsynth import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_failing_problem_is_counted_and_the_pass_goes_on():
    # known defect 1 in NOTES.md: the first P-step LP ends in HiGHS
    # "Status 0: Not Set" with and without presolve (CLI exit 4)
    bad = cli.cmd_gen(3, 2, 2, 0.9, seed=2)
    good = cli.cmd_gen(3, 2, 2, 0.7, seed=2)
    ops = [workloads._synth_op("rho0.9-seed2", bad), workloads._synth_op("rho0.7-seed2", good)]
    tracer = tracing.Tracer()
    with tracer.installed():
        results = workloads.run_pass(ops, 0, tracer)
    assert [bool(r.failed) for r in results] == [True, False]
    assert results[0].failed.startswith("SynthesisError: iteration 1: box-fitting LP")
    assert results[0].synth_s > 0 and not results[0].wrong
    assert not results[1].wrong and results[1].objective > 0
    layers = tracing.layer_metrics(tracer.take())
    assert layers["lp_solver.failed"] == 1
    assert layers["lp_solver.retries"] == 1


def test_failing_restart_fails_the_operation():
    # known defect 2 in NOTES.md: one restart's P-step LP fails and takes
    # the whole synthesis down, although the incumbent is certified
    spec = workloads.gen_problem(6, 1)
    spec.options.seed = 0
    result = workloads.synth_verify("gen-nx6-seed1-restart-seed0", spec)
    assert result.failed.startswith("SynthesisError: iteration 1: box-fitting LP")


def test_pool_spans_hang_under_refine_and_self_time_excludes_children(monkeypatch):
    monkeypatch.setenv("DISTSYNTH_THREADS", "2")
    tracer = tracing.Tracer()
    with tracer.installed():
        result = workloads.synth_verify("gen-nx3-seed1", workloads.gen_problem(3, 1), tracer)
    assert not result.failed
    spans = tracer.take()
    by_id = {s.id: s for s in spans}
    refine = [s for s in spans if s.name == "synthesizer.refine"]
    alternates = [s for s in spans if s.name == "synthesizer.alternate"]
    assert len(refine) == 1 and len(alternates) == 1 + workloads.GEN_RESTARTS
    assert sorted(by_id[s.parent].name for s in alternates) == [
        "cli.cmd_synth",
        "synthesizer.refine",
        "synthesizer.refine",
    ]
    own = tracing.self_times(spans)
    assert all(-1e-9 <= own[s.id] <= s.duration + 1e-9 for s in spans)
    layers = tracing.layer_metrics(spans)
    assert layers["synthesizer.restarts"] == workloads.GEN_RESTARTS
    assert layers["synthesizer.p_calls"] == layers["synthesizer.q_calls"] == layers["synthesizer.iterations"]
