"""Pipeline benchmark for distsynth: synth + verify end to end, layers traced.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload illustrative --seed 1 --seconds 25 --trace 0

One process, closed loop, one problem at a time.  After set-up the workload's
operations run as passes, back to back, for about ``--seconds`` (at least one
pass; two, one untraced and one traced, with ``--trace 1``).  Timings are
means over passes, scaled to a reference machine speed by a calibration
kernel run after every operation (see calibrate.py).  With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer metrics; their names and units are those of
BENCHMARK.json.  Traced runs also write every span to ``.perfbench_out/``
under the root.  perfbench/NOTES.md says what each metric means and which
layer moves it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# set-up time counts from here: numpy, scipy and distsynth load in main()
_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("illustrative", "long-horizon", "gen-batch", "recertify")
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@dataclass
class Pass:
    traced: bool
    results: list
    spans: list

    def total(self, field: str) -> float:
        return sum(getattr(r, field) for r in self.results)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "DISTSYNTH_THREADS": os.environ.get("DISTSYNTH_THREADS"),
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _setup_sample(args) -> float:
    """Set-up time of a fresh interpreter: import plus the workload's inputs."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _metric_specs() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def _emit(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "distsynth" / "__init__.py").is_file():
        print(f"error: no distsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # pin BLAS pools to one thread before numpy loads: no run uses more than
    # two threads (DISTSYNTH_THREADS=2 on gen-batch) on a two-core machine
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    import calibrate
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.environ["DISTSYNTH_THREADS"] = workload.threads
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            ops = workload.prepare(ROOT, args.seed)
        setup_spans = tracer.take()
    else:
        ops = workload.prepare(ROOT, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    env = _environment()
    print("env: " + json.dumps(env), file=sys.stderr)
    end_to_end, per_layer = _metric_specs()

    calibrate.kernel()  # warm-up: first-call costs stay out of the samples
    kernels = [calibrate.kernel()]

    def between():
        kernels.append(calibrate.kernel())

    passes: list[Pass] = []
    t_start = time.perf_counter()
    last = 0.0
    min_passes = 2 if tracer is not None else 1
    # start a pass only if one more like the last still ends within --seconds
    while len(passes) < min_passes or time.perf_counter() - t_start + last <= args.seconds:
        t_pass = time.perf_counter()
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed():
                results = workloads.run_pass(ops, len(passes), tracer, between)
            passes.append(Pass(True, results, tracer.take()))
        else:
            passes.append(Pass(False, workloads.run_pass(ops, len(passes), None, between), []))
        last = time.perf_counter() - t_pass
    scale = calibrate.REFERENCE_S / statistics.mean(kernels)
    setup = [setup_s]
    if tracer is None:
        setup += [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    results = [r for p in passes for r in p.results]
    attempted = len(results)
    failed = sum(1 for r in results if r.failed)
    wrong = [f"{r.name}: {w}" for r in results for w in r.wrong]
    for r in results:
        if r.failed:
            print(f"failed: {r.name}: {r.failed}", file=sys.stderr)
    for w in wrong:
        print(f"WRONG OUTPUT: {w}", file=sys.stderr)
    print(f"pass walls (raw s): {[round(p.total('wall_s'), 4) for p in passes]}", file=sys.stderr)
    print(f"kernel times (s): {[round(k, 4) for k in kernels]}  scale: {scale:.4f}", file=sys.stderr)

    # every time is a mean over passes: the machine switches between a fast
    # and a slow state within seconds, and a mean of pass times over a mean
    # of kernel times averages both over the same stretch of the run
    untraced = [p for p in passes if not p.traced]
    mean = statistics.mean
    if tracer is None:
        values = {
            "setup_s": scale * mean(setup),
            "wall_s": scale * mean(p.total("wall_s") for p in untraced),
            "cert_s": scale * mean(p.total("synth_s") + p.total("verify_s") for p in untraced),
            "verify_s": scale * mean(p.total("verify_s") for p in untraced),
            "objective": mean(sum(r.objective for r in p.results if not r.failed) for p in untraced),
            "certified_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = _emit(values, end_to_end)
        print(f"set-up samples (raw s): {[round(s, 4) for s in setup]}", file=sys.stderr)
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [tracing.layer_metrics(p.spans) for p in traced]
        values = {name: mean(m[name] for m in per_pass) for name in per_pass[0]}
        values["cli.parse_s"] = sum(s.duration for s in setup_spans if s.name == "cli.parse_spec")
        values["trace.overhead_s"] = mean(p.total("wall_s") for p in traced) - mean(
            p.total("wall_s") for p in untraced
        )
        for name, unit in per_layer.items():
            if unit == "s":
                values[name] *= scale
        metrics = _emit(values, per_layer)
        table = tracing.by_name([s for p in traced for s in p.spans])
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "env": env,
            "reference_s": calibrate.REFERENCE_S,
            "kernels_s": kernels,
            "scale": scale,
            "by_name": table,
            "metrics": values,
            "setup_spans": [s.as_list() for s in setup_spans],
            "passes": [
                {"traced": p.traced, "wall_s": p.total("wall_s"), "spans": [s.as_list() for s in p.spans]}
                for p in passes
            ],
        }
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(record) + "\n")
        print(f"passes: {len(passes)} ({len(traced)} traced); spans written to {path}", file=sys.stderr)
        print(f"{'span (raw seconds)':38s} {'count':>6s} {'total_s':>9s} {'self_s':>9s}", file=sys.stderr)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:38s} {row['count']:6d} {row['total_s']:9.4f} {row['self_s']:9.4f}", file=sys.stderr)

    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
