"""Digest of every HiGHS input and outcome of the bundled pipelines.

usage: python .github/scripts/lp_digest.py CHECKOUT [BASE]

Imports distsynth from CHECKOUT/src and runs, in one process, ``cmd_synth``
and then ``cmd_verify`` with and without the stored witness on
specs/illustrative.json, on the reduced specs/reduced_order_plant.json and on
four generated problems (n_x 3 and 6, generator seeds 0 and 1, two inputs,
two outputs, rho 0.7, two restarts), then ``cmd_verify`` of the frozen
perfbench/data/illustrative_result.json, ``verifier.monte_carlo`` of that
result at its W and at W scaled by 3 (seed 0, 4 runs of 2,000 steps),
``setgeom.simulate`` of it: the 2,000-step run from the origin at the seed of
specs/illustrative.json that ``plot`` writes as trajectory.csv, and
``cli.reachable_outline`` of it, which ``plot`` writes as reach_set.csv.

Every ``lp_solver._run`` call gets a digest of its own, fed with its program
(c, lb, b, n_eq and the matrix's shape and indptr, indices and data, each
array with its dtype), its presolve and primal flags and the column and row
statuses of the basis it starts from, if any; the ``_outcome`` call that
reads that run on the same thread feeds it with the status, iteration count,
x, objective, dual objective, residual and final basis.  Runs are split in
two by their program: a program that is ever run with ``primal`` is a
fixed-W program (the verifier's exact distance and coverage LP, re-solves
from an answer's basis included), every other one a synthesis step (P-step
and Q-step).  Each kind prints its run count, the sum of its runs' simplex
iterations (so a change of start basis shows as a count) and the sha256 of
its sorted per-call digests, so a line does not depend on the order in which
threads (refine's concurrent restarts) make their calls.  The document digest covers
every result.json field but ``timing``, every verify report, both
Monte-Carlo reports and the simulated run's (X, Y, Wseq).  Both Monte-Carlo
reports are then printed in full, one line each, and the simulated run gets
a ``simulate`` line: the sha256 of X, Y and Wseq, each fed as an LP array
is.  The outline gets an ``outline`` line of its own, the sha256 of its
points fed the same way, and stays out of the documents digest, so a change
of support point shows there alone.  A simulation kernel that sums in another order may move a report's
``max_excursion`` or the run in their last bits and so the documents line;
the printed lines show whether a documents difference is theirs (compare
the violation counts and the excursions, or the simulate hashes) or can be
ruled out (they are equal).  The matrix is read only through
indptr/indices/data/shape, so two checkouts that hold it in different
containers print the same synthesis line exactly when every synthesis
step's HiGHS input and answer is bit-identical, and the same lines exactly
when every HiGHS input and answer, every result and every report,
Monte-Carlo's included, and ``plot``'s trajectory and outline are.

With BASE, each checkout is digested in its own interpreter by this script;
both sets of lines are printed with the names of the lines that differ, and
the exit status is 1 if any line differs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np


def _feed(digest, arr) -> None:
    digest.update(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())


def _statuses(basis) -> bytes:
    return bytes(map(int, basis.col_status)) + bytes(map(int, basis.row_status))


def main(checkout: Path) -> None:
    sys.path.insert(0, str(checkout / "src"))
    from distsynth import cli, lp_solver, setgeom, verifier
    from distsynth.setgeom import BoxHullSet

    doc_digest, calls, fixed_w, current = hashlib.sha256(), [], set(), threading.local()
    run, outcome = lp_solver._run, lp_solver._outcome

    def traced_run(p, presolve, basis=None, primal=False, *instance):
        # ``instance`` is the HiGHS instance, in a checkout whose _solve passes
        # one; _solve reads the run with _outcome on the same thread, so the
        # pair shares this call's digest and iteration count through ``current``
        lp = hashlib.sha256()
        if primal:
            fixed_w.add(p)  # a program's first run is its warm or cold primal one
        current.call = [p, lp, 0]
        calls.append(current.call)
        a = p.a
        for arr in (p.c, p.lb, p.b, a.indptr, a.indices, a.data):
            _feed(lp, arr)
        lp.update(repr((p.n_eq, tuple(map(int, a.shape)), presolve, primal, basis is not None)).encode())
        if basis is not None:
            lp.update(_statuses(basis))
        highs = run(p, presolve, basis, primal, *instance)
        if highs is None:
            lp.update(b"rejected")
        return highs

    def traced_outcome(p, highs):
        out = outcome(p, highs)
        lp = current.call[1]
        current.call[2] = out.nit
        lp.update(repr((out.status, out.nit, out.objective, out.dual_objective, out.residual)).encode())
        if out.x is not None:
            _feed(lp, out.x)
        if out.basis is not None:
            lp.update(_statuses(out.basis))
        return out

    lp_solver._run, lp_solver._outcome = traced_run, traced_outcome

    def report(spec, doc) -> None:
        doc_digest.update(repr(cli.cmd_verify(spec, doc)).encode())

    def load(path: Path) -> dict:
        with open(path) as fh:
            return json.load(fh)

    specs = [
        cli.parse_spec(load(checkout / "specs" / "illustrative.json")),
        cli.cmd_reduce(load(checkout / "specs" / "reduced_order_plant.json")),
    ]
    for n_x in (3, 6):
        for seed in (0, 1):
            spec = cli.cmd_gen(n_x, 2, 2, 0.7, seed)
            spec.options.restarts = 2
            specs.append(spec)
    for spec in specs:
        stored = cli._to_jsonable(cli.cmd_synth(spec).to_dict())
        del stored["timing"]
        doc_digest.update(json.dumps(stored, sort_keys=True).encode())
        doc = cli.ResultDoc.from_dict(stored)
        report(spec, doc)
        stored.pop("witness")
        report(spec, cli.ResultDoc.from_dict(stored))
    frozen = cli.ResultDoc.from_dict(load(checkout / "perfbench" / "data" / "illustrative_result.json"))
    report(specs[0], frozen)
    reports = []
    for factor in (1.0, 3.0):
        W = BoxHullSet(factor * frozen.W.centers, factor * frozen.W.halfwidths)
        mc = verifier.monte_carlo(specs[0].sys, W, specs[0].Y, 2000, 4, np.random.default_rng(0))
        doc_digest.update(repr(mc).encode())
        reports.append(f"monte-carlo-{factor:g}W {mc!r}")
    trajectory = hashlib.sha256()
    origin, rng = np.zeros(specs[0].sys.n_x), np.random.default_rng(specs[0].options.seed)
    for arr in setgeom.simulate(specs[0].sys, frozen.W, origin, 2000, rng):
        _feed(trajectory, arr)
        _feed(doc_digest, arr)
    reports.append(f"simulate {trajectory.hexdigest()}")
    outline = hashlib.sha256()
    _feed(outline, cli.reachable_outline(specs[0].sys, frozen.params, frozen.W))
    reports.append(f"outline {outline.hexdigest()}")
    for name, kind in (("synthesis", False), ("fixed-W", True)):
        runs = [(d.digest(), nit) for p, d, nit in calls if (p in fixed_w) is kind]
        digests = sorted(digest for digest, _ in runs)
        nit = sum(nit for _, nit in runs)
        print(f"{name} runs {len(digests)} nit {nit} lp {hashlib.sha256(b''.join(digests)).hexdigest()}")
    print(f"documents {doc_digest.hexdigest()}")
    print("\n".join(reports))


def compare(checkout: Path, base: Path) -> int:
    """Print the lines of ``checkout`` and of ``base``, each digested in its own
    interpreter; 0 if they are the same, else 1."""
    lines = []
    for path in (checkout, base):
        run = subprocess.run([sys.executable, __file__, str(path)], capture_output=True, text=True)
        print(f"{path}\n{run.stdout}{run.stderr}", end="")
        if run.returncode:
            return 1
        lines.append(run.stdout)
    differ = [a.split()[0] for a, b in zip(*(out.splitlines() for out in lines)) if a != b]
    print(f"different: {' '.join(differ)}" if differ else "identical")
    return int(bool(differ))


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    paths = [Path(arg).resolve() for arg in sys.argv[1:]]
    if len(paths) == 1:
        main(paths[0])
    else:
        sys.exit(compare(*paths))
