"""Digest of every HiGHS input and outcome of the bundled pipelines.

usage: python .github/scripts/lp_digest.py CHECKOUT

Imports distsynth from CHECKOUT/src and runs, in one process, ``cmd_synth``
and then ``cmd_verify`` with and without the stored witness on
specs/illustrative.json, on the reduced specs/reduced_order_plant.json and on
four generated problems (n_x 3 and 6, generator seeds 0 and 1, two inputs,
two outputs, rho 0.7, two restarts), then ``cmd_verify`` of the frozen
perfbench/data/illustrative_result.json.

Every ``lp_solver._run`` call feeds the LP digest with its program (c, lb, b,
n_eq and the matrix's shape and indptr, indices and data, each array with its
dtype) and its presolve, primal and warm-start flags; every ``_outcome`` feeds
it with the status, iteration count, x, objective, dual objective, residual
and final basis.  The document digest covers every result.json field but
``timing`` and every verify report.  The matrix is read only through
indptr/indices/data/shape, so two checkouts that hold it in different
containers print the same three lines exactly when every HiGHS input and
answer, every result and every report is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path


def _feed(digest, arr) -> None:
    digest.update(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())


def main(checkout: Path) -> None:
    sys.path.insert(0, str(checkout / "src"))
    from distsynth import cli, lp_solver

    lp, doc_digest, runs = hashlib.sha256(), hashlib.sha256(), 0
    run, outcome = lp_solver._run, lp_solver._outcome

    def traced_run(p, presolve, basis=None, primal=False):
        nonlocal runs
        runs += 1
        a = p.a
        for arr in (p.c, p.lb, p.b, a.indptr, a.indices, a.data):
            _feed(lp, arr)
        lp.update(repr((p.n_eq, tuple(map(int, a.shape)), presolve, primal, basis is not None)).encode())
        highs = run(p, presolve, basis, primal)
        if highs is None:
            lp.update(b"rejected")
        return highs

    def traced_outcome(p, highs):
        out = outcome(p, highs)
        lp.update(repr((out.status, out.nit, out.objective, out.dual_objective, out.residual)).encode())
        if out.x is not None:
            _feed(lp, out.x)
        if out.basis is not None:
            lp.update(bytes(map(int, out.basis.col_status)) + bytes(map(int, out.basis.row_status)))
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
    report(specs[0], cli.ResultDoc.from_dict(load(checkout / "perfbench" / "data" / "illustrative_result.json")))
    print(f"runs {runs}")
    print(f"lp {lp.hexdigest()}")
    print(f"documents {doc_digest.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(Path(sys.argv[1]).resolve())
