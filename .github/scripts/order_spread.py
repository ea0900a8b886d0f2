"""Spread of the synthesized distance over the row orders of the step programs.

usage: python .github/scripts/order_spread.py CHECKOUT [BASE]

Imports distsynth from CHECKOUT/src and runs ``cmd_synth`` at restarts 0
(the alternation from spread weights, then the exact distance LP of its W)
on specs/illustrative.json, on the reduced specs/reduced_order_plant.json and
on ``cmd_gen(n_x, 2, 2, 0.7, g)`` for n_x 3 and 6 and g = 0..11, which hold
the four ``gen-batch`` problems at restarts 0 (g 0 and 1).  Each problem runs
under ORDERS fixed row orders: order k permutes the inequality rows and,
apart from them, the equality rows of every P-step and Q-step program by
permutations drawn from ``numpy.random.default_rng([k, rows, equalities])``,
so every step of one program kind gets the same permutation and its warm
start basis stays in its rows' order.  A permutation leaves the program the
same; only the optimum HiGHS picks among degenerate ones can move.  The
distance LP is not permuted: its optimal value is unique.

Prints one line per problem with the min, mean and max of its distance
d_l over the orders and their relative spread, (max - min) / min, then the
sums of the mins, means and maxes.  With BASE, each checkout runs in its own
interpreter; both tables are printed, then the order-mean sums, the problem
whose order-mean grew the most and each problem whose order-mean differs.
It informs and never fails: the exit status is 0 unless a run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ORDERS = 4
GEN_STATES = (3, 6)
GEN_SEEDS = range(12)


def problems(checkout: Path, cli):
    """(name, spec) of every problem, each at restarts 0."""

    def load(name: str) -> dict:
        with open(checkout / "specs" / name) as fh:
            return json.load(fh)

    specs = [("illustrative", cli.parse_spec(load("illustrative.json")))]
    specs.append(("long-horizon", cli.cmd_reduce(load("reduced_order_plant.json"))))
    specs += [(f"gen-{n_x}-{g}", cli.cmd_gen(n_x, 2, 2, 0.7, g)) for n_x in GEN_STATES for g in GEN_SEEDS]
    for _, spec in specs:
        spec.options.restarts = 0
    return specs


def permuted(lp, order: int, lp_solver):
    """``lp`` with its inequality rows, and apart from them its equality rows,
    in the fixed order ``order`` draws for a program of that shape."""
    n_ub, n_eq = lp.n_ub, lp.n_eq
    rng = np.random.default_rng([order, n_ub + n_eq, n_eq])
    perm = np.concatenate((rng.permutation(n_ub), n_ub + rng.permutation(n_eq)))
    a = lp.a
    counts = np.diff(a.indptr)[perm]
    starts = np.repeat(a.indptr[:-1][perm] - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    entries = starts + np.arange(counts.sum())
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(a.indptr.dtype)
    matrix = lp_solver.Csr(indptr, a.indices[entries], a.data[entries], a.shape)
    return lp_solver.LpProblem(lp.c, matrix, lp.b[perm], n_eq, lp.lb)


def table(checkout: Path) -> dict[str, list[float]]:
    """Each problem's distances, one per order."""
    sys.path.insert(0, str(checkout / "src"))
    from distsynth import cli, lp_solver, synthesizer

    solve = synthesizer.solve_lp
    spread = {}
    for name, spec in problems(checkout, cli):
        spread[name] = []
        for order in range(ORDERS):
            # any further argument (the HiGHS instance, where the checkout passes one) goes through
            synthesizer.solve_lp = lambda lp, order=order, **kwargs: solve(permuted(lp, order, lp_solver), **kwargs)
            try:
                spread[name].append(float(cli.cmd_synth(spec).objective))
            finally:
                synthesizer.solve_lp = solve
    return spread


def report(spread: dict[str, list[float]]) -> str:
    lines, sums = [], [0.0, 0.0, 0.0]
    for name, values in spread.items():
        low, mean, high = min(values), float(np.mean(values)), max(values)
        sums = [total + value for total, value in zip(sums, (low, mean, high))]
        lines.append(f"{name} min {low!r} mean {mean!r} max {high!r} spread {(high - low) / low:.4f}")
    lines.append(f"sum min {sums[0]!r} mean {sums[1]!r} max {sums[2]!r}")
    return "\n".join(lines)


def compare(checkout: Path, base: Path) -> int:
    """Run both checkouts, each in its own interpreter, and print their tables
    and the problems whose order-mean differs."""
    tables = []
    for path in (checkout, base):
        run = subprocess.run([sys.executable, __file__, str(path), "--json"], capture_output=True, text=True)
        if run.returncode:
            print(f"{path}\n{run.stdout}{run.stderr}", end="")
            return 1
        tables.append(json.loads(run.stdout))
        print(f"{path}\n{report(tables[-1])}")
    mean = [{name: float(np.mean(values)) for name, values in t.items()} for t in tables]
    print(f"order-mean sum {sum(mean[0].values())!r} against {sum(mean[1].values())!r}")
    shared = [name for name in mean[0] if name in mean[1]]
    worst = max(shared, key=lambda name: mean[0][name] - mean[1][name])
    print(f"largest growth {worst} {mean[1][worst]!r} -> {mean[0][worst]!r}")
    for name in shared:
        if mean[0][name] != mean[1][name]:
            print(f"differs {name} {mean[1][name]!r} -> {mean[0][name]!r}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[1:] == ["--json"]:
        print(json.dumps(table(Path(args[0]).resolve())))
    elif len(args) == 1:
        print(report(table(Path(args[0]).resolve())))
    elif len(args) == 2:
        sys.exit(compare(*(Path(arg).resolve() for arg in args)))
    else:
        sys.exit(__doc__.split("\n\n")[1])
