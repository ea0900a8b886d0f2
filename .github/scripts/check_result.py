"""Assert what every result.json of the CI smoke runs must state.

usage: python .github/scripts/check_result.py <result.json>

The objective is the exact distance at l, which is sum(epsilon), and the
alternation's last value at l0 <= l bounds it from above.  The budget tail
starts at 1 <= t0 <= s.  The witness holds box weights (vertices, l + 1, N),
each group's summing to 1, and blended points (vertices, l + 1, n_w); the
vertices are those with a certificate.  The history holds a P-step and a
Q-step value and p_nit one P-step count per iteration of the run reported.
"""

import json
import sys

import numpy as np

with open(sys.argv[1]) as fh:
    d = json.load(fh)
o = d["objective"]
assert d["l0"] <= d["l"], "l0 > l"
assert 1 <= d["t0"] <= d["params"]["s"], "t0 outside 1..s"
assert abs(o - sum(d["epsilon"])) <= 1e-9 * max(1.0, o), "objective != sum(epsilon)"
assert d["history"][-1] >= o - 1e-9, "history below objective"
assert len(d["history"]) == 2 * d["iterations"], "history is not two values per iteration"
assert len(d["p_nit"]) == d["iterations"], "p_nit is not one count per iteration"
n_v = sum(name.startswith("vertex-") for name in d["certificates"])
boxes = d["W"]["boxes"]
weights, points = np.array(d["witness"]["weights"]), np.array(d["witness"]["points"])
groups = (n_v, d["l"] + 1)
assert weights.shape == groups + (len(boxes),), f"witness weights {weights.shape} != {groups + (len(boxes),)}"
assert points.shape == groups + (len(boxes[0]["center"]),), f"witness points {points.shape}"
assert np.all(np.abs(weights.sum(axis=2) - 1.0) <= 1e-9), "witness weights do not sum to 1"
