"""Assert what every result.json of the CI smoke runs must state.

usage: python .github/scripts/check_result.py <result.json>

The objective is the exact distance at l, which is sum(epsilon), and the
alternation's last value at l0 <= l bounds it from above.
"""

import json
import sys

with open(sys.argv[1]) as fh:
    d = json.load(fh)
o = d["objective"]
assert d["l0"] <= d["l"], "l0 > l"
assert abs(o - sum(d["epsilon"])) <= 1e-9 * max(1.0, o), "objective != sum(epsilon)"
assert d["history"][-1] >= o - 1e-9, "history below objective"
