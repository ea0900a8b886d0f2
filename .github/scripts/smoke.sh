#!/usr/bin/env bash
# End-to-end smoke test of the command line, run from the repository root.
#
# usage: bash .github/scripts/smoke.sh distsynth
#        PYTHONPATH=src bash .github/scripts/smoke.sh "python -m distsynth"
#
# The argument is the command that runs distsynth; it is split on spaces.
# Outputs go to ci-out/.  Every synth is followed by check_result.py and a
# verify; every result is verified again without its witness (one coverage LP
# over all vertices), whose margins must not fall below the witnessed ones,
# and the frozen result, written before witnesses existed, is verified too.
# The mapped plant's l = 151 gives the largest joint distance LP and coverage
# LP, and the generated problem's 5-box hull the widest blended-box rows of
# both; plotting it runs BoxHullSet.corners and the support-point kernel.
# Both plots' simulated trajectories must stay in Y.
# A generated problem is synthesized twice with restarts, which run on threads,
# and both results must agree.  A one-dimensional generated problem gives the
# smallest blocks the LP builders make: 1 x 1 Kronecker factors and a two-vertex Y.
# The illustrative spec with one box runs the tie-break at every Q-step.
set -euxo pipefail

read -r -a ds <<< "$1"
out=ci-out
mkdir -p "$out"

strip_witness() {
    python -c "import json, sys; d = json.load(open(sys.argv[1])); del d['witness']; json.dump(d, open(sys.argv[2], 'w'))" "$1" "$2"
}

# the stripped result's coverage LP finds each vertex's least inflation of the
# widths, the best any point achieves, so every vertex-i margin of its verify
# must be at least the witnessed verify's minus 1e-9; a smaller one is a solver
# fault.  Arguments: spec, result with witness, the same result stripped.
check_margins() {
    python -c "import json, sys; from distsynth import cli; spec = cli.parse_spec(json.load(open(sys.argv[1]))); witnessed, stripped = ({c.name: c.margin for c in cli.cmd_verify(spec, cli.ResultDoc.from_dict(json.load(open(p)))).checks if c.name.startswith('vertex-')} for p in sys.argv[2:]); assert witnessed and witnessed.keys() == stripped.keys(), 'vertex checks differ'; low = {k: stripped[k] - witnessed[k] for k in witnessed if stripped[k] < witnessed[k] - 1e-9}; assert not low, f'stripped margins below the witnessed ones: {low}'" "$1" "$2" "$3"
}

# plot simulates 2000 = 62 * 32 + 16 steps from the origin, so rollout runs its
# 32-step blocks and a shorter last one: every output row must meet
# G y <= g + 1e-8 of the spec's constraints
check_trajectory() {
    python -c "import json, sys, numpy as np; c = json.load(open(sys.argv[1]))['constraints']; Y = np.loadtxt(sys.argv[2], delimiter=',', ndmin=2); assert Y.shape == (2000, 2), Y.shape; assert np.all(Y @ np.array(c['G']).T <= np.array(c['g']) + 1e-8), 'trajectory leaves Y'" "$1" "$2"
}

"${ds[@]}" params specs/illustrative.json --out "$out/params.json"
"${ds[@]}" synth specs/illustrative.json --out "$out"
python .github/scripts/check_result.py "$out/result.json"
"${ds[@]}" verify specs/illustrative.json "$out/result.json"
strip_witness "$out/result.json" "$out/no-witness.json"
"${ds[@]}" verify specs/illustrative.json "$out/no-witness.json"
check_margins specs/illustrative.json "$out/result.json" "$out/no-witness.json"
"${ds[@]}" verify specs/illustrative.json perfbench/data/illustrative_result.json
python -m distsynth verify specs/illustrative.json "$out/result.json"
"${ds[@]}" plot specs/illustrative.json "$out/result.json" --out "$out/plots"
check_trajectory specs/illustrative.json "$out/plots/trajectory.csv"

# one box: unit weights, so every Q-step ties and the alternation repeats its
# first P-step from that step's own basis
"${ds[@]}" synth specs/illustrative.json --N 1 --out "$out/one-box"
python .github/scripts/check_result.py "$out/one-box/result.json"
"${ds[@]}" verify specs/illustrative.json "$out/one-box/result.json"

"${ds[@]}" reduce specs/reduced_order_plant.json --out "$out/mapped.json"
"${ds[@]}" params "$out/mapped.json"
"${ds[@]}" synth "$out/mapped.json" --out "$out/mapped"
python .github/scripts/check_result.py "$out/mapped/result.json"
"${ds[@]}" verify "$out/mapped.json" "$out/mapped/result.json"
strip_witness "$out/mapped/result.json" "$out/mapped/no-witness.json"
"${ds[@]}" verify "$out/mapped.json" "$out/mapped/no-witness.json"
check_margins "$out/mapped.json" "$out/mapped/result.json" "$out/mapped/no-witness.json"

"${ds[@]}" gen --nx 3 --nw 2 --ny 2 --rho 0.7 --out "$out/gen.json"
"${ds[@]}" synth "$out/gen.json" --out "$out/gen"
python .github/scripts/check_result.py "$out/gen/result.json"
"${ds[@]}" verify "$out/gen.json" "$out/gen/result.json"
strip_witness "$out/gen/result.json" "$out/gen/no-witness.json"
"${ds[@]}" verify "$out/gen.json" "$out/gen/no-witness.json"
check_margins "$out/gen.json" "$out/gen/result.json" "$out/gen/no-witness.json"
"${ds[@]}" plot "$out/gen.json" "$out/gen/result.json" --out "$out/gen/plots"
check_trajectory "$out/gen.json" "$out/gen/plots/trajectory.csv"

# refine runs its restarts on threads: two runs with restarts must agree in
# every field but timing, whichever thread finishes first
"${ds[@]}" gen --nx 6 --nw 2 --ny 2 --rho 0.7 --seed 1 --out "$out/restarts.json"
for run in a b; do
    "${ds[@]}" synth "$out/restarts.json" --restarts 2 --out "$out/restarts-$run"
done
python .github/scripts/check_result.py "$out/restarts-a/result.json"
python -c "import json, sys; a, b = (json.load(open(p)) for p in sys.argv[1:]); [d.pop('timing') for d in (a, b)]; assert a == b, 'two runs with restarts differ'" "$out/restarts-a/result.json" "$out/restarts-b/result.json"

"${ds[@]}" gen --nx 1 --nw 1 --ny 1 --rho 0.7 --out "$out/gen1.json"
"${ds[@]}" synth "$out/gen1.json" --out "$out/gen1"
python .github/scripts/check_result.py "$out/gen1/result.json"
"${ds[@]}" verify "$out/gen1.json" "$out/gen1/result.json"
strip_witness "$out/gen1/result.json" "$out/gen1/no-witness.json"
"${ds[@]}" verify "$out/gen1.json" "$out/gen1/no-witness.json"
check_margins "$out/gen1.json" "$out/gen1/result.json" "$out/gen1/no-witness.json"

# Y = {y1 <= 1, y2 <= 1, y1 + y2 <= 1.5} has two vertices and a ray: vertex
# enumeration rejects it by its ray rule (null_space's rank rule), exit 3,
# with no LP to write
python -c "import json; d = json.load(open('specs/illustrative.json')); d['constraints'] = {'G': [[1, 0], [0, 1], [1, 1]], 'g': [1, 1, 1.5]}; json.dump(d, open('$out/unbounded.json', 'w'))"
code=0
"${ds[@]}" synth "$out/unbounded.json" --out "$out/unbounded" 2> "$out/unbounded.err" || code=$?
cat "$out/unbounded.err"
test "$code" -eq 3
grep -q unbounded "$out/unbounded.err"
test ! -e "$out/unbounded/failed_lp.lp"

# every listed vertex must meet G v <= g + 1e-9, the rule enumerated vertices
# meet: exit 2
python -c "import json; d = json.load(open('specs/illustrative.json')); d['constraints']['vertices'] = [[5, 5], [-5, 5], [0, -5]]; json.dump(d, open('$out/outside.json', 'w'))"
code=0
"${ds[@]}" synth "$out/outside.json" --out "$out/outside" 2> "$out/outside.err" || code=$?
cat "$out/outside.err"
test "$code" -eq 2
grep -q "outside the constraint set" "$out/outside.err"
test ! -e "$out/outside/failed_lp.lp"

# a negative seed fails the seed option's "integer >= 0" rule before any draw: exit 2
code=0
"${ds[@]}" gen --nx 2 --nw 1 --ny 1 --rho 0.5 --seed -1 --out "$out/negative-seed.json" || code=$?
test "$code" -eq 2
test ! -e "$out/negative-seed.json"

# the alternation's stopping rule is no option: a spec that lists zeta exits 2
# before any LP runs
python -c "import json; d = json.load(open('specs/illustrative.json')); d['options']['zeta'] = 1e-4; json.dump(d, open('$out/zeta.json', 'w'))"
code=0
"${ds[@]}" synth "$out/zeta.json" --out "$out/zeta" 2> "$out/zeta.err" || code=$?
cat "$out/zeta.err"
test "$code" -eq 2
grep -q "unknown option 'zeta'" "$out/zeta.err"
test ! -e "$out/zeta/result.json"

# nor is the parameter search's horizon budget: a spec that lists s_max exits 2
python -c "import json; d = json.load(open('specs/illustrative.json')); d['options']['s_max'] = 1000; json.dump(d, open('$out/s_max.json', 'w'))"
code=0
"${ds[@]}" synth "$out/s_max.json" --out "$out/s_max" 2> "$out/s_max.err" || code=$?
cat "$out/s_max.err"
test "$code" -eq 2
grep -q "unknown option 's_max'" "$out/s_max.err"
test ! -e "$out/s_max/result.json"

# an input that cannot be read and an --out that cannot be written exit 2 with
# an error line, not a traceback
code=0
"${ds[@]}" synth specs 2> "$out/directory.err" || code=$?
cat "$out/directory.err"
test "$code" -eq 2
grep -q "^error: cannot read specs" "$out/directory.err"
code=0
"${ds[@]}" plot specs/illustrative.json "$out/result.json" --out "$out/params.json" 2> "$out/plot-out.err" || code=$?
cat "$out/plot-out.err"
test "$code" -eq 2
grep -q "^error: cannot write" "$out/plot-out.err"
