#!/usr/bin/env bash
# Smoke checks: every demo runs, and the CLI's singularity demo (its
# numerical_rank and newton_step_refused summary lines), an override
# refusal, a plan too large for memory, the same plan with a --steps
# override, a capped sweep, an empty --etas and a sweep refused while it
# runs behave as documented; no refused run leaves an output directory.
# Run from the repository root; outputs go under OUT_DIR:
#
#     tools/smoke.sh OUT_DIR
#
# Exits non-zero at the first check that fails.
set -euo pipefail

out="${1:?usage: tools/smoke.sh OUT_DIR}"
mkdir -p "$out"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

for demo in demos/0[1-6]_*.py; do
  echo "== $demo"
  python "$demo"
done

# the demo prints its result once, as the summary lines of every run
python -m hamid.cli demo singularity --out "$out/demo" > "$out/demo.txt"
cat "$out/demo.txt"
grep -qx "  numerical_rank: 3" "$out/demo.txt"
grep -qx "  newton_step_refused: True" "$out/demo.txt"

# an override the kind does not take exits 2: the demo reads no seed
rc=0
python -m hamid.cli demo singularity --seed 3 --out "$out/never" || rc=$?
test "$rc" -eq 2

# a plan whose arrays exceed the machine's memory exits 2 naming its key,
# before any allocation
echo '{"kind": "newton-two-level", "n_steps": 1000000000000000}' > "$out/oversized.json"
rc=0
python -m hamid.cli run "$out/oversized.json" --out "$out/never" 2> "$out/oversized.txt" || rc=$?
cat "$out/oversized.txt"
test "$rc" -eq 2
grep -q "^error: .*n_steps = 1000000000000000" "$out/oversized.txt"

# an override is written into the config before it is checked: --steps
# replaces the file's refused step count
python -m hamid.cli run "$out/oversized.json" --steps 200 --out "$out/overridden"
grep -q '"n_steps": 200' "$out/overridden/manifest.json"

# sweep.k_max (--k-max) is the sweep's only Newton iteration cap
python -m hamid.cli sweep --etas 1e-5,1e-3 --n-seeds 1 --k-max 3 --steps 200 --out "$out/sweep"
grep -q '"k_max": 3' "$out/sweep/manifest.json"
grep -q '"max_iters": 3' "$out/sweep/manifest.json"

# an empty --etas is refused, not read as the default etas
rc=0
python -m hamid.cli sweep --etas "" --out "$out/never" 2> "$out/etas.txt" || rc=$?
cat "$out/etas.txt"
test "$rc" -eq 2
grep -q "^error: --etas" "$out/etas.txt"

# a sweep the config check accepts but whose guess overflows the generator
# is refused while it runs, exit 2, before its output directory is made
rc=0
python -m hamid.cli sweep --etas 1e307 --n-seeds 1 --steps 50 --out "$out/never" 2> "$out/overflow.txt" || rc=$?
cat "$out/overflow.txt"
test "$rc" -eq 2
grep -q "^error: the time step, field samples, h0 and h1 overflow" "$out/overflow.txt"

# no refused run above left an output directory
test ! -e "$out/never"
echo "smoke: ok"
