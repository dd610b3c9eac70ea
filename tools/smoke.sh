#!/usr/bin/env bash
# Smoke checks: every demo runs, and the CLI's singularity demo, an override
# refusal, a plan too large for memory, the same plan with a --steps
# override, a capped sweep and an empty --etas behave as documented.  Run from the repository
# root; outputs go under OUT_DIR:
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

python -m hamid.cli demo singularity --out "$out/demo" > "$out/demo.txt"
cat "$out/demo.txt"
grep -q "numerical rank: 3" "$out/demo.txt"

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
echo "smoke: ok"
