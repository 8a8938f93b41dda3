#!/usr/bin/env bash
# Does the benchmark agree with itself? Runs the untraced command as two
# sets of RUNS runs (same code, same seeds), then compares the two sets'
# medians per (end-to-end metric, workload) against the bounds in
# BENCHMARK.json. Prints a verdict table; exits 1 if any pair of medians
# differs by more than its bound.
#
#   bench/check_repeat.sh [RUNS=3] [SECONDS=run_seconds of BENCHMARK.json]
#
# The table also shows each set's own spread, (max - min) / median. A
# metric whose spread exceeds a tenth needs longer windows or demotion to
# per-layer, not a looser bound.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-3}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
if [ "$runs" -lt 3 ]; then
    echo "check_repeat: a set needs at least 3 runs" >&2
    exit 2
fi

cargo build --offline --release --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/usipc-perfbench"
out=bench/out/repeat
rm -rf "$out"
mkdir -p "$out"

for set in a b; do
    for i in $(seq "$runs"); do
        echo "check_repeat: set $set run $i/$runs (${seconds}s windows)" >&2
        "$bin" run --seed "$i" --seconds "$seconds" >"$out/$set-$i.jsonl"
    done
done

python3 - "$out" <<'EOF'
import glob, json, statistics, sys

out = sys.argv[1]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def load(which):
    values = {}  # (workload, metric) -> one value per run
    for path in sorted(glob.glob(f"{out}/{which}-*.jsonl")):
        for line in open(path):
            row = json.loads(line)
            if "workload" not in row:
                continue  # the host-facts line
            if not row["correct"]:
                sys.exit(f"{path}: {row['workload']} failed {row['failed']} of {row['attempted']}")
            for name, m in row["metrics"].items():
                values.setdefault((row["workload"], name), []).append(m["value"])
    return values

a, b = load("a"), load("b")
spread = lambda v: (max(v) - min(v)) / statistics.median(v) if statistics.median(v) else 0.0
missed = False
print(f"{'workload':<11} {'metric':<14} {'median a':>12} {'median b':>12} {'differ':>8} {'bound':>6} "
      f"{'spread a':>9} {'spread b':>9}  verdict")
for key in a:
    workload, name = key
    ma, mb = statistics.median(a[key]), statistics.median(b[key])
    # Same code on both sides, so a difference either way is noise: take
    # the larger of the two "worse by" shares.
    differ = abs(ma - mb) / min(ma, mb) if min(ma, mb) else 0.0
    bound = spec[name]["bound"]
    miss = differ > bound
    missed |= miss
    wide = max(spread(a[key]), spread(b[key])) > 0.10
    verdict = "MISS" if miss else ("ok, spread > 0.10" if wide else "ok")
    print(f"{workload:<11} {name:<14} {ma:>12.6g} {mb:>12.6g} {differ:>8.4f} {bound:>6.2f} "
          f"{spread(a[key]):>9.4f} {spread(b[key]):>9.4f}  {verdict}")
sys.exit(1 if missed else 0)
EOF
