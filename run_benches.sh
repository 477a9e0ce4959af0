#!/bin/sh
# Runs every experiment harness sequentially, teeing the combined output.
#
# Timing outputs:
#   bench_times.csv         one row per bench binary: its wall-clock.
#   BENCH_experiments.json  the per-experiment "[timing]" lines the driver
#                           binaries emit (experiment, episode hosts,
#                           episodes, wall seconds), as a JSON baseline.
#   METRICS.json            telemetry export (counters/histograms/spans) of
#                           every binary's run, as a JSON array of the
#                           per-binary objects from metrics-out/.
#   BENCH_craft.json        craft-latency baseline written by
#                           bench_micro_seq2seq across input_steps /
#                           PGD-step sweeps.
cd "$(dirname "$0")" || exit 1
export RLATTACK_BENCH_SCALE=${RLATTACK_BENCH_SCALE:-0.5}
: > bench_output.txt
echo "bench,wall_seconds" > bench_times.csv
rm -rf metrics-out
mkdir -p metrics-out

run_one() {
  echo "=== RUNNING $1 ===" >> bench_output.txt
  _start=$(date +%s.%N)
  "$1" >> bench_output.txt 2>&1
  _status=$?
  _end=$(date +%s.%N)
  echo "=== EXIT $_status $1 ===" >> bench_output.txt
  awk -v a="$_start" -v b="$_end" 'BEGIN { printf "%.2f", b - a }'
}

# Every bench binary must leave a non-empty telemetry export behind; a bench
# that crashed before its exit hook (or a broken exporter) fails the script
# rather than silently shrinking METRICS.json.
_missing_exports=""
for b in build/bench/*; do
  { [ -f "$b" ] && [ -x "$b" ]; } || continue
  wall=$(RLATTACK_METRICS_OUT="metrics-out/$(basename "$b").json" \
         run_one "$b")
  echo "$(basename "$b"),$wall" >> bench_times.csv
  if [ ! -s "metrics-out/$(basename "$b").json" ]; then
    _missing_exports="$_missing_exports $(basename "$b")"
    echo "ERROR: $(basename "$b") produced no metrics export" \
      >> bench_output.txt
  fi
done

# Assemble the per-binary telemetry objects into one METRICS.json array,
# in binary-name order (each object is already valid self-contained JSON).
{
  echo "["
  _first=1
  for m in metrics-out/*.json; do
    [ -f "$m" ] || continue
    [ "$_first" = 1 ] || echo ","
    _first=0
    cat "$m"
  done
  echo "]"
} > METRICS.json

# Record the assembly verdict in CHECKS.json so consumers see a truncated
# METRICS.json as a named failure, not a shorter array.
if command -v python3 >/dev/null 2>&1; then
  RLATTACK_MISSING_EXPORTS="$_missing_exports" python3 - <<'EOF'
import json, os
missing = os.environ.get("RLATTACK_MISSING_EXPORTS", "").split()
report = {"tool": "run_benches.sh",
          "status": "missing_exports" if missing else "ok",
          "missing_exports": missing}
doc = {}
if os.path.exists("CHECKS.json"):
    try:
        doc = json.load(open("CHECKS.json"))
    except ValueError:
        doc = {}
doc["metrics_assembly"] = report
json.dump(doc, open("CHECKS.json", "w"), indent=2)
print("metrics assembly check:", report["status"],
      f"({len(missing)} missing)")
EOF
fi

# Collect the drivers' per-experiment timing lines into a JSON baseline.
# The committed baseline (if any) is kept aside first so the regression
# check below can diff against what the tree shipped with.
[ -f BENCH_experiments.json ] && cp BENCH_experiments.json \
  BENCH_experiments.baseline.json
awk 'BEGIN { print "["; first = 1 }
  /^\[timing\]/ {
    e = h = n = w = ""
    for (i = 2; i <= NF; ++i) {
      split($i, kv, "=")
      if (kv[1] == "experiment") e = kv[2]
      if (kv[1] == "hosts") h = kv[2]
      if (kv[1] == "episodes") n = kv[2]
      if (kv[1] == "wall_s") w = kv[2]
    }
    if (e == "" || h == "" || n == "" || w == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  {\"experiment\": \"%s\", \"hosts\": %s, \"episodes\": %s, \"wall_seconds\": %s}", e, h, n, w
  }
  END { print "\n]" }' bench_output.txt > BENCH_experiments.json

# Wall-clock regression gate: rows matched against the committed baseline by
# (experiment, hosts); >10% slower flags the row. The verdict
# lands in CHECKS.json under "bench_regressions" so run_checks.sh consumers
# see perf and correctness in one place (short sub-second rows are skipped —
# they are scheduler noise at this granularity).
if command -v python3 >/dev/null 2>&1 && \
   [ -f BENCH_experiments.baseline.json ]; then
  python3 - <<'EOF'
import json, os

def rows(path):
    out = {}
    for r in json.load(open(path)):
        key = (r["experiment"], r.get("hosts"))
        out[key] = r["wall_seconds"]
    return out

base = rows("BENCH_experiments.baseline.json")
new = rows("BENCH_experiments.json")
flagged = []
for key, wall in sorted(new.items()):
    ref = base.get(key)
    if ref is None or ref < 1.0:
        continue
    if wall > ref * 1.10:
        flagged.append({
            "experiment": key[0], "hosts": key[1],
            "baseline_wall_seconds": ref, "wall_seconds": wall,
            "slowdown": round(wall / ref, 3),
        })
report = {"tool": "run_benches.sh", "threshold": 1.10,
          "compared_rows": sum(1 for k in new if k in base),
          "status": "regressions" if flagged else "ok",
          "bench_regressions": flagged}
doc = {}
if os.path.exists("CHECKS.json"):
    try:
        doc = json.load(open("CHECKS.json"))
    except ValueError:
        doc = {}
doc["bench"] = report
json.dump(doc, open("CHECKS.json", "w"), indent=2)
print("bench regression check:", report["status"],
      f"({len(flagged)} flagged of {report['compared_rows']} compared)")
for f in flagged:
    print("  REGRESSION", f["experiment"], "hosts", f["hosts"], ":",
          f["baseline_wall_seconds"], "->", f["wall_seconds"], "s")
EOF
fi
if [ -n "$_missing_exports" ]; then
  echo "MISSING_METRICS_EXPORTS:$_missing_exports" >> bench_output.txt
  echo "run_benches.sh: missing metrics exports:$_missing_exports" >&2
  exit 1
fi
echo ALL_BENCHES_DONE >> bench_output.txt
