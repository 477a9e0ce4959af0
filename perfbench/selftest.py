#!/usr/bin/env python3
"""Attribution self-test: an injected single-layer slowdown, from outside.

    python3 perfbench/selftest.py

Adds a busy delay inside the benchmark's victim decorator, sized to about
15 % of bomb_grid's wall time, and passes when all three hold:
  1. the traced report puts the added time in rl.agent: per victim query,
     rl.act_s minus the victim network's layer spans (Conv2D, ReLU,
     DuelingHead) grows by the injected delay, within +-25 %. Taking the
     layer time out of the same run cancels the host's speed drift;
  2. steps_per_s on bomb_grid falls by more than its run-to-run spread;
  3. the seq2seq tail times on craft_grid, as a share of all layer time in
     the same run (Conv2D, Lstm, Dense, NoisyDense, ReLU forward and
     backward, which the delay does not touch), move by no more than their
     run-to-run spread, or 10 % where that spread is smaller. The batched
     seq2seq.encode_s is left out: it is not measured but estimated from a
     timeline sample (attribution.py), and baseline pairs alone differ by
     20-100 % on it.
Each delayed run sits between two baseline runs of the same seed; the
run-to-run spread is the median relative difference of those baseline
pairs (the largest, for check 3). The host drifts by more over the minutes
a whole series takes than over one sandwich, and by enough within one that
checks 1 and 3 compare against same-run quantities. Takes about 7 minutes.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = [1, 2, 3, 4]
SECONDS = 10
SHARE = 0.15
SEQ2SEQ = ["seq2seq.tail_fwd_s", "seq2seq.tail_bwd_s"]
VICTIM_LAYERS = ["Conv2D", "ReLU", "DuelingHead"]
LEAF_LAYERS = ["Conv2D", "Lstm", "Dense", "NoisyDense", "ReLU"]


def run(workload, seed, trace, delay_us=0.0, seconds=SECONDS):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    if delay_us > 0:
        cmd += ["--act-delay-us", f"{delay_us:.3f}"]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         cwd=HERE.parent, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"selftest: {' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"selftest: {workload} seed {seed} failed its output check")
    return {k: v["value"] for k, v in result["metrics"].items()}


def sandwich(workload, trace, delay_us, seeds, seconds=SECONDS):
    """Per seed, the results of a baseline, a delayed and a baseline run."""
    return [[run(workload, seed, trace, d, seconds)
             for d in (0.0, delay_us, 0.0)] for seed in seeds]


def compare(triples, value):
    """Delayed values relative to their baseline mean, and the baseline
    pairs' relative differences."""
    ratios, spreads = [], []
    for b1, d, b2 in ([value(r) for r in t] for t in triples):
        base = (b1 + b2) / 2
        ratios.append(d / base)
        spreads.append(abs(b1 - b2) / base)
    return ratios, spreads


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    return ok


def main():
    base = run("bomb_grid", SEEDS[0], 1)
    delay_us = SHARE * base["wall_s"] / base["rl.act_calls"] * 1e6
    print(f"selftest: {delay_us:.1f} us per victim query "
          f"({base['rl.act_calls']:.0f} queries in a {base['wall_s']:.3f} s "
          f"pass)", flush=True)

    def outside_layers(r):
        """Victim query time outside the victim network's layers, per query,
        in microseconds."""
        layers = sum(r[f"nn.fwd.{l}_s"] for l in VICTIM_LAYERS)
        return (r["rl.act_s"] - layers) / r["rl.act_calls"] * 1e6

    b1, d, b2 = sandwich("bomb_grid", 1, delay_us, SEEDS[:1])[0]
    added = outside_layers(d) - (outside_layers(b1) + outside_layers(b2)) / 2
    ok1 = check("rl.agent takes the added time",
                abs(added / delay_us - 1.0) <= 0.25,
                f"rl.act_s outside the layers +{added:.1f} us per query for "
                f"{delay_us:.1f} us injected")

    ratios, spreads = compare(sandwich("bomb_grid", 0, delay_us, SEEDS),
                              lambda r: r["steps_per_s"])
    fall = 1.0 - statistics.median(ratios)
    spread = statistics.median(spreads)
    ok2 = check("bomb_grid steps_per_s falls beyond its spread",
                fall > spread,
                f"falls {100 * fall:.1f} % (per seed "
                f"{', '.join(f'{100 * (1 - x):.1f}' for x in ratios)}); "
                f"baseline pairs differ by {100 * spread:.1f} % (per seed "
                f"{', '.join(f'{100 * x:.1f}' for x in spreads)})")

    ok3 = True
    craft = sandwich("craft_grid", 1, delay_us, SEEDS[:2], 2 * SECONDS)
    def layer_time(r):
        return sum(r[f"nn.{d}.{l}_s"] for l in LEAF_LAYERS
                   for d in ("fwd", "bwd"))

    for name in SEQ2SEQ:
        ratios, spreads = compare(craft,
                                  lambda r, n=name: r[n] / layer_time(r))
        moved = abs(statistics.median(ratios) - 1.0)
        limit = max(max(spreads), 0.10)
        ok3 &= check(f"craft_grid {name} share unchanged", moved <= limit,
                     f"moved {100 * moved:.1f} % (limit {100 * limit:.1f} %)")
    return 0 if ok1 and ok2 and ok3 else 1


if __name__ == "__main__":
    sys.exit(main())
