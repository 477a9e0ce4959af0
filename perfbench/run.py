#!/usr/bin/env python3
"""rlattack benchmark: four MiniPong workloads against the public library API.

    python3 perfbench/run.py --workload craft_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds perfbench_driver and
the library from source into .bench_build/ and trains the pinned artefacts
the attack workloads load (neither is timed). Each run then:

  * times set-up in SETUP_REPEATS fresh driver processes (median);
  * runs the workload in its own child process under a deadline, one pass
    after another until --seconds have passed; pass p of seed s is a pure
    function of (s, p), and its digest must match reference.json whenever
    the reference holds that pass;
  * prints every metric by name with its unit, then, as the last line, one
    JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics with tracing and forensics off.
--trace 1 runs a plain and a traced child for half of --seconds each and
reports the per-layer metrics (attribution.py). README.md documents the
workloads and metrics.
"""
import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import attribution

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
CACHE = WORK / "perfbench-cache"
RESULTS = WORK / "perfbench-results"
DRIVER = BUILD / "perfbench_driver"
REFERENCE = HERE / "reference.json"

# Operations one pass attempts: episodes for the attack workloads, training
# stages (victim, traces, Algorithm 1) for learn.
OPS_PER_PASS = {"craft_grid": 30, "bomb_grid": 72, "live_attack": 2, "learn": 3}
PINNED_FILES = [
    "mini_pong_dqn.ckpt", "mini_pong_dqn.ckpt.meta",
    "mini_pong_rainbow.ckpt", "mini_pong_rainbow.ckpt.meta",
    "seq2seq_mini_pong_dqn_m1.ckpt", "seq2seq_mini_pong_dqn_m1.meta",
    "seq2seq_mini_pong_dqn_m10.ckpt", "seq2seq_mini_pong_dqn_m10.meta",
]
SETUP_REPEATS = 7
POOL_THREADS = 1
# Frame percentiles are taken per chunk of consecutive decision intervals,
# and a chunk holds enough frames for ten beyond p99.
FRAME_CHUNK = 1000
# Build and preparation together stay inside the 900 s a checkout's first
# run may take; a set-up process normally takes about 10 ms.
BUILD_TIMEOUT_S = 400
PREPARE_TIMEOUT_S = 400
SETUP_TIMEOUT_S = 10
# A pass that starts just before --seconds runs to its end: the longest
# pass (craft_grid) takes about 3 s on a 4-vCPU Xeon, so this leaves a wide
# margin and still ends every run inside 180 s.
RUN_MARGIN_S = 60
UNITS = {"setup_s": "s", "pass_s": "s", "steps_per_s": "steps/s",
         "frame_p50_ms": "ms", "frame_p99_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """Set-up failure: the run ends without a result line."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env(extra=None):
    """The driver's environment: no inherited RLATTACK_* switch may change
    the measured configuration. The GEMM pool gets one thread: on the 4-vCPU
    host the benchmark was tuned on, a 4-thread pool made every workload
    but learn slower and several times noisier (README.md)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RLATTACK_")}
    env["RLATTACK_LOG_LEVEL"] = "warn"
    env["RLATTACK_THREADS"] = str(POOL_THREADS)
    env.update(extra or {})
    return env


def fixed_layout():
    """Turns off address-space randomisation in the child (Linux
    personality ADDR_NO_RANDOMIZE): GEMM speed depends on buffer alignment,
    and a layout that changes per process made per-frame times differ by
    ~10 % between runs of the same seed."""
    ctypes.CDLL(None, use_errno=True).personality(0x0040000)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    steps = [] if (BUILD / "CMakeCache.txt").exists() else [configure]
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc())])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                raise BenchError("build timed out")
            if rc != 0:
                raise BenchError(f"build failed; see {BUILD / 'build.log'}")


def run_driver(args, timeout, extra_env=None):
    """Runs the driver to completion or the deadline. Returns its @pb
    events, exit code (None on timeout) and stderr."""
    proc = subprocess.Popen([str(DRIVER)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=WORK,
                            env=child_env(extra_env), preexec_fn=fixed_layout)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    events = []
    for line in out.splitlines():
        if line.startswith("@pb "):
            try:
                events.append(json.loads(line[4:]))
            except json.JSONDecodeError:
                pass  # a line cut short by a crash
    return events, code, err


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {"artefacts": {}, "digests": {}}


def pinned_hashes():
    pinned = CACHE / "pinned"
    return {name: sha256(pinned / name) for name in PINNED_FILES
            if (pinned / name).is_file()}


def ensure_artefacts(reference):
    """Prepares the pinned artefacts once per checkout and refuses to go on
    when they differ from the hashes recorded at preparation, or from the
    committed reference for the active GEMM kernel."""
    manifest_path = CACHE / "manifest.json"
    manifest = None
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("files") != pinned_hashes():
            log("perfbench: pinned artefacts changed since preparation; "
                "preparing them again")
            manifest = None
    if manifest is None:
        shutil.rmtree(CACHE / "pinned", ignore_errors=True)
        CACHE.mkdir(parents=True, exist_ok=True)
        log("perfbench: preparing pinned artefacts (untimed, once per "
            "checkout)")
        t0 = time.monotonic()
        events, code, err = run_driver(["prepare", "--cache", str(CACHE)],
                                       PREPARE_TIMEOUT_S)
        if code != 0:
            raise BenchError("artefact preparation failed:\n" + err[-2000:])
        stamp = next(e for e in events if e["event"] == "stamp")
        prepared = next(e for e in events if e["event"] == "prepared")
        manifest = {"kernel": stamp["kernel"], "files": pinned_hashes(),
                    "prepared": prepared,
                    "prepare_s": round(time.monotonic() - t0, 1)}
        if sorted(manifest["files"]) != sorted(PINNED_FILES):
            raise BenchError("artefact preparation left files missing")
        manifest_path.write_text(json.dumps(manifest, indent=1))
    want = reference["artefacts"].get(manifest["kernel"])
    if want is not None and want != manifest["files"]:
        bad = sorted(k for k in want if want[k] != manifest["files"].get(k))
        raise BenchError("pinned artefacts differ from reference.json for "
                         f"kernel {manifest['kernel']}: {', '.join(bad)}")
    if want is None:
        log(f"perfbench: no reference artefacts for kernel "
            f"{manifest['kernel']}; artefacts checked for changes only")
    return manifest


def source_digest():
    """Content hash of src/: the checkout the benchmark runs in need not be
    a git repository, so this stands in for the commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def measure_setup(workload):
    """Process start to ready, seen from here: spawn, load, static and
    first-use initialisation, Zoo construction and artefact loading, up to
    the driver's "setup" line. Median over SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [str(DRIVER), "setup", "--workload", workload, "--cache",
             str(CACHE)], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, cwd=WORK, env=child_env(), preexec_fn=fixed_layout)
        ready = None
        for line in proc.stdout:
            if line.startswith("@pb ") and '"event": "setup"' in line:
                ready = time.monotonic() - t0
        try:
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        if code != 0 or ready is None:
            raise BenchError(f"set-up of {workload} failed (exit {code})")
        times.append(ready)
    return statistics.median(times), times


def account(workload, events, code, digests):
    """Checks a child's passes. A pass fails when its output check fails; a
    crash or a missed deadline fails the pass in flight (or, before any
    pass, the set-up stage). Returns the finished passes (their timings
    stand whether or not their output was right), the attempted and failed
    operations, the failures and the number of digests checked."""
    per_pass = OPS_PER_PASS[workload]
    finished, failures = [], []
    attempted = failed = checked = 0
    begun = sum(1 for e in events if e["event"] == "begin")
    for p in (e for e in events if e["event"] == "pass"):
        attempted += per_pass
        problem = None
        want = digests.get(str(int(p["seed"])))
        if p["attempted"] != per_pass:
            problem = f"attempted {p['attempted']} operations"
        elif p["steps"] <= 0 or p["wall_s"] <= 0 or p["step_wall_s"] <= 0:
            problem = "no work recorded"
        elif want is not None and want != p["digest"]:
            problem = f"digest {p['digest']} != reference {want}"
        if problem:
            failed += per_pass
            failures.append(f"pass {p['pass']}: {problem}")
        checked += want is not None
        if p["steps"] > 0 and p["wall_s"] > 0 and p["step_wall_s"] > 0:
            finished.append(p)
    passes = sum(1 for e in events if e["event"] == "pass")
    if code != 0 or begun > passes:
        attempted += per_pass
        failed += per_pass
        why = "missed its deadline" if code is None else f"exited {code}"
        failures.append(f"driver {why} after {passes} passes")
    return finished, attempted, failed, failures, checked


def sum_passes(passes):
    """Field-wise sum of the numeric fields of pass records (the host count
    is a maximum)."""
    total = {}
    for p in passes:
        for k, v in p.items():
            if isinstance(v, (int, float)):
                total[k] = total.get(k, 0.0) + v
    total["hosts"] = max(p["hosts"] for p in passes)
    total["passes"] = len(passes)
    return total


def frame_chunks(frames):
    chunks = [frames[i:i + FRAME_CHUNK]
              for i in range(0, len(frames), FRAME_CHUNK)]
    if len(chunks) > 1 and len(chunks[-1]) < FRAME_CHUNK:
        last = chunks.pop()
        chunks[-1] += last
    return chunks


def interquartile_mean(values):
    """Mean of the middle half: a burst of noise from other tenants of the
    host moves the samples it hits out of the mean, while the rest still
    average (passes differ in length, and on learn in the chosen n)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def e2e_metrics(good, end, setup_s):
    """Interquartile means over passes and over frame chunks. A child that
    was killed printed no end record; its peak RSS is then read from the
    largest child this process waited for."""
    frames = [f for p in good for f in p["frame_ms"]]
    chunks = frame_chunks(frames)
    return {
        "setup_s": setup_s,
        "pass_s": interquartile_mean(p["wall_s"] for p in good),
        "steps_per_s": interquartile_mean(p["steps"] / p["step_wall_s"]
                                          for p in good),
        "frame_p50_ms": interquartile_mean(quantile(c, 0.50) for c in chunks),
        "frame_p99_ms": interquartile_mean(quantile(c, 0.99) for c in chunks),
        "peak_rss_mb": (end["peak_rss_mb"] if end else
                        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                        / 1024.0),
    }, len(frames)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS_PER_PASS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--act-delay-us", type=float, default=0.0,
                        help="busy delay added to every victim query "
                             "(attribution self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        reference = load_reference()
        manifest = ensure_artefacts(reference)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    kernel = manifest["kernel"]
    digests = reference["digests"].get(kernel, {}).get(args.workload, {})
    delay = (["--act-delay-us", str(args.act_delay_us)]
             if args.act_delay_us > 0 else [])
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cache", str(CACHE)] + delay

    try:
        if args.trace == 0:
            setup_s, setup_all = measure_setup(args.workload)
            events, code, err = run_driver(
                ["run", "--seconds", str(args.seconds)] + common,
                args.seconds + RUN_MARGIN_S)
            runs = [(events, code, err)]
        else:
            # A plain and a traced child, half the time each, run the same
            # passes: the traced one gives the per-layer split, the passes
            # both finished give the tracing overhead.
            trace_file = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
            metrics_file = RESULTS / f"{args.workload}-seed{args.seed}.metrics.json"
            RESULTS.mkdir(parents=True, exist_ok=True)
            for f in (trace_file, metrics_file):
                f.unlink(missing_ok=True)
            replay = ["--replay-search", "1"] if args.workload == "learn" else []
            half = ["run", "--seconds", str(args.seconds / 2)] + common
            plain = run_driver(half + replay, args.seconds / 2 + RUN_MARGIN_S)
            traced = run_driver(
                half, args.seconds / 2 + RUN_MARGIN_S,
                {"RLATTACK_TRACE_OUT": str(trace_file),
                 "RLATTACK_METRICS_OUT": str(metrics_file)})
            runs = [plain, traced]
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    attempted = failed = checked = 0
    failures, goods, ends, stamps, setups = [], [], [], [], []
    for events, code, err in runs:
        finished, a, f, why, c = account(args.workload, events, code, digests)
        attempted, failed, checked = attempted + a, failed + f, checked + c
        failures += why
        goods.append(finished)
        ends.append(next((e for e in events if e["event"] == "end"), None))
        stamps.append(next((e for e in events if e["event"] == "stamp"), {}))
        setups.append(next((e for e in events if e["event"] == "setup"), {}))
        if why and err:
            log(err[-2000:])
    for f in failures:
        log(f"perfbench: FAILED {f}")
    if any(not g for g in goods) or (args.trace == 1 and ends[1] is None):
        log("perfbench: no finished pass to report")
        return 1

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": nproc(), "cpu_model": cpu_model(), "kernel": kernel,
        "RLATTACK_THREADS": child_env()["RLATTACK_THREADS"],
        "pool_threads": stamps[0].get("pool_threads"),
        "rendezvous_hosts": max(p["hosts"] for p in goods[0]),
        "eval_batch_width": stamps[0].get("eval_batch_width"),
        "build_type": "Release", "compiler": stamps[0].get("compiler"),
        "commit": commit(), "src_digest": source_digest(),
        "load": "closed loop from one thread of one driver process; the "
                "rendezvous hosts the library spawns are part of the "
                "measured program",
        "digests_checked": checked,
        "digests": [[int(p["seed"]), p["digest"]] for g in goods for p in g],
    }
    if args.trace == 0:
        metrics, frames = e2e_metrics(goods[0], ends[0], setup_s)
        stamp.update(passes=len(goods[0]), frames=frames, setup_runs=setup_all)
        units = UNITS
    else:
        plain_walls = {p["pass"]: p["wall_s"] for p in goods[0]}
        both = [p for p in goods[1] if p["pass"] in plain_walls]
        overhead = (sum(p["wall_s"] for p in both) /
                    sum(plain_walls[p["pass"]] for p in both) - 1.0
                    if both else 0.0)
        metrics, units, report = attribution.per_layer(
            args.workload, sum_passes(goods[0]),
            dict(sum_passes(goods[1]), load_s=setups[1].get("load_s", 0.0),
                 overhead=overhead), ends[1],
            json.loads(metrics_file.read_text()),
            json.loads(trace_file.read_text()), nproc())
        print(report)

    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':32s} {failed / max(attempted, 1):14.6g} ratio")
    for key in ("nproc", "cpu_model", "kernel", "RLATTACK_THREADS",
                "rendezvous_hosts", "compiler", "commit", "src_digest"):
        print(f"# {key}: {stamp[key]}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"stamp": stamp, "result": result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
