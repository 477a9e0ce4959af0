#!/usr/bin/env bash
# Correctness-tooling driver: configures, builds and tests every sanitizer /
# static-analysis configuration in one command and writes a machine-parseable
# per-config summary to CHECKS.json.
#
#   ./run_checks.sh                 # full matrix
#   ./run_checks.sh asan checked    # just those configs
#
# Configs:
#   werror   -Wall -Wextra -Wpedantic -Wshadow -Wconversion -Werror over the
#            whole tree (libs, tests, benches, examples, cli); build only
#   asan     AddressSanitizer build + full ctest
#   ubsan    UndefinedBehaviorSanitizer (no recovery) build + full ctest
#   tsan     ThreadSanitizer build + the concurrency-relevant suites
#            (GEMM kernel dispatch, thread pool, episode-parallel drivers)
#   checked  RLATTACK_CHECKED invariant layer compiled in + full ctest,
#            including the checked_invariants_test negative suite
#   tidy     run-clang-tidy over src/, tests/, bench/, apps/, examples/ and
#            tools/ with the repo .clang-tidy; SKIPPED (not failed) when
#            clang-tidy is not on PATH
#   tsa      Clang thread-safety analysis: the whole tree rebuilt with
#            clang++ -DRLATTACK_TSA=ON (-Wthread-safety -Werror=thread-safety)
#            so the RLATTACK_GUARDED_BY/REQUIRES annotations are actually
#            proven; SKIPPED when no clang++ is on PATH
#   tidy-plugin
#            builds the in-tree rlattack-tidy module (tools/rlattack-tidy),
#            runs the rlattack-* checks over the tree and the trip/clean
#            fixture suite (tests/tidy); SKIPPED when clang-tidy or the
#            clang-tidy dev headers are unavailable — the gcc-compilable
#            policy core + selfcheck still build/run in every config
#   metrics  default build + one short instrumented experiment with
#            RLATTACK_METRICS_OUT set; validates the exported METRICS JSON
#            parses and carries the expected kernel/attack/span keys
#   trace    trace suite (lock-free ring emitters) under TSan, then one
#            traced instrumented experiment with RLATTACK_TRACE=1 /
#            RLATTACK_TRACE_OUT; validates the Chrome trace-event JSON
#            parses, carries pool/episode/phase timeline events and that
#            the complete events of each tid nest
#   simd     default build + the kernel, GEMM operand-path, layer
#            (backward vs backward_input), attention-GEMM, craft-path
#            parity and craft parameter-gradient suites run twice, once
#            under RLATTACK_SIMD=avx2 and once under RLATTACK_SIMD=scalar;
#            SKIPPED (not failed) when the host CPU lacks AVX2/FMA
#   rendezvous
#            the episode driver's parity and containment suites
#            (Seq2SeqBatchedCraft*, the *ActBatch* agent suites, the
#            BatchedFiberRendezvous* scheduler suite, the *SerialOracle*
#            driver suite and the *Containment* failure tests) under BOTH
#            ASan and TSan, each run once per available GEMM kernel
#            (RLATTACK_SIMD=avx2/scalar) — episode fibers switch stacks on
#            every query and share one victim and one model through the
#            rendezvous, which memcpy-packs rows around the shared GEMMs, so
#            the stack switches and the pool under the flushes get the
#            memory- and race-checker treatment explicitly
#
# Every filtered run must select at least one test: gtest filters go through
# run_gtest, which fails on an empty selection, and ctest runs with
# --no-tests=error.
#
# Exit status: non-zero if any selected config fails. A skipped tidy step
# (missing tool) does not fail the run; CHECKS.json records it as "skipped"
# so CI environments that do ship clang-tidy can gate on "pass" explicitly.
set -u -o pipefail

cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"
ALL_CONFIGS=(werror asan ubsan tsan checked tidy tsa tidy-plugin metrics trace simd rendezvous)

# Directories the static-analysis steps cover (everything with C++ in it).
TIDY_DIRS=(src tests bench apps examples tools)
CONFIGS=("$@")
if [ ${#CONFIGS[@]} -eq 0 ]; then
  CONFIGS=("${ALL_CONFIGS[@]}")
fi

# TSan runs the suites that exercise the thread pool and the episode-parallel
# reduction; the remaining tests are single-threaded re-runs of the same code
# ASan/UBSan already cover, and TSan's ~10x slowdown makes them poor value.
TSAN_FILTER='Kernels|ExperimentsParallel|ThreadPool|Pool|Parallel|Metrics|Batched|Trace'

LOG_DIR="checks-logs"
mkdir -p "${LOG_DIR}"

declare -A STATUS SECONDS_TAKEN DETAIL

run_logged() {
  # run_logged <logfile> <cmd...>
  local log="$1"
  shift
  "$@" >>"${log}" 2>&1
}

configure_build() {
  # configure_build <name> <builddir> <log> [extra cmake args...]
  local name="$1" dir="$2" log="$3"
  shift 3
  run_logged "${log}" cmake -B "${dir}" -S . "$@" || return 1
  run_logged "${log}" cmake --build "${dir}" -j "${JOBS}" || return 1
}

run_ctest() {
  # run_ctest <builddir> <log> [ctest args...]; a -R that selects no test
  # fails instead of passing vacuously.
  local dir="$1" log="$2"
  shift 2
  (cd "${dir}" && run_logged "../${log}" ctest --output-on-failure \
    --no-tests=error -j "${JOBS}" "$@")
}

run_gtest() {
  # run_gtest <log> <binary> <filter>: every filtered gtest run goes through
  # here. It lists the filter's tests first and fails when the list is
  # empty — a filter that matches nothing would otherwise pass — then runs
  # them. Environment assignments before the call reach the binary; the
  # listing run drops the export paths so only the real run writes them.
  local log="$1" bin="$2" filter="$3" listed
  listed=$(env -u RLATTACK_METRICS_OUT -u RLATTACK_TRACE_OUT \
    "${bin}" --gtest_list_tests --gtest_filter="${filter}" \
    2>>"${log}" | grep -c '^  ') || true
  if [ "${listed:-0}" -eq 0 ]; then
    echo "run_gtest: filter '${filter}' selects no test in ${bin}" >>"${log}"
    return 1
  fi
  echo "--- ${bin} --gtest_filter='${filter}': ${listed} tests" >>"${log}"
  run_logged "${log}" "${bin}" --gtest_filter="${filter}"
}

validate_metrics_json() {
  # validate_metrics_json <file>: the export must parse as JSON and carry
  # the keys the paper-facing drivers report on (kernel flops, attack
  # queries, per-phase spans).
  local json="$1"
  [ -s "${json}" ] || { echo "metrics export ${json} missing/empty"; return 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for section, key in [
    ("counters", "nn.gemm.flops"),
    ("counters", "nn.gemm.calls"),
    ("counters", "attack.queries.gradient"),
    ("counters", "pipeline.steps"),
    ("gauges", "nn.gemm.kernel"),
    ("spans", "seq2seq.forward"),
    ("spans", "phase.perturb"),
]:
    if key not in doc.get(section, {}):
        sys.exit(f"METRICS export missing {section}/{key}")
if doc["counters"]["nn.gemm.flops"] <= 0:
    sys.exit("nn.gemm.flops is zero in an instrumented run")
print("METRICS export validated:", len(doc["counters"]), "counters,",
      len(doc["spans"]), "spans")
EOF
  else
    # Fallback: key-presence grep when python3 is unavailable.
    local key
    for key in nn.gemm.flops attack.queries.gradient pipeline.steps \
               nn.gemm.kernel seq2seq.forward phase.perturb; do
      grep -q "\"${key}\"" "${json}" || {
        echo "METRICS export missing ${key}"; return 1; }
    done
  fi
}

validate_trace_json() {
  # validate_trace_json <file>: the Chrome trace-event export must parse as
  # JSON, every event must be a complete ("X") event carrying the
  # viewer-required fields and a dur, the timeline must show the
  # instrumented layers (pool jobs, episode spans, per-step phases), and
  # the events of each tid must nest.
  local json="$1"
  [ -s "${json}" ] || { echo "trace export ${json} missing/empty"; return 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${json}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc.get("traceEvents", [])
if not events:
    sys.exit("trace export has no events")
names = set()
for e in events:
    for key in ("name", "cat", "ph", "pid", "tid", "ts"):
        if key not in e:
            sys.exit(f"trace event missing '{key}': {e}")
    if e["ph"] != "X":
        sys.exit(f"trace event is not a complete ('X') event: {e}")
    if "dur" not in e:
        sys.exit(f"complete event missing 'dur': {e}")
    names.add(e["name"])
for expected in ("pool.job", "episode.run", "phase.victim_step",
                 "eval.batch.flush"):
    if expected not in names:
        sys.exit(f"trace export missing '{expected}' events")
# Events on one tid must nest: an event that starts inside another ends
# inside it too (1 ns tolerance; ts and dur are in microseconds).
tol = 0.001
by_tid = {}
for e in events:
    by_tid.setdefault(e["tid"], []).append(e)
for tid, evs in by_tid.items():
    evs.sort(key=lambda e: (e["ts"], -e["dur"]))
    stack = []
    for e in evs:
        while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"] + tol:
            stack.pop()
        if stack and e["ts"] + e["dur"] > stack[-1]["ts"] + stack[-1]["dur"] + tol:
            sys.exit(f"tid {tid}: '{e['name']}' at {e['ts']} partly overlaps "
                     f"'{stack[-1]['name']}' at {stack[-1]['ts']}")
        stack.append(e)
print("TRACE export validated:", len(events), "events,",
      len(names), "distinct names,", len(by_tid), "nested tids, dropped:",
      doc.get("otherData", {}).get("dropped"))
EOF
  else
    # Fallback: shape grep when python3 is unavailable.
    local key
    for key in traceEvents pool.job episode.run phase.victim_step; do
      grep -q "${key}" "${json}" || {
        echo "trace export missing ${key}"; return 1; }
    done
  fi
}

run_rendezvous_suites() {
  # run_rendezvous_suites <builddir> <log>: the batched model calls, the
  # batched agent policies, the fiber scheduler, the episode driver against
  # its serial oracle and its failure containment. The caller sets the
  # sanitizer options and RLATTACK_SIMD.
  local dir="$1" log="$2" rc=0
  RLATTACK_THREADS=4 run_gtest "${log}" "${dir}/tests/seq2seq_batch_test" \
    'Seq2SeqBatchedCraft*' || rc=1
  RLATTACK_THREADS=4 run_gtest "${log}" "${dir}/tests/rl_test" \
    '*ActBatch*' || rc=1
  RLATTACK_THREADS=4 run_gtest "${log}" "${dir}/tests/fiber_rendezvous_test" \
    'BatchedFiberRendezvous*' || rc=1
  RLATTACK_THREADS=4 run_gtest "${log}" \
    "${dir}/tests/experiments_parallel_test" \
    '*SerialOracle*:*Containment*' || rc=1
  return ${rc}
}

run_config() {
  local name="$1"
  local log="${LOG_DIR}/${name}.log"
  : >"${log}"
  local start end
  start=$(date +%s)
  local rc=0
  case "${name}" in
    werror)
      configure_build werror build-werror "${log}" \
        -DRLATTACK_WARNINGS_AS_ERRORS=ON || rc=1
      DETAIL[${name}]="full-tree build with -Werror"
      ;;
    asan)
      configure_build asan build-asan "${log}" \
        -DRLATTACK_ASAN=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}" \
          run_ctest build-asan "${log}" || rc=1
      fi
      DETAIL[${name}]="AddressSanitizer build + full ctest"
      ;;
    ubsan)
      configure_build ubsan build-ubsan "${log}" \
        -DRLATTACK_UBSAN=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
          run_ctest build-ubsan "${log}" || rc=1
      fi
      DETAIL[${name}]="UndefinedBehaviorSanitizer build + full ctest"
      ;;
    tsan)
      configure_build tsan build-tsan "${log}" \
        -DRLATTACK_TSAN=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
          run_ctest build-tsan "${log}" -R "${TSAN_FILTER}" || rc=1
      fi
      DETAIL[${name}]="ThreadSanitizer build + concurrency suites (-R '${TSAN_FILTER}')"
      ;;
    checked)
      configure_build checked build-checked "${log}" \
        -DRLATTACK_CHECKED=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        run_ctest build-checked "${log}" || rc=1
      fi
      DETAIL[${name}]="RLATTACK_CHECKED invariants + full ctest (incl. checked_invariants_test)"
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        STATUS[${name}]="skipped"
        DETAIL[${name}]="clang-tidy not on PATH"
        SECONDS_TAKEN[${name}]=0
        echo "clang-tidy not on PATH; step skipped" >>"${log}"
        return 0
      fi
      # Reuse (or create) the default build dir purely for its
      # compile_commands.json — CMAKE_EXPORT_COMPILE_COMMANDS is always on.
      if [ ! -f build/compile_commands.json ]; then
        run_logged "${log}" cmake -B build -S . || rc=1
      fi
      if [ ${rc} -eq 0 ]; then
        local dir_alt
        dir_alt=$(IFS='|'; echo "${TIDY_DIRS[*]}")
        if command -v run-clang-tidy >/dev/null 2>&1; then
          run_logged "${log}" run-clang-tidy -p build -quiet \
            "$(pwd)/(${dir_alt})/.*\.cpp" || rc=1
        else
          # Fallback: serial clang-tidy over every covered translation unit.
          # Only TUs in the compilation database can be linted (fixture
          # sources under tests/tidy are linted by their own driver).
          local f
          while IFS= read -r f; do
            grep -q "\"$(pwd)/${f}\"" build/compile_commands.json || continue
            run_logged "${log}" clang-tidy -p build "${f}" || rc=1
          done < <(find "${TIDY_DIRS[@]}" -name '*.cpp' | sort)
        fi
      fi
      DETAIL[${name}]="clang-tidy over ${TIDY_DIRS[*]} (.clang-tidy, WarningsAsErrors=*)"
      ;;
    tsa)
      # Compile-time proof of the lock discipline declared by the
      # thread_safety.hpp annotations. Only Clang implements
      # -Wthread-safety; GCC compiles the attributes to nothing, so a GCC
      # "pass" would be vacuous — skip instead.
      if ! command -v clang++ >/dev/null 2>&1; then
        STATUS[${name}]="skipped"
        DETAIL[${name}]="clang++ not on PATH"
        SECONDS_TAKEN[${name}]=0
        echo "clang++ not on PATH; step skipped" >>"${log}"
        return 0
      fi
      configure_build tsa build-tsa-check "${log}" \
        -DCMAKE_CXX_COMPILER=clang++ -DRLATTACK_TSA=ON || rc=1
      DETAIL[${name}]="clang++ -Wthread-safety -Werror=thread-safety full-tree build"
      ;;
    tidy-plugin)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        STATUS[${name}]="skipped"
        DETAIL[${name}]="clang-tidy not on PATH"
        SECONDS_TAKEN[${name}]=0
        echo "clang-tidy not on PATH; step skipped" >>"${log}"
        return 0
      fi
      # The default build detects the clang-tidy dev headers and only then
      # generates the module target (tools/rlattack-tidy/CMakeLists.txt).
      configure_build tidy-plugin build "${log}" || rc=1
      local plugin="build/tools/rlattack-tidy/librlattack_tidy.so"
      if [ ${rc} -eq 0 ] && [ ! -f "${plugin}" ]; then
        STATUS[${name}]="skipped"
        DETAIL[${name}]="clang-tidy dev headers absent; plugin module not built"
        SECONDS_TAKEN[${name}]=0
        echo "plugin module not built (no clang-tidy dev headers); step skipped" >>"${log}"
        return 0
      fi
      if [ ${rc} -eq 0 ]; then
        # Trip/clean fixtures first: they prove the checks fire at all, so
        # a clean sweep over the tree below is meaningful.
        run_logged "${log}" tests/tidy/run_fixtures.sh "${plugin}" || rc=1
      fi
      if [ ${rc} -eq 0 ]; then
        local f
        while IFS= read -r f; do
          grep -q "\"$(pwd)/${f}\"" build/compile_commands.json || continue
          run_logged "${log}" clang-tidy -p build --load="${plugin}" \
            --checks='-*,rlattack-*' --warnings-as-errors='rlattack-*' \
            "${f}" || rc=1
        done < <(find "${TIDY_DIRS[@]}" -name '*.cpp' | sort)
      fi
      DETAIL[${name}]="rlattack-* checks: fixture suite + sweep over ${TIDY_DIRS[*]}"
      ;;
    metrics)
      # Short instrumented experiment: the parallel-experiments test binary
      # trains a tiny zoo and runs attacked episodes end to end, so every
      # instrumented subsystem (kernels, seq2seq, attacks, pipeline) fires.
      configure_build metrics build "${log}" || rc=1
      local metrics_json="${LOG_DIR}/metrics.json"
      if [ ${rc} -eq 0 ]; then
        rm -f "${metrics_json}"
        RLATTACK_METRICS_OUT="${metrics_json}" RLATTACK_THREADS=4 \
          run_gtest "${log}" build/tests/experiments_parallel_test \
          '*MetricsInstrumentationObservesExperiment*' || rc=1
      fi
      if [ ${rc} -eq 0 ]; then
        run_logged "${log}" validate_metrics_json "${metrics_json}" || rc=1
      fi
      DETAIL[${name}]="instrumented experiment + METRICS JSON key validation"
      ;;
    trace)
      # Tracing correctness end to end: the Trace* suites under TSan prove
      # the lock-free ring emit path is race-free, then one traced
      # instrumented experiment must export Perfetto-loadable JSON carrying
      # the pool/episode/phase timeline.
      configure_build trace build-tsan "${log}" \
        -DRLATTACK_TSAN=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
          RLATTACK_THREADS=4 run_gtest "${log}" \
          build-tsan/tests/trace_test 'Trace*' || rc=1
      fi
      configure_build trace build "${log}" || rc=1
      local trace_json="${LOG_DIR}/trace.json"
      if [ ${rc} -eq 0 ]; then
        rm -f "${trace_json}"
        RLATTACK_TRACE=1 RLATTACK_TRACE_OUT="${trace_json}" \
          RLATTACK_THREADS=4 run_gtest "${log}" \
          build/tests/experiments_parallel_test \
          '*MetricsInstrumentationObservesExperiment*' || rc=1
      fi
      if [ ${rc} -eq 0 ]; then
        run_logged "${log}" validate_trace_json "${trace_json}" || rc=1
      fi
      DETAIL[${name}]="Trace* suites under TSan + traced experiment Chrome-JSON validation"
      ;;
    rendezvous)
      # Both sanitizers reuse the asan/tsan build trees (incremental after
      # the first run). Episode fibers park on every query while the
      # scheduler drives the shared victim and model on the same thread,
      # so ASan and TSan follow each stack switch through their fiber
      # hooks, and TSan sees the pool workers under the flushes. The suites
      # assert bit-identity with single-row queries, so running them once
      # per GEMM kernel proves the contract holds under either
      # micro-kernel. Scalar is always available; avx2 joins when the host
      # supports it.
      local modes="scalar"
      if grep -q 'avx2' /proc/cpuinfo 2>/dev/null && \
         grep -q 'fma' /proc/cpuinfo 2>/dev/null; then
        modes="avx2 scalar"
      fi
      local mode
      configure_build rendezvous build-asan "${log}" \
        -DRLATTACK_ASAN=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        for mode in ${modes}; do
          echo "--- ASan RLATTACK_SIMD=${mode} ---" >>"${log}"
          ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:halt_on_error=1}" \
            RLATTACK_SIMD="${mode}" \
            run_rendezvous_suites build-asan "${log}" || rc=1
        done
      fi
      configure_build rendezvous build-tsan "${log}" \
        -DRLATTACK_TSAN=ON -DRLATTACK_BUILD_BENCH=OFF \
        -DRLATTACK_BUILD_EXAMPLES=OFF || rc=1
      if [ ${rc} -eq 0 ]; then
        for mode in ${modes}; do
          echo "--- TSan RLATTACK_SIMD=${mode} ---" >>"${log}"
          TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
            RLATTACK_SIMD="${mode}" \
            run_rendezvous_suites build-tsan "${log}" || rc=1
        done
      fi
      DETAIL[${name}]="episode-driver fiber rendezvous: scheduler, parity and containment suites under ASan + TSan x SIMD kernels"
      ;;
    simd)
      # Dispatch parity: the kernel/attention parity suites must pass when
      # the GEMM micro-kernel is forced to either implementation. Each
      # RLATTACK_SIMD value is a separate process because the choice is
      # resolved once at the first GEMM call and cached.
      if ! grep -q 'avx2' /proc/cpuinfo 2>/dev/null || \
         ! grep -q 'fma' /proc/cpuinfo 2>/dev/null; then
        STATUS[${name}]="skipped"
        DETAIL[${name}]="host CPU lacks AVX2/FMA"
        SECONDS_TAKEN[${name}]=0
        echo "host CPU lacks AVX2/FMA; step skipped" >>"${log}"
        return 0
      fi
      configure_build simd build "${log}" || rc=1
      if [ ${rc} -eq 0 ]; then
        local mode
        for mode in avx2 scalar; do
          echo "--- RLATTACK_SIMD=${mode} ---" >>"${log}"
          RLATTACK_SIMD="${mode}" run_gtest "${log}" \
            build/tests/kernels_test \
            '*SimdDispatch*:*SgemmParity*:*SgemmOperandPaths*:*KernelHelpers*:*DenseParity*:*Conv2DParity*:*LstmParity*:*TimeDistributedParity*' || rc=1
          RLATTACK_SIMD="${mode}" run_gtest "${log}" \
            build/tests/seq2seq_test \
            '*Seq2SeqAttentionGemm*:*Seq2SeqCraftCacheParamGrads*' || rc=1
          RLATTACK_SIMD="${mode}" run_gtest "${log}" \
            build/tests/seq2seq_batch_test 'Seq2SeqBatchedCraft*' || rc=1
        done
      fi
      DETAIL[${name}]="kernel/operand-path/layer/attention/craft-path parity suites under RLATTACK_SIMD=avx2 and =scalar"
      ;;
    *)
      echo "run_checks.sh: unknown config '${name}'" >&2
      echo "known configs: ${ALL_CONFIGS[*]}" >&2
      exit 2
      ;;
  esac
  end=$(date +%s)
  SECONDS_TAKEN[${name}]=$((end - start))
  if [ ${rc} -eq 0 ]; then
    STATUS[${name}]="pass"
  else
    STATUS[${name}]="fail"
  fi
}

OVERALL=pass
for cfg in "${CONFIGS[@]}"; do
  printf '== %-8s ... ' "${cfg}"
  run_config "${cfg}"
  printf '%s (%ss)\n' "${STATUS[${cfg}]}" "${SECONDS_TAKEN[${cfg}]}"
  if [ "${STATUS[${cfg}]}" = "fail" ]; then
    OVERALL=fail
    echo "   see ${LOG_DIR}/${cfg}.log"
  fi
done

# Machine-parseable summary for CI gating.
{
  echo '{'
  echo '  "tool": "run_checks.sh",'
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"overall\": \"${OVERALL}\","
  echo '  "configs": {'
  sep=''
  for cfg in "${CONFIGS[@]}"; do
    printf '%s    "%s": {"status": "%s", "seconds": %s, "detail": "%s", "log": "%s"}' \
      "${sep}" "${cfg}" "${STATUS[${cfg}]}" "${SECONDS_TAKEN[${cfg}]}" \
      "${DETAIL[${cfg}]}" "${LOG_DIR}/${cfg}.log"
    sep=$',\n'
  done
  printf '\n  }\n}\n'
} > CHECKS.json

echo "-- CHECKS.json written (overall: ${OVERALL})"
[ "${OVERALL}" = "pass" ]
