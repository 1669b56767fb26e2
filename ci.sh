#!/usr/bin/env bash
# Tier-1 verification: lint, Release, Debug+ASan/UBSan, TSan, and a
# format check.
#
#   ./ci.sh            run everything
#   ./ci.sh lint       iflint source rules + binary hot-path allocation
#                      proof (ctest -L lint; see tools/iflint/)
#   ./ci.sh release    Release build + full ctest suite
#   ./ci.sh asan       Debug ASan/UBSan build + unit + stress suites
#   ./ci.sh tsan       TSan build + sweep/fuzz suites. GATED: a data
#                      race fails CI; skipped only when the compiler
#                      lacks -fsanitize=thread. Known-benign races go
#                      in tsan.supp with a justification.
#   ./ci.sh tidy       clang-tidy over src/ with the tree's .clang-tidy
#                      (skipped when clang-tidy is not installed)
#   ./ci.sh format     clang-format check (skipped when not installed)
#   ./ci.sh faults     fault-injection suite under ASan/UBSan: the
#                      fault matrix, the planted-deadlock/watchdog
#                      fixtures, the faults-enabled zero-allocation
#                      test (fast-forward on and off), and an env-knob
#                      smoke run (retries under drops must still finish
#                      the quickstart)
#   ./ci.sh bench      ifbench smoke (benchmark/run.sh --smoke): 8
#                      figure points from the self-contained Release
#                      benchmark build, failing on any outcome-digest
#                      mismatch against benchmark/expected_digests.json;
#                      then every BENCHMARK.json workload for 10 s on
#                      the reference commit (merge-base with main, or
#                      HEAD~1 on main) and on this checkout on the
#                      same host, alternating which side runs first
#                      per workload; prints all five end-to-end
#                      metrics of every workload on both sides, then
#                      fails when this checkout's kcps is below 0.75x
#                      the reference's, its heap_peak_mb is worse than
#                      the reference's by more than the BENCHMARK.json
#                      bound, or any run reports "correct": false
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)
STAGE="${1:-all}"

run_lint() {
    echo "== iflint: source rules + hot-path allocation proof =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    # The pass-2 proof objects (invisifence_lint, fixture objects) are
    # compiled at a pinned -O2 -DNDEBUG by tools/iflint/CMakeLists.txt,
    # so the lint verdict is identical in every build type.
    cmake --build build-release -j "$JOBS" --target \
        iflint iflint_test invisifence_lint iflint_fixture_hot_bad \
        iflint_fixture_hot_good iflint_fixture_hot_cold_cut
    ctest --test-dir build-release --output-on-failure -j "$JOBS" -L lint
}

run_release() {
    echo "== Release build + full test pyramid =="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$JOBS"
    ctest --test-dir build-release --output-on-failure -j "$JOBS"
}

run_asan() {
    echo "== Debug + ASan/UBSan build + unit and stress suites =="
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DINVISIFENCE_SANITIZE=ON
    cmake --build build-asan -j "$JOBS"
    # Unit tier (the bench/example smoke tests re-run identical code
    # paths and triple CI time under sanitizers), then the stress tier:
    # the full-size litmus fuzzer and the heavy 8-worker sweep
    # equivalence run, where sanitizers watch the sharded path.
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L unit
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L stress
    # Fast-forward equivalence: with the event-driven scheduler forced
    # OFF, the committed golden figures must still be byte-identical and
    # the on/off equivalence suite must pass under sanitizers. sim_test
    # and invisifence_test join them because a retry batch runs many
    # wake hooks inside one queue event: the retry-batching tests and
    # the pinned overflow-retry runs must hold in both scheduler modes.
    INVISIFENCE_FASTFWD=0 ctest --test-dir build-asan \
        --output-on-failure \
        -R '(golden_figures_test|fastforward_test|sim_test|invisifence_test)'
}

run_faults() {
    echo "== Fault-injection suite under ASan/UBSan =="
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DINVISIFENCE_SANITIZE=ON
    cmake --build build-asan -j "$JOBS" --target fault_test \
        fault_deadlock_fixture alloc_steadystate_test fig09_breakdown
    # The fault matrix, recovery paths, watchdog death test, and both
    # planted-wedge WILL_FAIL fixtures; then the same suite with the
    # event-driven scheduler forced off (fault runs must stay
    # bit-identical across scheduler modes, so both must pass).
    ctest --test-dir build-asan --output-on-failure \
        -R '(fault_test|fault_deadlock_watchdog|fault_max_cycles_budget)'
    INVISIFENCE_FASTFWD=0 ctest --test-dir build-asan \
        --output-on-failure -R fault_test
    # The fault paths (injector, retry timers, the directory's dedup
    # table and its FIFO eviction) stay allocation-free at steady state
    # under both scheduler modes.
    ./build-asan/tests/alloc_steadystate_test \
        --gtest_filter=SteadyStateAllocs.ZeroPerCycleWithFaultInjectionEnabled
    INVISIFENCE_FASTFWD=0 ./build-asan/tests/alloc_steadystate_test \
        --gtest_filter=SteadyStateAllocs.ZeroPerCycleWithFaultInjectionEnabled
    # Env-knob plumbing end to end: a figure bench with drop/delay/dup
    # rates injected from the environment (retries auto-arm) must still
    # run to completion at a small budget.
    INVISIFENCE_BENCH_CYCLES=6000 INVISIFENCE_FAULT_SEED=7 \
        INVISIFENCE_FAULT_DROP=800 INVISIFENCE_FAULT_DELAY=2000 \
        INVISIFENCE_FAULT_DUP=800 INVISIFENCE_WATCHDOG=400000 \
        ./build-asan/bench/fig09_breakdown
}

run_tsan() {
    echo "== ThreadSanitizer build + sweep/fuzz suites (gated) =="
    # Probe the same compiler CMake will use, or the probe can disagree
    # with the build. Lacking TSan support is the ONLY skip condition;
    # when the build runs, any unsuppressed race report fails CI.
    local cxx="${CXX:-c++}"
    if ! echo 'int main(){}' | "$cxx" -fsanitize=thread -x c++ - \
            -o /tmp/tsan_probe 2>/dev/null; then
        echo "compiler lacks -fsanitize=thread; skipping tsan stage"
        return 0
    fi
    rm -f /tmp/tsan_probe
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_COMPILER="$cxx" \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "$JOBS" --target sweep_test \
        fuzz_litmus_test
    # Suppressions live in tsan.supp (each entry must carry a comment
    # explaining why the race is benign); halt_on_error makes the first
    # unsuppressed report fatal instead of a warning that exits 0.
    TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R '(sweep_test|stress_sweep|fuzz_litmus_test)'
}

run_tidy() {
    echo "== clang-tidy (config: .clang-tidy) =="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed; skipping tidy stage"
        return 0
    fi
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    local files
    files=$(git ls-files 'src/*.cc')
    # shellcheck disable=SC2086
    clang-tidy -p build-release --warnings-as-errors='*' $files
}

# One 10-s ifbench run of workload $2 from the checkout at $1; the last
# stdout line of a workload run is its JSON result.
bench_side() {
    bash "$1/benchmark/run.sh" --workload "$2" --seed 1 --seconds 10 \
        --trace 0 | tail -n 1
}

run_bench() {
    echo "== ifbench smoke: figure-point outcome digests =="
    bash benchmark/run.sh --smoke

    echo "== ifbench: kcps against the reference commit, same host =="
    local ref
    if [ "$(git rev-parse --abbrev-ref HEAD)" = main ]; then
        ref=$(git rev-parse HEAD~1)
    else
        ref=$(git merge-base HEAD main)
    fi
    local refdir
    refdir=$(mktemp -d)
    # shellcheck disable=SC2064
    trap "git worktree remove --force '$refdir'" EXIT
    git worktree add --detach "$refdir" "$ref" >/dev/null
    local workloads w ref_out head_out first=ref failed=0
    workloads=$(python3 -c 'import json; print(" ".join(
        w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
    for w in $workloads; do
        # Host speed drifts over minutes, so a fixed order would hand
        # the drift to the same side every time: alternate which side
        # runs first, workload by workload.
        if [ "$first" = ref ]; then
            ref_out=$(bench_side "$refdir" "$w")
            head_out=$(bench_side . "$w")
            first=head
        else
            head_out=$(bench_side . "$w")
            ref_out=$(bench_side "$refdir" "$w")
            first=ref
        fi
        # Check every workload before failing, so one slow workload
        # does not hide the others' ratios.
        python3 - "$w" "$ref_out" "$head_out" <<'PY' || failed=1
import json, sys
name, ref, head = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
ok = ref["correct"] and head["correct"]
print(f"  {name}: correct {ref['correct']}/{head['correct']}")
for m in metrics:
    r = ref["metrics"][m["name"]]["value"]
    h = head["metrics"][m["name"]]["value"]
    gate = ""
    if m["name"] == "kcps":
        # Host speed drifts 10-15%: only a large kcps loss fails.
        gate = "ok" if h >= 0.75 * r else "FAIL (below 0.75x)"
    elif m["name"] == "heap_peak_mb":
        # Heap size does not drift with the host: hold the declared bound.
        gate = ("ok" if h <= r * (1 + m["bound"])
                else f"FAIL (over +{m['bound']:.0%})")
    ok = ok and not gate.startswith("FAIL")
    ratio = f"x{h / r:.3f}" if r else "-"
    print(f"    {m['name']:13} ref {r:12.4f}  head {h:12.4f} {m['unit']:7} "
          f"{ratio:7}  {gate}")
sys.exit(0 if ok else 1)
PY
    done
    if [ "$failed" -ne 0 ]; then
        echo "ifbench: kcps or heap check failed for at least one workload"
        return 1
    fi
}

run_format() {
    echo "== clang-format check =="
    if ! command -v clang-format >/dev/null 2>&1; then
        echo "clang-format not installed; skipping format check"
        return 0
    fi
    local files
    files=$(git ls-files '*.cc' '*.hh' '*.cpp' '*.h')
    # shellcheck disable=SC2086
    if ! clang-format --dry-run --Werror $files; then
        echo "format check failed; run: clang-format -i <files>"
        return 1
    fi
}

case "$STAGE" in
  lint)      run_lint ;;
  release)   run_release ;;
  asan)      run_asan ;;
  faults)    run_faults ;;
  tsan)      run_tsan ;;
  tidy)      run_tidy ;;
  format)    run_format ;;
  bench)     run_bench ;;
  all)       run_format; run_tidy; run_lint; run_release; run_asan
             run_faults; run_tsan; run_bench ;;
  *) echo "usage: $0 [all|lint|release|asan|faults|tsan|tidy|format|bench]" >&2
     exit 2 ;;
esac
echo "ci.sh: $STAGE OK"
