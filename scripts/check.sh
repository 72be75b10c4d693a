#!/usr/bin/env bash
# Full local CI: the tier-1 build + test suite, the scenario-manifest
# smoke label, the AArch64 arch-smoke label, the benchmark regression
# gates (hot-path, campaign service, pattern fuzzer, Table-1
# exact-match), and the
# sanitizer-instrumented suites behind their ctest labels (tsan for
# the thread-pool/campaign engine, ubsan for the RNG/bit-twiddling-
# heavy suites, asan for the mask-engine / sparse-frame suites).
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 + scenario smoke only
#
# Build trees: build/ (tier-1), build-tsan/, build-ubsan/, build-asan/.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

jobs=$(nproc 2>/dev/null || echo 4)

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: configure + build"
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

step "tier-1: ctest"
(cd build && ctest --output-on-failure -j "$jobs")

step "scenario smoke (every checked-in manifest, 1 cell each)"
(cd build && ctest --output-on-failure -L scenario-smoke -j "$jobs")

step "svc smoke (ctamemd over the pipe protocol, cached resubmission)"
(cd build && ctest --output-on-failure -L svc-smoke)

step "arch smoke (AArch64 backend: attack_lab + ctamemd on aarch64-default.json)"
(cd build && ctest --output-on-failure -L arch-smoke)

step "bench gate: Table-1 matrix bit-identical to checked-in baseline"
# Deterministic given the seed, so one run and exact equality.
./build/bench/bench_table1_attack_matrix \
    --out build/BENCH_table1.run.json >/dev/null
python3 scripts/check_bench.py --suite table1 \
    --baseline BENCH_table1.json --current build/BENCH_table1.run.json

step "bench gate: hot-path microbenchmark vs checked-in baseline"
# Three runs; the gate takes each metric's best to shed machine noise.
for i in 1 2 3; do
    ./build/bench/bench_hotpath_micro \
        --out "build/BENCH_hotpath.run$i.json" >/dev/null
done
python3 scripts/check_bench.py --baseline BENCH_hotpath.json \
    --current build/BENCH_hotpath.run{1,2,3}.json

step "bench gate: campaign service vs checked-in baseline"
for i in 1 2 3; do
    ./build/bench/bench_svc --out "build/BENCH_svc.run$i.json" >/dev/null
done
python3 scripts/check_bench.py --suite svc --baseline BENCH_svc.json \
    --current build/BENCH_svc.run{1,2,3}.json

step "bench gate: pattern fuzzer vs checked-in baseline"
for i in 1 2 3; do
    ./build/bench/bench_fuzz --out "build/BENCH_fuzz.run$i.json" >/dev/null
done
python3 scripts/check_bench.py --suite fuzz --baseline BENCH_fuzz.json \
    --current build/BENCH_fuzz.run{1,2,3}.json

if [[ "$fast" == 1 ]]; then
    step "done (--fast: sanitizer suites skipped)"
    exit 0
fi

step "tsan: thread-pool / campaign suites"
cmake -B build-tsan -S . -DCTAMEM_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$jobs"
(cd build-tsan && ctest --output-on-failure -L tsan -j "$jobs")

step "ubsan: RNG / bit-manipulation suites"
cmake -B build-ubsan -S . -DCTAMEM_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$jobs"
# Built recoverable, UBSan only prints a finding unless told to halt.
(cd build-ubsan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -L ubsan -j "$jobs")

step "asan: mask-engine / sparse-frame suites"
cmake -B build-asan -S . -DCTAMEM_SANITIZE=address >/dev/null
cmake --build build-asan -j "$jobs"
(cd build-asan && ctest --output-on-failure -L asan -j "$jobs")

step "all checks passed"
