#!/usr/bin/env bash
# Tier-1 verify: the exact command from ROADMAP.md, plus an optional
# clang-format check (skipped with a notice when the tool is absent).
#
# --simd-off configures with -DPATDNN_ENABLE_SIMD=OFF in a separate
# build directory (build-scalar/), so developers on machines without
# AVX2 — and anyone reproducing the CI matrix's scalar cell — run
# tier-1 against the same configuration CI uses without clobbering the
# default build tree's cache. The memory-planner suites (memplan_test,
# memplan_exec_test) run in both cells: every run executes in its
# model's planned arena, and it must be bit-exact against a
# planWithoutReuse() workspace on the vector AND scalar kernel paths.
#
# --trace-off configures with -DPATDNN_ENABLE_TRACING=OFF in
# build-notrace/, reproducing CI's tracing-compiled-out cell: proves
# every TraceSpan emit site dead-strips (obs_test's static_asserts and
# the compiled-out behaviour tests run in this configuration).
#
# --sanitize configures build-asan/ with -DCMAKE_BUILD_TYPE=Debug
# -DPATDNN_SANITIZE=ON, reproducing CI's ASan+UBSan cell: every suite,
# including the artifact loader's single-byte mutation sweep
# (serve_test's Artifact.SingleByteMutationSweep), runs under the
# sanitizers.
#
# --sanitize=thread configures build-tsan/ with
# -DCMAKE_BUILD_TYPE=RelWithDebInfo -DPATDNN_SANITIZE=thread,
# reproducing CI's ThreadSanitizer cell: it builds and runs only the
# suites whose code shares state across threads (${tsan_suites}
# below). bench_micro_smoke is left out: under TSan it overruns its
# ctest timeout.
#
# --gate-only runs just the error-model header gate (the CI step's
# single source of truth for that grep) and exits.
#
# Every mode ends by printing the line count under src/
# (`git ls-files src | xargs cat | wc -l`), the simplicity measure
# ROADMAP.md asks every change to report.
#
# Usage: tools/verify.sh [--format-only|--no-format|--gate-only] [--simd-off|--trace-off|--sanitize|--sanitize=thread]
set -euo pipefail

cd "$(dirname "$0")/.."
repo_root=$(pwd)

run_format=1
run_build=1
build_dir=build
cmake_args=()
test_timeout=300
build_targets=()
ctest_args=()
tsan_suites="pattern_engine_test simd_kernels_test serve_test serve_stress_test router_test admission_test obs_test memplan_exec_test framework_test util_test"
for arg in "$@"; do
    case "${arg}" in
        --format-only) run_build=0 ;;
        --no-format)   run_format=0 ;;
        --gate-only)   run_build=0; run_format=0 ;;
        --simd-off)
            build_dir=build-scalar
            cmake_args+=(-DPATDNN_ENABLE_SIMD=OFF)
            ;;
        --trace-off)
            build_dir=build-notrace
            cmake_args+=(-DPATDNN_ENABLE_TRACING=OFF)
            ;;
        --sanitize)
            build_dir=build-asan
            cmake_args+=(-DCMAKE_BUILD_TYPE=Debug -DPATDNN_SANITIZE=ON)
            test_timeout=600  # CI's sanitize job timeout.
            ;;
        --sanitize=thread)
            build_dir=build-tsan
            cmake_args+=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DPATDNN_SANITIZE=thread)
            test_timeout=900  # CI's tsan job timeout.
            read -ra build_targets <<< "${tsan_suites}"
            ctest_args+=(-R "^($(tr ' ' '|' <<< "${tsan_suites}"))\$")
            ;;
        *)
            echo "usage: tools/verify.sh [--format-only|--no-format|--gate-only] [--simd-off|--trace-off|--sanitize|--sanitize=thread]" >&2
            exit 2
            ;;
    esac
done

# Error-model gate: the v1 public API returns patdnn::Status /
# Result<T> (src/util/status.h); the pre-v1 `std::string* error`
# out-param idiom must not creep back into any public header.
echo "== error-model gate: no std::string* error out-params in src/ headers =="
if grep -rnE 'std::string\s*\*\s*error' src --include='*.h'; then
    echo "error: public headers must return patdnn::Status / Result<T>" \
         "instead of bool/nullptr + std::string* error out-params" >&2
    exit 1
fi
echo "error-model gate OK"

if [[ ${run_format} -eq 1 ]]; then
    if command -v clang-format >/dev/null 2>&1; then
        echo "== clang-format check =="
        mapfile -t files < <(git ls-files 'src/*.cc' 'src/*.h' 'tests/*.cc' 'bench/*.cc' 'bench/*.h' 'examples/*.cpp' 'tools/*.cpp')
        clang-format --dry-run --Werror "${files[@]}"
        echo "format OK (${#files[@]} files)"
    else
        echo "== clang-format not installed, skipping format check =="
    fi
fi

status=0
if [[ ${run_build} -eq 1 ]]; then
    echo "== tier-1: configure + build + ctest (${build_dir}) =="
    # Per-test timeout so a hung suite (e.g. a deadlocked server test)
    # fails fast instead of stalling the whole job.
    cmake -B "${build_dir}" -S . "${cmake_args[@]}" \
        && cmake --build "${build_dir}" -j ${build_targets[@]:+--target "${build_targets[@]}"} \
        && cd "${build_dir}" \
        && ctest --output-on-failure -j --timeout "${test_timeout}" "${ctest_args[@]}" \
        || status=$?
fi

echo "== src/ line count: $(cd "${repo_root}" && git ls-files src | xargs cat | wc -l) =="
exit "${status}"
