#!/usr/bin/env bash
# Full verification sweep: tier-1 tests, both sanitizer presets, and a
# 100-iteration property run (see README "Verification" and DESIGN.md §7).
#
# Usage: scripts/verify.sh [stage] [jobs]
#   stage: tier1 | sanitizers | property | all   (default: all)
#   jobs:  parallel build/test jobs              (default: nproc)
# The old `scripts/verify.sh [jobs]` form still works: a numeric first
# argument is taken as the jobs count.

# `sh scripts/verify.sh` used to *pass* vacuously: dash rejects
# `set -o pipefail`, aborted before running a single test, and the exit
# status of the failed `set` was 0 on some shells. Re-exec under bash so the
# interpreter can never silently change what this script checks.
if [ -z "${BASH_VERSION:-}" ]; then
  exec bash "$0" "$@"
fi

set -euo pipefail
cd "$(dirname "$0")/.."

STAGE="all"
JOBS=""
for arg in "$@"; do
  case "${arg}" in
    tier1|sanitizers|property|all) STAGE="${arg}" ;;
    ''|*[!0-9]*)
      echo "usage: scripts/verify.sh [tier1|sanitizers|property|all] [jobs]" >&2
      exit 2
      ;;
    *) JOBS="${arg}" ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

run_tier1() {
  echo "== tier-1: configure + build + ctest (build/, ${JOBS} jobs) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"${JOBS}"
  ctest --test-dir build --output-on-failure -j"${JOBS}"
}

run_sanitizers() {
  local preset
  for preset in tsan asan-ubsan; do
    echo "== sanitizer preset: ${preset} =="
    cmake --preset "${preset}" >/dev/null
    cmake --build --preset "${preset}" -j"${JOBS}"
    ctest --preset "${preset}" -j"${JOBS}"
  done
}

run_property() {
  echo "== property sweep: 100 iterations =="
  if [ ! -x ./build/tests/property_test ]; then
    echo "build/tests/property_test missing — run the tier1 stage first" >&2
    exit 1
  fi
  SEER_PROPERTY_ITERS=100 ./build/tests/property_test \
    --gtest_filter='PropertyHarness.RandomWorkloadsStayOpaque:PropertyHarness.CapacityDecisionsMatchAnExactModel'
}

case "${STAGE}" in
  tier1) run_tier1 ;;
  sanitizers) run_sanitizers ;;
  property) run_property ;;
  all)
    run_tier1
    run_sanitizers
    run_property
    ;;
esac

echo "verify.sh: stage '${STAGE}' green"
