#!/usr/bin/env bash
# Tier-1 verification: configure, build (warnings are errors), run the full
# ctest suite, then rebuild the observability-critical tests under ASan+UBSan
# and run those.
#
# Usage: scripts/verify.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build-verify}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== tier-1: build + ctest =="
cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release -DSWITCHML_WERROR=ON
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure

echo "== sanitizers: ASan+UBSan on the observability-critical tests =="
# The target list is owned by tests/CMakeLists.txt (SWITCHML_SANITIZER_TESTS),
# which exports it to <build>/sanitizer_tests.txt — new tests added there get
# sanitizer coverage without touching this script.
san_dir="$build_dir-asan"
cmake -B "$san_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSWITCHML_SANITIZE="address;undefined"
cmake --build "$san_dir" -j "$jobs" --target sanitizer_tests
while IFS= read -r t; do
  [ -n "$t" ] || continue
  echo "-- ASan: $t"
  "$san_dir/tests/$t" --gtest_brief=1
done < "$san_dir/sanitizer_tests.txt"

echo "verify: OK"
