#!/usr/bin/env bash
# One-command local lint, matching the CI `lint` job (docs/STATIC_ANALYSIS.md).
#
#   tools/check.sh [build-dir]     (default build dir: build)
#
# Enforced (non-zero exit on failure):
#   * egolint over src/ and tools/ — the five project-invariant checks.
#   * clang -Wthread-safety over the annotated lock subsystems (when a
#     clang++ is installed; skipped loudly otherwise — GCC compiles the
#     annotations away, which is exactly why the egolint lock-discipline
#     check exists).
# Advisory (reported, never fail the script; CI uploads their output):
#   * clang-tidy (bugprone-*, performance-*, concurrency-* via .clang-tidy)
#   * clang-format --dry-run --Werror against .clang-format
# The optional tiers are skipped loudly when the tool is not installed, so
# the script works in minimal containers that only carry the compiler.

set -u
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
FAILED=0

# --- egolint (enforced) -----------------------------------------------------
if [[ ! -x "${BUILD_DIR}/tools/egolint" ]]; then
  echo "check.sh: building egolint (${BUILD_DIR}/tools/egolint missing)"
  cmake -B "${BUILD_DIR}" >/dev/null || exit 2
  cmake --build "${BUILD_DIR}" --target egolint -j >/dev/null || exit 2
fi
echo "== egolint src/ tools/ (enforced) =="
if ! "${BUILD_DIR}/tools/egolint" src tools --report="${BUILD_DIR}/egolint-report.json"; then
  FAILED=1
fi
echo "   report: ${BUILD_DIR}/egolint-report.json"

# --- clang thread-safety analysis (enforced when clang is present) -----------
# Syntax-only pass with -Werror=thread-safety over the lock-annotated TUs:
# the same contract CI's thread-safety job enforces with a full clang build.
if command -v clang++ >/dev/null 2>&1; then
  echo "== clang -Wthread-safety (enforced) =="
  TSA_FAILED=0
  for tu in src/net/registry.cc src/net/queue.cc src/net/server.cc \
            src/obs/log.cc src/obs/trace.cc src/obs/metrics.cc \
            src/exec/failpoints.cc; do
    if ! clang++ -std=c++20 -fsyntax-only -I src \
         -Wthread-safety -Werror=thread-safety "${tu}"; then
      echo "   thread-safety violation in ${tu}"
      TSA_FAILED=1
    fi
  done
  if [[ ${TSA_FAILED} -ne 0 ]]; then
    FAILED=1
  else
    echo "   all annotated TUs clean"
  fi
else
  echo "== clang -Wthread-safety == SKIPPED: clang++ not installed" \
       "(GCC compiles the annotations away; egolint lock-discipline still ran)"
fi

# --- clang-tidy (advisory) --------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (advisory) =="
  if [[ ! -f "${BUILD_DIR}/compile_commands.json" ]]; then
    cmake -B "${BUILD_DIR}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  # Advisory: report but never fail (the repo has not been baselined yet;
  # see docs/STATIC_ANALYSIS.md "Enforcement tiers").
  find src -name '*.cc' -print0 |
    xargs -0 clang-tidy -p "${BUILD_DIR}" --quiet 2>/dev/null |
    tee "${BUILD_DIR}/clang-tidy-report.txt" | tail -n 40 || true
  echo "   report: ${BUILD_DIR}/clang-tidy-report.txt"
else
  echo "== clang-tidy (advisory) == SKIPPED: clang-tidy not installed"
fi

# --- clang-format (advisory) ------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format --dry-run (advisory) =="
  find src tools/egolint tests bench -name '*.h' -o -name '*.cc' -o -name '*.cpp' |
    xargs clang-format --dry-run --Werror 2>"${BUILD_DIR}/clang-format-report.txt" &&
    echo "   formatting clean" ||
    echo "   formatting drift reported in ${BUILD_DIR}/clang-format-report.txt"
else
  echo "== clang-format (advisory) == SKIPPED: clang-format not installed"
fi

if [[ ${FAILED} -ne 0 ]]; then
  echo "check.sh: FAILED (findings above)"
  exit 1
fi
echo "check.sh: OK"
