#!/usr/bin/env bash
# Documentation gate (the CI docs job; also runnable locally).
#
#   scripts/check_docs.sh
#
# 1. scripts/check_public_docs.py -- fails on any undocumented public symbol
#    in src/solver, src/resistance, src/apps, src/server and src/sparsify
#    (works offline, no doxygen needed).
# 2. scripts/check_links.sh -- fails on any broken relative link in the
#    top-level markdown docs.
# 3. If doxygen is installed, runs it over the Doxyfile and fails on
#    undocumented-symbol warnings in its log (other doxygen chatter is
#    surfaced but non-fatal) -- a second, independent undocumented-symbol
#    check. Skipped (with a notice) when doxygen is absent so offline
#    checkouts still get gates 1-2.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 scripts/check_public_docs.py src/solver src/resistance src/apps src/server \
  src/sparsify
scripts/check_links.sh

if command -v doxygen >/dev/null 2>&1; then
  mkdir -p build-docs
  doxygen Doxyfile
  # Fail on undocumented-symbol warnings specifically (the gate); other
  # doxygen chatter is surfaced but not fatal, so a doxygen version quirk
  # cannot take the job down for reasons unrelated to documentation.
  if grep -E "is not documented|Compound .* is not documented" \
      build-docs/doxygen-warnings.log >/dev/null 2>&1; then
    echo "check_docs: doxygen found undocumented symbols:" >&2
    grep -E "is not documented" build-docs/doxygen-warnings.log >&2
    exit 1
  fi
  if [ -s build-docs/doxygen-warnings.log ]; then
    echo "check_docs: doxygen warnings (non-fatal):" >&2
    cat build-docs/doxygen-warnings.log >&2
  fi
  echo "check_docs: doxygen pass clean (build-docs/html)"
else
  echo "check_docs: doxygen not installed; skipped the doxygen pass" >&2
fi
