#!/usr/bin/env bash
# Prints the number of non-test Go lines outside dispatchbench/, the
# code-size figure ROADMAP tracks. It only reports; there is no gate.
# Run it from anywhere in the repository:
#
#   bash ci/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
n=$(find . -name '*.go' -not -path './dispatchbench/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)
echo "non-test Go lines outside dispatchbench/: $n"
