#!/usr/bin/env bash
# Runs the whole benchmark twice on this commit with one seed, prints both
# values and the relative difference of every end-to-end metric, and fails
# if any differs by more than its bound or any operation failed.
#
#   bench/agree.sh [SEED]      (default 42; run it again with 7)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-42}"
for side in a b; do
    "$here/run.sh" --seed "$seed" --out "bench/out/agree-$seed-$side"
done
"$here/run.sh" agree "bench/out/agree-$seed-a/result.json" "bench/out/agree-$seed-b/result.json"
