#!/usr/bin/env bash
# A/A check: the full set of workloads twice, back to back, on one commit and
# one seed (default 42), then `compare`: every end-to-end metric of every
# workload beside its bound, host-clock metrics within it, simulated-clock
# results, per-layer counts and commit-log digests exactly equal. Exits
# non-zero on any disagreement. The first set is what gets committed as
# benchmark/results/baseline-seed<N>.json.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
seed="${1:-42}"
first="$here/out/aa-seed$seed-first.json"
second="$here/out/aa-seed$seed-second.json"
"$here/run.sh" --seed "$seed" --traced --set "$first"
"$here/run.sh" --seed "$seed" --traced --set "$second"
"$here/run.sh" compare "$first" "$second"
