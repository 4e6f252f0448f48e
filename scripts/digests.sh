#!/usr/bin/env bash
# Prints the end-to-end harness's `virtual_digest` for every workload on
# seeds 7 and 11 (`--seconds 5 --trace 0`), one `workload seed digest`
# line each. Same flags => same digest, so a behaviour-preserving change
# runs this on the parent and on itself and diffs the two outputs.
# Exits non-zero when any run is not `"correct":true`.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for workload in dataplane_bare dataplane_observed lifecycle_churn churn_under_traffic; do
    for seed in 7 11; do
        # run.sh builds on its first call; later calls find everything fresh.
        out="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 5 --trace 0)"
        digest="$(sed -n 's/^virtual_digest \([0-9a-f]*\) .*/\1/p' <<<"$out")"
        echo "$workload $seed ${digest:-missing}"
        if ! tail -n 1 <<<"$out" | grep -q '"correct":true'; then
            echo "digests: $workload seed $seed did not run correct" >&2
            status=1
        fi
    done
done
exit "$status"
