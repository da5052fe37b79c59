#!/bin/sh
# Runs every workload once, from the repository root:
#
#   sh perfbench/run-all.sh [seed] [seconds] [trace]
#
# Each workload prints its metrics by name, with unit and sample count,
# and its result line. Exits non-zero when any workload's correctness gate
# fails.
seed=${1:-42}
seconds=${2:-20}
trace=${3:-0}
status=0
for workload in eval stream churn; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit "$status"
