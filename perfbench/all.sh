#!/usr/bin/env bash
# Runs every workload in turn and prints each one's summary and result
# line. Run from the repository root; extra arguments go to each run:
#
#   bash perfbench/all.sh --seed 1 --seconds 20 --trace 0
set -euo pipefail
for w in discover-aes128 sweep-gift64 jobserver; do
	bash perfbench/run.sh --workload "$w" "$@"
done
