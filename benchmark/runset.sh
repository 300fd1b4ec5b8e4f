#!/usr/bin/env bash
# Runs one result set: every workload once per seed, each run a fresh
# process, appended to a JSON-lines file that `compare` reads.
#
#   benchmark/runset.sh <out.jsonl> [first-seed] [seeds] [seconds]
set -euo pipefail
out=$1 first=${2:-1} seeds=${3:-10} seconds=${4:-20}
for w in verify_bits1024_s3 rounds_sum8_s5_wan service_linreg10_s3_open client_encode_mix; do
  for ((s = first; s < first + seeds; s++)); do
    bash benchmark/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
  done
done
