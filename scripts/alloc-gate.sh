#!/usr/bin/env bash
# alloc-gate.sh — allocation-regression gate for the streamed verification
# hot path and for share materialisation.
#
# Runs the gate benchmarks once each with -benchmem and asserts:
#   - BenchmarkRoundMarshal: exactly 0 allocs/op. The leader builds round
#     requests in pooled arenas; any allocation here is a pooling regression.
#   - BenchmarkStreamedRounds/Streamed: at most ${STREAMED_ALLOC_CEILING}
#     allocs/op end-to-end (one submission through a 4-shard pipeline over
#     latency-injected TCP, after a warm-up submission). At this gate's
#     -benchtime=1x the figure is about 328 allocs/op (Go 1.24, 2 vCPU;
#     345-355 while the leader's own call ran on a goroutine of its own too):
#     the whole per-batch cost of a batch of one. At
#     -benchtime=200x batches fill and it falls to about 100. The ceiling
#     is ~4x the 1x figure, so it only trips on a structural regression,
#     not benchmark noise.
#   - BenchmarkShareExpand: at most ${EXPAND_ALLOC_CEILING} allocs/op at
#     every length. An expansion allocates its output, the PRG and the two
#     objects crypto/aes and crypto/cipher make for one AES-CTR stream (4
#     today, one more on older toolchains); it was one allocation per
#     ELEMENT before the bulk sampler, which is what this catches.
#   - BenchmarkServerRound1: at most ${ROUND1_ALLOC_CEILING} allocs/op for
#     one 16-submission bits1024 batch on all three servers (about 346 today
#     on Go 1.24, 2 vCPU; a batch's proofs are unflattened into two
#     allocations, the HKDF derivations hash stack buffers, the batch key
#     agreement keeps its field scratch on the stack at any batch size, and
#     Round1 is inner products with the challenge's precomputed rows and
#     with wH_j, its h(r_j) shares in one array per batch, with no wire slab
#     or lane scratch. 343 while h(r_j) waited for Round2, 376 while Round1
#     walked the circuit over a wire slab, 481 while each proof took two
#     allocations, 1,141 while each derivation built crypto/hmac state,
#     1,305 while each bundle ran its own crypto/ecdh agreement, 1,353 while
#     seed servers still opened a box each, 165,726 before shares were
#     decoded into pooled slabs).
#     Pinned ~4x above the current figure.
#
# Runs locally (./scripts/alloc-gate.sh) and in the CI bench job.
set -euo pipefail
cd "$(dirname "$0")/.."

STREAMED_ALLOC_CEILING="${STREAMED_ALLOC_CEILING:-1250}"
EXPAND_ALLOC_CEILING="${EXPAND_ALLOC_CEILING:-6}"
ROUND1_ALLOC_CEILING="${ROUND1_ALLOC_CEILING:-1500}"
OUT="$(mktemp)"
trap 'rm -f "${OUT}"' EXIT

echo "== alloc gate: BenchmarkRoundMarshal (0 allocs/op)"
go test -run '^$' -bench '^BenchmarkRoundMarshal$' -benchmem -benchtime=1x \
  ./internal/core/ | tee "${OUT}"
echo "== alloc gate: BenchmarkStreamedRounds/Streamed (<= ${STREAMED_ALLOC_CEILING} allocs/op)"
go test -run '^$' -bench '^BenchmarkStreamedRounds/Streamed$' -benchmem -benchtime=1x \
  . | tee -a "${OUT}"
echo "== alloc gate: BenchmarkShareExpand (<= ${EXPAND_ALLOC_CEILING} allocs/op), BenchmarkServerRound1 (<= ${ROUND1_ALLOC_CEILING} allocs/op)"
go test -run '^$' -bench '^(BenchmarkShareExpand|BenchmarkServerRound1)$' -benchmem -benchtime=10x \
  . | tee -a "${OUT}"

awk -v ceiling="${STREAMED_ALLOC_CEILING}" -v expand="${EXPAND_ALLOC_CEILING}" -v round1="${ROUND1_ALLOC_CEILING}" '
/^BenchmarkRoundMarshal/ {
  seen_rm = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 != 0) { printf "FAIL: BenchmarkRoundMarshal %s allocs/op, want 0\n", a; bad = 1 }
}
/^BenchmarkStreamedRounds\/Streamed/ {
  seen_sr = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 > ceiling) { printf "FAIL: BenchmarkStreamedRounds/Streamed %s allocs/op, ceiling %d\n", a, ceiling; bad = 1 }
}
/^BenchmarkShareExpand\// {
  seen_se = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 > expand) { printf "FAIL: %s %s allocs/op, ceiling %d\n", $1, a, expand; bad = 1 }
}
/^BenchmarkServerRound1/ {
  seen_r1 = 1
  for (i = 1; i <= NF; i++) if ($i == "allocs/op") a = $(i-1)
  if (a + 0 > round1) { printf "FAIL: BenchmarkServerRound1 %s allocs/op, ceiling %d\n", a, round1; bad = 1 }
}
END {
  if (!seen_rm) { print "FAIL: BenchmarkRoundMarshal did not run"; bad = 1 }
  if (!seen_sr) { print "FAIL: BenchmarkStreamedRounds/Streamed did not run"; bad = 1 }
  if (!seen_se) { print "FAIL: BenchmarkShareExpand did not run"; bad = 1 }
  if (!seen_r1) { print "FAIL: BenchmarkServerRound1 did not run"; bad = 1 }
  exit bad
}' "${OUT}"

echo "PASS: alloc gate"
