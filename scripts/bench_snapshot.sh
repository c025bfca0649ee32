#!/usr/bin/env bash
# Capture the hot-path benchmark snapshot that the CI bench-regression gate
# compares against the committed BENCH_baseline.json.
#
# Usage: scripts/bench_snapshot.sh [out.json]     (default BENCH_head.json)
#
# To re-baseline after an intentional perf change (see DESIGN.md,
# "Performance"):
#
#   scripts/bench_snapshot.sh BENCH_baseline.json
#
# and commit the refreshed file with the PR.
#
# Every run pins -cpu 2, the processor count the committed baseline was
# snapshotted at: allocs/op of the parallel sweep benchmarks grows with
# GOMAXPROCS, so a host with more vCPUs would otherwise trip the allocs
# gate without any code change.
set -euo pipefail
out="${1:-BENCH_head.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Kernel microbenchmarks (pmf convolution, machine PCT maintenance, batch
# mapping with deferrals, the timeline observe hot path, the admission
# decide path, the result-store Get/Put paths, the tenant auth check,
# the workload generation / streaming-source paths, one cache-hit job
# through the shard front door, and through the service handler in memory
# one decide/complete pair, one session create (cached and cold PET
# matrix) and one cache-hit submit): the per-op cost is nanoseconds to
# a few milliseconds, so a fixed iteration count would be timer
# noise — use a time-based benchtime for a stable estimate.
go test -json -run '^$' -bench 'Convolve|Machine|Sched|Timeline|Admission|Store|Tenant|Workload|Router|Session|Submit' -benchtime 200ms -count 3 -cpu 2 \
  -benchmem ./internal/... > "$tmp/micro.jsonl"

# End-to-end sweep benchmarks: one op is a full RunFigure sweep (hundreds
# of milliseconds), so 100 fixed iterations are both stable and bounded.
go test -json -run '^$' -bench 'Figure' -benchtime 100x -count 3 -cpu 2 \
  -benchmem . > "$tmp/figure.jsonl"

# Million-task memory gate: one full streaming trial per op (~5 s), run
# once — its bytes/op is what the gate watches (memory is deterministic
# for a fixed workload, so a single iteration is exact; ns/op on a 1x run
# is noisy, which the diff threshold absorbs). The Materialized variant is
# deliberately excluded from the baseline: it exists for on-demand ratio
# measurements, not as a gated benchmark.
go test -json -run '^$' -bench 'SimulationMM1M$' -benchtime 1x -count 1 -cpu 2 \
  -benchmem . > "$tmp/mm1m.jsonl"

go run ./cmd/benchdiff parse -o "$out" "$tmp/micro.jsonl" "$tmp/figure.jsonl" "$tmp/mm1m.jsonl"
