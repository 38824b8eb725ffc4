#!/usr/bin/env bash
# Tier-1 verification for the GenASM reproduction workspace.
#
# Usage: scripts/ci.sh [--with-bench]
#
#   --with-bench   additionally run the engine throughput, dc_multi,
#                  map_throughput, and serve_throughput benches at full
#                  size, refreshing BENCH_engine.json,
#                  BENCH_dc_multi.json, BENCH_map.json, and
#                  BENCH_serve.json at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fails when a committed bench artifact is missing a required field —
# catches a bench edit that silently drops a tracked figure (e.g. the
# lock-step lane-occupancy numbers).
check_bench_fields() {
    local file="$1"
    shift
    [[ -f "$file" ]] || { echo "missing bench artifact $file" >&2; exit 1; }
    local field
    for field in "$@"; do
        grep -q "\"$field\"" "$file" \
            || { echo "$file: missing required field \"$field\"" >&2; exit 1; }
    done
}

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> cargo test -q (core, portable fallback: no lockstep-avx2)"
cargo test -p genasm-core --no-default-features -q

echo "==> cargo test -q (mapper identity suites, portable fallback)"
cargo test -p genasm-mapper --no-default-features -q \
    --test batch_identity --test index_identity --test two_phase --test sam_identity

echo "==> lock-step lanes, occurrence stream and tier-1 kernel paths (default and portable fallback)"
# The lock-step lane, shared-text occurrence stream and tier-1
# occurrence properties must hold on both the explicit SIMD build and
# the portable fallback (where every kernel runs its plain lane loop) —
# see docs/KERNELS.md.
cargo test -p genasm-core -q --test proptests -- lockstep_lanes occurrence_stream cascade_tier1
cargo test -p genasm-core --no-default-features -q --test proptests -- \
    lockstep_lanes occurrence_stream cascade_tier1

echo "==> chaos suites (--features chaos: deterministic fault injection)"
# The workspace build above is the proof the default build carries no
# chaos code; these runs prove the containment invariant holds when
# the failpoints are compiled in and armed at fixed seeds.
cargo test -p genasm-engine --features chaos -q --test chaos
cargo test -p genasm-chaos -q
cargo test --features chaos -q --test chaos_containment
cargo test --features chaos -q --test chaos_serve

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> map --trace-out smoke (Chrome trace must be non-empty and balanced)"
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
target/release/genasm simulate --genome-size 20000 --count 8 --length 100 \
    --seed 11 --out-prefix "$tracedir/t" 2>/dev/null
target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --trace-out "$tracedir/trace.json" --quiet >/dev/null
[[ -s "$tracedir/trace.json" ]] \
    || { echo "map --trace-out wrote an empty trace" >&2; exit 1; }
grep -q '"traceEvents"' "$tracedir/trace.json" \
    || { echo "trace is not Chrome trace-event JSON" >&2; exit 1; }
begins=$(grep -c '"ph": "B"' "$tracedir/trace.json" || true)
ends=$(grep -c '"ph": "E"' "$tracedir/trace.json" || true)
[[ "$begins" -gt 0 && "$begins" -eq "$ends" ]] \
    || { echo "trace spans unbalanced: $begins begins vs $ends ends" >&2; exit 1; }

echo "==> lenient-mode error counters surface in --metrics json"
# Damage the simulated reads (a truncated trailing record), then map
# leniently: the run must succeed, and every map.errors.* counter the
# docs promise must appear in the JSON metrics report (which goes to
# stderr; --quiet would suppress metrics collection entirely).
printf '@truncated\nACGTACGT\n' >> "$tracedir/t_reads.fq"
target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --lenient --metrics json >/dev/null 2> "$tracedir/metrics.json"
for field in map.errors.skipped map.errors.truncated map.errors.length_mismatch \
             map.errors.bad_separator map.errors.empty_sequence \
             map.errors.missing_header map.errors.soft_non_acgt; do
    grep -q "\"$field\"" "$tracedir/metrics.json" \
        || { echo "--metrics json: missing counter \"$field\"" >&2; exit 1; }
done
grep -q '"map.errors.truncated": 1' "$tracedir/metrics.json" \
    || { echo "--metrics json: truncated record was not counted" >&2; exit 1; }
# The same damaged input must fail fast in strict mode with the
# malformed-data exit code (4).
if target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --strict --quiet >/dev/null 2>&1; then
    echo "strict mode accepted a truncated record" >&2; exit 1
fi
rc=0
target/release/genasm map --ref "$tracedir/t_ref.fa" --reads "$tracedir/t_reads.fq" \
    --strict --quiet >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 4 ]] || { echo "strict parse failure exited $rc, want 4" >&2; exit 1; }

echo "==> filter cascade A/B (map --filter-mode cascade vs legacy)"
# Same input through both filter modes: the cascade is an exact
# filter, not a heuristic, so the SAM must match byte for byte — and
# the escalating tiers must issue at least 3x fewer filter recurrence
# rows than the legacy flat scan on a uniform-genome workload (tier-0
# kills collision candidates, accepts stop deepening at the resolving
# distance instead of running to the threshold).
target/release/genasm simulate --genome-size 200000 --count 192 --length 150 \
    --seed 11 --out-prefix "$tracedir/ab" 2>/dev/null
target/release/genasm map --ref "$tracedir/ab_ref.fa" --reads "$tracedir/ab_reads.fq" \
    --filter-mode cascade --metrics json \
    > "$tracedir/ab_cascade.sam" 2> "$tracedir/ab_cascade.json"
target/release/genasm map --ref "$tracedir/ab_ref.fa" --reads "$tracedir/ab_reads.fq" \
    --filter-mode legacy --metrics json \
    > "$tracedir/ab_legacy.sam" 2> "$tracedir/ab_legacy.json"
cmp -s "$tracedir/ab_cascade.sam" "$tracedir/ab_legacy.sam" \
    || { echo "cascade and legacy SAM outputs differ" >&2; exit 1; }
filter_rows() {
    sed -n "s/.*\"map.filter_rows_$2\": \\([0-9][0-9]*\\).*/\\1/p" "$1"
}
cascade_rows=$(filter_rows "$tracedir/ab_cascade.json" issued)
cascade_useful=$(filter_rows "$tracedir/ab_cascade.json" useful)
legacy_rows=$(filter_rows "$tracedir/ab_legacy.json" issued)
[[ -n "$cascade_rows" && -n "$cascade_useful" && -n "$legacy_rows" ]] \
    || { echo "missing map.filter_rows_* in metrics json" >&2; exit 1; }
[[ "$legacy_rows" -ge $((3 * cascade_rows)) ]] \
    || { echo "cascade must cut filter rows >=3x: legacy $legacy_rows vs cascade $cascade_rows" >&2; exit 1; }
# The exact row walk of this seed-11 input: a filter-kernel change that
# reorders or re-counts rows fails here even when the SAM is unchanged.
# Change these figures only with a change meant to alter the walk.
[[ "$cascade_rows" -eq 878535 && "$cascade_useful" -eq 878442 ]] \
    || { echo "cascade filter rows moved: issued $cascade_rows (want 878535)," \
              "useful $cascade_useful (want 878442)" >&2; exit 1; }
for field in map.filter.tier0_rejects map.filter.tier0_probes map.filter.tier1_rejects \
             map.filter.cascade_accepts map.filter.cascade_fallbacks \
             map.filter.bound_reuse_hits; do
    grep -q "\"$field\"" "$tracedir/ab_cascade.json" \
        || { echo "--metrics json: missing gauge \"$field\"" >&2; exit 1; }
done

echo "==> map --kernel scalar identity smoke (dispatch changes speed, never output)"
# The same reads through the default lock-step engine and the scalar
# oracle dispatch must produce byte-identical SAM (docs/KERNELS.md:
# scheduling decides who computes a window, never what it contains).
# Reuses the cascade A/B inputs (the default run is ab_cascade.sam);
# the @PG header line records the command line, `--kernel` included,
# so it is the one line left out of the comparison. The map.simd_level
# gauge must surface alongside.
target/release/genasm map --ref "$tracedir/ab_ref.fa" --reads "$tracedir/ab_reads.fq" \
    --kernel scalar --quiet > "$tracedir/ab_scalar.sam"
cmp -s <(grep -v '^@PG' "$tracedir/ab_cascade.sam") <(grep -v '^@PG' "$tracedir/ab_scalar.sam") \
    || { echo "--kernel scalar SAM differs from the default lock-step SAM" >&2; exit 1; }
grep -q '"map.simd_level"' "$tracedir/ab_cascade.json" \
    || { echo "--metrics json: missing map.simd_level gauge" >&2; exit 1; }

echo "==> genasm serve smoke (stdin FASTQ in, ordered SAM out, serve.* metrics)"
# Pipe the simulated reads through the streaming front-end: the run
# must exit 0, answer every read with exactly one record, and surface
# the serving metrics the docs promise in the JSON report (stderr).
target/release/genasm simulate --genome-size 20000 --count 16 --length 100 \
    --seed 12 --out-prefix "$tracedir/s" 2>/dev/null
target/release/genasm serve --ref "$tracedir/s_ref.fa" \
    --batch-reads 4 --batch-wait-ms 5 --metrics json \
    < "$tracedir/s_reads.fq" > "$tracedir/s.sam" 2> "$tracedir/s_metrics.json"
records=$(grep -cv '^@' "$tracedir/s.sam" || true)
[[ "$records" -eq 16 ]] \
    || { echo "serve answered $records/16 reads" >&2; exit 1; }
for field in serve.reads serve.reads_shed serve.reads_deadline_dropped \
             serve.batches serve.queue_depth serve.batches_inflight \
             serve.request_latency_us; do
    grep -q "\"$field" "$tracedir/s_metrics.json" \
        || { echo "serve --metrics json: missing \"$field\"" >&2; exit 1; }
done
grep -q '"serve.reads": 16' "$tracedir/s_metrics.json" \
    || { echo "serve --metrics json: admitted-read count wrong" >&2; exit 1; }

echo "==> cargo bench --bench dc_multi -- --smoke"
cargo bench -p genasm-bench --bench dc_multi -- --smoke

echo "==> cargo bench --bench map_throughput -- --smoke"
cargo bench -p genasm-bench --bench map_throughput -- --smoke

echo "==> cargo bench --bench serve_throughput -- --smoke"
cargo bench -p genasm-bench --bench serve_throughput -- --smoke

echo "==> bench artifact field check"
check_bench_fields BENCH_engine.json \
    pairs_per_sec workers tb_rows distance_secs simd_level \
    jobs_prefilled distance_prefilled_secs \
    job_latency_p50_us job_latency_p99_us chunk_latency_p50_us
check_bench_fields BENCH_dc_multi.json \
    kernel_full kernel_filter engine pairs_per_sec occupancy \
    rows_issued rows_vs_flat filter_threshold \
    tb_rows distance_secs job_latency_p50_us job_latency_p99_us \
    simd_level simd_level_rank \
    kernel_fused_hit_test fused_rows_useful analytic_rows_useful
check_bench_fields BENCH_map.json \
    pipeline reads_per_sec occupancy seed_seconds filter_seconds align_seconds \
    simd_level \
    two_phase cascade tb_rows distance_secs traceback_secs \
    candidates survivors reject_rate filter_rows_issued filter_rows_useful \
    filter_occupancy tier0_rejects tier0_probes tier1_rejects cascade_accepts \
    cascade_fallbacks bound_reuse_hits \
    read_latency_p50_us read_latency_p99_us \
    telemetry_off_reads_per_sec telemetry_on_reads_per_sec telemetry_overhead \
    containment_off_reads_per_sec containment_on_reads_per_sec containment_overhead
check_bench_fields BENCH_serve.json \
    sustained_reads_per_sec request_latency_p50_us request_latency_p99_us \
    overload_offered_reads overload_admitted_reads overload_shed_reads \
    overload_shed_rate overload_responses_per_sec

if [[ "${1:-}" == "--with-bench" ]]; then
    echo "==> cargo bench --bench engine_throughput"
    cargo bench -p genasm-bench --bench engine_throughput
    echo "==> cargo bench --bench dc_multi (full)"
    cargo bench -p genasm-bench --bench dc_multi
    echo "==> cargo bench --bench map_throughput (full)"
    cargo bench -p genasm-bench --bench map_throughput
    echo "==> cargo bench --bench serve_throughput (full)"
    cargo bench -p genasm-bench --bench serve_throughput
fi

echo "==> OK"
