//! Lock-step multi-window DC kernel throughput: scalar vs lock-step at
//! 1/4 lanes (with lane occupancy), full vs distance-only mode, the
//! shared-text occurrence stream, the filter's occurrence lanes, and
//! the end-to-end engine effect (scalar vs lock-step dispatch at one
//! worker, each with its full-alignment vs distance-only-scan A/B, the
//! two halves of the mapper's two-phase execution model).
//!
//! Writes `BENCH_dc_multi.json` at the workspace root alongside
//! `BENCH_engine.json`. Pass `--smoke` (as `scripts/ci.sh` does) for a
//! fast verification run with smaller workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use genasm_bench::harness::{histogram_fields, measure_throughput, JsonReport};
use genasm_core::alphabet::Dna;
use genasm_core::bitap::{matches_within_many_counted, ScanMetrics};
use genasm_core::cascade::CascadePattern;
use genasm_core::dc::MAX_WINDOW;
use genasm_core::dc::{occurrence_distance_into, window_dc_distance_into, window_dc_into, DcArena};
use genasm_core::dc_multi::{
    window_dc_multi_distance_into, window_dc_multi_into, DcLaneStream, MultiDcArena, MultiLane,
    STREAM_LANES, STREAM_LEVELS,
};
use genasm_core::dc_wide::{occurrence_distance_lanes, OccurrenceLaneJob, OccurrenceLaneScratch};
use genasm_core::simd::simd_level;
use genasm_engine::lockstep::LANES;
use genasm_engine::obs::JOB_LATENCY_HISTOGRAM;
use genasm_engine::{DcDispatch, DistanceJob, Engine, EngineConfig, Job};
use genasm_obs::Telemetry;
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};

fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Illumina-profile window pairs: 56bp reads against 64bp reference
/// windows, the shape every interior window of the aligner sees.
fn window_pairs(count: usize, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let genome = GenomeBuilder::new(60_000).seed(seed).build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 56,
        count,
        profile: ErrorProfile::illumina(),
        seed: seed + 1,
        both_strands: false,
        length_model: LengthModel::Fixed,
    });
    sim.simulate(genome.sequence())
        .into_iter()
        .map(|r| {
            let end = (r.origin + 64).min(genome.len());
            (genome.region(r.origin, end).to_vec(), r.seq)
        })
        .collect()
}

/// A batch of (reference window, read) sequence pairs.
type SeqPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Filter-shaped pairs: 150bp reads — multi-word (3-word) patterns,
/// the mapper's candidate shape — against windows padded by the
/// threshold, so the flat scan pays its full `(k+1) × words` row
/// volume per candidate. Returns the pairs and the mapper's 15%
/// threshold for that read length.
fn filter_pairs(count: usize, seed: u64) -> (SeqPairs, usize) {
    let read_length = 150usize;
    let k = (read_length as f64 * 0.15).ceil() as usize;
    let genome = GenomeBuilder::new(60_000).seed(seed).build();
    let sim = ReadSimulator::new(SimConfig {
        read_length,
        count,
        profile: ErrorProfile::illumina(),
        seed: seed + 1,
        both_strands: false,
        length_model: LengthModel::Fixed,
    });
    let pairs = sim
        .simulate(genome.sequence())
        .into_iter()
        .map(|r| {
            let end = (r.origin + read_length + 2 * k).min(genome.len());
            (genome.region(r.origin, end).to_vec(), r.seq)
        })
        .collect();
    (pairs, k)
}

/// Engine jobs: 250bp Illumina-profile reads, the BENCH_engine.json
/// workload.
fn engine_jobs(count: usize, seed: u64) -> Vec<Job> {
    let genome = GenomeBuilder::new(60_000).seed(seed).build();
    let sim = ReadSimulator::new(SimConfig {
        read_length: 250,
        count,
        profile: ErrorProfile::illumina(),
        seed: seed + 1,
        both_strands: false,
        length_model: LengthModel::Fixed,
    });
    sim.simulate(genome.sequence())
        .into_iter()
        .map(|r| {
            let end = (r.origin + r.template_len + 24).min(genome.len());
            Job::new(genome.region(r.origin, end), &r.seq)
        })
        .collect()
}

/// Best pairs/sec over `reps` runs of `work`.
fn best_rate<F: FnMut()>(pairs: usize, reps: usize, mut work: F) -> f64 {
    (0..reps)
        .map(|_| measure_throughput(pairs, &mut work).0)
        .fold(f64::MIN, f64::max)
}

fn run_lockstep<const L: usize, const STORE: bool>(
    pairs: &[(Vec<u8>, Vec<u8>)],
    arena: &mut MultiDcArena<L>,
) {
    let mut lanes: Vec<MultiLane> = Vec::with_capacity(L);
    for chunk in pairs.chunks(L) {
        lanes.clear();
        lanes.extend(chunk.iter().map(|(t, p)| MultiLane {
            text: t,
            pattern: p,
            k_max: p.len(),
        }));
        if STORE {
            window_dc_multi_into::<Dna, L>(&lanes, arena);
        } else {
            window_dc_multi_distance_into::<Dna, L>(&lanes, arena);
        }
        criterion::black_box(arena.outcomes());
    }
}

/// Scans every job's 64-character read blocks over the job's text
/// through the shared-text occurrence stream, one job per text load,
/// refilling each lane with the job's next block the moment it
/// resolves (the engine's phase-1 shape, without its budget fold).
fn run_stream(jobs: &[DistanceJob], stream: &mut DcLaneStream) {
    let mut resolved = Vec::with_capacity(STREAM_LANES);
    for job in jobs {
        stream.load_text::<Dna>(&job.text);
        let mut blocks = job.pattern.chunks(MAX_WINDOW);
        let mut feed = |stream: &mut DcLaneStream, lane: usize| {
            for block in blocks.by_ref() {
                if stream.refill_lane::<Dna>(lane, block, block.len()).is_ok() {
                    return;
                }
            }
        };
        for lane in 0..STREAM_LANES {
            feed(stream, lane);
        }
        while stream.active_lanes() > 0 {
            resolved.clear();
            stream.step(&mut resolved);
            for &lane in &resolved {
                criterion::black_box(stream.outcome(lane));
                stream.release_lane(lane);
                feed(stream, lane);
            }
        }
    }
}

/// `useful / issued` as a fraction, NaN-free.
fn occupancy(counters: (u64, u64)) -> f64 {
    if counters.0 == 0 {
        0.0
    } else {
        counters.1 as f64 / counters.0 as f64
    }
}

fn bench_dc_multi(c: &mut Criterion) {
    let smoke = smoke();
    let reps = if smoke { 2 } else { 3 };
    let n_windows = if smoke { 512 } else { 8192 };
    let n_jobs = if smoke { 64 } else { 256 };

    let mut report = JsonReport::new();
    report.field_str("bench", "dc_multi");
    report.field_str(
        "workload",
        "illumina-profile 56bp windows (kernel) / 250bp reads (engine)",
    );
    report.field_num("windows", n_windows as f64);
    report.field_num("engine_jobs", n_jobs as f64);
    report.field_num("smoke", f64::from(u8::from(smoke)));
    report.field_num(
        "host_parallelism",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
    );
    // The detected SIMD tier the row kernels below run on (0 =
    // portable, 1 = AVX2).
    let tier = simd_level();
    report.field_str("simd_level", tier.name());
    report.field_num("simd_level_rank", tier.rank() as f64);

    // ---- Kernel level: full (edge-storing) mode ----------------------
    let pairs = window_pairs(n_windows, 0xD0C5);
    let mut scalar_arena = DcArena::new();
    let scalar_full = best_rate(pairs.len(), reps, || {
        for (t, p) in &pairs {
            criterion::black_box(window_dc_into::<Dna>(t, p, p.len(), &mut scalar_arena).unwrap());
        }
    });
    let mut a1 = MultiDcArena::<1>::new();
    let mut a4 = MultiDcArena::<4>::new();
    let rate1 = best_rate(pairs.len(), reps, || {
        run_lockstep::<1, true>(&pairs, &mut a1)
    });
    let occ1 = occupancy(a1.take_row_counters());
    let rate4 = best_rate(pairs.len(), reps, || {
        run_lockstep::<4, true>(&pairs, &mut a4)
    });
    let occ4 = occupancy(a4.take_row_counters());
    report.record(
        "kernel_full",
        &[
            ("lanes", 1.0),
            ("scalar", 1.0),
            ("pairs_per_sec", scalar_full),
            ("speedup_vs_scalar", 1.0),
            ("occupancy", 1.0),
        ],
    );
    for (lanes, rate, occ) in [(1usize, rate1, occ1), (4, rate4, occ4)] {
        report.record(
            "kernel_full",
            &[
                ("lanes", lanes as f64),
                ("scalar", 0.0),
                ("pairs_per_sec", rate),
                ("speedup_vs_scalar", rate / scalar_full),
                ("occupancy", occ),
            ],
        );
        println!(
            "kernel full chunked x{lanes}: {rate:.0} pairs/s ({:.2}x scalar, occupancy {:.1}%)",
            rate / scalar_full,
            occ * 100.0
        );
    }
    println!("kernel full scalar: {scalar_full:.0} pairs/s");

    // ---- Kernel level: distance-only mode (the filter workload) ------
    let scalar_distance = best_rate(pairs.len(), reps, || {
        for (t, p) in &pairs {
            criterion::black_box(
                window_dc_distance_into::<Dna>(t, p, p.len(), &mut scalar_arena).unwrap(),
            );
        }
    });
    let distance_4 = best_rate(pairs.len(), reps, || {
        run_lockstep::<4, false>(&pairs, &mut a4)
    });
    for (lanes, rate) in [(1usize, scalar_distance), (4, distance_4)] {
        report.record(
            "kernel_distance_only",
            &[
                ("lanes", lanes as f64),
                ("pairs_per_sec", rate),
                ("speedup_vs_full_scalar", rate / scalar_full),
            ],
        );
        println!(
            "kernel distance-only x{lanes}: {rate:.0} pairs/s ({:.2}x full scalar)",
            rate / scalar_full
        );
    }

    // ---- Kernel level: shared-text occurrence stream ----------------
    // The phase-1 shape: each engine job's 64-character read blocks
    // scanned over the job's text, four lanes per pass, two levels per
    // pass, the hit test one AND accumulator per level. Buffers hold
    // exactly the text's positions, so the accumulator is exact at
    // every depth and no probe falls back to a column scan: each block
    // needs exactly its scalar occurrence distance + 1 levels (row 0
    // included), and the stream's useful-level counter must equal that
    // analytic count.
    let jobs = engine_jobs(n_jobs, 0xBE9C);
    let stream_jobs: Vec<DistanceJob> = jobs
        .iter()
        .map(|job| DistanceJob::new(&job.text, &job.pattern, job.pattern.len()))
        .collect();
    let stream_blocks: usize = stream_jobs
        .iter()
        .map(|j| j.pattern.len().div_ceil(MAX_WINDOW))
        .sum();
    let mut fused_stream = DcLaneStream::new();
    run_stream(&stream_jobs, &mut fused_stream);
    let (fused_rows, fused_useful) = fused_stream.take_row_counters();
    let analytic_useful: u64 = stream_jobs
        .iter()
        .flat_map(|j| j.pattern.chunks(MAX_WINDOW).map(move |b| (&j.text, b)))
        .map(|(t, b)| {
            let d = occurrence_distance_into::<Dna>(t, b, b.len(), &mut scalar_arena);
            d.expect("bench blocks are clean DNA")
                .expect("d = m always hits") as u64
                + 1
        })
        .sum();
    assert_eq!(
        fused_useful, analytic_useful,
        "every stream block must resolve at its scalar depth, with no fallback scan"
    );
    assert_eq!(fused_rows % (STREAM_LANES * STREAM_LEVELS) as u64, 0);
    let fused_rate = best_rate(stream_blocks, reps, || {
        run_stream(&stream_jobs, &mut fused_stream)
    });
    report.field_num("fused_rows_useful", fused_useful as f64);
    report.field_num("analytic_rows_useful", analytic_useful as f64);
    report.record(
        "kernel_fused_hit_test",
        &[
            ("lanes", STREAM_LANES as f64),
            ("levels", STREAM_LEVELS as f64),
            ("blocks_per_sec", fused_rate),
            ("rows_issued", fused_rows as f64),
            ("occupancy", occupancy((fused_rows, fused_useful))),
        ],
    );
    println!(
        "kernel occurrence stream: {fused_rate:.0} blocks/s \
         ({fused_useful} useful levels = the analytic count, {fused_rows} issued)"
    );

    // ---- Kernel level: flat filter scan vs occurrence lanes ----------
    // The filter cascade's tier-1 A/B on multi-word patterns: the flat
    // scan's scalar fallback runs every candidate to the full
    // `(k+1) × words` row volume, while the occurrence-lane kernel
    // deepens one level at a time and stops at the resolving distance.
    // Row counts are deterministic, so the ratio is the regression
    // signal; the rates are flavour.
    let (fpairs, fk) = filter_pairs(if smoke { 256 } else { 2048 }, 0xF17E);
    let frefs: Vec<(&[u8], &[u8])> = fpairs
        .iter()
        .map(|(t, p)| (t.as_slice(), p.as_slice()))
        .collect();
    let mut flat_metrics = ScanMetrics::default();
    let flat_ok = matches_within_many_counted::<Dna>(&frefs, fk, &mut flat_metrics);
    assert!(
        flat_ok.iter().all(|r| matches!(r, Ok(true))),
        "filter-bench reads must pass their own windows"
    );
    let flat_rate = best_rate(fpairs.len(), reps, || {
        let mut m = ScanMetrics::default();
        criterion::black_box(matches_within_many_counted::<Dna>(&frefs, fk, &mut m));
    });
    let patterns: Vec<CascadePattern> = fpairs
        .iter()
        .map(|(_, p)| CascadePattern::new(p).expect("simulated reads are clean DNA"))
        .collect();
    let occ_jobs: Vec<OccurrenceLaneJob<'_, Dna>> = fpairs
        .iter()
        .zip(&patterns)
        .map(|((t, _), cp)| OccurrenceLaneJob {
            text: t,
            pattern: cp.masks(),
            k: fk,
        })
        .collect();
    let mut occ_scratch = OccurrenceLaneScratch::new();
    let mut occ_metrics = ScanMetrics::default();
    let occ_got = occurrence_distance_lanes::<Dna>(&occ_jobs, &mut occ_scratch, &mut occ_metrics);
    assert!(
        occ_got.iter().all(|r| matches!(r, Ok(Some(_)))),
        "occurrence scan must accept the same pairs the flat scan does"
    );
    let occ_rate = best_rate(fpairs.len(), reps, || {
        let mut m = ScanMetrics::default();
        criterion::black_box(occurrence_distance_lanes::<Dna>(
            &occ_jobs,
            &mut occ_scratch,
            &mut m,
        ));
    });
    // Accept-path economics: every pair here passes, so the win is
    // (k+1) levels flat vs (d_max_in_group + 1) levels deepened — about
    // 2x at Illumina error rates, where a 150bp group's slowest lane
    // resolves around d ≈ 10 against k = 23. The cascade's full >=3x
    // row cut needs tier-0's cheap rejects and tier-2 bound reuse on
    // top, which is asserted end to end by scripts/ci.sh's map A/B.
    assert!(
        flat_metrics.rows_issued >= 2 * occ_metrics.rows_issued,
        "iterative deepening must cut accept-path filter rows >=2x: \
         flat {} vs occurrence {}",
        flat_metrics.rows_issued,
        occ_metrics.rows_issued
    );
    report.field_num("filter_threshold", fk as f64);
    for (occurrence, rate, m) in [(0.0, flat_rate, flat_metrics), (1.0, occ_rate, occ_metrics)] {
        report.record(
            "kernel_filter",
            &[
                ("occurrence", occurrence),
                ("pairs_per_sec", rate),
                ("rows_issued", m.rows_issued as f64),
                ("occupancy", occupancy((m.rows_issued, m.rows_useful))),
                (
                    "rows_vs_flat",
                    m.rows_issued as f64 / flat_metrics.rows_issued as f64,
                ),
            ],
        );
    }
    println!(
        "kernel filter flat: {flat_rate:.0} pairs/s ({} rows); \
         occurrence lanes: {occ_rate:.0} pairs/s ({} rows, {:.2}x fewer)",
        flat_metrics.rows_issued,
        occ_metrics.rows_issued,
        flat_metrics.rows_issued as f64 / occ_metrics.rows_issued as f64
    );

    // ---- Engine level: scalar vs lock-step, one worker ---------------
    let dispatches = [DcDispatch::Scalar, DcDispatch::Lockstep];
    // Phase-1 counterparts of the same jobs: the distance-only scans
    // the two-phase mapper resolves candidates on (budget = the 15%
    // error fraction the mapper would use).
    let djobs: Vec<DistanceJob> = jobs
        .iter()
        .map(|job| {
            let k = (job.pattern.len() as f64 * 0.15).ceil() as usize;
            DistanceJob::new(&job.text, &job.pattern, k)
        })
        .collect();
    let mut engine_rates = [0.0f64; 2];
    let mut engine_occupancy = [f64::NAN; 2];
    let mut engine_tb_rows = [0u64; 2];
    let mut engine_distance_secs = [f64::MAX; 2];
    let mut engine_distance_rates = [0.0f64; 2];
    for (slot, &dispatch) in dispatches.iter().enumerate() {
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_dispatch(dispatch),
        );
        let warm = engine.align_batch_with_stats(&jobs);
        assert_eq!(warm.stats.failures, 0, "bench workload must align cleanly");
        for _ in 0..reps {
            let stats = engine.align_batch_with_stats(&jobs).stats;
            engine_rates[slot] = engine_rates[slot].max(stats.pairs_per_sec());
            engine_occupancy[slot] = stats.lane_occupancy().unwrap_or(f64::NAN);
            engine_tb_rows[slot] = stats.tb_rows;
            // The distance-only half of the A/B: identical pairs, no
            // row storage, no traceback. Lock-step dispatch runs the
            // occurrence stream; the Scalar row's distance figure is
            // the per-job block metric.
            let (_, dstats) = engine.distance_batch_keyed(&djobs);
            engine_distance_secs[slot] = engine_distance_secs[slot].min(dstats.wall.as_secs_f64());
            engine_distance_rates[slot] = engine_distance_rates[slot].max(dstats.pairs_per_sec());
        }
    }
    // Scheduling decides who computes a window, never which windows a
    // walk visits: the lock-step engine walks exactly the scalar
    // oracle's traceback rows. The counters are deterministic.
    assert_eq!(
        engine_tb_rows[1], engine_tb_rows[0],
        "lock-step tb_rows must equal the scalar oracle's"
    );
    let scalar_engine = engine_rates[0];
    for (slot, &dispatch) in dispatches.iter().enumerate() {
        let rate = engine_rates[slot];
        let lockstep = dispatch == DcDispatch::Lockstep;
        report.record(
            "engine",
            &[
                ("lockstep", f64::from(u8::from(lockstep))),
                ("lanes", if lockstep { LANES as f64 } else { 1.0 }),
                ("workers", 1.0),
                ("pairs_per_sec", rate),
                ("speedup_vs_scalar", rate / scalar_engine),
                ("occupancy", engine_occupancy[slot]),
                ("tb_rows", engine_tb_rows[slot] as f64),
                ("distance_secs", engine_distance_secs[slot]),
                ("distance_pairs_per_sec", engine_distance_rates[slot]),
                (
                    "distance_speedup_vs_full",
                    engine_distance_rates[slot] / rate,
                ),
            ],
        );
        println!(
            "engine 1 worker {dispatch:?}: {rate:.0} pairs/s ({:.2}x scalar, \
             occupancy {:.1}%); distance-only {:.0} pairs/s ({:.2}x full)",
            rate / scalar_engine,
            engine_occupancy[slot] * 100.0,
            engine_distance_rates[slot],
            engine_distance_rates[slot] / rate
        );
    }
    let lockstep_engine = engine_rates[1];
    // The lock-step PR's shared kernel optimizations (branchless
    // alphabet LUT, allocation-free pattern masks, zero-fill elision)
    // also sped up the scalar baseline itself; the pre-PR engine
    // figure (BENCH_engine.json at the seed of this change) was
    // ~65k pairs/s at one worker on this host.
    report.field_num("engine_pairs_per_sec_pre_pr", 64_675.0);
    report.field_num("engine_speedup_vs_pre_pr", lockstep_engine / 64_675.0);

    // True per-job latency percentiles under the lock-step scheduler at
    // one worker, from the engine's own instrumentation,
    // through the shared snapshot serializer.
    let telemetry = Telemetry::with_flags(true, false);
    let obs_engine = Engine::new(
        EngineConfig::default()
            .with_workers(1)
            .with_dispatch(DcDispatch::Lockstep),
    )
    .with_telemetry(telemetry.clone());
    let out = obs_engine.align_batch_with_stats(&jobs);
    assert_eq!(out.stats.failures, 0, "latency pass must align cleanly");
    let snapshot = telemetry.metrics.snapshot();
    histogram_fields(&mut report, &snapshot, JOB_LATENCY_HISTOGRAM, "job_latency");

    // Smoke runs verify the bench executes but keep the committed
    // full-size artifact intact.
    if smoke {
        println!("smoke run: BENCH_dc_multi.json left untouched");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dc_multi.json");
        report.write_to(path).expect("writing BENCH_dc_multi.json");
        println!("wrote {path}");
    }

    // Console-visible criterion entries for the two headline numbers.
    let mut group = c.benchmark_group("dc_multi_headline");
    group.bench_function("engine_scalar_1w", |b| {
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_dispatch(DcDispatch::Scalar),
        );
        b.iter(|| criterion::black_box(engine.align_batch(&jobs)));
    });
    group.bench_function("engine_lockstep_1w", |b| {
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_dispatch(DcDispatch::Lockstep),
        );
        b.iter(|| criterion::black_box(engine.align_batch(&jobs)));
    });
    group.finish();
}

criterion_group!(benches, bench_dc_multi);
criterion_main!(benches);
