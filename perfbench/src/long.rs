//! `align_long_pairs` and `distance_long_pairs`: 10 kbp PacBio-10%
//! candidate pairs through the engine's two modes — full alignment
//! (DC + TB) and distance only — on the same pairs.

use crate::inputs::{long_budget, long_pairs};
use crate::layers::{EngineTotals, KernelTotals};
use crate::short::BATCH_TAIL_PCT;
use crate::stats::{median_secs, percentile};
use crate::trace::Tracer;
use crate::{best_call_times, Args, Report};
use genasm_baselines::gotoh::{GotohAligner, GotohMode};
use genasm_baselines::myers::myers_semiglobal_distance;
use genasm_bench::workloads::AlignmentPair;
use genasm_core::align::{
    block_occurrence_distance_into, AlignArena, Alignment, GenAsmAligner, GenAsmConfig,
};
use genasm_core::alphabet::Dna;
use genasm_core::scoring::Scoring;
use genasm_engine::{BatchStats, DistanceJob, Engine, EngineConfig, Job};
use std::time::Instant;

/// Which engine mode the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Engine::align_batch_with_stats`: GenASM-DC + GenASM-TB.
    Align,
    /// `Engine::distance_batch_keyed`: distance-only scans.
    Distance,
}

/// Pairs per engine call (one call is one request). Distance-only scans
/// of 10 kbp pairs run about 20x slower than full alignment, so their
/// calls are smaller, to keep several repeats of every call per run.
const ALIGN_CALL_PAIRS: usize = 16;
const DISTANCE_CALL_PAIRS: usize = 1;
/// Pairs `distance_long_pairs` runs: the first of the seed's pairs. A
/// one-pair call takes ~15 ms; with 16 calls each repeats ~120 times in a
/// 30 s run, and the fastest repeat then moves less between runs.
const DISTANCE_PAIRS: usize = 16;
/// Blocks of engine constructions timed per run; `setup_s` is the median
/// over blocks of the block's time per construction. One construction
/// takes ~0.2 µs, too close to the clock's own cost to time alone.
const SETUP_REPS: usize = 101;
const SETUP_BLOCK: usize = 100;

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_workers(1))
}

/// The calls of one pass, built before timing starts.
enum Calls {
    Align(Vec<Vec<Job>>),
    Distance(Vec<Vec<DistanceJob>>),
}

impl Calls {
    fn build(mode: Mode, pairs: &[AlignmentPair]) -> Self {
        let k = long_budget();
        match mode {
            Mode::Align => Calls::Align(
                pairs
                    .chunks(ALIGN_CALL_PAIRS)
                    .map(|c| c.iter().map(|p| Job::new(&p.region, &p.read)).collect())
                    .collect(),
            ),
            Mode::Distance => Calls::Distance(
                pairs
                    .chunks(DISTANCE_CALL_PAIRS)
                    .map(|c| {
                        c.iter()
                            .map(|p| DistanceJob::new(&p.region, &p.read, k))
                            .collect()
                    })
                    .collect(),
            ),
        }
    }

    fn len(&self) -> usize {
        match self {
            Calls::Align(c) => c.len(),
            Calls::Distance(c) => c.len(),
        }
    }

    fn pairs_per_call(&self) -> usize {
        match self {
            Calls::Align(_) => ALIGN_CALL_PAIRS,
            Calls::Distance(_) => DISTANCE_CALL_PAIRS,
        }
    }

    /// Runs call `i`: each pair's result and the batch's stats.
    fn run(&self, engine: &Engine, i: usize) -> (Vec<PairResult>, BatchStats) {
        match self {
            Calls::Align(calls) => {
                let out = engine.align_batch_with_stats(&calls[i]);
                let results = out
                    .results
                    .into_iter()
                    .map(|r| match r {
                        Ok(a) => PairResult::Aligned(a),
                        Err(e) => PairResult::Failed(format!("{e:?}")),
                    })
                    .collect();
                (results, out.stats)
            }
            Calls::Distance(calls) => {
                let (out, stats) = engine.distance_batch_keyed(&calls[i]);
                let results = out
                    .into_iter()
                    .map(|kd| match kd.result {
                        Ok(d) => PairResult::Distance(d),
                        Err(e) => PairResult::Failed(format!("{e:?}")),
                    })
                    .collect();
                (results, stats)
            }
        }
    }
}

/// One pair's engine result.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PairResult {
    Aligned(Alignment),
    /// The distance-only bound; `None` past the distance budget.
    Distance(Option<usize>),
    Failed(String),
}

/// Per-pair references computed once, outside the timed loop.
struct Oracle {
    /// `GenAsmAligner::align`'s edit distance on each pair (the scalar
    /// kernel).
    genasm: Vec<usize>,
    /// What the engine must return per pair: the scalar aligner's
    /// alignment (align mode) or the scalar block-occurrence bound
    /// `block_occurrence_distance_into` (distance mode).
    expected: Vec<PairResult>,
}

impl Oracle {
    fn new(mode: Mode, pairs: &[AlignmentPair]) -> Result<Self, String> {
        let aligner = GenAsmAligner::new(GenAsmConfig::default());
        let mut arena = AlignArena::new();
        let (mut genasm, mut expected) = (Vec::new(), Vec::new());
        for (i, p) in pairs.iter().enumerate() {
            let a = aligner
                .align(&p.region, &p.read)
                .map_err(|e| format!("pair {i}: scalar align failed: {e:?}"))?;
            genasm.push(a.edit_distance);
            expected.push(match mode {
                Mode::Align => PairResult::Aligned(a),
                Mode::Distance => PairResult::Distance(
                    block_occurrence_distance_into::<Dna>(
                        &p.region,
                        &p.read,
                        long_budget(),
                        &mut arena,
                    )
                    .map_err(|e| format!("pair {i}: scalar distance failed: {e:?}"))?,
                ),
            });
        }
        Ok(Oracle { genasm, expected })
    }

    /// Checks one call's results; returns the number of wrong pairs.
    fn wrong(&self, first: usize, got: &[PairResult]) -> usize {
        got.iter()
            .enumerate()
            .filter(|&(j, r)| {
                let i = first + j;
                // A distance must also be a lower bound of the aligned one.
                *r != self.expected[i]
                    || matches!(r, PairResult::Distance(Some(d)) if *d > self.genasm[i])
            })
            .count()
    }

    /// Sum of the distance-mode bounds (0 past the budget).
    fn bound_sum(&self) -> usize {
        self.expected
            .iter()
            .map(|r| match r {
                PairResult::Distance(d) => d.unwrap_or(0),
                _ => 0,
            })
            .sum()
    }
}

/// The exact anchored edit distance (text prefix fixed, text suffix
/// free) of each pair, from the `genasm-baselines` references: the
/// semiglobal Myers distance (text prefix free too) is a lower bound
/// and GenASM's distance an upper bound, so where they meet the value
/// is exact; the remaining pairs run the exact Gotoh DP under unit
/// costs. Two threads.
fn exact_distances(pairs: &[AlignmentPair], genasm: &[usize]) -> Vec<usize> {
    let exact = |i: usize| {
        let p = &pairs[i];
        if myers_semiglobal_distance(&p.region, &p.read) == genasm[i] {
            genasm[i]
        } else {
            let dp = GotohAligner::new(Scoring::unit(), GotohMode::TextSuffixFree);
            (-dp.score_only(&p.region, &p.read)) as usize
        }
    };
    std::thread::scope(|s| {
        let odd = s.spawn(|| (1..pairs.len()).step_by(2).map(exact).collect::<Vec<_>>());
        let even: Vec<usize> = (0..pairs.len()).step_by(2).map(exact).collect();
        let odd = odd.join().expect("oracle thread panicked");
        (0..pairs.len())
            .map(|i| if i % 2 == 0 { even[i / 2] } else { odd[i / 2] })
            .collect()
    })
}

pub fn run(args: &Args, mode: Mode) -> Report {
    let mut report = Report::default();
    let mut pairs = long_pairs(args.seed);
    if mode == Mode::Distance {
        pairs.truncate(DISTANCE_PAIRS);
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut block = Vec::with_capacity(SETUP_BLOCK);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        block.extend((0..SETUP_BLOCK).map(|_| engine()));
        setups.push(t0.elapsed() / SETUP_BLOCK as u32);
        block.clear();
    }
    let engine = engine();
    let oracle = match Oracle::new(mode, &pairs) {
        Ok(o) => o,
        Err(e) => {
            report.errors.push(e);
            return report;
        }
    };
    let calls = Calls::build(mode, &pairs);
    let per_call = calls.pairs_per_call();

    if args.trace {
        trace(args, mode, &pairs, &engine, &calls, &oracle, &mut report);
        return report;
    }

    let (times, passes) = best_call_times(
        calls.len(),
        args.seconds,
        |i| calls.run(&engine, i).0,
        |i, got| {
            report.attempted += got.len() as u64;
            let wrong = oracle.wrong(i * per_call, &got);
            report.check(wrong == 0, || {
                format!("call {i}: {wrong} pairs differ from the scalar reference")
            });
        },
    );
    let accuracy = match mode {
        Mode::Align => {
            let exact = exact_distances(&pairs, &oracle.genasm);
            let hits = exact
                .iter()
                .zip(&oracle.genasm)
                .filter(|(e, g)| e == g)
                .count();
            hits as f64 / pairs.len() as f64
        }
        // How much of the aligned distance the distance-only bound
        // certifies: 1.0 when every bound is exact.
        Mode::Distance => oracle.bound_sum() as f64 / oracle.genasm.iter().sum::<usize>() as f64,
    };
    report.set("setup_s", median_secs(&setups));
    report.set(
        "throughput_per_s",
        pairs.len() as f64 / times.iter().sum::<f64>(),
    );
    report.set("latency_p50_ms", percentile(&times, 50.0) * 1e3);
    report.set("latency_tail_ms", percentile(&times, BATCH_TAIL_PCT) * 1e3);
    report.set("accuracy_frac", accuracy);
    report.note(format!(
        "{} calls of {per_call} pairs, fastest of {passes} passes each; tail = p{BATCH_TAIL_PCT} over calls",
        calls.len()
    ));
    report
}

/// The traced run: each call runs once through the program (untraced)
/// and once inside a span, followed by the scalar kernel on the same
/// pairs. The traced call's results and counters must equal the
/// program's, and the scalar kernel's traceback volume must equal the
/// engine's.
fn trace(
    args: &Args,
    mode: Mode,
    pairs: &[AlignmentPair],
    engine: &Engine,
    calls: &Calls,
    oracle: &Oracle,
    report: &mut Report,
) {
    let mut tracer = Tracer::new();
    let aligner = GenAsmAligner::new(GenAsmConfig::default());
    let per_call = calls.pairs_per_call();
    let (mut totals, mut kernel) = (EngineTotals::default(), KernelTotals::default());
    let (mut program_wall, mut traced_wall, mut passes) = (0.0, 0.0, 0usize);
    let started = Instant::now();
    let layer = match mode {
        Mode::Align => "engine.align",
        Mode::Distance => "engine.distance",
    };
    while passes == 0 || started.elapsed().as_secs_f64() < args.seconds {
        for i in 0..calls.len() {
            let req = (passes * calls.len() + i) as u64;
            let program_call = || {
                let t0 = Instant::now();
                let out = calls.run(engine, i);
                (out, t0.elapsed().as_secs_f64())
            };
            tracer.begin("long.call", req);
            let mut traced_call = || {
                let t0 = Instant::now();
                let out = tracer.span(layer, req, || calls.run(engine, i));
                (out, t0.elapsed().as_secs_f64())
            };
            // Alternate which runs first, so neither always finds the
            // caches warmed by the other.
            let (((got, stats), program_s), ((replayed, rstats), traced_s)) =
                if req.is_multiple_of(2) {
                    let program = program_call();
                    (program, traced_call())
                } else {
                    let traced = traced_call();
                    (program_call(), traced)
                };
            program_wall += program_s;
            traced_wall += traced_s;
            let chunk = &pairs[i * per_call..][..got.len()];
            let scalar: Vec<_> = tracer.span("core.align", req, || {
                chunk
                    .iter()
                    .map(|p| aligner.align_with_stats(&p.region, &p.read))
                    .collect()
            });
            tracer.end();

            report.attempted += got.len() as u64;
            let wrong = oracle.wrong(i * per_call, &got);
            report.check(wrong == 0, || {
                format!("call {req}: {wrong} pairs differ from the scalar reference")
            });
            report.check(replayed == got, || {
                format!("call {req}: traced results differ")
            });
            let (a, b) = (counts(&rstats), counts(&stats));
            report.check(a == b, || {
                format!("call {req}: traced counters {a:?} != program counters {b:?}")
            });
            let mut call_kernel = KernelTotals::default();
            for r in &scalar {
                match r {
                    Ok((_, s)) => call_kernel.add(s),
                    Err(e) => report
                        .errors
                        .push(format!("call {req}: scalar align failed: {e:?}")),
                }
            }
            if mode == Mode::Align {
                let (k, e) = (
                    (call_kernel.windows, call_kernel.tb_rows),
                    (stats.tb_windows, stats.tb_rows),
                );
                report.check(k == e, || {
                    format!("call {req}: kernel (windows, tb_rows) {k:?} != engine {e:?}")
                });
            }
            kernel.windows += call_kernel.windows;
            kernel.tb_rows += call_kernel.tb_rows;
            kernel.bitvector_words += call_kernel.bitvector_words;
            totals.add(&rstats);
        }
        passes += 1;
    }
    let n = passes as f64;
    kernel.busy = tracer
        .self_seconds()
        .get("core.align")
        .copied()
        .unwrap_or(0.0);
    match mode {
        Mode::Align => totals.report_align(report, n),
        Mode::Distance => totals.report_distance(report, n),
    }
    kernel.report(
        report,
        n,
        if mode == Mode::Align {
            totals.busy
        } else {
            0.0
        },
    );
    report.set("obs.trace_overhead", 1.0 - program_wall / traced_wall);
    report.set("obs.replay_checks", (calls.len() * passes) as f64);
    report.note(format!(
        "{passes} traced passes of calls of {per_call} pairs"
    ));
    report.write_trace(args, &tracer);
}

/// The deterministic counters of one engine call.
fn counts(s: &BatchStats) -> [u64; 7] {
    [
        s.jobs as u64,
        s.failures as u64,
        s.jobs_prefilled,
        s.dc_rows_issued,
        s.dc_rows_useful,
        s.tb_windows,
        s.tb_rows,
    ]
}
