//! `map_short_repeat`: 150 bp reads through the staged batch mapper on
//! a repeat-rich reference, and the traced replay of the mapper's
//! layers. Its traced run is `serve_open_short`'s: the serving ladder,
//! then the mapper replay, on the same reads.

use crate::inputs::ShortInputs;
use crate::layers::{ratio, EngineTotals, KernelTotals};
use crate::stats::{median_secs, percentile};
use crate::trace::Tracer;
use crate::{best_call_times, Args, Report};
use genasm_core::align::GenAsmAligner;
use genasm_core::alphabet::Dna;
use genasm_core::bitap::ScanMetrics;
use genasm_core::cascade::{tier0_probes, tier0_rejects, CascadePattern, Tier0Scratch};
use genasm_core::dc_wide::{
    occurrence_distance_lanes, OccurrenceLaneJob, OccurrenceLaneScratch, MAX_WIDE_WINDOW,
};
use genasm_core::filter::PreAlignmentFilter;
use genasm_engine::{DcDispatch, DistanceJob, Engine, Job, JobError, KeyedResult};
use genasm_mapper::pipeline::{AlignMode, FilterMode};
use genasm_mapper::seed::SeedScratch;
use genasm_mapper::{
    AlignerKind, FilterKind, MapperConfig, Mapping, PackedRef, ReadMapper, ShardedIndex,
    StageTimings,
};
use std::time::Instant;

/// Reads per `map_batch_with_engine` call: one call is one request, the
/// size of a micro-batch the server flushes on its timer under light
/// load. Per-read cost is within a few percent of 64-read calls, and
/// shorter calls catch more of a shared host's fast moments, so their
/// fastest repeats move less between runs.
pub const MAP_CALL_READS: usize = 16;
/// Set-ups measured per run, after one untimed warm-up (the median is
/// reported): single builds take 15-40 ms on a shared host.
pub const SETUP_REPS: usize = 41;
/// Percentile over calls reported as `latency_tail_ms` by the batch
/// workloads: the highest with ten of the 64 calls beyond it; on
/// `align_long_pairs` (4 calls) it is the slowest call.
pub const BATCH_TAIL_PCT: f64 = 84.0;

/// The mapper every short-read workload runs: the default
/// configuration (cascade filter, two-phase GenASM alignment).
pub fn build_mapper(genome: &[u8]) -> ReadMapper {
    ReadMapper::build(genome, MapperConfig::default())
}

/// The one-worker engine the short-read workloads map with: two workers
/// on a two-core host spread from 4.9k to 9.2k reads/s between runs.
pub fn map_engine(mapper: &ReadMapper) -> Engine {
    mapper.engine(1, DcDispatch::default())
}

/// The scalar reference mappings (`map_read`, one read at a time) that
/// every batch mapping must equal bit for bit, computed on two threads.
pub fn sequential_oracle(mapper: &ReadMapper, reads: &[&[u8]]) -> Vec<Option<Mapping>> {
    let (head, tail) = reads.split_at(reads.len() / 2);
    std::thread::scope(|s| {
        let tail = s.spawn(|| {
            tail.iter()
                .map(|r| mapper.map_read(r).0)
                .collect::<Vec<_>>()
        });
        let mut out: Vec<_> = head.iter().map(|r| mapper.map_read(r).0).collect();
        out.extend(tail.join().expect("oracle thread panicked"));
        out
    })
}

/// Share of reads whose mapping lies at its simulated origin.
pub fn origin_frac(inputs: &ShortInputs, mappings: &[Option<Mapping>]) -> f64 {
    let hits = mappings
        .iter()
        .enumerate()
        .filter(|(i, m)| {
            m.as_ref()
                .is_some_and(|m| inputs.at_origin(*i, m.position, m.reverse))
        })
        .count();
    hits as f64 / mappings.len() as f64
}

pub fn run(args: &Args) -> Report {
    let inputs = ShortInputs::generate(args.seed);
    let reads = inputs.read_seqs();
    let mut report = Report::default();

    let mut setups = Vec::new();
    // One untimed build first, so the timed ones find the allocator warm.
    let mut mapper = build_mapper(&inputs.genome);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        mapper = build_mapper(&inputs.genome);
        setups.push(t0.elapsed());
    }
    let oracle = sequential_oracle(&mapper, &reads);
    let engine = map_engine(&mapper);
    let calls: Vec<&[&[u8]]> = reads.chunks(MAP_CALL_READS).collect();

    if args.trace {
        // The serving ladder runs here too, so every layer is traced on
        // a workload that `BENCHMARK.json` gates.
        let oracle = oracle.into();
        crate::serve::trace(
            args,
            &inputs,
            &mapper,
            &engine,
            &oracle,
            &mut setups,
            &mut report,
        );
        return report;
    }

    let (times, passes) = best_call_times(
        calls.len(),
        args.seconds,
        |i| mapper.map_batch_with_engine(calls[i], &engine).0,
        |i, got| {
            let want = &oracle[i * MAP_CALL_READS..][..calls[i].len()];
            report.attempted += got.len() as u64;
            let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count();
            report.check(wrong == 0, || {
                format!("call {i}: {wrong} batch mappings differ from the oracle")
            });
        },
    );
    report.set("setup_s", median_secs(&setups));
    report.set(
        "throughput_per_s",
        reads.len() as f64 / times.iter().sum::<f64>(),
    );
    report.set("latency_p50_ms", percentile(&times, 50.0) * 1e3);
    report.set("latency_tail_ms", percentile(&times, BATCH_TAIL_PCT) * 1e3);
    report.set("accuracy_frac", origin_frac(&inputs, &oracle));
    report.note(format!(
        "{} calls of {MAP_CALL_READS} reads, fastest of {passes} passes each; tail = p{BATCH_TAIL_PCT} over calls",
        calls.len()
    ));
    report
}

/// The traced run of the mapper's layers: every call of `call_reads`
/// reads runs once through the program (`map_batch_with_engine`,
/// untraced) and once through the replay, whose spans and counters give
/// the per-layer numbers. The replay's counters must equal the
/// program's [`StageTimings`] call by call, and both outputs must equal
/// the oracle.
#[allow(clippy::too_many_arguments)]
pub fn trace_mapper(
    inputs: &ShortInputs,
    mapper: &ReadMapper,
    engine: &Engine,
    oracle: &[Option<Mapping>],
    call_reads: usize,
    seconds: f64,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let cfg = mapper.config();
    let t0 = Instant::now();
    let index = ShardedIndex::build_with_shards(&inputs.genome, cfg.seed_len, cfg.index_shards);
    report.set("mapper.index.build_s", t0.elapsed().as_secs_f64());
    report.set("mapper.index.postings", index.postings() as f64);
    report.set("mapper.index.distinct_seeds", index.distinct_seeds() as f64);
    drop(index);

    let replay = Replay::new(mapper, &inputs.genome);
    let reads = inputs.read_seqs();
    let mut program = StageTimings::default();
    let mut replayed = StageTimings::default();
    let mut totals = LayerTotals::default();
    let (mut program_wall, mut replay_wall, mut passes) = (0.0, 0.0, 0usize);
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        for (c, chunk) in reads.chunks(call_reads).enumerate() {
            let req = (passes * reads.len().div_ceil(call_reads) + c) as u64;
            let program_call = || {
                let t0 = Instant::now();
                let out = mapper.map_batch_with_engine(chunk, engine);
                (out, t0.elapsed().as_secs_f64())
            };
            let mut replay_call = || {
                let t0 = Instant::now();
                tracer.begin("mapper.call", req);
                let out = replay.call(chunk, engine, tracer, req, &mut totals);
                tracer.end();
                (out, t0.elapsed().as_secs_f64())
            };
            // Alternate which runs first, so neither always finds the
            // caches warmed by the other.
            let (((got, timings), program_s), (replay_out, replay_s)) = if req.is_multiple_of(2) {
                let program = program_call();
                (program, replay_call())
            } else {
                let replayed = replay_call();
                (program_call(), replayed)
            };
            program_wall += program_s;
            replay_wall += replay_s;

            report.attempted += chunk.len() as u64;
            let want = &oracle[c * call_reads..][..chunk.len()];
            let wrong = got.iter().zip(want).filter(|(g, w)| g != w).count();
            report.check(wrong == 0, || {
                format!("call {req}: {wrong} batch mappings differ from the oracle")
            });
            match replay_out {
                Ok((mappings, counts)) => {
                    report.check(mappings == got, || {
                        format!("call {req}: replayed mappings differ from the program's")
                    });
                    let (a, b) = (counters(&counts), counters(&timings));
                    report.check(a == b, || {
                        format!("call {req}: replay counters {a:?} != program counters {b:?}")
                    });
                    replayed.accumulate(&counts);
                }
                Err(e) => report
                    .errors
                    .push(format!("call {req}: replay failed: {e}")),
            }
            program.accumulate(&timings);
        }
        passes += 1;
    }

    let n = passes as f64;
    let self_s = tracer.self_seconds();
    let busy = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / n;
    let per_pass = |v: u64| v as f64 / n;
    let examined = replayed.candidates.0 as f64;
    report.set("mapper.seed.busy_s", busy("mapper.seed"));
    report.set(
        "mapper.seed.candidates",
        per_pass(replayed.candidates.0 as u64),
    );
    report.set(
        "mapper.seed.candidates_per_read",
        ratio(examined, (reads.len() * passes) as f64),
    );
    report.set("core.cascade.tier0.busy_s", busy("core.cascade.tier0"));
    report.set("core.cascade.tier0.probes", per_pass(replayed.tier0_probes));
    report.set(
        "core.cascade.tier0.rejects",
        per_pass(replayed.tier0_rejects),
    );
    report.set(
        "core.cascade.tier0.reject_frac",
        ratio(replayed.tier0_rejects as f64, examined),
    );
    let tier1_in = examined - (replayed.tier0_rejects + replayed.cascade_fallbacks) as f64;
    report.set("core.cascade.tier1.busy_s", busy("core.cascade.tier1"));
    report.set(
        "core.cascade.tier1.rows_issued",
        per_pass(replayed.filter_rows.0),
    );
    report.set(
        "core.cascade.tier1.rows_useful",
        per_pass(replayed.filter_rows.1),
    );
    report.set(
        "core.cascade.tier1.occupancy",
        ratio(replayed.filter_rows.1 as f64, replayed.filter_rows.0 as f64),
    );
    report.set(
        "core.cascade.tier1.rejects",
        per_pass(replayed.tier1_rejects),
    );
    report.set(
        "core.cascade.tier1.reject_frac",
        ratio(replayed.tier1_rejects as f64, tier1_in),
    );
    report.set(
        "core.cascade.fallbacks",
        per_pass(replayed.cascade_fallbacks),
    );
    totals.distance.report_distance(report, n);
    totals.align.report_align(report, n);
    totals.kernel.busy = self_s.get("core.align").copied().unwrap_or(0.0);
    totals.kernel.report(report, n, totals.align.busy);

    let stages = program.total().as_secs_f64();
    report.set("mapper.pipeline.wall_s", program_wall / n);
    report.set("mapper.pipeline.seed_s", program.seeding.as_secs_f64() / n);
    report.set(
        "mapper.pipeline.filter_s",
        program.filtering.as_secs_f64() / n,
    );
    report.set(
        "mapper.pipeline.distance_s",
        program.distance.as_secs_f64() / n,
    );
    report.set(
        "mapper.pipeline.traceback_s",
        program.traceback.as_secs_f64() / n,
    );
    report.set("mapper.pipeline.other_s", (program_wall - stages) / n);
    // The replay also runs the scalar kernel, which the program does not.
    report.set(
        "obs.trace_overhead",
        1.0 - program_wall / (replay_wall - totals.kernel.busy),
    );
    report.set(
        "obs.replay_checks",
        (reads.len().div_ceil(call_reads) * passes) as f64,
    );
    report.note(format!(
        "{passes} traced passes of calls of {call_reads} reads"
    ));
}

/// The deterministic work counters the replay must reproduce exactly.
fn counters(t: &StageTimings) -> [(&'static str, u64); 14] {
    [
        ("candidates", t.candidates.0 as u64),
        ("survivors", t.candidates.1 as u64),
        ("tier0_rejects", t.tier0_rejects),
        ("tier0_probes", t.tier0_probes),
        ("tier1_rejects", t.tier1_rejects),
        ("cascade_accepts", t.cascade_accepts),
        ("cascade_fallbacks", t.cascade_fallbacks),
        ("filter_rows_issued", t.filter_rows.0),
        ("filter_rows_useful", t.filter_rows.1),
        ("distance_jobs", t.distance_jobs),
        ("prefilled", t.bound_reuse_hits),
        ("traceback_jobs", t.traceback_jobs),
        ("tb_windows", t.tb_rows.0),
        ("tb_rows", t.tb_rows.1),
    ]
}

/// Engine and kernel totals of the replay.
#[derive(Debug, Default)]
struct LayerTotals {
    distance: EngineTotals,
    align: EngineTotals,
    kernel: KernelTotals,
}

/// A candidate's filter state during the replay.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// Passed tier 0; awaiting tier 1.
    Pending,
    Rejected,
    /// Accepted, with the exact occurrence distance when tier 1 gave one.
    Accepted(Option<usize>),
}

/// One read orientation with its seeded candidates.
struct Oriented {
    read: usize,
    reverse: bool,
    seq: Vec<u8>,
    budget: usize,
    positions: Vec<usize>,
    verdicts: Vec<Verdict>,
    pattern: Option<CascadePattern>,
}

/// A filter survivor: the two-phase alignment's unit of work.
struct Cand {
    read: usize,
    reverse: bool,
    pos: usize,
    oriented: usize,
    bound: Option<usize>,
}

/// The mapper's batch pipeline rebuilt from each layer's public
/// functions, so the benchmark can time every layer from outside the
/// program: `Seeder::candidates_into` (mapper.seed), the cascade's
/// tier 0 (`PackedRef::window_codes_into` + `tier0_rejects`) and tier 1
/// (`occurrence_distance_lanes`), then the engine's distance and align
/// modes, and the scalar `GenAsmAligner` on the pairs the engine
/// aligned (core.align). Supports the default mapper configuration
/// only, which is the one every workload runs.
struct Replay<'a> {
    mapper: &'a ReadMapper,
    reference: &'a [u8],
    packed: PackedRef,
    aligner: GenAsmAligner,
}

impl<'a> Replay<'a> {
    fn new(mapper: &'a ReadMapper, reference: &'a [u8]) -> Self {
        let cfg = mapper.config();
        assert!(
            cfg.filter == FilterKind::GenAsm
                && cfg.filter_mode == FilterMode::Cascade
                && cfg.aligner == AlignerKind::GenAsm
                && cfg.align_mode == AlignMode::TwoPhase,
            "the replay follows the default mapper configuration only"
        );
        Replay {
            mapper,
            reference,
            packed: PackedRef::pack(reference),
            aligner: GenAsmAligner::new(cfg.genasm.clone()),
        }
    }

    /// The candidate region for a read of length `m` at `pos`.
    fn region(&self, pos: usize, m: usize, k: usize) -> &'a [u8] {
        let end = (pos + m + k).min(self.reference.len());
        &self.reference[pos..end]
    }

    /// Replays one batch call; returns its mappings and counters.
    fn call(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
        tracer: &mut Tracer,
        req: u64,
        totals: &mut LayerTotals,
    ) -> Result<(Vec<Option<Mapping>>, StageTimings), String> {
        let cfg = self.mapper.config();
        let mut t = StageTimings::default();
        let mut oriented = Vec::with_capacity(reads.len() * 2);
        for (read, seq) in reads.iter().enumerate() {
            let budget = (seq.len() as f64 * cfg.error_fraction).ceil() as usize;
            let mut push = |seq: Vec<u8>, reverse| {
                oriented.push(Oriented {
                    read,
                    reverse,
                    seq,
                    budget,
                    positions: Vec::new(),
                    verdicts: Vec::new(),
                    pattern: None,
                })
            };
            push(seq.to_vec(), false);
            if cfg.both_strands {
                push(
                    seq.iter().rev().map(|&b| Dna::complement(b)).collect(),
                    true,
                );
            }
        }

        tracer.begin("mapper.seed", req);
        let (mut scratch, mut raw) = (SeedScratch::default(), Vec::new());
        let last = self.reference.len().saturating_sub(1);
        for o in &mut oriented {
            cfg.seeder
                .candidates_into(self.mapper.index(), &o.seq, &mut scratch, &mut raw);
            o.positions.extend(raw.iter().map(|c| c.position.min(last)));
            t.candidates.0 += o.positions.len();
        }
        tracer.end();

        let mut rows = ScanMetrics::default();
        tracer.begin("core.cascade.tier0", req);
        let (mut codes, mut tier0) = (Vec::new(), Tier0Scratch::new());
        for o in &mut oriented {
            let k = o.budget;
            o.pattern = (o.seq.len() <= MAX_WIDE_WINDOW)
                .then(|| CascadePattern::new(&o.seq).ok())
                .flatten();
            for &pos in &o.positions {
                let window = self.region(pos, o.seq.len(), k);
                codes.clear();
                let verdict = match &o.pattern {
                    Some(p) if self.packed.window_codes_into(pos, window.len(), &mut codes) => {
                        t.tier0_probes += tier0_probes(window.len(), p);
                        if tier0_rejects(&codes, p, k, &mut tier0) {
                            t.tier0_rejects += 1;
                            Verdict::Rejected
                        } else {
                            Verdict::Pending
                        }
                    }
                    // Non-DNA bytes or an over-wide read: the cascade
                    // falls back to the flat scan's verdict.
                    _ => {
                        t.cascade_fallbacks += 1;
                        let accept = PreAlignmentFilter::new(k)
                            .accepts_many_counted(&[(window, &o.seq)], &mut rows)
                            .pop()
                            .is_some_and(|d| d.unwrap_or(false));
                        if accept {
                            Verdict::Accepted(None)
                        } else {
                            Verdict::Rejected
                        }
                    }
                };
                o.verdicts.push(verdict);
            }
        }
        tracer.end();

        tracer.begin("core.cascade.tier1", req);
        let mut lanes = OccurrenceLaneScratch::new();
        for o in &mut oriented {
            let Oriented {
                seq,
                budget,
                positions,
                verdicts,
                pattern,
                ..
            } = o;
            let pending: Vec<usize> = (0..verdicts.len())
                .filter(|&i| matches!(verdicts[i], Verdict::Pending))
                .collect();
            let Some(p) = pattern.as_ref().filter(|_| !pending.is_empty()) else {
                continue;
            };
            let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = pending
                .iter()
                .map(|&i| OccurrenceLaneJob {
                    text: self.region(positions[i], seq.len(), *budget),
                    pattern: p.masks(),
                    k: *budget,
                })
                .collect();
            let results = occurrence_distance_lanes::<Dna>(&jobs, &mut lanes, &mut rows);
            for (&i, result) in pending.iter().zip(results) {
                verdicts[i] = match result {
                    Ok(Some(d)) => {
                        t.cascade_accepts += 1;
                        Verdict::Accepted(Some(d))
                    }
                    _ => {
                        t.tier1_rejects += 1;
                        Verdict::Rejected
                    }
                };
            }
        }
        tracer.end();
        t.filter_rows = (rows.rows_issued, rows.rows_useful);

        let mut cands = Vec::new();
        for (oi, o) in oriented.iter().enumerate() {
            for (&pos, v) in o.positions.iter().zip(&o.verdicts) {
                if let Verdict::Accepted(bound) = *v {
                    cands.push(Cand {
                        read: o.read,
                        reverse: o.reverse,
                        pos,
                        oriented: oi,
                        bound,
                    });
                }
            }
        }
        t.candidates.1 = cands.len();
        let pair = |c: &Cand| {
            let o = &oriented[c.oriented];
            (
                self.region(c.pos, o.seq.len(), o.budget),
                o.seq.as_slice(),
                o.budget,
            )
        };

        // Phase 1: distances for contested reads' candidates only.
        let mut per_read = vec![0usize; reads.len()];
        for c in &cands {
            per_read[c.read] += 1;
        }
        let mut bound = vec![0usize; cands.len()];
        let contested: Vec<usize> = (0..cands.len())
            .filter(|&i| per_read[cands[i].read] > 1)
            .collect();
        if !contested.is_empty() {
            let jobs: Vec<DistanceJob> = contested
                .iter()
                .map(|&i| {
                    let (text, seq, k) = pair(&cands[i]);
                    match cands[i].bound {
                        Some(d) => DistanceJob::prefilled(d),
                        None => DistanceJob::new(text, seq, k),
                    }
                    .with_key(i as u64)
                })
                .collect();
            let (distances, stats) = tracer.span("engine.distance", req, || {
                engine.distance_batch_keyed(&jobs)
            });
            t.distance_jobs = jobs.len() as u64;
            t.bound_reuse_hits = stats.jobs_prefilled;
            absorb(&mut t, &stats);
            totals.distance.add(&stats);
            for kd in distances {
                let i = kd.key as usize;
                bound[i] = match kd.result {
                    Ok(Some(d)) => d,
                    Ok(None) => oriented[cands[i].oriented].budget + 1,
                    Err(e) => return Err(format!("distance job {i}: {e:?}")),
                };
            }
        }

        // Resolve on the bounds, then trace back the winners.
        let mut min_bound = vec![usize::MAX; reads.len()];
        for (i, c) in cands.iter().enumerate() {
            min_bound[c.read] = min_bound[c.read].min(bound[i]);
        }
        let winners: Vec<usize> = (0..cands.len())
            .filter(|&i| bound[i] == min_bound[cands[i].read])
            .collect();
        let mut aligned = vec![false; cands.len()];
        let mut best: Vec<Option<Mapping>> = vec![None; reads.len()];
        let mut round = |indices: Vec<usize>,
                         t: &mut StageTimings,
                         best: &mut [Option<Mapping>],
                         aligned: &mut [bool]|
         -> Result<(), String> {
            let jobs: Vec<Job> = indices
                .iter()
                .map(|&i| {
                    let (text, seq, _) = pair(&cands[i]);
                    Job::new(text, seq).with_key(i as u64)
                })
                .collect();
            let (keyed, stats) = tracer.span("engine.align", req, || {
                engine.align_batch_keyed_with_stats(&jobs)
            });
            t.traceback_jobs += jobs.len() as u64;
            absorb(t, &stats);
            totals.align.add(&stats);
            // The same pairs through the scalar kernel, which the
            // engine's alignments must equal.
            let scalar: Vec<_> = tracer.span("core.align", req, || {
                jobs.iter()
                    .map(|j| self.aligner.align_with_stats(&j.text, &j.pattern))
                    .collect()
            });
            for (KeyedResult { key, result }, reference) in keyed.into_iter().zip(scalar) {
                let i = key as usize;
                aligned[i] = true;
                if let Ok((_, stats)) = &reference {
                    totals.kernel.add(stats);
                }
                let alignment = match (result, reference) {
                    (Ok(a), Ok((r, _))) if a == r => a,
                    (Err(JobError::Align(e)), Err(r)) if e == r => continue,
                    (got, want) => {
                        return Err(format!("candidate {i}: engine {got:?} != scalar {want:?}"))
                    }
                };
                let c = &cands[i];
                let m = Mapping {
                    position: c.pos,
                    reverse: c.reverse,
                    score: cfg.scoring.score_cigar(&alignment.cigar),
                    edit_distance: alignment.edit_distance,
                    cigar: alignment.cigar,
                };
                let key = |m: &Mapping| (m.edit_distance, usize::from(m.reverse), m.position);
                if best[c.read].as_ref().is_none_or(|b| key(&m) < key(b)) {
                    best[c.read] = Some(m);
                }
            }
            Ok(())
        };
        round(winners, &mut t, &mut best, &mut aligned)?;
        // Verification: candidates whose bound could still beat or tie
        // the realized best.
        let verify: Vec<usize> = (0..cands.len())
            .filter(|&i| {
                !aligned[i]
                    && bound[i]
                        <= best[cands[i].read]
                            .as_ref()
                            .map_or(usize::MAX, |b| b.edit_distance)
            })
            .collect();
        if !verify.is_empty() {
            round(verify, &mut t, &mut best, &mut aligned)?;
        }
        Ok((best, t))
    }
}

/// Folds one engine batch's row and traceback volume into the counters,
/// as the pipeline does.
fn absorb(t: &mut StageTimings, s: &genasm_engine::BatchStats) {
    t.dc_rows.0 += s.dc_rows_issued;
    t.dc_rows.1 += s.dc_rows_useful;
    t.tb_rows.0 += s.tb_windows;
    t.tb_rows.1 += s.tb_rows;
}
