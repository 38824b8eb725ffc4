//! The window-level lock-step schedulers: the engine-side half of the
//! multi-lane DC kernels.
//!
//! The scalar engine path keeps one alignment in flight per worker; the
//! GenASM hardware instead keeps *many* windows in flight at once (§7).
//! Two schedulers reproduce that shape in software, one per execution
//! mode, both at [`LANES`] lanes:
//!
//! * **Full mode** ([`align_chunk_chunked`], DC + TB): gathers each
//!   in-flight walk's next ready window into one lock-step batch and
//!   runs the batch through [`window_dc_multi_into`]; a walk that
//!   finishes hands its lane to the chunk's next job. Each pass runs
//!   until its *deepest* window resolves, so lanes whose windows
//!   resolved early idle for the rest of the pass —
//!   [`BatchStats::lane_occupancy`](crate::BatchStats::lane_occupancy)
//!   reports that waste. Results are bit-identical to
//!   [`GenAsmAligner::align`](genasm_core::GenAsmAligner::align):
//!   scheduling only changes *when* windows are computed, never
//!   *what*.
//! * **Distance-only mode** ([`distance_chunk_streaming`], phase 1):
//!   one job at a time, the job's text is loaded into a
//!   [`DcLaneStream`] and its 64-character pattern blocks stream
//!   through the stream's lanes, which advance at their own depths,
//!   two levels per pass, and refill the moment they resolve.
//!
//! Configurations outside the lock-step kernels' domain (wide windows,
//! the SENE kernel, global mode) and stragglers (a walk that reaches a
//! global-final window) fall back to the scalar [`drive_window_walk`]
//! on the same arena-backed kernels.

use crate::job::{DistanceJob, Job};
use crate::obs::{retire_job, stamp_job, WorkerObs};
use genasm_core::align::{
    block_occurrence_distance_into, drive_window_walk, AlignArena, Alignment, AlignmentMode,
    GenAsmConfig, WindowKernel, WindowStats, WindowWalk,
};
use genasm_core::alphabet::Dna;
use genasm_core::dc::MAX_WINDOW;
use genasm_core::dc_multi::{
    window_dc_multi_into, DcLaneStream, MultiDcArena, MultiLane, DEFAULT_LANES, STREAM_LANES,
};
use genasm_core::error::AlignError;
use std::time::Instant;

/// Lanes of every lock-step pass: four `u64` lanes fill one 256-bit
/// AVX2 vector.
pub const LANES: usize = DEFAULT_LANES;

/// Traceback accounting a worker accumulates across jobs: windows
/// walked and the distance rows those walks had available (`d + 1` per
/// window). The engine sums these into
/// [`BatchStats::{tb_windows,tb_rows}`](crate::BatchStats) so the
/// two-phase mapper's traceback-row reduction is a measured number.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TbCounters {
    pub(crate) windows: u64,
    pub(crate) rows: u64,
}

impl TbCounters {
    /// Folds one retired walk's window stats in.
    fn absorb(&mut self, stats: &WindowStats) {
        self.windows += stats.windows as u64;
        self.rows += stats.tb_rows as u64;
    }

    /// Returns and resets the counters as `(windows, rows)`.
    pub(crate) fn take(&mut self) -> (u64, u64) {
        let taken = (self.windows, self.rows);
        *self = TbCounters::default();
        taken
    }
}

/// Per-worker scratch of the lock-step GenASM kernel: the full-mode
/// lock-step arena, the distance-only occurrence stream, a scalar
/// arena for fallbacks, and the worker's traceback counters — all
/// recycled across jobs, so a warmed-up worker allocates nothing in
/// the DC hot loop.
#[derive(Debug)]
pub struct LockstepScratch {
    pub(crate) multi: MultiDcArena<LANES>,
    pub(crate) occurrence: DcLaneStream,
    pub(crate) scalar: AlignArena,
    pub(crate) tb: TbCounters,
    /// Per-worker telemetry installed by the engine when its
    /// [`Telemetry`](genasm_obs::Telemetry) has anything enabled;
    /// `None` (the default) keeps every scheduler's instrumentation
    /// down to one `Option` check.
    pub(crate) obs: Option<WorkerObs>,
}

impl Default for LockstepScratch {
    fn default() -> Self {
        LockstepScratch {
            multi: MultiDcArena::new(),
            occurrence: DcLaneStream::new(),
            scalar: AlignArena::new(),
            tb: TbCounters::default(),
            obs: None,
        }
    }
}

impl LockstepScratch {
    /// Returns and resets the lock-step row-slot counters accumulated
    /// by both schedulers: `(issued, useful)`.
    pub fn take_row_counters(&mut self) -> (u64, u64) {
        let (mi, mu) = self.multi.take_row_counters();
        let (oi, ou) = self.occurrence.take_row_counters();
        (mi + oi, mu + ou)
    }
}

/// Whether a configuration can run on the lock-step kernels: semiglobal
/// single-word edge-store windows (the paper's hardware configuration,
/// and the engine's default).
pub(crate) fn lockstep_eligible(config: &GenAsmConfig) -> bool {
    config.window <= MAX_WINDOW
        && config.kernel == WindowKernel::EdgeStore
        && config.mode == AlignmentMode::Semiglobal
}

/// Aligns one pair with the scalar window kernels (the same machinery
/// [`GenAsmAligner::align_with_arena`](genasm_core::GenAsmAligner)
/// runs), folding the walk's traceback accounting into `tb` — the
/// windows walked before a mid-alignment failure included, so
/// traceback counters agree across dispatch modes.
pub(crate) fn align_job_scalar(
    config: &GenAsmConfig,
    text: &[u8],
    pattern: &[u8],
    arena: &mut AlignArena,
    tb: &mut TbCounters,
) -> Result<Alignment, AlignError> {
    let mut walk = WindowWalk::new(config, text, pattern)?;
    let driven = drive_window_walk::<Dna>(&mut walk, arena);
    tb.absorb(walk.stats());
    driven?;
    Ok(walk.finish())
}

/// One in-flight job: its index in the chunk and its window walk,
/// plus its entry timestamp when per-job latency is being measured
/// (`None` when telemetry is off — no clock reads on the plain path).
struct Active<'j> {
    idx: usize,
    walk: WindowWalk<'j>,
    started: Option<Instant>,
}

/// Scalar wholesale fallback for configurations outside the lock-step
/// domain; per-job latencies are
/// still recorded when telemetry asks for them (here each job really
/// does run start-to-finish on its own).
fn align_chunk_fallback(
    config: &GenAsmConfig,
    jobs: &[Job],
    scalar: &mut AlignArena,
    tb: &mut TbCounters,
    obs: &mut Option<WorkerObs>,
) -> Vec<Result<Alignment, AlignError>> {
    jobs.iter()
        .map(|job| {
            #[cfg(feature = "chaos")]
            genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
            let started = stamp_job(obs);
            let result = align_job_scalar(config, &job.text, &job.pattern, scalar, tb);
            retire_job(obs, started);
            result
        })
        .collect()
}

/// Aligns a chunk of jobs through the lock-step scheduler, returning
/// per-job results in chunk order: each pass gathers the next ready
/// window of up to [`LANES`] in-flight walks into one
/// [`window_dc_multi_into`] batch, and a walk that finishes hands its
/// lane to the chunk's next job. Falls back to the scalar path
/// wholesale when `config` is outside the lock-step domain.
// The gather loop indexes `slots` so finished walks can be taken out of
// their slot mid-iteration; a range loop is the clearest shape for that.
#[allow(clippy::needless_range_loop)]
pub(crate) fn align_chunk_chunked(
    config: &GenAsmConfig,
    jobs: &[Job],
    multi: &mut MultiDcArena<LANES>,
    scalar: &mut AlignArena,
    tb: &mut TbCounters,
    obs: &mut Option<WorkerObs>,
) -> Vec<Result<Alignment, AlignError>> {
    if !lockstep_eligible(config) {
        return align_chunk_fallback(config, jobs, scalar, tb, obs);
    }

    let mut results: Vec<Option<Result<Alignment, AlignError>>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    let mut slots: Vec<Option<Active<'_>>> = Vec::new();
    slots.resize_with(LANES, || None);
    let mut next_job = 0usize;
    let mut inputs: Vec<MultiLane<'_>> = Vec::with_capacity(LANES);
    let mut input_slots: Vec<usize> = Vec::with_capacity(LANES);

    loop {
        // Refill free lanes from the job stream.
        for slot in slots.iter_mut() {
            while slot.is_none() && next_job < jobs.len() {
                let idx = next_job;
                next_job += 1;
                let job = &jobs[idx];
                #[cfg(feature = "chaos")]
                genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
                match WindowWalk::new(config, &job.text, &job.pattern) {
                    Ok(walk) => {
                        let started = stamp_job(obs);
                        *slot = Some(Active { idx, walk, started });
                    }
                    Err(e) => results[idx] = Some(Err(e)),
                }
            }
        }

        // Gather each active walk's next ready window.
        inputs.clear();
        input_slots.clear();
        for slot_idx in 0..slots.len() {
            let Some(active) = slots[slot_idx].as_mut() else {
                continue;
            };
            match active.walk.next_window() {
                None => {
                    let Active { idx, walk, started } =
                        slots[slot_idx].take().expect("slot is active");
                    tb.absorb(walk.stats());
                    results[idx] = Some(Ok(walk.finish()));
                    retire_job(obs, started);
                }
                Some(req) if req.global_final => {
                    // Unreachable for eligible configs; drain the
                    // straggler scalar, defensively.
                    let Active {
                        idx,
                        mut walk,
                        started,
                    } = slots[slot_idx].take().expect("slot is active");
                    let driven = walk
                        .apply_global_final::<Dna>(scalar)
                        .and_then(|()| drive_window_walk::<Dna>(&mut walk, scalar));
                    tb.absorb(walk.stats());
                    results[idx] = Some(driven.map(|()| walk.finish()));
                    retire_job(obs, started);
                }
                Some(req) => {
                    inputs.push(MultiLane {
                        text: req.sub_text,
                        pattern: req.sub_pattern,
                        k_max: req.budget,
                    });
                    input_slots.push(slot_idx);
                }
            }
        }

        if inputs.is_empty() {
            if next_job >= jobs.len() && slots.iter().all(Option::is_none) {
                break;
            }
            // Lanes freed this round; refill and regather.
            continue;
        }

        // One lock-step DC pass advances every gathered window.
        if let Some(o) = obs.as_mut() {
            o.spans.begin("dc");
        }
        window_dc_multi_into::<Dna, LANES>(&inputs, multi);
        if let Some(o) = obs.as_mut() {
            o.spans.end("dc");
            o.spans.begin("tb");
        }
        for (lane, &slot_idx) in input_slots.iter().enumerate() {
            let outcome = multi.outcomes()[lane].clone();
            let active = slots[slot_idx]
                .as_mut()
                .expect("lane maps to an active slot");
            let step = match outcome {
                Ok(d) => active.walk.apply(d, &multi.lane(lane)),
                Err(e) => Err(e),
            };
            if let Err(e) = step {
                let Active { idx, walk, started } = slots[slot_idx].take().expect("slot is active");
                tb.absorb(walk.stats());
                results[idx] = Some(Err(e));
                retire_job(obs, started);
            }
        }
        if let Some(o) = obs.as_mut() {
            o.spans.end("tb");
        }
    }

    results
        .into_iter()
        .map(|slot| slot.expect("every job in the chunk is resolved"))
        .collect()
}

/// Distance-only (phase 1) scan of one job with the scalar kernel: the
/// block-decomposed occurrence bound
/// ([`block_occurrence_distance_into`]) — disjoint 64-character
/// pattern blocks, each scanned for its minimum occurrence anywhere in
/// the text, summed. The reference the lock-step chunk scheduler is
/// tested against.
pub(crate) fn distance_job_scalar(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut AlignArena,
) -> Result<Option<usize>, AlignError> {
    block_occurrence_distance_into::<Dna>(text, pattern, k_max, arena)
}

/// Runs a chunk of distance jobs through the **shared-text occurrence
/// stream**, one job at a time: the job's text is loaded once and its
/// disjoint 64-character pattern blocks become lane scans of it, each
/// lane at its own depth, refilled with the job's next block the moment
/// it resolves — no row storage, no TB-SRAM. When the job has no block
/// left to issue, freed lanes idle until its in-flight blocks resolve;
/// then the next job's text loads. Per-job results (the summed block
/// distances, `None` past the job's budget) come back in chunk order,
/// identical to [`distance_job_scalar`] on each job alone.
pub(crate) fn distance_chunk_streaming(
    jobs: &[DistanceJob],
    stream: &mut DcLaneStream,
) -> Vec<Result<Option<usize>, AlignError>> {
    let mut outcomes = Vec::new();
    jobs.iter()
        .map(|job| distance_job_streaming(job, stream, &mut outcomes))
        .collect()
}

/// One job's block scan on `stream`. Block outcomes arrive out of
/// order (a job's blocks occupy different lanes), but the result must
/// match the scalar reference, which folds blocks strictly in order —
/// e.g. an early block exhausting the budget short-circuits to
/// `Ok(None)` before a later block's validation error is ever
/// observed. Outcomes are therefore buffered per block in `outcomes`
/// and folded only as the ordered prefix completes; once that decides
/// the job, blocks still in flight are abandoned, as the scalar
/// reference never scans blocks past the decision.
fn distance_job_streaming(
    job: &DistanceJob,
    stream: &mut DcLaneStream,
    outcomes: &mut Vec<Option<Result<Option<usize>, AlignError>>>,
) -> Result<Option<usize>, AlignError> {
    if job.pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    #[cfg(feature = "chaos")]
    genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
    stream.load_text::<Dna>(&job.text);
    let m = job.pattern.len();
    let blocks = m.div_ceil(MAX_WINDOW);
    let block = |b: usize| &job.pattern[b * MAX_WINDOW..((b + 1) * MAX_WINDOW).min(m)];
    outcomes.clear();
    outcomes.resize(blocks, None);
    let (mut issued, mut folded, mut sum) = (0usize, 0usize, 0usize);
    let mut loaded: [Option<usize>; STREAM_LANES] = [None; STREAM_LANES];
    let mut resolved = Vec::with_capacity(STREAM_LANES);
    loop {
        for (lane, slot) in loaded.iter_mut().enumerate() {
            while slot.is_none() && issued < blocks {
                match stream.refill_lane::<Dna>(lane, block(issued), job.k_max) {
                    Ok(()) => *slot = Some(issued),
                    Err(e) => outcomes[issued] = Some(Err(e)),
                }
                issued += 1;
            }
        }
        while let Some(Some(outcome)) = outcomes.get(folded) {
            match outcome {
                Ok(Some(d)) => sum += d,
                // A block past the budget caps the sum past it too.
                Ok(None) => return Ok(None),
                Err(e) => return Err(e.clone()),
            }
            folded += 1;
            if sum > job.k_max {
                return Ok(None);
            }
        }
        if folded == blocks {
            return Ok(Some(sum));
        }
        resolved.clear();
        stream.step(&mut resolved);
        for &lane in &resolved {
            let block = loaded[lane].take().expect("resolved lane is loaded");
            outcomes[block] = Some(Ok(stream.outcome(lane)));
            stream.release_lane(lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genasm_core::align::GenAsmAligner;

    fn jobs(count: usize, seed: u64) -> Vec<Job> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let base: Vec<u8> = (0..600).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        (0..count)
            .map(|i| {
                let len = 40 + (next() as usize % 400);
                let mut pattern = base[..len].to_vec();
                for _ in 0..(next() % 6) {
                    let idx = next() as usize % pattern.len();
                    match next() % 3 {
                        0 => pattern[idx] = b"ACGT"[(next() % 4) as usize],
                        1 => {
                            if pattern.len() > 2 {
                                pattern.remove(idx);
                            }
                        }
                        _ => pattern.insert(idx, b"ACGT"[(next() % 4) as usize]),
                    }
                }
                let text_len = (len + 60 + i % 7).min(base.len());
                Job::new(&base[..text_len], &pattern)
            })
            .collect()
    }

    fn run_chunked(
        config: &GenAsmConfig,
        jobs: &[Job],
        scratch: &mut LockstepScratch,
    ) -> Vec<Result<Alignment, AlignError>> {
        align_chunk_chunked(
            config,
            jobs,
            &mut scratch.multi,
            &mut scratch.scalar,
            &mut scratch.tb,
            &mut scratch.obs,
        )
    }

    #[test]
    fn lockstep_chunks_are_bit_identical_to_sequential_alignment() {
        let config = GenAsmConfig::default();
        let aligner = GenAsmAligner::new(config.clone());
        let mut scratch = LockstepScratch::default();
        for count in [1usize, 3, 4, 5, 11, 32] {
            let jobs = jobs(count, count as u64 * 39);
            let results = run_chunked(&config, &jobs, &mut scratch);
            assert_eq!(results.len(), jobs.len());
            for (job, result) in jobs.iter().zip(&results) {
                let expected = aligner.align(&job.text, &job.pattern).unwrap();
                assert_eq!(&expected, result.as_ref().unwrap(), "count={count}");
            }
        }
    }

    #[test]
    fn job_errors_resolve_in_place() {
        let config = GenAsmConfig::default();
        let mut scratch = LockstepScratch::default();
        let mut jobs = jobs(6, 17);
        jobs[1].pattern.clear();
        jobs[4].text = b"ACGTNN".to_vec();
        let results = run_chunked(&config, &jobs, &mut scratch);
        assert!(matches!(results[1], Err(AlignError::EmptyPattern)));
        assert!(matches!(results[4], Err(AlignError::InvalidSymbol { .. })));
        for idx in [0usize, 2, 3, 5] {
            assert!(results[idx].is_ok(), "idx={idx}");
        }
    }

    #[test]
    fn distance_chunks_match_scalar_distance_scans() {
        let mut scratch = LockstepScratch::default();
        let mut check = |djobs: &[DistanceJob]| {
            let got = distance_chunk_streaming(djobs, &mut scratch.occurrence);
            for (job, got) in djobs.iter().zip(&got) {
                let want =
                    distance_job_scalar(&job.text, &job.pattern, job.k_max, &mut scratch.scalar);
                assert_eq!(&want, got, "pattern len {}", job.pattern.len());
            }
            // Splitting the chunk (as claim boundaries do) never
            // changes a job's result.
            for split in [1usize, 3] {
                let parts: Vec<_> = djobs
                    .chunks(split)
                    .flat_map(|part| distance_chunk_streaming(part, &mut scratch.occurrence))
                    .collect();
                assert_eq!(parts, got, "split {split}");
            }
        };

        // Single-block jobs with divergent distances + budgets.
        let short: Vec<DistanceJob> = jobs(17, 91)
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let m = job.pattern.len().min(60);
                let k = match i % 3 {
                    0 => 0,
                    1 => 2,
                    _ => m,
                };
                DistanceJob::new(&job.text[..job.text.len().min(64)], &job.pattern[..m], k)
            })
            .collect();
        check(&short);

        // Mixed: multi-block (long) patterns interleaved with
        // single-block ones, plus error jobs resolved in place.
        let mut mixed: Vec<DistanceJob> = jobs(9, 123)
            .into_iter()
            .map(|job| {
                let k = job.pattern.len() / 4;
                DistanceJob::new(&job.text, &job.pattern, k)
            })
            .collect();
        mixed[2].pattern.clear(); // EmptyPattern
        mixed[5].text = b"ACGTNACGT".to_vec(); // InvalidSymbol
        check(&mixed);

        // The in-order short-circuit rule: an early block exhausting
        // the budget must yield Ok(None) even when a *later* block
        // carries a validation error that a lane may hit first — the
        // scalar reference never evaluates blocks past the decision.
        let text: Vec<u8> = b"ACGGTCAT".iter().copied().cycle().take(120).collect();
        let mut divergent = vec![b'A'; 80]; // block 0: A^64, far from `text`
        divergent[70] = b'N'; // block 1 invalid
        let ordered = vec![
            DistanceJob::new(&text, &divergent, 1),
            DistanceJob::new(&text, &text[..100], 100), // healthy neighbour
        ];
        check(&ordered);
        assert!(matches!(
            distance_job_scalar(&text, &divergent, 1, &mut scratch.scalar),
            Ok(None)
        ));
    }

    #[test]
    fn distance_stream_edge_cases_match_scalar_block_sums() {
        let mut scratch = LockstepScratch::default();
        let base: Vec<u8> = b"ACGGTCATTGCAGGTTACAGT"
            .iter()
            .copied()
            .cycle()
            .take(700)
            .collect();
        let mut read = base[100..330].to_vec(); // 230 = 3 × 64 + 38: a short last block
        read[7] = b'T';
        read[140] = b'C';
        read.remove(200);
        let mut bad_read = read.clone();
        bad_read[150] = b'N'; // invalid byte in block 2
        let mut bad_text = base[..500].to_vec();
        bad_text[321] = b'N';
        let poly_c = vec![b'C'; 90];
        let poly_a = vec![b'A'; 100]; // symbol-disjoint from poly_c: every block at d = m
                                      // One chunk whose texts shrink and grow from job to job, so
                                      // every job switch reloads the stream over stale buffers.
        let mut chunk = Vec::new();
        for k in 0..=5 {
            // Budgets on either level of a two-level pass, below and
            // above the job's total.
            chunk.push(DistanceJob::new(&base[..600], &read, k));
            chunk.push(DistanceJob::new(&base[90..400], &read, k + 6));
        }
        chunk.extend([
            DistanceJob::new(&base[95..340], &read, read.len()),
            DistanceJob::new(&poly_c, &poly_a, 100),
            DistanceJob::new(&poly_c, &poly_a, 63),
            DistanceJob::new(b"", &read, 20),
            DistanceJob::new(&bad_text, &read, 20),
            DistanceJob::new(&bad_text, &bad_read, 20),
            DistanceJob::new(&base, &bad_read, 20),
            DistanceJob::new(&base, &bad_read, 1), // block 0 exhausts the budget first
            DistanceJob::new(&base[..64], &read[..5], 5),
            DistanceJob::new(&base[..3], &read, read.len()),
        ]);
        let got = distance_chunk_streaming(&chunk, &mut scratch.occurrence);
        for (idx, (job, got)) in chunk.iter().zip(&got).enumerate() {
            let want = distance_job_scalar(&job.text, &job.pattern, job.k_max, &mut scratch.scalar);
            assert_eq!(&want, got, "job {idx}");
        }

        // With budgets no block sum can exceed and clean inputs, every
        // block is scanned to its resolving depth: the useful levels
        // are each block's scalar occurrence distance + 1, row 0
        // included, and each pass issues STREAM_LANES × STREAM_LEVELS.
        let clean: Vec<DistanceJob> = chunk
            .iter()
            .filter(|j| !j.text.is_empty() && !j.text.contains(&b'N') && !j.pattern.contains(&b'N'))
            .map(|j| DistanceJob::new(&j.text, &j.pattern, j.pattern.len()))
            .collect();
        scratch.occurrence.take_row_counters();
        distance_chunk_streaming(&clean, &mut scratch.occurrence);
        let (issued, useful) = scratch.occurrence.take_row_counters();
        let mut dc = genasm_core::dc::DcArena::new();
        let want_useful: u64 = clean
            .iter()
            .flat_map(|j| j.pattern.chunks(MAX_WINDOW).map(move |b| (&j.text, b)))
            .map(|(text, block)| {
                let d = genasm_core::dc::occurrence_distance_into::<Dna>(
                    text,
                    block,
                    block.len(),
                    &mut dc,
                )
                .unwrap()
                .expect("d = m always hits");
                d as u64 + 1
            })
            .sum();
        assert_eq!(useful, want_useful);
        assert_eq!(
            issued % (STREAM_LANES * genasm_core::dc_multi::STREAM_LEVELS) as u64,
            0
        );
        assert!(issued >= useful);
    }

    #[test]
    fn distance_scans_lower_bound_full_alignment() {
        let config = GenAsmConfig::default();
        let aligner = GenAsmAligner::new(config.clone());
        let mut scratch = LockstepScratch::default();
        let batch = jobs(24, 7);
        let djobs: Vec<DistanceJob> = batch
            .iter()
            .map(|job| DistanceJob::new(&job.text, &job.pattern, job.pattern.len()))
            .collect();
        let distances = distance_chunk_streaming(&djobs, &mut scratch.occurrence);
        for (job, d) in batch.iter().zip(&distances) {
            let full = aligner.align(&job.text, &job.pattern).unwrap();
            let d = d.as_ref().unwrap().expect("unbounded budget resolves");
            assert!(
                d <= full.edit_distance,
                "distance {d} must lower-bound the windowed alignment's {}",
                full.edit_distance
            );
        }
    }

    #[test]
    fn traceback_counters_track_walked_windows() {
        let config = GenAsmConfig::default();
        let mut scratch = LockstepScratch::default();
        let batch = jobs(12, 55);
        run_chunked(&config, &batch, &mut scratch);
        let (windows, rows) = scratch.tb.take();
        assert!(windows > 0 && rows >= windows);
        // The scalar path walks the identical windows.
        for job in &batch {
            align_job_scalar(
                &config,
                &job.text,
                &job.pattern,
                &mut scratch.scalar,
                &mut scratch.tb,
            )
            .unwrap();
        }
        assert_eq!((windows, rows), scratch.tb.take());
        // Distance-only scans never touch the counters.
        let djobs: Vec<DistanceJob> = batch
            .iter()
            .map(|j| DistanceJob::new(&j.text, &j.pattern, j.pattern.len()))
            .collect();
        distance_chunk_streaming(&djobs, &mut scratch.occurrence);
        assert_eq!(scratch.tb.take(), (0, 0));
    }

    #[test]
    fn ineligible_configs_fall_back_to_scalar() {
        let config = GenAsmConfig::default().with_kernel(WindowKernel::Sene);
        assert!(!lockstep_eligible(&config));
        let aligner = GenAsmAligner::new(config.clone());
        let mut scratch = LockstepScratch::default();
        let jobs = jobs(5, 71);
        let results = run_chunked(&config, &jobs, &mut scratch);
        for (job, result) in jobs.iter().zip(&results) {
            let expected = aligner.align(&job.text, &job.pattern).unwrap();
            assert_eq!(&expected, result.as_ref().unwrap());
        }
        assert_eq!(scratch.take_row_counters(), (0, 0), "no lock-step rows ran");
    }
}
