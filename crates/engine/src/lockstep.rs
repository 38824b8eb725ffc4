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
//!   every job's 64-character pattern blocks stream through a
//!   [`DcLaneStream`] occurrence scan whose lanes advance at their own
//!   depths and refill the moment they resolve.
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
    window_dc_multi_into, DcLaneStream, LaneLoad, MultiDcArena, MultiLane, DEFAULT_LANES,
};
use genasm_core::error::AlignError;
use std::collections::VecDeque;
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
    pub(crate) occurrence: DcLaneStream<LANES>,
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
            occurrence: DcLaneStream::occurrence_scan(),
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

/// Per-job accumulation state of the block-decomposed distance scan.
/// Block outcomes can arrive out of order (a job's blocks occupy
/// different lanes), but the job's result must match the scalar
/// reference, which folds blocks strictly in order — e.g. an early
/// block exhausting the budget short-circuits to `Ok(None)` before a
/// later block's validation error is ever observed. Outcomes are
/// therefore buffered per block and folded only as the ordered prefix
/// completes.
#[derive(Debug, Clone, Default)]
struct BlockSum {
    /// Buffered per-block outcomes, in block order.
    outcomes: Vec<Option<Result<Option<usize>, AlignError>>>,
    /// Blocks folded so far (the ordered prefix).
    folded: usize,
    /// Sum of folded block distances.
    sum: usize,
    /// Blocks issued onto lanes so far (the next block to scan).
    issued: usize,
    /// `true` once the job resolved (all blocks folded, budget
    /// exceeded, or error): its remaining blocks are skipped.
    decided: bool,
}

/// One chunk's block scan: the block queue, per-job accumulators and
/// lane bookkeeping [`distance_chunk_streaming`] drives over the
/// worker's occurrence stream.
struct BlockScan<'j, 's> {
    jobs: &'j [DistanceJob],
    stream: &'s mut DcLaneStream<LANES>,
    sums: Vec<BlockSum>,
    /// Undecided job indices with blocks left to issue, in job order.
    queue: VecDeque<usize>,
    /// The (job, block) each lane currently carries.
    loaded: [Option<(usize, usize)>; LANES],
    /// Per-job results, filled as jobs are decided.
    results: Vec<Option<Result<Option<usize>, AlignError>>>,
}

impl BlockScan<'_, '_> {
    /// Buffers one block outcome and folds the job's completed ordered
    /// prefix, mirroring the scalar reference's in-order short-circuit
    /// rules exactly.
    fn absorb(&mut self, idx: usize, block: usize, outcome: Result<Option<usize>, AlignError>) {
        let k_max = self.jobs[idx].k_max;
        let state = &mut self.sums[idx];
        if state.decided {
            return;
        }
        state.outcomes[block] = Some(outcome);
        while !state.decided {
            let Some(next) = state.outcomes.get(state.folded).cloned().flatten() else {
                break;
            };
            let decided = match next {
                Ok(Some(d)) => {
                    state.sum += d;
                    state.folded += 1;
                    if state.sum > k_max {
                        Some(Ok(None))
                    } else if state.folded == state.outcomes.len() {
                        Some(Ok(Some(state.sum)))
                    } else {
                        None
                    }
                }
                // A block past the budget caps the sum past it too.
                Ok(None) => Some(Ok(None)),
                Err(e) => Some(Err(e)),
            };
            if let Some(result) = decided {
                state.decided = true;
                self.results[idx] = Some(result);
            }
        }
    }

    /// Tops `lane` up from the block queue, skipping blocks of decided
    /// jobs and looping through instant resolutions until the lane
    /// holds a pending scan or the queue runs dry (then the lane is
    /// released and idles through the tail).
    fn feed_lane(&mut self, lane: usize) {
        loop {
            // Drop decided and fully-issued jobs off the queue front.
            while let Some(&front) = self.queue.front() {
                if self.sums[front].decided
                    || self.sums[front].issued * MAX_WINDOW >= self.jobs[front].pattern.len()
                {
                    self.queue.pop_front();
                } else {
                    break;
                }
            }
            let Some(&idx) = self.queue.front() else {
                self.stream.release_lane(lane);
                self.loaded[lane] = None;
                return;
            };
            let block_no = self.sums[idx].issued;
            self.sums[idx].issued += 1;
            let job = &self.jobs[idx];
            #[cfg(feature = "chaos")]
            genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
            let block_start = block_no * MAX_WINDOW;
            let block =
                &job.pattern[block_start..(block_start + MAX_WINDOW).min(job.pattern.len())];
            match self
                .stream
                .refill_lane::<Dna>(lane, &job.text, block, job.k_max)
            {
                Ok(LaneLoad::Pending) => {
                    self.loaded[lane] = Some((idx, block_no));
                    return;
                }
                Ok(LaneLoad::Resolved) => {
                    let outcome = Ok(self.stream.outcome(lane));
                    self.absorb(idx, block_no, outcome);
                }
                Err(e) => self.absorb(idx, block_no, Err(e)),
            }
        }
    }

    /// Feeds every lane, then steps until the stream drains.
    fn run(&mut self) {
        for lane in 0..LANES {
            self.feed_lane(lane);
        }
        let mut resolved = Vec::with_capacity(LANES);
        while self.stream.active_lanes() > 0 {
            resolved.clear();
            self.stream.step(&mut resolved);
            for &lane in &resolved {
                let (idx, block_no) = self.loaded[lane].expect("resolved lane is loaded");
                let outcome = Ok(self.stream.outcome(lane));
                self.absorb(idx, block_no, outcome);
                self.feed_lane(lane);
            }
            // A resolution can decide a job early (budget exceeded or
            // error); its sibling blocks still in flight on other
            // lanes would burn rows to no purpose, so hand those lanes
            // fresh work immediately — the scalar reference
            // short-circuits after the deciding block the same way.
            for lane in 0..LANES {
                if self.loaded[lane].is_some_and(|(idx, _)| self.sums[idx].decided) {
                    self.feed_lane(lane);
                }
            }
        }
    }
}

/// Runs a chunk of distance jobs through the **persistent-lane
/// occurrence stream**: every job's disjoint 64-character pattern
/// blocks become independent lane scans of the job's text, each lane at
/// its own depth, refilled the moment it resolves — no row storage, no
/// TB-SRAM. Per-job results (the summed block distances, `None` past
/// the job's budget) come back in chunk order, identical to
/// [`distance_job_scalar`] on each job alone.
pub(crate) fn distance_chunk_streaming(
    jobs: &[DistanceJob],
    stream: &mut DcLaneStream<LANES>,
) -> Vec<Result<Option<usize>, AlignError>> {
    let mut scan = BlockScan {
        jobs,
        stream,
        sums: Vec::with_capacity(jobs.len()),
        queue: VecDeque::with_capacity(jobs.len()),
        loaded: [None; LANES],
        results: vec![None; jobs.len()],
    };
    for (idx, job) in jobs.iter().enumerate() {
        scan.sums.push(BlockSum {
            outcomes: vec![None; job.pattern.len().div_ceil(MAX_WINDOW)],
            ..BlockSum::default()
        });
        // Empty patterns have no blocks; they resolve immediately with
        // the scalar metric's error.
        if job.pattern.is_empty() {
            scan.sums[idx].decided = true;
            scan.results[idx] = Some(Err(AlignError::EmptyPattern));
        } else {
            scan.queue.push_back(idx);
        }
    }
    scan.run();
    scan.results
        .into_iter()
        .map(|slot| slot.expect("every distance job in the chunk is resolved"))
        .collect()
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
