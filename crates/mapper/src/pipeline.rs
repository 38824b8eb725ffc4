//! The read-mapping pipeline (Figure 1): seeding → pre-alignment
//! filtering → read alignment, with pluggable filter and aligner so
//! the Figure 11 experiment can swap the alignment step between the
//! software DP baseline and GenASM.
//!
//! Two execution shapes share the exact same stages and produce
//! bit-identical mappings:
//!
//! * [`ReadMapper::map_read`] — the sequential reference path, one
//!   read at a time;
//! * [`ReadMapper::map_batch_with_engine`] — the staged batch path:
//!   seed a whole batch of reads (both strands), funnel *every*
//!   candidate across the batch through the lock-step pre-alignment
//!   filter in one scan, then resolve and align the survivors on a
//!   multi-threaded [`Engine`].
//!
//! The batch path's alignment step itself has two execution models
//! ([`AlignMode`]). The default **two-phase** model mirrors the
//! paper's GenASM-DC / GenASM-TB split at pipeline granularity: every
//! filter survivor first runs a **distance-only** scan
//! ([`Engine::distance_batch_keyed`] — no row storage, no TB-SRAM),
//! per-read best resolution happens on those distances, and only each
//! read's winner re-runs in full mode and walks traceback. Because the
//! phase-1 distance is a lower bound of the full windowed alignment's
//! edit distance, a bounded second verification round makes the final
//! mappings provably bit-identical to the **full** model (which aligns
//! every survivor with traceback storage, the pre-two-phase shape).

use crate::index::{PackedRef, ShardedIndex};
use crate::seed::{Candidate, SeedScratch, Seeder};
use genasm_baselines::gotoh::{GotohAligner, GotohMode};
use genasm_baselines::shouji::ShoujiFilter;
use genasm_core::align::{GenAsmAligner, GenAsmConfig};
use genasm_core::alphabet::Dna;
use genasm_core::bitap::{ScanMetrics, SCAN_LANES};
use genasm_core::cascade::{
    tier0_probes, tier0_rejects, CascadePattern, FilterVerdict, Tier0Scratch,
};
use genasm_core::cigar::Cigar;
use genasm_core::dc_wide::{
    occurrence_distance_lanes, OccurrenceLaneJob, OccurrenceLaneScratch, MAX_WIDE_WINDOW,
};
use genasm_core::filter::PreAlignmentFilter;
use genasm_core::scoring::Scoring;
use genasm_engine::{
    CancelToken, DcDispatch, DistanceJob, Engine, EngineConfig, GotohKernel, Job, JobError,
    KeyedResult,
};
use genasm_obs::{SpanBuffer, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the per-read end-to-end latency histogram the mapper
/// records (microseconds). The sequential path records each read's
/// true wall time; the batch path records the batch wall divided by
/// its read count — an amortized per-read figure, since batched reads
/// have no individual wall clock.
pub const READ_LATENCY_HISTOGRAM: &str = "map.read_latency_us";

/// Counter: reads the resilient batch path marked
/// [`ReadOutcome::Poisoned`] because a kernel panicked on one of their
/// candidates.
pub const READS_POISONED_COUNTER: &str = "map.reads_poisoned";

/// Counter: reads the resilient batch path marked
/// [`ReadOutcome::Incomplete`] because the engine's deadline expired
/// (or its token was cancelled) before they fully resolved.
pub const READS_DEADLINE_DROPPED_COUNTER: &str = "map.reads_deadline_dropped";

/// Which pre-alignment filter the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKind {
    /// GenASM-DC as the filter (use case 2 of the paper).
    #[default]
    GenAsm,
    /// The Shouji heuristic filter.
    Shouji,
    /// No filtering: all candidates go to alignment.
    None,
}

/// How the GenASM pre-alignment filter executes (selects the filter
/// *engine*, not the filter semantics: accepted candidate sets — and
/// therefore final mappings — are bit-identical in both modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterMode {
    /// The escalating per-candidate cascade: a tier-0 banded q-gram
    /// bailout over the packed reference rejects most decoys before
    /// any recurrence row is issued, survivors run the
    /// iterative-deepening lock-step occurrence scan
    /// ([`occurrence_distance_lanes`]) whose exact distance is carried
    /// forward as a [`FilterVerdict`] bound, and the two-phase resolve
    /// stage answers those candidates' distance jobs from the bound
    /// instead of rescanning them.
    #[default]
    Cascade,
    /// The flat lock-step scan (the pre-cascade shape): every
    /// candidate pays the full `k + 1` recurrence rows. Kept as the
    /// identity oracle for the cascade and selectable via the CLI's
    /// `--filter-mode legacy`.
    Legacy,
}

/// Which aligner the pipeline uses for step 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignerKind {
    /// The GenASM windowed aligner (DC + TB).
    #[default]
    GenAsm,
    /// The affine-gap DP baseline (BWA-MEM / Minimap2 stand-in).
    Gotoh,
}

/// Execution model of the batch pipeline's alignment step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignMode {
    /// Distance-first candidate resolution with deferred, batched
    /// traceback: every filter survivor runs the distance-only
    /// lock-step kernel, per-read best resolution happens on the
    /// distances, and only winners re-run in full (TB-storing) mode.
    /// Bit-identical to [`AlignMode::Full`]; traceback rows drop by
    /// roughly the candidate-to-winner ratio. Applies to the GenASM
    /// aligner (the Gotoh baseline has no distance-only mode and
    /// always runs single-phase).
    #[default]
    TwoPhase,
    /// Full TB-storing alignment of every filter survivor (the
    /// single-phase shape).
    Full,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Seed length for indexing and seeding.
    pub seed_len: usize,
    /// Seeding parameters.
    pub seeder: Seeder,
    /// Filter selection.
    pub filter: FilterKind,
    /// Execution mode of the GenASM filter (cascade by default;
    /// candidate sets are bit-identical in both modes). Ignored by the
    /// other filter kinds.
    pub filter_mode: FilterMode,
    /// Aligner selection.
    pub aligner: AlignerKind,
    /// Edit-distance threshold as a fraction of read length (the
    /// filter threshold and the candidate-region slack `k`).
    pub error_fraction: f64,
    /// Scoring used when the aligner reports a score.
    pub scoring: Scoring,
    /// GenASM aligner configuration.
    pub genasm: GenAsmConfig,
    /// Whether to also try the reverse-complement strand of each read.
    pub both_strands: bool,
    /// Shard count of the reference index (`0` = automatic: host
    /// parallelism rounded to a power of two).
    pub index_shards: usize,
    /// Execution model of the batch alignment step (two-phase by
    /// default; mappings are bit-identical in both modes).
    pub align_mode: AlignMode,
}

impl Default for MapperConfig {
    /// Seed length 12, GenASM filter + aligner, 15% error budget,
    /// BWA-MEM scoring.
    fn default() -> Self {
        MapperConfig {
            seed_len: 12,
            seeder: Seeder::default(),
            filter: FilterKind::GenAsm,
            filter_mode: FilterMode::default(),
            aligner: AlignerKind::GenAsm,
            error_fraction: 0.15,
            scoring: Scoring::bwa_mem(),
            genasm: GenAsmConfig::default(),
            both_strands: true,
            index_shards: 0,
            align_mode: AlignMode::default(),
        }
    }
}

/// A successful mapping of one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Mapping position in the reference.
    pub position: usize,
    /// `true` when the read mapped on the reverse-complement strand.
    pub reverse: bool,
    /// The alignment transcript.
    pub cigar: Cigar,
    /// Edit distance of the alignment.
    pub edit_distance: usize,
    /// Affine score of the alignment under the configured scoring.
    pub score: i64,
}

/// Per-read outcome of the resilient batch path
/// ([`ReadMapper::map_batch_resilient`]): what the pipeline produced
/// for the read, or why it could not.
///
/// The fault variants carry precedence: a kernel panic on any of a
/// read's candidates makes the whole read [`Poisoned`](Self::Poisoned)
/// (its other candidates may have aligned, but the set is no longer
/// provably complete), and a deadline expiry makes it
/// [`Incomplete`](Self::Incomplete) with whatever mapping had resolved
/// by then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The read mapped; the pipeline ran every stage for it.
    Mapped(Mapping),
    /// The pipeline ran every stage and found no mapping.
    Unmapped,
    /// A kernel panicked while aligning one of the read's candidates;
    /// the panic was contained to this read (its batch-mates are
    /// unaffected) and the read must be treated as unmapped.
    Poisoned {
        /// The panic payload, for diagnostics.
        message: String,
    },
    /// The engine's deadline expired (or its [`CancelToken`] fired)
    /// before the read fully resolved.
    Incomplete {
        /// The best mapping resolved before the cutoff, when any stage
        /// completed for this read. Not guaranteed to be the mapping a
        /// full run would select.
        partial: Option<Mapping>,
    },
}

impl ReadOutcome {
    /// The mapping, when the read fully resolved ([`Self::Mapped`]
    /// only — a partial mapping is not a resolved one).
    pub fn mapping(&self) -> Option<&Mapping> {
        match self {
            ReadOutcome::Mapped(m) => Some(m),
            _ => None,
        }
    }

    /// Collapses to the lossy `Option<Mapping>` shape of
    /// [`ReadMapper::map_batch_with_engine`]: the mapping for
    /// [`Self::Mapped`], the partial for [`Self::Incomplete`], `None`
    /// otherwise.
    pub fn into_mapping(self) -> Option<Mapping> {
        match self {
            ReadOutcome::Mapped(m) => Some(m),
            ReadOutcome::Incomplete { partial } => partial,
            _ => None,
        }
    }

    /// Whether the read hit a fault (panic or deadline) rather than
    /// resolving normally.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            ReadOutcome::Poisoned { .. } | ReadOutcome::Incomplete { .. }
        )
    }
}

/// Per-read fault state accumulated while a batch runs: which reads
/// were poisoned by a kernel panic and which were cut off by the
/// deadline. Poisoning wins over dropping when both happen.
#[derive(Debug)]
struct BatchFaults {
    poisoned: Vec<Option<String>>,
    dropped: Vec<bool>,
}

impl BatchFaults {
    fn new(reads: usize) -> Self {
        BatchFaults {
            poisoned: vec![None; reads],
            dropped: vec![false; reads],
        }
    }

    /// Marks `read` poisoned, keeping the first panic's message.
    fn poison(&mut self, read: usize, message: &str) {
        if self.poisoned[read].is_none() {
            self.poisoned[read] = Some(message.to_string());
        }
    }

    fn drop_deadline(&mut self, read: usize) {
        self.dropped[read] = true;
    }

    fn is_faulted(&self, read: usize) -> bool {
        self.poisoned[read].is_some() || self.dropped[read]
    }
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Seeding time.
    pub seeding: Duration,
    /// Pre-alignment filtering time.
    pub filtering: Duration,
    /// Phase-1 wall time: the distance-only candidate scans of the
    /// two-phase path. Zero in full mode and the sequential path.
    pub distance: Duration,
    /// Full-mode (TB-storing) alignment wall time: all of the align
    /// step in full mode; only the per-read winners' alignments in
    /// two-phase mode.
    pub traceback: Duration,
    /// Candidates examined, candidates surviving the filter.
    pub candidates: (usize, usize),
    /// Lock-step DC lane-slots `(issued, useful)` reported by the
    /// alignment engine — zero in the sequential path and under scalar
    /// dispatch. See
    /// [`BatchStats::lane_occupancy`](genasm_engine::BatchStats::lane_occupancy).
    pub dc_rows: (u64, u64),
    /// Traceback volume `(windows walked, distance rows those walks
    /// had)` — the number two-phase execution shrinks by tracing only
    /// per-read winners.
    pub tb_rows: (u64, u64),
    /// Distance-only (phase-1) scans issued.
    pub distance_jobs: u64,
    /// Full-mode alignments issued (every survivor in full mode; the
    /// resolved winners plus verification re-runs in two-phase mode).
    pub traceback_jobs: u64,
    /// Filter-stage Bitap row-slots `(issued, useful)` from the
    /// pre-alignment scans ([`genasm_core::bitap::ScanMetrics`]): the
    /// same issued/useful convention as the align stage's `dc_rows`,
    /// so the filter's lane occupancy is a first-class, comparable
    /// figure. Reads over 64 bases scan on the multi-word fallback,
    /// whose exact recurrence-word volume counts as issued = useful
    /// (occupancy 1.0 — a scalar scan pads nothing). Zero when the
    /// GenASM filter is not selected. In cascade mode only tier-1
    /// recurrence rows (and legacy-fallback scans) count here — the
    /// tier-0 bailout issues no recurrence rows at all, which is the
    /// cascade's headline row saving.
    pub filter_rows: (u64, u64),
    /// Candidates the cascade's tier-0 banded q-gram count rejected
    /// before any recurrence row was issued. Zero in legacy mode.
    pub tier0_rejects: u64,
    /// Candidates the cascade's tier-1 iterative-deepening occurrence
    /// scan rejected (their occurrence distance exceeds the
    /// threshold). Zero in legacy mode.
    pub tier1_rejects: u64,
    /// Candidates the cascade accepted with an exact tier-1 occurrence
    /// distance (the bound the resolve stage reuses). Zero in legacy
    /// mode.
    pub cascade_accepts: u64,
    /// Candidates the cascade routed to the legacy scalar scan because
    /// their inputs fall outside the cascade's fast path (non-DNA
    /// bytes, reads past the wide kernel's window limit). Their
    /// decisions are the legacy scan's verbatim.
    pub cascade_fallbacks: u64,
    /// Contested candidates whose phase-1 distance job was answered
    /// from the cascade's carried bound instead of being rescanned
    /// (the engine's [`jobs_prefilled`](genasm_engine::BatchStats::jobs_prefilled)).
    /// Zero in legacy mode and the sequential path.
    pub bound_reuse_hits: u64,
    /// Tier-0 probe volume: window grams inserted plus pattern grams
    /// looked up, across all candidates tier 0 examined. The cascade's
    /// cheap work, reported separately from `filter_rows` so the
    /// recurrence-row saving stays directly comparable across modes.
    pub tier0_probes: u64,
}

impl StageTimings {
    /// Sum of all stage times.
    pub fn total(&self) -> Duration {
        self.seeding + self.filtering + self.distance + self.traceback
    }

    /// The whole alignment step's wall time: distance plus traceback
    /// phases (the pre-split `alignment` bucket).
    pub fn align_total(&self) -> Duration {
        self.distance + self.traceback
    }

    /// Fraction of examined candidates the filter rejected (0 when no
    /// candidate was examined).
    pub fn reject_rate(&self) -> f64 {
        if self.candidates.0 == 0 {
            0.0
        } else {
            1.0 - self.candidates.1 as f64 / self.candidates.0 as f64
        }
    }

    /// Lock-step lane occupancy of the alignment stage: useful DC
    /// row-slots over issued, `None` when no lock-step rows ran.
    pub fn lane_occupancy(&self) -> Option<f64> {
        genasm_engine::lane_occupancy_ratio(self.dc_rows.0, self.dc_rows.1)
    }

    /// Lane occupancy of the pre-alignment filter stage: useful
    /// row-slots over issued, `None` when no filter rows ran
    /// (non-GenASM filter). Exactly 1.0 when every pair scanned on
    /// the pad-free multi-word fallback.
    pub fn filter_occupancy(&self) -> Option<f64> {
        genasm_engine::lane_occupancy_ratio(self.filter_rows.0, self.filter_rows.1)
    }

    /// Accumulates another read's timings.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.seeding += other.seeding;
        self.filtering += other.filtering;
        self.distance += other.distance;
        self.traceback += other.traceback;
        self.candidates.0 += other.candidates.0;
        self.candidates.1 += other.candidates.1;
        self.dc_rows.0 += other.dc_rows.0;
        self.dc_rows.1 += other.dc_rows.1;
        self.tb_rows.0 += other.tb_rows.0;
        self.tb_rows.1 += other.tb_rows.1;
        self.distance_jobs += other.distance_jobs;
        self.traceback_jobs += other.traceback_jobs;
        self.filter_rows.0 += other.filter_rows.0;
        self.filter_rows.1 += other.filter_rows.1;
        self.tier0_rejects += other.tier0_rejects;
        self.tier1_rejects += other.tier1_rejects;
        self.cascade_accepts += other.cascade_accepts;
        self.cascade_fallbacks += other.cascade_fallbacks;
        self.bound_reuse_hits += other.bound_reuse_hits;
        self.tier0_probes += other.tier0_probes;
    }
}

/// One candidate position that survived the pre-alignment filter,
/// with the bound the filter certified on the way through.
#[derive(Debug, Clone, Copy)]
struct Survivor {
    /// Candidate position in the reference.
    pos: usize,
    /// The exact occurrence distance of the candidate when the
    /// cascade's tier 1 resolved it (`None` on the legacy path and the
    /// cascade's fallback candidates). A `Some` bound lets the resolve
    /// stage answer the candidate's phase-1 distance job without
    /// rescanning it.
    bound: Option<usize>,
}

/// One oriented read after the batch path's fused seed-and-filter
/// stage: its sequence, error budget, and the candidates that survived
/// the pre-alignment filter (in seeder order), each with any bound the
/// filter certified.
struct Seeded {
    read: usize,
    reverse: bool,
    seq: Vec<u8>,
    budget: usize,
    survivors: Vec<Survivor>,
}

/// One filter-surviving candidate in the batch path's flat candidate
/// table: the coordinates both alignment phases and the resolution
/// need. Engine job keys are indices into this table.
struct Cand<'a> {
    read: usize,
    reverse: bool,
    pos: usize,
    seq: &'a [u8],
    budget: usize,
    /// The filter's certified exact occurrence distance, when it
    /// produced one (see [`Survivor::bound`]).
    bound: Option<usize>,
}

/// Reusable buffers of the fused seed-and-filter stage, threaded
/// alongside [`SeedScratch`] through every per-read call so the hot
/// loop performs no per-candidate allocations: seeded candidates and
/// their clamped positions, the cascade's packed window codes and
/// per-tier scratch tables, and the per-candidate verdicts that keep
/// survivors in seeder order while tier-1 decisions arrive batched.
#[derive(Debug, Default)]
struct FilterScratch {
    /// Raw seeder output of the current oriented read.
    raw: Vec<Candidate>,
    /// Clamped candidate positions of the current oriented read.
    positions: Vec<usize>,
    /// 2-bit window codes of the candidate under tier-0 examination.
    codes: Vec<u8>,
    /// Tier-0 first/last gram-occurrence tables.
    tier0: Tier0Scratch,
    /// Tier-1 lock-step rolling rows and gathered text masks.
    lanes: OccurrenceLaneScratch,
    /// Per-candidate cascade verdicts (`None` = awaiting tier 1).
    verdicts: Vec<Option<FilterVerdict>>,
    /// Positions (indices into `positions`) awaiting tier 1.
    pending: Vec<usize>,
}

/// Folds one engine batch's lane and traceback accounting into the
/// pipeline timings.
fn absorb_engine_stats(timings: &mut StageTimings, stats: &genasm_engine::BatchStats) {
    timings.dc_rows.0 += stats.dc_rows_issued;
    timings.dc_rows.1 += stats.dc_rows_useful;
    timings.tb_rows.0 += stats.tb_windows;
    timings.tb_rows.1 += stats.tb_rows;
}

/// The read mapper.
///
/// # Examples
///
/// ```
/// use genasm_mapper::pipeline::{MapperConfig, ReadMapper};
/// use genasm_seq::genome::GenomeBuilder;
///
/// let genome = GenomeBuilder::new(20_000).seed(3).build();
/// let mapper = ReadMapper::build(genome.sequence(), MapperConfig::default());
/// let read = genome.region(5_000, 5_150).to_vec();
/// let (mapping, _timings) = mapper.map_read(&read);
/// let mapping = mapping.expect("exact read must map");
/// assert!(mapping.position.abs_diff(5_000) <= 16);
/// assert_eq!(mapping.edit_distance, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReadMapper {
    reference: Vec<u8>,
    index: ShardedIndex,
    /// 2-bit packed copy of the reference for the cascade's tier-0
    /// window-code probes (4 bases/byte; the index builds and drops
    /// its own packing, so the mapper retains one for the filter).
    packed: PackedRef,
    config: MapperConfig,
    telemetry: Telemetry,
}

impl ReadMapper {
    /// Indexes `reference` (sharded per `config.index_shards`) and
    /// prepares the pipeline.
    pub fn build(reference: &[u8], config: MapperConfig) -> Self {
        let index =
            ShardedIndex::build_with_shards(reference, config.seed_len, config.index_shards);
        ReadMapper {
            reference: reference.to_vec(),
            index,
            packed: PackedRef::pack(reference),
            config,
            telemetry: Telemetry::default(),
        }
    }

    /// Attaches a telemetry handle: the pipeline records per-read
    /// end-to-end latencies into [`READ_LATENCY_HISTOGRAM`] and emits
    /// stage spans — the coordinator (trace tid 0) marks
    /// seed_filter/distance/resolve/traceback, the batch seed workers
    /// (tids `100 + worker`) mark each oriented read's seed and filter
    /// scans. Share the same handle with the engine
    /// ([`Engine::with_telemetry`](genasm_engine::Engine::with_telemetry))
    /// to interleave the engine workers' claim/dc/tb spans in
    /// one trace. The default handle is fully disabled and costs one
    /// atomic load per batch.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The mapper's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// The underlying index.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// An [`Engine`] whose kernel matches the configured aligner: the
    /// GenASM kernel under `dispatch` for [`AlignerKind::GenAsm`], the
    /// Gotoh kernel under the configured scoring for
    /// [`AlignerKind::Gotoh`] (where `dispatch` is ignored). Use this
    /// to drive [`map_batch_with_engine`](Self::map_batch_with_engine)
    /// so the batch path aligns with exactly the aligner the
    /// sequential path would use.
    pub fn engine(&self, workers: usize, dispatch: DcDispatch) -> Engine {
        let config = EngineConfig::default()
            .with_workers(workers)
            .with_genasm(self.config.genasm.clone())
            .with_dispatch(dispatch);
        match self.config.aligner {
            AlignerKind::GenAsm => Engine::new(config),
            AlignerKind::Gotoh => {
                Engine::with_kernel(config, Arc::new(GotohKernel::new(self.config.scoring)))
            }
        }
    }

    /// Maps one read: seeding, filtering, then alignment of surviving
    /// candidates — on the forward strand and, when configured, on the
    /// reverse-complement strand. Returns the best mapping (lowest
    /// edit distance, ties broken by forward strand then position) and
    /// per-stage timings.
    pub fn map_read(&self, read: &[u8]) -> (Option<Mapping>, StageTimings) {
        let started = self.telemetry.metrics.is_enabled().then(Instant::now);
        let result = self.map_read_inner(read);
        if let Some(t0) = started {
            // Sequential mapping has a true per-read wall clock; record
            // it end to end (seeding through traceback, both strands).
            self.telemetry
                .metrics
                .histogram(READ_LATENCY_HISTOGRAM)
                .record_duration(t0.elapsed());
        }
        result
    }

    /// [`map_read`](Self::map_read) minus the telemetry wrapper.
    fn map_read_inner(&self, read: &[u8]) -> (Option<Mapping>, StageTimings) {
        let mut spans = self
            .telemetry
            .tracer
            .is_enabled()
            .then(|| self.telemetry.tracer.buffer(0));
        let (forward, mut timings) = self.map_oriented(read, false, &mut spans);
        if !self.config.both_strands {
            return (forward, timings);
        }
        let rc = reverse_complement(read);
        let (backward, rc_timings) = self.map_oriented(&rc, true, &mut spans);
        timings.accumulate(&rc_timings);
        let best = match (forward, backward) {
            (None, b) => b,
            (f, None) => f,
            (Some(f), Some(b)) => {
                if (b.edit_distance, 1, b.position) < (f.edit_distance, 0, f.position) {
                    Some(b)
                } else {
                    Some(f)
                }
            }
        };
        (best, timings)
    }

    /// Maps one read orientation (the read as given, labelled with
    /// `reverse`).
    fn map_oriented(
        &self,
        read: &[u8],
        reverse: bool,
        spans: &mut Option<SpanBuffer>,
    ) -> (Option<Mapping>, StageTimings) {
        let mut timings = StageTimings::default();
        let k = self.error_budget(read);
        let mut scratch = SeedScratch::default();
        let mut fscratch = FilterScratch::default();
        let surviving =
            self.seed_and_filter(read, k, &mut timings, &mut scratch, &mut fscratch, spans);

        let t2 = Instant::now();
        if let Some(s) = spans.as_mut() {
            s.begin("traceback");
        }
        let mut best: Option<Mapping> = None;
        for Survivor { pos, .. } in surviving {
            let region = self.region(pos, read.len(), k);
            let mapping = match self.config.aligner {
                AlignerKind::GenAsm => {
                    let aligner = GenAsmAligner::new(self.config.genasm.clone());
                    match aligner.align_with_stats(region, read) {
                        Ok((a, stats)) => {
                            timings.tb_rows.0 += stats.windows as u64;
                            timings.tb_rows.1 += stats.tb_rows as u64;
                            timings.traceback_jobs += 1;
                            Mapping {
                                position: pos,
                                reverse,
                                score: self.config.scoring.score_cigar(&a.cigar),
                                edit_distance: a.edit_distance,
                                cigar: a.cigar,
                            }
                        }
                        Err(_) => continue,
                    }
                }
                AlignerKind::Gotoh => {
                    let aligner = GotohAligner::new(self.config.scoring, GotohMode::TextSuffixFree);
                    let a = aligner.align(region, read);
                    timings.traceback_jobs += 1;
                    Mapping {
                        position: pos,
                        reverse,
                        score: a.score,
                        edit_distance: a.cigar.edit_distance(),
                        cigar: a.cigar,
                    }
                }
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    (mapping.edit_distance, mapping.position) < (b.edit_distance, b.position)
                }
            };
            if better {
                best = Some(mapping);
            }
        }
        if let Some(s) = spans.as_mut() {
            s.end("traceback");
        }
        timings.traceback = t2.elapsed();
        (best, timings)
    }

    /// Maps a batch of reads, accumulating stage timings.
    pub fn map_batch<'a, I>(&self, reads: I) -> (Vec<Option<Mapping>>, StageTimings)
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut total = StageTimings::default();
        let mut mappings = Vec::new();
        for read in reads {
            let (mapping, timings) = self.map_read(read);
            total.accumulate(&timings);
            mappings.push(mapping);
        }
        (mappings, total)
    }

    /// Batch mode: maps many reads through explicit stages instead of
    /// recursing read by read.
    ///
    /// 1. **Seed + filter** — the batch's reads are sharded across the
    ///    engine's worker count: each worker seeds a read (and, when
    ///    configured, its reverse complement) against the sharded
    ///    index — lookups are read-only over flat arrays — and
    ///    immediately funnels that read's candidates through the
    ///    pre-alignment filter (the GenASM filter's lock-step
    ///    [`PreAlignmentFilter::accepts_many`] scan), so seeds stream
    ///    into the filter without a full-batch barrier. Each read's
    ///    candidate list is produced wholly by one worker and merged
    ///    in read order, so results are deterministic and identical at
    ///    any worker count.
    /// 2. **Distance** (two-phase mode) — contested reads' survivors
    ///    become key-tagged [`DistanceJob`]s and run the engine's
    ///    distance-only machinery ([`Engine::distance_batch_keyed`]):
    ///    no row storage, no TB-SRAM, the shared-text occurrence
    ///    stream under lock-step dispatch. Uncontested reads (a single
    ///    survivor) skip the scan entirely — with one candidate there
    ///    is nothing to resolve.
    /// 3. **Resolve** — per-read best resolution happens on the
    ///    distances, *before* any traceback, with deterministic
    ///    tie-breaking identical to the full path's ordering (lowest
    ///    edit distance, forward strand preferred, then lowest
    ///    position). Ties are kept: every candidate achieving its
    ///    read's minimum advances.
    /// 4. **Traceback** — only the resolved winners re-run in full
    ///    (TB-storing) mode through
    ///    [`Engine::align_batch_keyed_with_stats`] and walk traceback.
    ///    Because each phase-1 distance is a *lower bound* of the full
    ///    windowed alignment's edit distance, one bounded verification
    ///    round — re-aligning any candidate whose bound still permits
    ///    beating the winners' realized distances, normally none —
    ///    makes the final mappings provably identical to aligning
    ///    everything.
    ///
    /// In [`AlignMode::Full`] (and for the Gotoh aligner, which has no
    /// distance-only mode) stages 2–4 collapse into the single-phase
    /// shape: every survivor aligns in full mode and resolution runs
    /// on the complete results.
    ///
    /// With an engine from [`Self::engine`] the selected mappings are
    /// bit-identical to [`map_read`](Self::map_read)'s for every
    /// filter, aligner and align-mode combination. [`StageTimings`]
    /// reports each stage's batch wall-clock time — the fused
    /// seed-and-filter pass's wall time is split between `seeding` and
    /// `filtering` in proportion to the workers' accumulated per-stage
    /// busy time, and the align step's wall splits into `distance` and
    /// `traceback` — plus the traceback volume (`tb_rows`) each mode
    /// issued.
    pub fn map_batch_with_engine(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
    ) -> (Vec<Option<Mapping>>, StageTimings) {
        let (outcomes, timings) = self.map_batch_resilient(reads, engine);
        let mappings = outcomes
            .into_iter()
            .map(ReadOutcome::into_mapping)
            .collect();
        (mappings, timings)
    }

    /// The fault-tolerant batch path: identical stages and mappings to
    /// [`map_batch_with_engine`](Self::map_batch_with_engine), but each
    /// read resolves to a [`ReadOutcome`] instead of a bare
    /// `Option<Mapping>`, so faults are reportable per read instead of
    /// silently reading as "unmapped":
    ///
    /// * a kernel panic on any candidate is contained by the engine to
    ///   that job and surfaces here as [`ReadOutcome::Poisoned`] on the
    ///   owning read — every other read's outcome is bit-identical to
    ///   a fault-free run;
    /// * when the engine's [`CancelToken`] (see
    ///   [`EngineConfig::with_deadline`]) expires mid-batch, the batch
    ///   returns early with [`ReadOutcome::Incomplete`] for the reads
    ///   that had not fully resolved — carrying any partial mapping —
    ///   instead of blocking past its budget. The seed stage checks
    ///   the token at read-claim boundaries, the engine at chunk-claim
    ///   boundaries; neither pays a per-base cost.
    ///
    /// Faulted reads are counted into [`READS_POISONED_COUNTER`] and
    /// [`READS_DEADLINE_DROPPED_COUNTER`] when telemetry is enabled.
    pub fn map_batch_resilient(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
    ) -> (Vec<ReadOutcome>, StageTimings) {
        let started = (self.telemetry.metrics.is_enabled() && !reads.is_empty()).then(Instant::now);
        let out = self.map_batch_engine_inner(reads, engine);
        if let Some(t0) = started {
            // Batched reads have no individual wall clock; record the
            // batch wall divided by the read count once per read (the
            // amortized figure READ_LATENCY_HISTOGRAM documents).
            let hist = self.telemetry.metrics.histogram(READ_LATENCY_HISTOGRAM);
            let per_read = t0.elapsed().div_f64(reads.len() as f64);
            for _ in reads {
                hist.record_duration(per_read);
            }
        }
        out
    }

    /// [`map_batch_with_engine`](Self::map_batch_with_engine) minus
    /// the telemetry wrapper.
    fn map_batch_engine_inner(
        &self,
        reads: &[&[u8]],
        engine: &Engine,
    ) -> (Vec<ReadOutcome>, StageTimings) {
        let mut timings = StageTimings::default();
        let mut faults = BatchFaults::new(reads.len());
        let cancel = engine.config().cancel.clone();
        // Coordinator stage spans trace as tid 0.
        let mut coord = self
            .telemetry
            .tracer
            .is_enabled()
            .then(|| self.telemetry.tracer.buffer(0));

        // Stage 1 — seed and filter every read, sharded across the
        // engine's workers. The cancel token is checked at read-claim
        // boundaries: reads not yet claimed when it expires stay
        // unseeded and resolve to `Incomplete`.
        let t0 = Instant::now();
        if let Some(c) = coord.as_mut() {
            c.begin("seed_filter");
        }
        let workers = engine.config().effective_workers(reads.len().max(1));
        let (seeded, stage_busy, seeded_ok) = if workers <= 1 || reads.len() <= 1 {
            let mut busy = StageTimings::default();
            let mut scratch = SeedScratch::default();
            let mut fscratch = FilterScratch::default();
            let mut seeded = Vec::new();
            let mut ok = vec![false; reads.len()];
            for (idx, read) in reads.iter().enumerate() {
                if cancel.as_ref().is_some_and(CancelToken::expired) {
                    break;
                }
                seeded.extend(self.seed_filter_read(
                    idx,
                    read,
                    &mut busy,
                    &mut scratch,
                    &mut fscratch,
                    &mut coord,
                ));
                ok[idx] = true;
            }
            (seeded, busy, ok)
        } else {
            self.seed_filter_parallel(reads, workers, cancel.as_ref())
        };
        for (idx, &ok) in seeded_ok.iter().enumerate() {
            if !ok {
                faults.drop_deadline(idx);
            }
        }
        if let Some(c) = coord.as_mut() {
            c.end("seed_filter");
        }
        let stage_wall = t0.elapsed();
        // Attribute the fused pass's wall time to the two stages in
        // proportion to the workers' accumulated busy time, keeping
        // `total()` equal to the pipeline's real wall clock.
        let busy_total = stage_busy.seeding + stage_busy.filtering;
        timings.seeding = if busy_total.is_zero() {
            stage_wall
        } else {
            stage_wall.mul_f64(stage_busy.seeding.as_secs_f64() / busy_total.as_secs_f64())
        };
        timings.filtering = stage_wall.saturating_sub(timings.seeding);
        timings.candidates = stage_busy.candidates;
        timings.filter_rows = stage_busy.filter_rows;
        timings.tier0_rejects = stage_busy.tier0_rejects;
        timings.tier1_rejects = stage_busy.tier1_rejects;
        timings.cascade_accepts = stage_busy.cascade_accepts;
        timings.cascade_fallbacks = stage_busy.cascade_fallbacks;
        timings.tier0_probes = stage_busy.tier0_probes;

        // Flatten the survivors into one candidate table; engine keys
        // are plain candidate indices, so results route back without a
        // side table.
        let cands: Vec<Cand<'_>> = seeded
            .iter()
            .flat_map(|s| {
                s.survivors.iter().map(|&Survivor { pos, bound }| Cand {
                    read: s.read,
                    reverse: s.reverse,
                    pos,
                    seq: &s.seq,
                    budget: s.budget,
                    bound,
                })
            })
            .collect();
        let mut best: Vec<Option<Mapping>> = vec![None; reads.len()];

        let two_phase = self.config.align_mode == AlignMode::TwoPhase
            && self.config.aligner == AlignerKind::GenAsm;
        if !two_phase {
            // Single-phase: align every survivor in full mode.
            // Time only the engine call, as `map_read` times only the
            // aligner: the serial job copies must not dilute the
            // multi-worker shrinkage of the stage wall.
            let jobs = self.full_jobs(&cands, (0..cands.len()).collect());
            let t2 = Instant::now();
            if let Some(c) = coord.as_mut() {
                c.begin("traceback");
            }
            let (keyed, align_stats) = engine.align_batch_keyed_with_stats(&jobs);
            if let Some(c) = coord.as_mut() {
                c.end("traceback");
            }
            timings.traceback = t2.elapsed();
            timings.traceback_jobs = jobs.len() as u64;
            absorb_engine_stats(&mut timings, &align_stats);
            self.fold_keyed(&cands, keyed, &mut best, &mut faults);
            return (self.assemble_outcomes(best, faults), timings);
        }

        // Stage 2 — distance-only scans (phase 1). Only contested
        // reads need them: a read with a single filter survivor has no
        // resolution to run, so its candidate goes straight to
        // traceback (bound 0, trivially a lower bound).
        let mut cand_count = vec![0usize; reads.len()];
        for c in &cands {
            cand_count[c.read] += 1;
        }
        let mut bound = vec![0usize; cands.len()];
        let contested: Vec<usize> = (0..cands.len())
            .filter(|&idx| cand_count[cands[idx].read] > 1)
            .collect();
        if !contested.is_empty() {
            // A candidate carrying the cascade's exact occurrence
            // distance is answered from that bound without touching
            // the worker pool — its window was already scanned once by
            // tier 1 and is never scanned twice.
            let djobs: Vec<DistanceJob> = contested
                .iter()
                .map(|&idx| {
                    let c = &cands[idx];
                    match c.bound {
                        Some(d) => DistanceJob::prefilled(d),
                        None => DistanceJob::new(
                            self.region(c.pos, c.seq.len(), c.budget),
                            c.seq,
                            c.budget,
                        ),
                    }
                    .with_key(idx as u64)
                })
                .collect();
            // Time only the engine call, as in full mode: the serial
            // job copies must not dilute the stage's multi-worker
            // shrinkage.
            let t2 = Instant::now();
            if let Some(c) = coord.as_mut() {
                c.begin("distance");
            }
            let (distances, dstats) = engine.distance_batch_keyed(&djobs);
            if let Some(c) = coord.as_mut() {
                c.end("distance");
            }
            timings.distance = t2.elapsed();
            timings.distance_jobs = djobs.len() as u64;
            timings.bound_reuse_hits = dstats.jobs_prefilled;
            absorb_engine_stats(&mut timings, &dstats);
            // Each candidate's `bound` is a certified lower bound of
            // its full alignment's edit distance: the scanned
            // distance, `k + 1` when the scan exhausted its budget,
            // and 0 (align unconditionally) when the scan failed. A
            // panicked or cancelled scan additionally faults its read.
            for kd in &distances {
                let idx = kd.key as usize;
                bound[idx] = match &kd.result {
                    Ok(Some(d)) => *d,
                    Ok(None) => cands[idx].budget + 1,
                    Err(JobError::Panicked { message }) => {
                        faults.poison(cands[idx].read, message);
                        0
                    }
                    Err(JobError::Cancelled) => {
                        faults.drop_deadline(cands[idx].read);
                        0
                    }
                    Err(JobError::Align(_)) => 0,
                };
            }
        }

        // Stage 3 — per-read best resolution on the bounds.
        if let Some(c) = coord.as_mut() {
            c.begin("resolve");
        }
        let mut min_bound = vec![usize::MAX; reads.len()];
        for (idx, c) in cands.iter().enumerate() {
            min_bound[c.read] = min_bound[c.read].min(bound[idx]);
        }
        // Faulted reads' candidates are dropped here: a poisoned read
        // is no longer provably resolvable and a deadline-dropped one
        // would only be cancelled again, so neither spends traceback
        // work. On a fault-free run no read is faulted and the winner
        // set is exactly the unfiltered one.
        let winners: Vec<usize> = (0..cands.len())
            .filter(|&idx| {
                bound[idx] == min_bound[cands[idx].read] && !faults.is_faulted(cands[idx].read)
            })
            .collect();
        if let Some(c) = coord.as_mut() {
            c.end("resolve");
        }

        // Stage 4 — traceback: full-mode alignment of the winners
        // only.
        let mut aligned = vec![false; cands.len()];
        for &idx in &winners {
            aligned[idx] = true;
        }
        let winner_jobs = self.full_jobs(&cands, winners);
        let t3 = Instant::now();
        if let Some(c) = coord.as_mut() {
            c.begin("traceback");
        }
        let (keyed, align_stats) = engine.align_batch_keyed_with_stats(&winner_jobs);
        if let Some(c) = coord.as_mut() {
            c.end("traceback");
        }
        timings.traceback = t3.elapsed();
        timings.traceback_jobs = winner_jobs.len() as u64;
        absorb_engine_stats(&mut timings, &align_stats);
        self.fold_keyed(&cands, keyed, &mut best, &mut faults);

        // Verification round: a winner's realized distance can exceed
        // its bound (the windowed walk is a heuristic), so re-align any
        // candidate whose lower bound still permits beating — or
        // tying — the realized best. Unaligned candidates then satisfy
        // `E(c) >= bound(c) > realized best`, which proves the final
        // selection identical to aligning every survivor. On realistic
        // workloads bounds are exact and this round is empty.
        let verify: Vec<usize> = (0..cands.len())
            .filter(|&idx| {
                !aligned[idx]
                    && !faults.is_faulted(cands[idx].read)
                    && bound[idx]
                        <= best[cands[idx].read]
                            .as_ref()
                            .map_or(usize::MAX, |b| b.edit_distance)
            })
            .collect();
        if !verify.is_empty() {
            let verify_jobs = self.full_jobs(&cands, verify);
            let t4 = Instant::now();
            if let Some(c) = coord.as_mut() {
                c.begin("verify");
            }
            let (keyed, verify_stats) = engine.align_batch_keyed_with_stats(&verify_jobs);
            if let Some(c) = coord.as_mut() {
                c.end("verify");
            }
            timings.traceback += t4.elapsed();
            timings.traceback_jobs += verify_jobs.len() as u64;
            absorb_engine_stats(&mut timings, &verify_stats);
            self.fold_keyed(&cands, keyed, &mut best, &mut faults);
        }
        (self.assemble_outcomes(best, faults), timings)
    }

    /// Folds the per-read mappings and fault state into final
    /// [`ReadOutcome`]s (poisoning wins over deadline-dropping) and
    /// bumps the fault counters when telemetry is enabled.
    fn assemble_outcomes(
        &self,
        best: Vec<Option<Mapping>>,
        faults: BatchFaults,
    ) -> Vec<ReadOutcome> {
        let mut poisoned = 0u64;
        let mut dropped = 0u64;
        let outcomes: Vec<ReadOutcome> = best
            .into_iter()
            .zip(faults.poisoned)
            .zip(faults.dropped)
            .map(|((mapping, poison), drop)| match (poison, drop) {
                (Some(message), _) => {
                    poisoned += 1;
                    ReadOutcome::Poisoned { message }
                }
                (None, true) => {
                    dropped += 1;
                    ReadOutcome::Incomplete { partial: mapping }
                }
                (None, false) => match mapping {
                    Some(m) => ReadOutcome::Mapped(m),
                    None => ReadOutcome::Unmapped,
                },
            })
            .collect();
        if self.telemetry.metrics.is_enabled() {
            if poisoned > 0 {
                self.telemetry
                    .metrics
                    .counter(READS_POISONED_COUNTER)
                    .add(poisoned);
            }
            if dropped > 0 {
                self.telemetry
                    .metrics
                    .counter(READS_DEADLINE_DROPPED_COUNTER)
                    .add(dropped);
            }
        }
        outcomes
    }

    /// Full-mode engine jobs for the given candidate indices, keyed by
    /// candidate index.
    fn full_jobs(&self, cands: &[Cand<'_>], indices: Vec<usize>) -> Vec<Job> {
        indices
            .into_iter()
            .map(|idx| {
                let c = &cands[idx];
                Job::new(self.region(c.pos, c.seq.len(), c.budget), c.seq).with_key(idx as u64)
            })
            .collect()
    }

    /// Folds keyed full-alignment results into the per-read best
    /// mappings with the sequential path's tie-breaking (lowest edit
    /// distance, forward strand preferred, then lowest position).
    /// Per-job alignment failures are skipped, exactly as `map_read`
    /// skips them; panicked jobs poison their read and cancelled jobs
    /// mark it deadline-dropped.
    fn fold_keyed(
        &self,
        cands: &[Cand<'_>],
        keyed: Vec<KeyedResult>,
        best: &mut [Option<Mapping>],
        faults: &mut BatchFaults,
    ) {
        for KeyedResult { key, result } in keyed {
            let c = &cands[key as usize];
            let alignment = match result {
                Ok(alignment) => alignment,
                Err(JobError::Panicked { message }) => {
                    faults.poison(c.read, &message);
                    continue;
                }
                Err(JobError::Cancelled) => {
                    faults.drop_deadline(c.read);
                    continue;
                }
                Err(JobError::Align(_)) => continue,
            };
            let mapping = Mapping {
                position: c.pos,
                reverse: c.reverse,
                score: self.config.scoring.score_cigar(&alignment.cigar),
                edit_distance: alignment.edit_distance,
                cigar: alignment.cigar,
            };
            let key = (
                mapping.edit_distance,
                usize::from(mapping.reverse),
                mapping.position,
            );
            let better = match &best[c.read] {
                None => true,
                Some(b) => key < (b.edit_distance, usize::from(b.reverse), b.position),
            };
            if better {
                best[c.read] = Some(mapping);
            }
        }
    }

    /// The edit-distance budget `k` for one oriented read.
    fn error_budget(&self, seq: &[u8]) -> usize {
        (seq.len() as f64 * self.config.error_fraction).ceil() as usize
    }

    /// Stages 1–2 for one read of a batch: both orientations seeded and
    /// filtered, candidate work shared with the sequential path via
    /// [`seed_and_filter`](Self::seed_and_filter) so the two shapes can
    /// never diverge.
    fn seed_filter_read(
        &self,
        read_idx: usize,
        read: &[u8],
        timings: &mut StageTimings,
        scratch: &mut SeedScratch,
        fscratch: &mut FilterScratch,
        spans: &mut Option<SpanBuffer>,
    ) -> Vec<Seeded> {
        let mut out = Vec::with_capacity(1 + usize::from(self.config.both_strands));
        let mut oriented: Vec<(Vec<u8>, bool)> = vec![(read.to_vec(), false)];
        if self.config.both_strands {
            oriented.push((reverse_complement(read), true));
        }
        for (seq, reverse) in oriented {
            let budget = self.error_budget(&seq);
            let survivors = self.seed_and_filter(&seq, budget, timings, scratch, fscratch, spans);
            out.push(Seeded {
                read: read_idx,
                reverse,
                seq,
                budget,
                survivors,
            });
        }
        out
    }

    /// The batch seed-and-filter stage sharded across `workers` scoped
    /// threads. Reads are claimed from an atomic cursor; each read is
    /// processed wholly by one worker and the per-read outputs are
    /// merged back in read order, so the result is identical at any
    /// worker count. The cancel token is checked at each read claim:
    /// workers stop claiming once it expires, leaving the remaining
    /// reads unseeded. Returns the seeded reads, the workers'
    /// accumulated busy timings (seeding/filtering sums and candidate
    /// counters), and a per-read flag of which reads were seeded.
    fn seed_filter_parallel(
        &self,
        reads: &[&[u8]],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> (Vec<Seeded>, StageTimings, Vec<bool>) {
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<Vec<Seeded>>> = Vec::new();
        slots.resize_with(reads.len(), || None);
        let mut busy = StageTimings::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let cursor = &cursor;
                    let tracer = &self.telemetry.tracer;
                    scope.spawn(move || {
                        // Seed workers trace in their own tid namespace
                        // (100 + worker), clear of the coordinator (0)
                        // and the engine workers (1 + worker).
                        let mut spans = tracer
                            .is_enabled()
                            .then(|| tracer.buffer(100 + worker as u32));
                        let mut scratch = SeedScratch::default();
                        let mut fscratch = FilterScratch::default();
                        let mut local = StageTimings::default();
                        let mut produced: Vec<(usize, Vec<Seeded>)> = Vec::new();
                        loop {
                            if cancel.is_some_and(CancelToken::expired) {
                                break;
                            }
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= reads.len() {
                                break;
                            }
                            produced.push((
                                idx,
                                self.seed_filter_read(
                                    idx,
                                    reads[idx],
                                    &mut local,
                                    &mut scratch,
                                    &mut fscratch,
                                    &mut spans,
                                ),
                            ));
                        }
                        (produced, local)
                    })
                })
                .collect();
            for handle in handles {
                let (produced, local) = handle.join().expect("seed worker panicked");
                busy.accumulate(&local);
                for (idx, seeded) in produced {
                    slots[idx] = Some(seeded);
                }
            }
        });
        let mut seeded_ok = vec![false; reads.len()];
        let mut seeded = Vec::new();
        for (idx, slot) in slots.into_iter().enumerate() {
            if let Some(s) = slot {
                seeded_ok[idx] = true;
                seeded.extend(s);
            }
        }
        (seeded, busy, seeded_ok)
    }

    /// Pipeline steps 1–2 for one oriented read: seeding, then the
    /// configured pre-alignment filter. Returns the surviving
    /// candidates (positions clamped into the reference, plus any
    /// bound the filter certified) and accumulates stage timings and
    /// candidate counters. Shared by the sequential and engine-batched
    /// paths so their candidate sets can never diverge.
    ///
    /// The GenASM filter's two execution modes accept bit-identical
    /// candidate sets: the default escalating cascade
    /// ([`filter_cascade`](Self::filter_cascade)) and the flat
    /// lock-step scan ([`filter_legacy`](Self::filter_legacy)).
    fn seed_and_filter(
        &self,
        seq: &[u8],
        k: usize,
        timings: &mut StageTimings,
        scratch: &mut SeedScratch,
        fscratch: &mut FilterScratch,
        spans: &mut Option<SpanBuffer>,
    ) -> Vec<Survivor> {
        let t0 = Instant::now();
        if let Some(s) = spans.as_mut() {
            s.begin("seed");
        }
        self.clamped_candidates(seq, scratch, fscratch);
        if let Some(s) = spans.as_mut() {
            s.end("seed");
        }
        timings.seeding += t0.elapsed();
        timings.candidates.0 += fscratch.positions.len();

        let t1 = Instant::now();
        if let Some(s) = spans.as_mut() {
            s.begin("filter");
        }
        let surviving: Vec<Survivor> = match (self.config.filter, self.config.filter_mode) {
            (FilterKind::GenAsm, FilterMode::Cascade) => {
                self.filter_cascade(seq, k, timings, fscratch)
            }
            (FilterKind::GenAsm, FilterMode::Legacy) => {
                self.filter_legacy(seq, k, timings, fscratch)
            }
            (FilterKind::Shouji, _) => self.filter_shouji(seq, k, timings, fscratch),
            (FilterKind::None, _) => fscratch
                .positions
                .iter()
                .map(|&pos| Survivor { pos, bound: None })
                .collect(),
        };
        if let Some(s) = spans.as_mut() {
            s.end("filter");
        }
        timings.filtering += t1.elapsed();
        timings.candidates.1 += surviving.len();
        surviving
    }

    /// The flat lock-step GenASM filter (legacy mode): every candidate
    /// pays the full `k + 1` recurrence rows of the batched Bitap scan.
    /// Candidates stream through in stack groups of [`SCAN_LANES`] —
    /// the batch kernel's own grouping, since all of a read's pairs
    /// share its pattern and are therefore uniformly lock-step-eligible
    /// or uniformly scalar — so decisions *and* row accounting are
    /// identical to the old whole-read pairs table, without building
    /// it.
    fn filter_legacy(
        &self,
        seq: &[u8],
        k: usize,
        timings: &mut StageTimings,
        fscratch: &mut FilterScratch,
    ) -> Vec<Survivor> {
        let filter = PreAlignmentFilter::new(k);
        let mut rows = ScanMetrics::default();
        let mut surviving = Vec::new();
        for chunk in fscratch.positions.chunks(SCAN_LANES) {
            let mut group: [(&[u8], &[u8]); SCAN_LANES] = [(&[], &[]); SCAN_LANES];
            for (slot, &pos) in group.iter_mut().zip(chunk) {
                *slot = (self.region(pos, seq.len(), k), seq);
            }
            let decisions = filter.accepts_many_counted(&group[..chunk.len()], &mut rows);
            for (&pos, decision) in chunk.iter().zip(decisions) {
                if decision.unwrap_or(false) {
                    surviving.push(Survivor { pos, bound: None });
                }
            }
        }
        timings.filter_rows.0 += rows.rows_issued;
        timings.filter_rows.1 += rows.rows_useful;
        surviving
    }

    /// The escalating filter cascade (default mode): tier 0 rejects
    /// candidates from a banded q-gram count over the packed reference
    /// before any recurrence row is issued; tier-0 survivors run the
    /// iterative-deepening lock-step occurrence scan, whose exact
    /// distance becomes the accepted candidate's carried bound.
    /// Accepts exactly the candidates [`filter_legacy`](Self::filter_legacy)
    /// accepts: tier 0 is a proven-sound bailout, tier 1 computes the
    /// same occurrence decision as the flat scan, and inputs outside
    /// the cascade's fast path (non-DNA bytes, reads past the wide
    /// kernel's window limit) replay the legacy scan verbatim.
    fn filter_cascade(
        &self,
        seq: &[u8],
        k: usize,
        timings: &mut StageTimings,
        fscratch: &mut FilterScratch,
    ) -> Vec<Survivor> {
        let pattern = (seq.len() <= MAX_WIDE_WINDOW)
            .then(|| CascadePattern::new(seq).ok())
            .flatten();
        let FilterScratch {
            positions,
            codes,
            tier0,
            lanes,
            verdicts,
            pending,
            ..
        } = fscratch;
        verdicts.clear();
        verdicts.resize(positions.len(), None);
        pending.clear();
        let filter = PreAlignmentFilter::new(k);
        let mut rows = ScanMetrics::default();

        // Tier 0 — cheap bailout per candidate, no recurrence rows.
        for (idx, &pos) in positions.iter().enumerate() {
            let window = self.region(pos, seq.len(), k);
            verdicts[idx] = match &pattern {
                Some(p) => {
                    codes.clear();
                    if self.packed.window_codes_into(pos, window.len(), codes) {
                        timings.tier0_probes += tier0_probes(window.len(), p);
                        if tier0_rejects(codes, p, k, tier0) {
                            timings.tier0_rejects += 1;
                            Some(FilterVerdict::Rejected)
                        } else {
                            pending.push(idx);
                            None
                        }
                    } else {
                        // A non-DNA byte inside the window: the legacy
                        // scan's lazy text validation may still accept
                        // before reaching it, so replay it exactly.
                        timings.cascade_fallbacks += 1;
                        Some(legacy_verdict(&filter, window, seq, &mut rows))
                    }
                }
                // Invalid or over-wide read: every candidate takes the
                // legacy path.
                None => {
                    timings.cascade_fallbacks += 1;
                    Some(legacy_verdict(&filter, window, seq, &mut rows))
                }
            };
        }

        // Tier 1 — iterative-deepening occurrence distance for the
        // contenders, in lock-step lanes. A candidate resolving at
        // distance `d` pays `d + 1` recurrence rows instead of the
        // flat scan's `k + 1`.
        if !pending.is_empty() {
            let p = pattern.as_ref().expect("pending implies a valid pattern");
            let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = pending
                .iter()
                .map(|&idx| OccurrenceLaneJob {
                    text: self.region(positions[idx], seq.len(), k),
                    pattern: p.masks(),
                    k,
                })
                .collect();
            let results = occurrence_distance_lanes::<Dna>(&jobs, lanes, &mut rows);
            for (&idx, result) in pending.iter().zip(results) {
                verdicts[idx] = Some(match result {
                    Ok(Some(d)) => {
                        timings.cascade_accepts += 1;
                        FilterVerdict::Accepted {
                            lower_bound: d,
                            exact: true,
                        }
                    }
                    // `Ok(None)`: the occurrence distance exceeds the
                    // threshold. Errors cannot reach here (inputs were
                    // validated above); they map to the legacy reject
                    // convention defensively.
                    Ok(None) | Err(_) => {
                        timings.tier1_rejects += 1;
                        FilterVerdict::Rejected
                    }
                });
            }
        }
        timings.filter_rows.0 += rows.rows_issued;
        timings.filter_rows.1 += rows.rows_useful;

        positions
            .iter()
            .zip(verdicts.iter())
            .filter_map(
                |(&pos, verdict)| match verdict.expect("every candidate holds a verdict") {
                    FilterVerdict::Accepted { lower_bound, exact } => Some(Survivor {
                        pos,
                        bound: exact.then_some(lower_bound),
                    }),
                    FilterVerdict::Rejected => None,
                },
            )
            .collect()
    }

    /// The Shouji baseline filter, batched through
    /// [`ShoujiFilter::accepts_many_counted`] so its neighborhood-map
    /// work volume lands in `filter_rows` (and the occupancy figures)
    /// like the GenASM scans' instead of bypassing the accounting.
    fn filter_shouji(
        &self,
        seq: &[u8],
        k: usize,
        timings: &mut StageTimings,
        fscratch: &mut FilterScratch,
    ) -> Vec<Survivor> {
        let filter = ShoujiFilter::new(k);
        let mut rows = ScanMetrics::default();
        let mut surviving = Vec::new();
        for chunk in fscratch.positions.chunks(SCAN_LANES) {
            let mut group: [(&[u8], &[u8]); SCAN_LANES] = [(&[], &[]); SCAN_LANES];
            for (slot, &pos) in group.iter_mut().zip(chunk) {
                *slot = (self.region(pos, seq.len(), k), seq);
            }
            let decisions = filter.accepts_many_counted(&group[..chunk.len()], &mut rows);
            for (&pos, accept) in chunk.iter().zip(decisions) {
                if accept {
                    surviving.push(Survivor { pos, bound: None });
                }
            }
        }
        timings.filter_rows.0 += rows.rows_issued;
        timings.filter_rows.1 += rows.rows_useful;
        surviving
    }

    /// Seeding for one oriented read: candidate positions in seeder
    /// order, clamped into the reference, filled into the filter
    /// scratch (no per-read allocation). Shared by the sequential and
    /// batch paths so their candidate sets can never diverge.
    fn clamped_candidates(
        &self,
        seq: &[u8],
        scratch: &mut SeedScratch,
        fscratch: &mut FilterScratch,
    ) {
        self.config
            .seeder
            .candidates_into(&self.index, seq, scratch, &mut fscratch.raw);
        fscratch.positions.clear();
        fscratch.positions.extend(
            fscratch
                .raw
                .iter()
                .map(|c| c.position.min(self.reference.len().saturating_sub(1))),
        );
    }

    /// The candidate region for a read of length `m` at `pos`: length
    /// `m + k`, clamped to the reference end.
    fn region(&self, pos: usize, m: usize, k: usize) -> &[u8] {
        let end = (pos + m + k).min(self.reference.len());
        &self.reference[pos..end]
    }
}

/// One candidate's decision on the legacy scalar path — used by the
/// cascade for inputs its fast path cannot serve — with the legacy row
/// accounting, wrapped as a cascade verdict. No bound is certified:
/// the legacy scan early-exits without computing the distance.
fn legacy_verdict(
    filter: &PreAlignmentFilter,
    window: &[u8],
    seq: &[u8],
    rows: &mut ScanMetrics,
) -> FilterVerdict {
    let accept = filter
        .accepts_many_counted(&[(window, seq)], rows)
        .pop()
        .expect("one decision per pair")
        .unwrap_or(false);
    if accept {
        FilterVerdict::Accepted {
            lower_bound: 0,
            exact: false,
        }
    } else {
        FilterVerdict::Rejected
    }
}

/// The reverse complement of a DNA read.
fn reverse_complement(read: &[u8]) -> Vec<u8> {
    read.iter()
        .rev()
        .map(|&b| genasm_core::alphabet::Dna::complement(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genasm_seq::genome::GenomeBuilder;
    use genasm_seq::profile::ErrorProfile;
    use genasm_seq::readsim::{LengthModel, ReadSimulator, SimConfig};

    fn genome() -> Vec<u8> {
        GenomeBuilder::new(30_000)
            .seed(11)
            .build()
            .sequence()
            .to_vec()
    }

    #[test]
    fn exact_reads_map_to_origin() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        for start in [100usize, 7_000, 25_000] {
            let read = &reference[start..start + 150];
            let (mapping, _) = mapper.map_read(read);
            let mapping = mapping.expect("exact read must map");
            assert!(mapping.position.abs_diff(start) <= 16, "start={start}");
            assert_eq!(mapping.edit_distance, 0, "start={start}");
        }
    }

    #[test]
    fn noisy_reads_map_with_both_aligners() {
        let reference = genome();
        let sim = ReadSimulator::new(SimConfig {
            read_length: 200,
            count: 20,
            profile: ErrorProfile::illumina(),
            seed: 5,
            both_strands: false,
            length_model: LengthModel::Fixed,
        });
        let reads = sim.simulate(&reference);
        for aligner in [AlignerKind::GenAsm, AlignerKind::Gotoh] {
            let config = MapperConfig {
                aligner,
                ..MapperConfig::default()
            };
            let mapper = ReadMapper::build(&reference, config);
            let mut mapped = 0;
            for read in &reads {
                let (mapping, _) = mapper.map_read(&read.seq);
                if let Some(m) = mapping {
                    if m.position.abs_diff(read.origin) <= 24 {
                        mapped += 1;
                    }
                }
            }
            assert!(
                mapped >= 18,
                "aligner {aligner:?}: only {mapped}/20 mapped near origin"
            );
        }
    }

    #[test]
    fn filter_reduces_candidates() {
        let reference = genome();
        let config = MapperConfig {
            error_fraction: 0.05,
            ..MapperConfig::default()
        };
        let mapper = ReadMapper::build(&reference, config);
        let read = &reference[12_000..12_150];
        let (_, timings) = mapper.map_read(read);
        assert!(timings.candidates.1 <= timings.candidates.0);
        assert!(timings.candidates.1 >= 1);
    }

    #[test]
    fn reverse_strand_reads_are_mapped_and_flagged() {
        use genasm_core::alphabet::Dna;
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let forward = &reference[9_000..9_180];
        let rc: Vec<u8> = forward.iter().rev().map(|&b| Dna::complement(b)).collect();
        let (mapping, _) = mapper.map_read(&rc);
        let mapping = mapping.expect("reverse-complement read must map");
        assert!(mapping.reverse);
        assert!(mapping.position.abs_diff(9_000) <= 16);
        assert_eq!(mapping.edit_distance, 0);
        // A forward read maps without the flag.
        let (mapping, _) = mapper.map_read(forward);
        assert!(!mapping.unwrap().reverse);
    }

    #[test]
    fn unmappable_read_returns_none() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        // A read of a foreign pattern: homopolymer runs absent from the
        // GC-balanced random reference.
        let read = vec![b'A'; 200];
        let (mapping, _) = mapper.map_read(&read);
        assert!(mapping.is_none());
    }

    #[test]
    fn engine_batch_mode_matches_sequential_mapping() {
        use genasm_engine::{Engine, EngineConfig};
        let reference = genome();
        let config = MapperConfig::default();
        let sim = ReadSimulator::new(SimConfig {
            read_length: 150,
            count: 12,
            profile: ErrorProfile::illumina(),
            seed: 9,
            both_strands: true,
            length_model: LengthModel::Fixed,
        });
        let reads = sim.simulate(&reference);
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();

        let mapper = ReadMapper::build(&reference, config.clone());
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(4)
                .with_genasm(config.genasm.clone()),
        );
        let (batch, timings) = mapper.map_batch_with_engine(&refs, &engine);
        assert_eq!(batch.len(), reads.len());
        assert!(timings.candidates.0 >= timings.candidates.1);
        // The workers' filter row-slot accounting must survive the
        // busy-time merge into the batch timings.
        assert!(
            timings.filter_rows.0 > 0,
            "batch path dropped filter row accounting"
        );
        assert!(timings.filter_occupancy().is_some());

        for (read, got) in refs.iter().zip(&batch) {
            let (want, _) = mapper.map_read(read);
            assert_eq!(
                &want, got,
                "engine batch must reproduce the sequential mapping"
            );
        }
    }

    #[test]
    fn filter_rows_are_counted_and_occupancy_is_sane() {
        let reference = genome();
        let legacy_config = MapperConfig {
            filter_mode: FilterMode::Legacy,
            ..MapperConfig::default()
        };
        let legacy = ReadMapper::build(&reference, legacy_config);
        // Lock-step filter lanes require single-word reads (<= 64
        // bases); the padding gap only exists on this path.
        let read = &reference[12_000..12_060];
        let (_, timings) = legacy.map_read(read);
        let (issued, useful) = timings.filter_rows;
        assert!(issued > 0, "the GenASM filter must issue lock-step rows");
        assert!(useful > 0 && useful <= issued);
        let occ = timings.filter_occupancy().expect("rows ran");
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        // Legacy mode issues no cascade work.
        assert_eq!(timings.tier0_probes, 0);
        assert_eq!(timings.tier0_rejects + timings.tier1_rejects, 0);
        // A non-lock-step filter reports no rows, and occupancy stays
        // None instead of dividing by zero.
        let none = ReadMapper::build(
            &reference,
            MapperConfig {
                filter: FilterKind::None,
                ..MapperConfig::default()
            },
        );
        let (_, timings) = none.map_read(read);
        assert_eq!(timings.filter_rows, (0, 0));
        assert!(timings.filter_occupancy().is_none());
        // In legacy mode long reads fall back to the scalar multi-word
        // scan pair by pair: exact word volume, fully useful
        // (occupancy 1.0).
        let (_, legacy_timings) = legacy.map_read(&reference[12_000..12_150]);
        let (issued, useful) = legacy_timings.filter_rows;
        assert!(issued > 0, "multi-word fallback rows must be counted");
        assert_eq!(useful, issued);
        assert_eq!(legacy_timings.filter_occupancy(), Some(1.0));

        // The cascade examines the same candidates but issues far
        // fewer recurrence rows: tier 0 kills decoys before any row
        // and tier 1 deepens only to each survivor's distance.
        let cascade = ReadMapper::build(&reference, MapperConfig::default());
        let (_, cascade_timings) = cascade.map_read(&reference[12_000..12_150]);
        assert_eq!(
            cascade_timings.candidates.1, legacy_timings.candidates.1,
            "both modes must accept the same candidates"
        );
        assert!(
            cascade_timings.cascade_accepts > 0,
            "an exact read's candidates must resolve in tier 1"
        );
        assert_eq!(cascade_timings.cascade_fallbacks, 0);
        assert!(cascade_timings.tier0_probes > 0);
        assert!(
            cascade_timings.filter_rows.0 < legacy_timings.filter_rows.0,
            "cascade rows {} must undercut legacy rows {}",
            cascade_timings.filter_rows.0,
            legacy_timings.filter_rows.0,
        );
    }

    #[test]
    fn cascade_and_legacy_filters_agree_everywhere() {
        let reference = genome();
        let sim = ReadSimulator::new(SimConfig {
            read_length: 150,
            count: 16,
            profile: ErrorProfile::illumina(),
            seed: 21,
            both_strands: true,
            length_model: LengthModel::Uniform { min: 48, max: 180 },
        });
        let reads = sim.simulate(&reference);
        let cascade = ReadMapper::build(&reference, MapperConfig::default());
        let legacy = ReadMapper::build(
            &reference,
            MapperConfig {
                filter_mode: FilterMode::Legacy,
                ..MapperConfig::default()
            },
        );
        for read in &reads {
            let (want, lt) = legacy.map_read(&read.seq);
            let (got, ct) = cascade.map_read(&read.seq);
            assert_eq!(got, want, "modes disagree on a mapping");
            assert_eq!(
                ct.candidates, lt.candidates,
                "modes disagree on examined/surviving candidates"
            );
        }
    }

    #[test]
    fn telemetry_records_read_latency_and_stage_spans() {
        use genasm_obs::Telemetry;
        let reference = genome();
        let telemetry = Telemetry::enabled();
        let mapper = ReadMapper::build(&reference, MapperConfig::default())
            .with_telemetry(telemetry.clone());
        let engine = mapper
            .engine(2, DcDispatch::default())
            .with_telemetry(telemetry.clone());
        let reads: Vec<&[u8]> = vec![
            &reference[100..250],
            &reference[5_000..5_150],
            &reference[9_000..9_160],
        ];
        let (mappings, _) = mapper.map_batch_with_engine(&reads, &engine);
        assert!(mappings.iter().all(Option::is_some));

        // One amortized latency observation per batched read.
        let snapshot = telemetry.metrics.snapshot();
        let hist = snapshot
            .histogram(READ_LATENCY_HISTOGRAM)
            .expect("read latency histogram exists");
        assert_eq!(hist.count, reads.len() as u64);

        // Sequential mapping adds true per-read observations.
        mapper.map_read(reads[0]);
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(
            snapshot.histogram(READ_LATENCY_HISTOGRAM).unwrap().count,
            reads.len() as u64 + 1
        );

        // Stage spans are present and balanced per name.
        let events = telemetry.tracer.take_events();
        let mut names: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for event in &events {
            let slot = names.entry(event.name).or_default();
            match event.phase {
                genasm_obs::Phase::Begin => slot.0 += 1,
                genasm_obs::Phase::End => slot.1 += 1,
            }
        }
        for (name, (begins, ends)) in &names {
            assert_eq!(begins, ends, "span {name} must balance");
        }
        for required in ["seed_filter", "resolve", "traceback", "seed", "filter"] {
            assert!(names.contains_key(required), "missing {required} spans");
        }

        // A disabled mapper records nothing.
        let off = Telemetry::off();
        let quiet =
            ReadMapper::build(&reference, MapperConfig::default()).with_telemetry(off.clone());
        quiet.map_read(reads[0]);
        assert_eq!(off.tracer.event_count(), 0);
        assert!(off.metrics.snapshot().histograms.is_empty());
    }

    #[test]
    fn resilient_outcomes_match_plain_batch_when_fault_free() {
        use genasm_engine::{Engine, EngineConfig};
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(3)
                .with_genasm(mapper.config().genasm.clone()),
        );
        let reads: Vec<&[u8]> = vec![
            &reference[100..250],
            &reference[5_000..5_150],
            &reference[9_000..9_160],
        ];
        let (outcomes, _) = mapper.map_batch_resilient(&reads, &engine);
        let (mappings, _) = mapper.map_batch_with_engine(&reads, &engine);
        assert_eq!(outcomes.len(), mappings.len());
        for (outcome, mapping) in outcomes.iter().zip(&mappings) {
            assert!(
                !outcome.is_fault(),
                "fault on a fault-free run: {outcome:?}"
            );
            assert_eq!(outcome.mapping(), mapping.as_ref());
        }
    }

    #[test]
    fn pre_expired_deadline_yields_incomplete_outcomes() {
        use genasm_engine::{CancelToken, Engine, EngineConfig};
        use genasm_obs::Telemetry;
        let reference = genome();
        let telemetry = Telemetry::enabled();
        let mapper = ReadMapper::build(&reference, MapperConfig::default())
            .with_telemetry(telemetry.clone());
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_genasm(mapper.config().genasm.clone())
                .with_cancel(token),
        );
        let reads: Vec<&[u8]> = vec![&reference[100..250], &reference[5_000..5_150]];
        let (outcomes, _) = mapper.map_batch_resilient(&reads, &engine);
        assert_eq!(outcomes.len(), reads.len());
        for outcome in &outcomes {
            assert_eq!(
                outcome,
                &ReadOutcome::Incomplete { partial: None },
                "a pre-expired deadline must drop every read, not crash"
            );
            assert_eq!(outcome.clone().into_mapping(), None);
        }
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(
            snapshot.counter(READS_DEADLINE_DROPPED_COUNTER),
            Some(reads.len() as u64)
        );
        assert_eq!(snapshot.counter(READS_POISONED_COUNTER), None);

        // A generous deadline resolves everything, identically to an
        // un-deadlined run.
        let generous = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_genasm(mapper.config().genasm.clone())
                .with_deadline(Duration::from_secs(3600)),
        );
        let (outcomes, _) = mapper.map_batch_resilient(&reads, &generous);
        assert!(outcomes.iter().all(|o| !o.is_fault()));
        let plain = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_genasm(mapper.config().genasm.clone()),
        );
        let (want, _) = mapper.map_batch_with_engine(&reads, &plain);
        for (outcome, mapping) in outcomes.iter().zip(&want) {
            assert_eq!(outcome.mapping(), mapping.as_ref());
        }
    }

    #[test]
    fn batch_accumulates_timings() {
        let reference = genome();
        let mapper = ReadMapper::build(&reference, MapperConfig::default());
        let reads: Vec<&[u8]> = vec![&reference[100..250], &reference[5_000..5_150]];
        let (mappings, timings) = mapper.map_batch(reads);
        assert_eq!(mappings.len(), 2);
        assert!(mappings.iter().all(|m| m.is_some()));
        assert!(timings.total() > Duration::ZERO);
        assert!(timings.candidates.0 >= 2);
    }
}
