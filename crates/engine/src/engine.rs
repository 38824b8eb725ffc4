//! The batch engine: scoped worker pool over a chunked atomic work
//! queue.

use crate::job::{DistanceJob, Job, JobError, KeyedDistance, KeyedResult};
use crate::kernel::{DcDispatch, GenAsmKernel, Kernel, KernelScratch};
use crate::lockstep::LockstepScratch;
use crate::obs::{WorkerObs, CHUNK_LATENCY_HISTOGRAM, JOB_LATENCY_HISTOGRAM};
use crate::stats::{BatchOutput, BatchStats};
use crate::stream::EngineStream;
use genasm_core::align::{Alignment, GenAsmConfig};
use genasm_obs::{Histogram, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle, optionally carrying an absolute
/// deadline. Clones share the same flag, so a token given to an engine
/// (via [`EngineConfig::with_cancel`]) can be fired from any thread;
/// the deadline is resolved to an absolute [`Instant`] at construction
/// so one token bounds an entire multi-batch pipeline run (the mapper
/// issues several engine calls per batch against the same token).
///
/// Workers consult the token only at chunk-claim boundaries — never in
/// the kernel hot loop — so cancellation granularity is one chunk and
/// the happy-path cost is one branch per claim (zero when no token is
/// configured).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; fires only via [`cancel`](Self::cancel).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally expires `budget` from now.
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// Fires the token: every holder observes expiry from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called (ignores the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Whether the token has fired or its deadline has passed.
    pub fn expired(&self) -> bool {
        self.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads; `0` uses the host's available parallelism.
    pub workers: usize,
    /// Jobs a worker claims per queue access; `0` picks a chunk that
    /// gives each worker ~8 claims per batch (amortizing the atomic
    /// while bounding tail imbalance), raised to the kernel's
    /// preferred-chunk floor (the lock-step lane count for the default
    /// kernel) so batched schedulers can fill their lanes.
    pub chunk: usize,
    /// Configuration of the default GenASM kernel; ignored when a
    /// custom kernel is supplied via [`Engine::with_kernel`].
    pub genasm: GenAsmConfig,
    /// DC scheduling of the default GenASM kernel (lock-step by
    /// default; results are bit-identical in every mode). Ignored for
    /// custom kernels.
    pub dispatch: DcDispatch,
    /// Optional cancellation token / deadline. When it expires
    /// mid-batch, workers stop claiming new chunks and the batch
    /// returns partial results: unclaimed jobs come back as
    /// [`JobError::Cancelled`] and
    /// [`BatchStats::deadline_hit`](crate::BatchStats) is set. `None`
    /// (the default) costs nothing.
    pub cancel: Option<CancelToken>,
}

impl EngineConfig {
    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-claim chunk size.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the GenASM kernel configuration.
    #[must_use]
    pub fn with_genasm(mut self, genasm: GenAsmConfig) -> Self {
        self.genasm = genasm;
        self
    }

    /// Sets the GenASM kernel's DC dispatch mode.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DcDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Attaches a cancellation token (see [`CancelToken`]).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a fresh token expiring `budget` from now — the
    /// one-liner for "bound this engine's work by a wall-clock
    /// budget". The deadline is absolute, so every batch the engine
    /// runs shares it.
    #[must_use]
    pub fn with_deadline(self, budget: Duration) -> Self {
        self.with_cancel(CancelToken::with_deadline(budget))
    }

    /// The effective worker count for a batch of `jobs` jobs.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let configured = if self.workers == 0 { hw } else { self.workers };
        configured.min(jobs).max(1)
    }

    /// The effective chunk size for a batch of `jobs` jobs and
    /// `workers` workers. The engine additionally raises auto-sized
    /// chunks to the kernel's
    /// [`preferred_chunk`](crate::kernel::Kernel::preferred_chunk)
    /// floor so batched schedulers can fill their lanes.
    pub fn effective_chunk(&self, jobs: usize, workers: usize) -> usize {
        if self.chunk > 0 {
            return self.chunk;
        }
        (jobs / (workers * 8)).max(1)
    }
}

/// A worker's lane-row `(issued, useful)` and traceback
/// `(windows, rows)` totals across the scratches it used.
#[derive(Default)]
struct Counters {
    lane_rows: (u64, u64),
    tb: (u64, u64),
}

impl Counters {
    /// Moves `scratch`'s counters into the totals.
    fn bank(&mut self, kernel: &dyn Kernel, scratch: &mut dyn KernelScratch) {
        let (issued, useful) = kernel.take_lane_rows(scratch);
        let (windows, rows) = kernel.take_tb_counters(scratch);
        self.lane_rows.0 += issued;
        self.lane_rows.1 += useful;
        self.tb.0 += windows;
        self.tb.1 += rows;
    }
}

/// The batch alignment engine. See the crate docs for the full story.
#[derive(Clone)]
pub struct Engine {
    config: EngineConfig,
    kernel: Arc<dyn Kernel>,
    telemetry: Telemetry,
}

/// Aggregate worker-pool meters one pooled batch collects besides its
/// results: the inputs every [`BatchStats`] flavor assembles from.
struct PoolMeters {
    workers: usize,
    busy: Duration,
    max_job: Duration,
    /// Lock-step lane-slots `(issued, useful)`.
    dc_rows: (u64, u64),
    /// Traceback `(windows walked, rows available)`.
    tb: (u64, u64),
    /// The batch's cancellation token expired before every chunk was
    /// claimed; unclaimed slots stayed `None`.
    deadline_hit: bool,
}

/// Counts [`JobError::Panicked`] slots in a batch's error iterator.
fn count_poisoned<'a>(errors: impl Iterator<Item = Option<&'a JobError>>) -> u64 {
    errors.flatten().filter(|e| e.is_panic()).count() as u64
}

/// Counts [`JobError::Cancelled`] slots in a batch's error iterator.
fn count_cancelled<'a>(errors: impl Iterator<Item = Option<&'a JobError>>) -> u64 {
    errors.flatten().filter(|e| e.is_cancelled()).count() as u64
}

/// Renders a caught panic payload for [`JobError::Panicked`]; string
/// payloads (the overwhelmingly common case) come through verbatim.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("kernel", &self.kernel.name())
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// An engine running the GenASM kernel from `config.genasm` under
    /// `config.dispatch`.
    pub fn new(config: EngineConfig) -> Self {
        let kernel =
            Arc::new(GenAsmKernel::new(config.genasm.clone()).with_dispatch(config.dispatch));
        Engine {
            config,
            kernel,
            telemetry: Telemetry::default(),
        }
    }

    /// An engine running a custom kernel.
    pub fn with_kernel(config: EngineConfig, kernel: Arc<dyn Kernel>) -> Self {
        Engine {
            config,
            kernel,
            telemetry: Telemetry::default(),
        }
    }

    /// Attaches a telemetry handle: workers record spans
    /// (claim/dc/tb, trace tids `1 + worker`), true per-job and
    /// per-chunk latency histograms
    /// ([`JOB_LATENCY_HISTOGRAM`]/[`CHUNK_LATENCY_HISTOGRAM`]) and
    /// `engine.jobs`/`engine.batches` counters into it. The default
    /// handle is fully disabled, costing one atomic load per batch.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The engine's telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a cancellation token to an already-built engine (the
    /// builder-style twin of [`EngineConfig::with_cancel`], for
    /// callers that construct engines through a factory like the
    /// mapper's `engine`).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.config.cancel = Some(cancel);
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The kernel's stable name.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel.name()
    }

    /// The kernel, for sharing with a stream or another engine.
    pub fn kernel(&self) -> Arc<dyn Kernel> {
        Arc::clone(&self.kernel)
    }

    /// Aligns every job, returning per-job results in input order.
    /// Results are identical to calling the kernel sequentially on
    /// each job. Failures are contained per job: a kernel panic
    /// poisons only its own slot ([`JobError::Panicked`]) and a
    /// deadline expiry marks only unclaimed slots
    /// ([`JobError::Cancelled`]) — the rest of the batch completes.
    pub fn align_batch(&self, jobs: &[Job]) -> Vec<Result<Alignment, JobError>> {
        self.align_batch_with_stats(jobs).results
    }

    /// [`align_batch`](Self::align_batch), with each result paired
    /// with its job's [`key`](Job::key). Results come back in input
    /// order; the keys let a producer that tagged jobs with its own
    /// coordinates (the read mapper keys jobs by candidate-table
    /// index) route results without a side table or re-sort.
    pub fn align_batch_keyed(&self, jobs: &[Job]) -> Vec<KeyedResult> {
        self.align_batch_keyed_with_stats(jobs).0
    }

    /// [`align_batch_keyed`](Self::align_batch_keyed) plus batch
    /// statistics, so batch producers (the read mapper) can surface
    /// engine-level figures like lane occupancy without a separate
    /// unkeyed call.
    pub fn align_batch_keyed_with_stats(&self, jobs: &[Job]) -> (Vec<KeyedResult>, BatchStats) {
        let output = self.align_batch_with_stats(jobs);
        let keyed = jobs
            .iter()
            .map(|job| job.key)
            .zip(output.results)
            .map(|(key, result)| KeyedResult { key, result })
            .collect();
        (keyed, output.stats)
    }

    /// [`align_batch`](Self::align_batch) plus batch statistics.
    pub fn align_batch_with_stats(&self, jobs: &[Job]) -> BatchOutput {
        let started = Instant::now();
        if jobs.is_empty() {
            return BatchOutput {
                results: Vec::new(),
                stats: BatchStats {
                    wall: started.elapsed(),
                    ..BatchStats::default()
                },
            };
        }
        let (chunk_hist, job_hist) = self.batch_histograms(jobs.len());
        let (slots, meters) = self.run_pool(
            jobs.len(),
            |kernel, scratch, range, produced, busy, max_job| {
                let chunk_jobs = &jobs[range.clone()];
                let t0 = Instant::now();
                if let Some(results) = kernel.align_chunk(chunk_jobs, scratch) {
                    // Batched scheduling interleaves jobs within the
                    // chunk, so the wall-clock chunk mean is a lower
                    // bound for max_job (kept for compatibility); the
                    // exact per-job latencies land in the telemetry
                    // histogram via the scheduler's WorkerObs.
                    let took = t0.elapsed();
                    *busy += took;
                    *max_job = (*max_job).max(took / chunk_jobs.len() as u32);
                    if let Some(h) = &chunk_hist {
                        h.record_duration(took);
                    }
                    produced
                        .extend(range.zip(results.into_iter().map(|r| r.map_err(JobError::from))));
                } else {
                    for (offset, job) in chunk_jobs.iter().enumerate() {
                        #[cfg(feature = "chaos")]
                        genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
                        let t0 = Instant::now();
                        let result = kernel.align(&job.text, &job.pattern, scratch);
                        let took = t0.elapsed();
                        *busy += took;
                        *max_job = (*max_job).max(took);
                        if let Some(h) = &job_hist {
                            h.record_duration(took);
                        }
                        produced.push((range.start + offset, result.map_err(JobError::from)));
                    }
                    if let Some(h) = &chunk_hist {
                        h.record_duration(t0.elapsed());
                    }
                }
            },
            |kernel, scratch, index| {
                let job = &jobs[index];
                #[cfg(feature = "chaos")]
                genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
                kernel
                    .align(&job.text, &job.pattern, scratch)
                    .map_err(JobError::from)
            },
            |message| Err(JobError::Panicked { message }),
        );
        let results: Vec<Result<Alignment, JobError>> = slots
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(JobError::Cancelled)))
            .collect();

        let stats = BatchStats {
            jobs: jobs.len(),
            failures: results.iter().filter(|r| r.is_err()).count(),
            workers: meters.workers,
            pattern_bases: jobs.iter().map(Job::pattern_bases).sum(),
            wall: started.elapsed(),
            busy: meters.busy,
            max_job: meters.max_job,
            dc_rows_issued: meters.dc_rows.0,
            dc_rows_useful: meters.dc_rows.1,
            tb_windows: meters.tb.0,
            tb_rows: meters.tb.1,
            dc_distance_jobs: 0,
            jobs_prefilled: 0,
            jobs_poisoned: count_poisoned(results.iter().map(|r| r.as_ref().err())),
            jobs_cancelled: count_cancelled(results.iter().map(|r| r.as_ref().err())),
            deadline_hit: meters.deadline_hit,
        };
        self.record_containment(&stats);
        BatchOutput { results, stats }
    }

    /// **Phase 1** of the two-phase alignment path: scans every
    /// [`DistanceJob`] through the kernel's distance-only machinery (the
    /// GenASM kernel's occurrence stream — no row storage, no
    /// TB-SRAM) on the same worker pool and work queue as
    /// [`align_batch`](Self::align_batch), returning per-job distances
    /// paired with the jobs' keys, in input order.
    ///
    /// Each `Ok(Some(d))` is the kernel's distance for the pair, a
    /// lower bound of (normally equal to) the full alignment's edit
    /// distance; `Ok(None)` certifies the distance exceeds the job's
    /// `k_max`. Producers resolve per-read winners on these values and
    /// submit only winners to [`align_batch_keyed`](Self::align_batch_keyed)
    /// for traceback.
    ///
    /// Jobs carrying a pre-certified
    /// [`resolved`](DistanceJob::resolved) distance (the filter
    /// cascade's exact tier-1 bounds) are answered inline without
    /// entering the worker pool; [`BatchStats::jobs_prefilled`] counts
    /// them. A batch that is prefilled end to end never spins up
    /// workers at all.
    pub fn distance_batch_keyed(&self, jobs: &[DistanceJob]) -> (Vec<KeyedDistance>, BatchStats) {
        let prefilled = jobs.iter().filter(|j| j.resolved.is_some()).count();
        if prefilled == 0 {
            return self.distance_batch_scheduled(jobs);
        }
        if prefilled == jobs.len() {
            let started = Instant::now();
            let results = jobs
                .iter()
                .map(|job| KeyedDistance {
                    key: job.key,
                    result: Ok(job.resolved),
                })
                .collect();
            let stats = BatchStats {
                jobs: jobs.len(),
                dc_distance_jobs: jobs.len() as u64,
                jobs_prefilled: prefilled as u64,
                wall: started.elapsed(),
                ..BatchStats::default()
            };
            return (results, stats);
        }
        // Mixed batch: schedule only the unresolved subset, then merge
        // results back in input order.
        let live: Vec<DistanceJob> = jobs
            .iter()
            .filter(|j| j.resolved.is_none())
            .cloned()
            .collect();
        let (live_results, mut stats) = self.distance_batch_scheduled(&live);
        let mut scheduled = live_results.into_iter();
        let results = jobs
            .iter()
            .map(|job| match job.resolved {
                Some(d) => KeyedDistance {
                    key: job.key,
                    result: Ok(Some(d)),
                },
                None => scheduled.next().expect("one scheduled result per live job"),
            })
            .collect();
        stats.jobs = jobs.len();
        stats.dc_distance_jobs = jobs.len() as u64;
        stats.jobs_prefilled = prefilled as u64;
        (results, stats)
    }

    /// The scheduled arm of [`distance_batch_keyed`](Self::distance_batch_keyed):
    /// every job runs through the kernel on the worker pool.
    fn distance_batch_scheduled(&self, jobs: &[DistanceJob]) -> (Vec<KeyedDistance>, BatchStats) {
        let started = Instant::now();
        if jobs.is_empty() {
            let stats = BatchStats {
                wall: started.elapsed(),
                ..BatchStats::default()
            };
            return (Vec::new(), stats);
        }
        let (chunk_hist, _) = self.batch_histograms(jobs.len());
        let (slots, meters) = self.run_pool(
            jobs.len(),
            |kernel, scratch, range, produced, busy, max_job| {
                let chunk_jobs = &jobs[range.clone()];
                let t0 = Instant::now();
                if let Some(results) = kernel.distance_chunk(chunk_jobs, scratch) {
                    let took = t0.elapsed();
                    *busy += took;
                    *max_job = (*max_job).max(took / chunk_jobs.len() as u32);
                    if let Some(h) = &chunk_hist {
                        h.record_duration(took);
                    }
                    produced
                        .extend(range.zip(results.into_iter().map(|r| r.map_err(JobError::from))));
                } else {
                    for (offset, job) in chunk_jobs.iter().enumerate() {
                        #[cfg(feature = "chaos")]
                        genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
                        let t0 = Instant::now();
                        let result = kernel.distance(&job.text, &job.pattern, job.k_max, scratch);
                        let took = t0.elapsed();
                        *busy += took;
                        *max_job = (*max_job).max(took);
                        produced.push((range.start + offset, result.map_err(JobError::from)));
                    }
                    if let Some(h) = &chunk_hist {
                        h.record_duration(t0.elapsed());
                    }
                }
            },
            |kernel, scratch, index| {
                let job = &jobs[index];
                #[cfg(feature = "chaos")]
                genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
                kernel
                    .distance(&job.text, &job.pattern, job.k_max, scratch)
                    .map_err(JobError::from)
            },
            |message| Err(JobError::Panicked { message }),
        );

        let results: Vec<KeyedDistance> = jobs
            .iter()
            .map(|job| job.key)
            .zip(
                slots
                    .into_iter()
                    .map(|slot| slot.unwrap_or(Err(JobError::Cancelled))),
            )
            .map(|(key, result)| KeyedDistance { key, result })
            .collect();
        let stats = BatchStats {
            jobs: jobs.len(),
            failures: results.iter().filter(|r| r.result.is_err()).count(),
            workers: meters.workers,
            pattern_bases: jobs.iter().map(DistanceJob::pattern_bases).sum(),
            wall: started.elapsed(),
            busy: meters.busy,
            max_job: meters.max_job,
            dc_rows_issued: meters.dc_rows.0,
            dc_rows_useful: meters.dc_rows.1,
            tb_windows: meters.tb.0,
            tb_rows: meters.tb.1,
            dc_distance_jobs: jobs.len() as u64,
            jobs_prefilled: 0,
            jobs_poisoned: count_poisoned(results.iter().map(|r| r.result.as_ref().err())),
            jobs_cancelled: count_cancelled(results.iter().map(|r| r.result.as_ref().err())),
            deadline_hit: meters.deadline_hit,
        };
        self.record_containment(&stats);
        (results, stats)
    }

    /// Batch-level metric handles: bumps the `engine.batches` /
    /// `engine.jobs` counters and returns the chunk- and job-latency
    /// histogram handles, or `(None, None)` when metrics are disabled
    /// (so the hot loop pays nothing, not even a registry lookup).
    fn batch_histograms(&self, jobs: usize) -> (Option<Histogram>, Option<Histogram>) {
        if !self.telemetry.metrics.is_enabled() {
            return (None, None);
        }
        let metrics = &self.telemetry.metrics;
        metrics.counter("engine.batches").incr();
        metrics.counter("engine.jobs").add(jobs as u64);
        (
            Some(metrics.histogram(CHUNK_LATENCY_HISTOGRAM)),
            Some(metrics.histogram(JOB_LATENCY_HISTOGRAM)),
        )
    }

    /// Bumps the containment counters (`engine.jobs_poisoned`,
    /// `engine.jobs_cancelled`) when a batch quarantined or skipped
    /// jobs; free on clean batches and disabled telemetry.
    fn record_containment(&self, stats: &BatchStats) {
        if stats.jobs_poisoned == 0 && stats.jobs_cancelled == 0 {
            return;
        }
        if !self.telemetry.metrics.is_enabled() {
            return;
        }
        let metrics = &self.telemetry.metrics;
        if stats.jobs_poisoned > 0 {
            metrics
                .counter("engine.jobs_poisoned")
                .add(stats.jobs_poisoned);
        }
        if stats.jobs_cancelled > 0 {
            metrics
                .counter("engine.jobs_cancelled")
                .add(stats.jobs_cancelled);
        }
    }

    /// The shared worker-pool driver behind
    /// [`align_batch_with_stats`](Self::align_batch_with_stats) and
    /// [`distance_batch_keyed`](Self::distance_batch_keyed): scoped
    /// workers claim contiguous index chunks from a lock-free atomic
    /// cursor and run `work` on each claimed range, producing one
    /// result per index; per-worker kernel scratch, busy/latency
    /// accounting and the lane-row / traceback counters are collected
    /// identically for every batch flavor.
    ///
    /// Fault containment happens here, once, for every batch flavor:
    ///
    /// * Each chunk runs under [`catch_unwind`]. A panicking chunk
    ///   discards the worker's scratch (arenas touched by a panic are
    ///   never reused — the next chunk gets a fresh one) and is then
    ///   re-run one job at a time via `solo`, each job under its own
    ///   `catch_unwind`, so only the job(s) that actually panic are
    ///   quarantined through `poisoned`; their chunk-mates complete
    ///   normally.
    /// * When the config carries a [`CancelToken`], it is consulted
    ///   before every chunk claim. On expiry the worker stops
    ///   claiming; unclaimed slots come back `None` and
    ///   [`PoolMeters::deadline_hit`] is set. Claimed chunks always
    ///   run to completion — results already computed are never
    ///   thrown away.
    fn run_pool<R, W, S, P>(
        &self,
        count: usize,
        work: W,
        solo: S,
        poisoned: P,
    ) -> (Vec<Option<R>>, PoolMeters)
    where
        R: Send,
        W: Fn(
                &dyn Kernel,
                &mut dyn KernelScratch,
                std::ops::Range<usize>,
                &mut Vec<(usize, R)>,
                &mut Duration,
                &mut Duration,
            ) + Sync,
        S: Fn(&dyn Kernel, &mut dyn KernelScratch, usize) -> R + Sync,
        P: Fn(String) -> R + Sync,
    {
        let workers = self.config.effective_workers(count);
        let mut chunk = self.config.effective_chunk(count, workers);
        if self.config.chunk == 0 {
            // Auto-sized chunks respect the kernel's lane floor (1 for
            // kernels without a batched scheduler, so custom kernels
            // keep fine-grained work stealing).
            chunk = chunk.max(self.kernel.preferred_chunk());
        }

        // Workers claim contiguous chunks by bumping this cursor; no
        // lock is ever taken on the dispatch path.
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(count, || None);
        let mut meters = PoolMeters {
            workers,
            busy: Duration::ZERO,
            max_job: Duration::ZERO,
            dc_rows: (0, 0),
            tb: (0, 0),
            deadline_hit: false,
        };
        let cancelled = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let cursor = &cursor;
                    let cancelled = &cancelled;
                    let kernel = &*self.kernel;
                    let work = &work;
                    let solo = &solo;
                    let poisoned = &poisoned;
                    let cancel = self.config.cancel.as_ref();
                    let telemetry = &self.telemetry;
                    scope.spawn(move || {
                        // Trace tid 0 is the coordinator (the mapper);
                        // engine workers claim 1 + worker_index.
                        let tid = 1 + worker as u32;
                        let make_scratch = || {
                            let mut scratch = kernel.new_scratch();
                            if let Some(ls) = scratch.as_any_mut().downcast_mut::<LockstepScratch>()
                            {
                                ls.obs = WorkerObs::new(telemetry, tid);
                            }
                            scratch
                        };
                        let mut scratch = make_scratch();
                        // Lane-row and traceback counters banked from
                        // every scratch this worker used: a scratch a
                        // panic discards still holds the counts of the
                        // work done on it before.
                        let mut counters = Counters::default();
                        // Queue-access markers; the per-chunk work shows
                        // up as the scheduler's dc/tb spans.
                        let mut claims = telemetry
                            .tracer
                            .is_enabled()
                            .then(|| telemetry.tracer.buffer(tid));
                        let mut produced: Vec<(usize, R)> = Vec::new();
                        let mut busy = Duration::ZERO;
                        let mut max_job = Duration::ZERO;
                        loop {
                            if cancel.is_some_and(CancelToken::expired) {
                                cancelled.store(true, Ordering::Relaxed);
                                break;
                            }
                            if let Some(c) = claims.as_mut() {
                                c.begin("claim");
                            }
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if let Some(c) = claims.as_mut() {
                                c.end("claim");
                            }
                            if start >= count {
                                break;
                            }
                            #[cfg(feature = "chaos")]
                            genasm_chaos::check(
                                genasm_chaos::sites::ENGINE_WORKER_DELAY,
                                start as u64,
                            );
                            let end = (start + chunk).min(count);
                            let before = produced.len();
                            let outcome = catch_unwind(AssertUnwindSafe(|| {
                                work(
                                    kernel,
                                    scratch.as_mut(),
                                    start..end,
                                    &mut produced,
                                    &mut busy,
                                    &mut max_job,
                                )
                            }));
                            if outcome.is_err() {
                                // The chunk panicked: its scratch may
                                // hold torn state, so it is discarded
                                // and the chunk re-runs one job at a
                                // time on a fresh one — isolating the
                                // job(s) that actually panic while
                                // their chunk-mates complete.
                                counters.bank(kernel, scratch.as_mut());
                                scratch = make_scratch();
                                let already: Vec<usize> =
                                    produced[before..].iter().map(|(i, _)| *i).collect();
                                for index in start..end {
                                    if already.contains(&index) {
                                        continue;
                                    }
                                    let t0 = Instant::now();
                                    let retried = catch_unwind(AssertUnwindSafe(|| {
                                        solo(kernel, scratch.as_mut(), index)
                                    }));
                                    let took = t0.elapsed();
                                    busy += took;
                                    max_job = max_job.max(took);
                                    match retried {
                                        Ok(result) => produced.push((index, result)),
                                        Err(payload) => {
                                            counters.bank(kernel, scratch.as_mut());
                                            scratch = make_scratch();
                                            produced.push((
                                                index,
                                                poisoned(panic_message(payload.as_ref())),
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                        counters.bank(kernel, scratch.as_mut());
                        (produced, busy, max_job, counters.lane_rows, counters.tb)
                    })
                })
                .collect();
            for handle in handles {
                let (produced, worker_busy, worker_max, (issued, useful), (windows, rows)) =
                    handle.join().expect("engine worker panicked");
                meters.busy += worker_busy;
                meters.max_job = meters.max_job.max(worker_max);
                meters.dc_rows.0 += issued;
                meters.dc_rows.1 += useful;
                meters.tb.0 += windows;
                meters.tb.1 += rows;
                for (index, result) in produced {
                    slots[index] = Some(result);
                }
            }
        });

        meters.deadline_hit = cancelled.load(Ordering::Relaxed);
        (slots, meters)
    }

    /// Opens a persistent streaming session: jobs are accepted with
    /// [`EngineStream::submit`] and start executing immediately on the
    /// stream's own worker pool; [`EngineStream::drain`] collects
    /// results in submission order.
    pub fn stream(&self) -> EngineStream {
        let workers = match self.config.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        EngineStream::spawn(Arc::clone(&self.kernel), workers, self.telemetry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genasm_core::align::GenAsmAligner;
    use genasm_core::error::AlignError;

    fn jobs() -> Vec<Job> {
        let base: Vec<u8> = b"ACGGTCATTGCAGGTTACAG"
            .iter()
            .copied()
            .cycle()
            .take(400)
            .collect();
        (0..37)
            .map(|i| {
                let mut pattern = base.clone();
                let idx = (i * 7) % base.len();
                pattern[idx] = if pattern[idx] == b'A' { b'C' } else { b'A' };
                let len = 80 + (i * 13) % 300;
                Job::new(&base, &pattern[..len])
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_alignment() {
        let jobs = jobs();
        let aligner = GenAsmAligner::default();
        for workers in [1usize, 2, 4] {
            let engine = Engine::new(EngineConfig::default().with_workers(workers));
            let results = engine.align_batch(&jobs);
            assert_eq!(results.len(), jobs.len());
            for (job, result) in jobs.iter().zip(&results) {
                let expected = aligner.align(&job.text, &job.pattern).unwrap();
                let got = result.as_ref().unwrap();
                assert_eq!(&expected, got, "workers={workers}");
            }
        }
    }

    #[test]
    fn stats_account_for_the_batch() {
        let jobs = jobs();
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let output = engine.align_batch_with_stats(&jobs);
        let stats = &output.stats;
        assert_eq!(stats.jobs, jobs.len());
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.workers, 2);
        assert_eq!(
            stats.pattern_bases,
            jobs.iter().map(|j| j.pattern.len()).sum::<usize>()
        );
        assert!(stats.pairs_per_sec() > 0.0);
        assert!(stats.busy >= stats.max_job);
        assert!(stats.mean_latency() <= stats.max_job);
    }

    #[test]
    fn per_job_errors_do_not_poison_the_batch() {
        let mut jobs = jobs();
        jobs[5].pattern.clear(); // EmptyPattern
        jobs[11].text = b"ACGTNNNN".to_vec(); // InvalidSymbol for Dna
        let engine = Engine::new(EngineConfig::default().with_workers(3));
        let output = engine.align_batch_with_stats(&jobs);
        assert_eq!(output.stats.failures, 2);
        assert!(output.results[5].is_err());
        assert!(output.results[11].is_err());
        let ok = output.results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, jobs.len() - 2);
    }

    #[test]
    fn keyed_batch_carries_job_tags() {
        let jobs: Vec<Job> = jobs()
            .into_iter()
            .enumerate()
            .map(|(i, job)| job.with_key(0xABCD_0000 + i as u64))
            .collect();
        let engine = Engine::new(EngineConfig::default().with_workers(3));
        let keyed = engine.align_batch_keyed(&jobs);
        let plain = engine.align_batch(&jobs);
        assert_eq!(keyed.len(), jobs.len());
        for ((job, keyed), plain) in jobs.iter().zip(&keyed).zip(plain) {
            assert_eq!(keyed.key, job.key);
            assert_eq!(keyed.result, plain);
        }
    }

    #[test]
    fn distance_batch_lower_bounds_alignment_and_carries_keys() {
        let djobs: Vec<DistanceJob> = jobs()
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                DistanceJob::new(&job.text, &job.pattern, job.pattern.len())
                    .with_key(0x5EED_0000 + i as u64)
            })
            .collect();
        let full_jobs: Vec<Job> = djobs
            .iter()
            .map(|d| Job::from_owned(d.text.clone(), d.pattern.clone()))
            .collect();
        for workers in [1usize, 3] {
            let engine = Engine::new(EngineConfig::default().with_workers(workers));
            let (distances, stats) = engine.distance_batch_keyed(&djobs);
            let full = engine.align_batch(&full_jobs);
            assert_eq!(distances.len(), djobs.len());
            assert_eq!(stats.dc_distance_jobs, djobs.len() as u64);
            assert_eq!(stats.tb_rows, 0, "phase 1 walks no tracebacks");
            for ((keyed, job), result) in distances.iter().zip(&djobs).zip(&full) {
                assert_eq!(keyed.key, job.key);
                let d = keyed.result.as_ref().unwrap().expect("budget covers m");
                let e = result.as_ref().unwrap().edit_distance;
                assert!(d <= e, "workers={workers}: distance {d} vs alignment {e}");
            }
        }
    }

    #[test]
    fn prefilled_distance_jobs_skip_the_pool_and_merge_in_order() {
        let engine = Engine::new(EngineConfig::default().with_workers(3));
        // Fully prefilled batch: answered without workers.
        let all: Vec<DistanceJob> = (0..7)
            .map(|i| DistanceJob::prefilled(i as usize).with_key(0xF00_0000 + i))
            .collect();
        let (results, stats) = engine.distance_batch_keyed(&all);
        assert_eq!(stats.jobs_prefilled, 7);
        assert_eq!(stats.jobs, 7);
        assert_eq!(stats.workers, 0, "no pool for a fully prefilled batch");
        assert_eq!(stats.dc_rows_issued, 0);
        for (i, keyed) in results.iter().enumerate() {
            assert_eq!(keyed.key, 0xF00_0000 + i as u64);
            assert_eq!(keyed.result, Ok(Some(i)));
        }
        // Mixed batch: prefilled and scheduled jobs interleave; every
        // result lands in input order with its own key, and scheduled
        // results match a pure scheduled run.
        let mut mixed: Vec<DistanceJob> = jobs()
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                DistanceJob::new(&job.text, &job.pattern, job.pattern.len()).with_key(i as u64)
            })
            .collect();
        let pure = engine.distance_batch_keyed(&mixed).0;
        for i in (0..mixed.len()).step_by(3) {
            mixed[i] = DistanceJob::prefilled(2).with_key(mixed[i].key);
        }
        let (merged, stats) = engine.distance_batch_keyed(&mixed);
        assert_eq!(stats.jobs, mixed.len());
        assert_eq!(stats.jobs_prefilled, mixed.len().div_ceil(3) as u64);
        assert_eq!(stats.dc_distance_jobs, mixed.len() as u64);
        for (i, keyed) in merged.iter().enumerate() {
            assert_eq!(keyed.key, i as u64);
            if i % 3 == 0 {
                assert_eq!(keyed.result, Ok(Some(2)));
            } else {
                assert_eq!(keyed.result, pure[i].result);
            }
        }
    }

    #[test]
    fn distance_batch_respects_budgets_and_scalar_dispatch() {
        let djobs: Vec<DistanceJob> = jobs()
            .into_iter()
            .map(|job| DistanceJob::new(&job.text, &job.pattern, 0))
            .collect();
        let lockstep = Engine::new(EngineConfig::default().with_workers(2));
        let scalar = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_dispatch(DcDispatch::Scalar),
        );
        let (a, _) = lockstep.distance_batch_keyed(&djobs);
        let (b, _) = scalar.distance_batch_keyed(&djobs);
        assert_eq!(a, b, "dispatch must not change distances");
        assert!(
            a.iter().any(|k| k.result == Ok(None)),
            "tight budgets must exhaust on mutated jobs"
        );
    }

    #[test]
    fn batch_stats_report_traceback_volume() {
        let jobs = jobs();
        let volume = |dispatch: DcDispatch| {
            let engine = Engine::new(
                EngineConfig::default()
                    .with_workers(2)
                    .with_dispatch(dispatch),
            );
            let stats = engine.align_batch_with_stats(&jobs).stats;
            assert!(
                stats.tb_windows > 0,
                "{dispatch:?} must count walked windows"
            );
            assert!(stats.tb_rows >= stats.tb_windows);
            (stats.tb_windows, stats.tb_rows)
        };
        // Both dispatches walk the identical windows.
        assert_eq!(volume(DcDispatch::Lockstep), volume(DcDispatch::Scalar));
    }

    #[test]
    fn telemetry_records_jobs_spans_and_latencies() {
        use crate::obs::{CHUNK_LATENCY_HISTOGRAM, JOB_LATENCY_HISTOGRAM};
        let jobs = jobs();
        let telemetry = Telemetry::enabled();
        let engine =
            Engine::new(EngineConfig::default().with_workers(2)).with_telemetry(telemetry.clone());
        let results = engine.align_batch(&jobs);
        assert!(results.iter().all(Result::is_ok));

        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(snapshot.counter("engine.batches"), Some(1));
        assert_eq!(snapshot.counter("engine.jobs"), Some(jobs.len() as u64));
        // Every job retires through a scheduler lane exactly once, so
        // the per-job histogram holds the true per-job latencies — not
        // a chunk-mean lower bound.
        let job_hist = snapshot
            .histogram(JOB_LATENCY_HISTOGRAM)
            .expect("job latency histogram exists");
        assert_eq!(job_hist.count, jobs.len() as u64);
        assert!(job_hist.p50() <= job_hist.p99());
        let chunk_hist = snapshot
            .histogram(CHUNK_LATENCY_HISTOGRAM)
            .expect("chunk latency histogram exists");
        assert!(chunk_hist.count > 0);

        // Workers emitted claim spans plus scheduler dc/tb spans, all
        // begin/end balanced.
        let events = telemetry.tracer.take_events();
        assert!(!events.is_empty());
        let mut names: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for event in &events {
            assert!(event.tid >= 1, "engine workers use tids >= 1");
            let slot = names.entry(event.name).or_default();
            match event.phase {
                genasm_obs::Phase::Begin => slot.0 += 1,
                genasm_obs::Phase::End => slot.1 += 1,
            }
        }
        for (name, (begins, ends)) in &names {
            assert_eq!(begins, ends, "span {name} must balance");
        }
        assert!(names.contains_key("claim"));
        assert!(names.contains_key("dc"));
        assert!(names.contains_key("tb"));

        // A second batch on the same telemetry accumulates.
        engine.align_batch(&jobs);
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(snapshot.counter("engine.batches"), Some(2));
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let jobs = jobs();
        let telemetry = Telemetry::off();
        let engine =
            Engine::new(EngineConfig::default().with_workers(2)).with_telemetry(telemetry.clone());
        engine.align_batch(&jobs);
        engine.distance_batch_keyed(
            &jobs
                .iter()
                .map(|j| DistanceJob::new(&j.text, &j.pattern, j.pattern.len()))
                .collect::<Vec<_>>(),
        );
        assert_eq!(telemetry.tracer.event_count(), 0);
        let snapshot = telemetry.metrics.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn lockstep_batches_match_scalar_at_every_claim_size() {
        let jobs = jobs();
        let djobs: Vec<DistanceJob> = jobs
            .iter()
            .map(|j| DistanceJob::new(&j.text, &j.pattern, j.pattern.len()))
            .collect();
        let scalar = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_dispatch(DcDispatch::Scalar),
        );
        let align_ref = scalar.align_batch(&jobs);
        let (dist_ref, _) = scalar.distance_batch_keyed(&djobs);
        // Chunks of 1, 3 and 5 cut claim boundaries through the job
        // mix and leave ragged final claims against the 4 lanes; 0 is
        // the auto size.
        for chunk in [0usize, 1, 3, 5] {
            for workers in [1usize, 3] {
                let engine = Engine::new(
                    EngineConfig::default()
                        .with_workers(workers)
                        .with_chunk(chunk),
                );
                assert_eq!(
                    engine.align_batch(&jobs),
                    align_ref,
                    "chunk={chunk} workers={workers}"
                );
                let (dist, _) = engine.distance_batch_keyed(&djobs);
                assert_eq!(dist, dist_ref, "chunk={chunk} workers={workers}");
            }
        }
    }

    /// A kernel that panics on jobs whose pattern length matches a
    /// trigger — deterministic, so the engine's per-job retry panics
    /// again and quarantines exactly the triggering jobs. Its batched
    /// path checks the whole chunk before handing it to the lock-step
    /// scheduler, so a poisoned chunk takes the engine's chunk-panic
    /// path on the default dispatch.
    struct PanickyKernel {
        inner: GenAsmKernel,
        trigger_len: usize,
    }

    impl Kernel for PanickyKernel {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn new_scratch(&self) -> Box<dyn KernelScratch> {
            self.inner.new_scratch()
        }
        fn align(
            &self,
            text: &[u8],
            pattern: &[u8],
            scratch: &mut dyn KernelScratch,
        ) -> Result<Alignment, AlignError> {
            assert!(
                pattern.len() != self.trigger_len,
                "injected test panic (len {})",
                pattern.len()
            );
            self.inner.align(text, pattern, scratch)
        }
        fn align_chunk(
            &self,
            jobs: &[Job],
            scratch: &mut dyn KernelScratch,
        ) -> Option<Vec<Result<Alignment, AlignError>>> {
            for job in jobs {
                assert!(
                    job.pattern.len() != self.trigger_len,
                    "injected test panic (len {})",
                    job.pattern.len()
                );
            }
            self.inner.align_chunk(jobs, scratch)
        }
        fn preferred_chunk(&self) -> usize {
            self.inner.preferred_chunk()
        }
        fn take_lane_rows(&self, scratch: &mut dyn KernelScratch) -> (u64, u64) {
            self.inner.take_lane_rows(scratch)
        }
        fn take_tb_counters(&self, scratch: &mut dyn KernelScratch) -> (u64, u64) {
            self.inner.take_tb_counters(scratch)
        }
    }

    /// Suppresses panic-hook spam for panics this test suite injects
    /// on purpose, leaving every other panic's report untouched.
    fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("injected test panic"));
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn kernel_panics_poison_only_their_own_jobs() {
        silence_injected_panics();
        let jobs = jobs();
        let trigger_len = 93; // 80 + (1 * 13) % 300: job index 1's pattern length
        let triggered: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.pattern.len() == trigger_len)
            .map(|(i, _)| i)
            .collect();
        assert!(!triggered.is_empty(), "trigger must hit at least one job");
        let clean = Engine::new(EngineConfig::default().with_workers(3));
        let expected = clean.align_batch(&jobs);
        for workers in [1usize, 3] {
            let engine = Engine::with_kernel(
                EngineConfig::default().with_workers(workers),
                Arc::new(PanickyKernel {
                    inner: GenAsmKernel::new(GenAsmConfig::default()),
                    trigger_len,
                }),
            );
            let output = engine.align_batch_with_stats(&jobs);
            assert_eq!(output.stats.jobs_poisoned, triggered.len() as u64);
            assert!(!output.stats.deadline_hit);
            for (i, result) in output.results.iter().enumerate() {
                if triggered.contains(&i) {
                    match result {
                        Err(JobError::Panicked { message }) => {
                            assert!(message.contains("injected test panic"), "{message}");
                        }
                        other => panic!("job {i} should be poisoned, got {other:?}"),
                    }
                } else {
                    assert_eq!(
                        result, &expected[i],
                        "workers={workers}: job {i} must be untouched by its chunk-mate's panic"
                    );
                }
            }
            // The engine (and its workers' rebuilt scratch) keeps
            // serving after poisoned batches.
            let again = engine.align_batch_with_stats(&jobs);
            assert_eq!(again.stats.jobs_poisoned, triggered.len() as u64);
        }
    }

    #[test]
    fn poisoned_batches_keep_their_row_and_traceback_counters() {
        silence_injected_panics();
        let jobs = jobs();
        let poisoned = 1; // pattern length 93, the trigger below
        let counts = |stats: &BatchStats| {
            [
                stats.dc_rows_issued,
                stats.dc_rows_useful,
                stats.tb_windows,
                stats.tb_rows,
            ]
        };
        for chunk in [1usize, 4] {
            let config = EngineConfig::default().with_workers(1).with_chunk(chunk);
            let clean = Engine::new(config.clone());
            let run = |batch: &[Job]| counts(&clean.align_batch_with_stats(batch).stats);
            // The panicking chunk re-runs its jobs one at a time, so
            // its clean share is replaced by its other jobs' solo
            // runs; a solo retry runs the scalar kernel, which walks
            // the same tracebacks but issues no lock-step rows.
            let start = poisoned / chunk * chunk;
            let mut want = run(&jobs);
            let mates = start..(start + chunk).min(jobs.len());
            let chunk_share = run(&jobs[mates.clone()]);
            for (w, c) in want.iter_mut().zip(chunk_share) {
                *w -= c;
            }
            for mate in mates.filter(|&j| j != poisoned) {
                let [_, _, windows, rows] = run(&jobs[mate..=mate]);
                want[2] += windows;
                want[3] += rows;
            }
            let engine = Engine::with_kernel(
                config,
                Arc::new(PanickyKernel {
                    inner: GenAsmKernel::new(GenAsmConfig::default()),
                    trigger_len: jobs[poisoned].pattern.len(),
                }),
            );
            let output = engine.align_batch_with_stats(&jobs);
            assert_eq!(output.stats.jobs_poisoned, 1);
            assert_eq!(counts(&output.stats), want, "chunk={chunk}");
        }
    }

    #[test]
    fn poisoned_jobs_land_in_telemetry_counters() {
        silence_injected_panics();
        let jobs = jobs();
        let trigger_len = 93; // matches jobs() index 1, as above
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_kernel(
            EngineConfig::default().with_workers(2),
            Arc::new(PanickyKernel {
                inner: GenAsmKernel::new(GenAsmConfig::default()),
                trigger_len,
            }),
        )
        .with_telemetry(telemetry.clone());
        let output = engine.align_batch_with_stats(&jobs);
        assert!(output.stats.jobs_poisoned > 0);
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(
            snapshot.counter("engine.jobs_poisoned"),
            Some(output.stats.jobs_poisoned)
        );
    }

    #[test]
    fn pre_cancelled_batch_returns_all_cancelled_without_running() {
        let jobs = jobs();
        let token = CancelToken::new();
        token.cancel();
        let engine = Engine::new(EngineConfig::default().with_workers(2).with_cancel(token));
        let output = engine.align_batch_with_stats(&jobs);
        assert_eq!(output.results.len(), jobs.len());
        assert!(output
            .results
            .iter()
            .all(|r| r == &Err(JobError::Cancelled)));
        assert!(output.stats.deadline_hit);
        assert_eq!(output.stats.jobs_cancelled, jobs.len() as u64);
        assert_eq!(output.stats.failures, jobs.len());
        // Distance batches honor the same token.
        let djobs: Vec<DistanceJob> = jobs
            .iter()
            .map(|j| DistanceJob::new(&j.text, &j.pattern, j.pattern.len()))
            .collect();
        let (distances, stats) = engine.distance_batch_keyed(&djobs);
        assert!(distances
            .iter()
            .all(|k| k.result == Err(JobError::Cancelled)));
        assert!(stats.deadline_hit);
    }

    #[test]
    fn generous_deadline_leaves_the_batch_untouched() {
        let jobs = jobs();
        let plain = Engine::new(EngineConfig::default().with_workers(2));
        let bounded = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_deadline(Duration::from_secs(3600)),
        );
        let a = plain.align_batch(&jobs);
        let b = bounded.align_batch_with_stats(&jobs);
        assert_eq!(
            a, b.results,
            "an unexpired deadline must not change results"
        );
        assert!(!b.stats.deadline_hit);
        assert_eq!(b.stats.jobs_cancelled, 0);
        assert_eq!(b.stats.jobs_poisoned, 0);
    }

    #[test]
    fn cancel_token_expiry_semantics() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(!token.expired());
        assert!(token.deadline().is_none());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(token.expired());
        let deadline = CancelToken::with_deadline(Duration::ZERO);
        assert!(!deadline.is_cancelled(), "deadline expiry is not cancel()");
        assert!(deadline.expired());
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.expired());
        // Clones share the flag.
        let clone = far.clone();
        far.cancel();
        assert!(clone.expired());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::default();
        let output = engine.align_batch_with_stats(&[]);
        assert!(output.results.is_empty());
        assert_eq!(output.stats.jobs, 0);
    }

    #[test]
    fn oversubscribed_worker_count_is_clamped() {
        let engine = Engine::new(EngineConfig::default().with_workers(64));
        let two = vec![Job::new(b"ACGT", b"ACGT"), Job::new(b"ACGT", b"ACGA")];
        let output = engine.align_batch_with_stats(&two);
        assert_eq!(
            output.stats.workers, 2,
            "workers are capped at the job count"
        );
        assert_eq!(output.results.len(), 2);
    }
}
