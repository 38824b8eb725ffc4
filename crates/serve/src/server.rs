//! The serving core: bounded admission, rolling micro-batches, a
//! persistent pipeline-worker pool, and graceful drain.
//!
//! Reads are [`submit`](Server::submit)ted one at a time and
//! accumulate in a pending queue. A batcher thread cuts the queue
//! into micro-batches — flushed when `batch_reads` accumulate or the
//! oldest pending read has waited `batch_wait`, whichever comes first
//! — and hands them to a pool of pipeline workers, so multiple
//! micro-batches are in flight through the staged pipeline at once
//! (the serving analogue of the engine's in-flight window pool).
//!
//! Admission is bounded: at most `max_inflight_reads` admitted reads
//! may be unresponded at any instant (queued *or* batched), so memory
//! under overload is bounded by configuration, not offered load. A
//! read refused at admission is never silently dropped — it gets an
//! immediate [`ResponseKind::Shed`] response through its sink.

use crate::respond::{Response, ResponseKind, ResponseSink};
use genasm_engine::{CancelToken, Engine};
use genasm_mapper::pipeline::ReadOutcome;
use genasm_mapper::ReadMapper;
use genasm_obs::Telemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// End-to-end latency of served (admitted) reads, admission to
/// response delivery, in microseconds.
pub const REQUEST_LATENCY_HISTOGRAM: &str = "serve.request_latency_us";
/// Reads admitted and waiting in the pending queue (pre-batching).
pub const QUEUE_DEPTH_GAUGE: &str = "serve.queue_depth";
/// Micro-batches currently inside the pipeline-worker pool.
pub const BATCHES_INFLIGHT_GAUGE: &str = "serve.batches_inflight";
/// Reads admitted into the pipeline.
pub const READS_ADMITTED_COUNTER: &str = "serve.reads";
/// Reads refused at admission (capacity or drain) and answered with a
/// structured `XE:Z:shed` rejection.
pub const READS_SHED_COUNTER: &str = "serve.reads_shed";
/// Admitted reads cut off by their request deadline (responded
/// `XE:Z:deadline`, possibly with a partial mapping).
pub const READS_DEADLINE_DROPPED_COUNTER: &str = "serve.reads_deadline_dropped";
/// Admitted reads quarantined by a contained panic (responded
/// `XE:Z:poisoned`).
pub const READS_POISONED_COUNTER: &str = "serve.reads_poisoned";
/// Micro-batches completed.
pub const BATCHES_COUNTER: &str = "serve.batches";

/// Serving knobs. All bounds are per-server, not per-connection.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a micro-batch once this many reads are pending.
    pub batch_reads: usize,
    /// ... or once the oldest pending read has waited this long.
    pub batch_wait: Duration,
    /// Maximum admitted-but-unresponded reads; beyond it, submissions
    /// shed. Bounds serving memory under overload.
    pub max_inflight_reads: usize,
    /// Per-request wall-clock deadline, admission to response. A
    /// micro-batch runs under its earliest member's deadline; cut-off
    /// reads resolve as [`ReadOutcome::Incomplete`].
    pub request_deadline: Option<Duration>,
    /// Pipeline workers — the number of micro-batches in flight at
    /// once. Each worker drives the full staged pipeline with its own
    /// engine clone.
    pub pipeline_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_reads: 64,
            batch_wait: Duration::from_millis(20),
            max_inflight_reads: 1024,
            request_deadline: None,
            pipeline_workers: 2,
        }
    }
}

/// Verdict of [`Server::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The read entered the pipeline; its outcome response will follow.
    Admitted,
    /// The read was refused; its shed response was already delivered.
    Shed,
}

struct Request {
    order: u64,
    name: String,
    seq: Vec<u8>,
    admitted_at: Instant,
    deadline: Option<Instant>,
    sink: Arc<dyn ResponseSink>,
}

struct MicroBatch {
    /// Monotonic flush sequence — the `serve.batch.delay` chaos key.
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    seq: u64,
    requests: Vec<Request>,
}

struct BatchQueue {
    queue: VecDeque<MicroBatch>,
    /// Set by the batcher on exit; workers finish the queue then stop.
    closed: bool,
}

struct Shared {
    config: ServeConfig,
    mapper: ReadMapper,
    engine: Engine,
    telemetry: Telemetry,
    /// Admitted-but-unresponded reads (queued + batched).
    inflight: AtomicUsize,
    /// Once set, no new read is admitted; pending work still drains.
    draining: AtomicBool,
    pending: Mutex<VecDeque<Request>>,
    pending_cv: Condvar,
    batches: Mutex<BatchQueue>,
    batch_cv: Condvar,
    batch_seq: AtomicU64,
    batches_inflight: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Panics inside batch processing are contained by catch_unwind
    // before any lock is reacquired; recover from poisoning rather
    // than cascading a contained fault into the whole server.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running serving session over one [`ReadMapper`].
///
/// Dropping the server drains it (see [`drain`](Server::drain)):
/// admission stops, every already-admitted read is answered, and the
/// batcher and worker threads are joined. No admitted read is ever
/// lost to shutdown.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the batcher and pipeline-worker threads. `engine` is the
    /// template each worker clones per micro-batch (its worker count
    /// governs parallelism *within* a batch; `config.pipeline_workers`
    /// governs how many batches run at once). Telemetry is taken from
    /// the mapper; serve-level metrics are pre-registered so they
    /// appear in snapshots even while zero.
    pub fn start(mapper: ReadMapper, engine: Engine, config: ServeConfig) -> Self {
        let telemetry = mapper.telemetry().clone();
        let metrics = &telemetry.metrics;
        for name in [
            READS_ADMITTED_COUNTER,
            READS_SHED_COUNTER,
            READS_DEADLINE_DROPPED_COUNTER,
            READS_POISONED_COUNTER,
            BATCHES_COUNTER,
        ] {
            let _ = metrics.counter(name);
        }
        metrics.gauge(QUEUE_DEPTH_GAUGE).set(0);
        metrics.gauge(BATCHES_INFLIGHT_GAUGE).set(0);
        let _ = metrics.histogram(REQUEST_LATENCY_HISTOGRAM);

        let shared = Arc::new(Shared {
            config: ServeConfig {
                batch_reads: config.batch_reads.max(1),
                max_inflight_reads: config.max_inflight_reads.max(1),
                pipeline_workers: config.pipeline_workers.max(1),
                ..config
            },
            mapper,
            engine,
            telemetry,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            pending: Mutex::new(VecDeque::new()),
            pending_cv: Condvar::new(),
            batches: Mutex::new(BatchQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
            batch_cv: Condvar::new(),
            batch_seq: AtomicU64::new(0),
            batches_inflight: AtomicU64::new(0),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared))
        };
        let workers = (0..shared.config.pipeline_workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Server {
            shared,
            batcher: Some(batcher),
            workers,
        }
    }

    /// Offers one read. `order` is the caller's per-sink submission
    /// sequence number (contiguous from 0), which the sink uses to
    /// restore submission order across out-of-order batch completion.
    ///
    /// Admission is all-or-nothing and immediate: an admitted read is
    /// guaranteed exactly one outcome response later; a shed read has
    /// its structured rejection delivered before this returns.
    pub fn submit(
        &self,
        order: u64,
        name: impl Into<String>,
        seq: Vec<u8>,
        sink: &Arc<dyn ResponseSink>,
    ) -> Admission {
        let shared = &self.shared;
        let metrics = &shared.telemetry.metrics;
        if shared.draining.load(Ordering::Acquire) || !try_admit(shared) {
            metrics.counter(READS_SHED_COUNTER).incr();
            sink.deliver(Response {
                order,
                name: name.into(),
                seq,
                kind: ResponseKind::Shed,
            });
            return Admission::Shed;
        }
        metrics.counter(READS_ADMITTED_COUNTER).incr();
        let now = Instant::now();
        let request = Request {
            order,
            name: name.into(),
            seq,
            admitted_at: now,
            deadline: shared.config.request_deadline.map(|d| now + d),
            sink: Arc::clone(sink),
        };
        let depth = {
            let mut pending = lock(&shared.pending);
            pending.push_back(request);
            pending.len()
        };
        metrics.gauge(QUEUE_DEPTH_GAUGE).set(depth as u64);
        shared.pending_cv.notify_one();
        Admission::Admitted
    }

    /// Admitted-but-unresponded reads right now.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// Whether the server has stopped admitting (drain under way).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// The effective configuration (after floor clamping).
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The server's telemetry handle (shared with its mapper).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Graceful shutdown: stops admitting (subsequent submissions
    /// shed), flushes the pending queue as final micro-batches,
    /// answers every admitted read, and joins all serving threads.
    /// Also what `Drop` runs, so a server can simply go out of scope.
    pub fn drain(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        {
            // Set under the `pending` lock: the batcher reads `draining`
            // and parks while holding it, so it either sees the flag or
            // is already waiting when the notification below fires.
            let _pending = lock(&self.shared.pending);
            self.shared.draining.store(true, Ordering::Release);
        }
        self.shared.pending_cv.notify_all();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        // The batcher closed the batch queue on its way out.
        self.shared.batch_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Reserves one admission slot; fails when `max_inflight_reads` are
/// already unresponded.
fn try_admit(shared: &Shared) -> bool {
    let max = shared.config.max_inflight_reads;
    shared
        .inflight
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < max).then_some(n + 1)
        })
        .is_ok()
}

/// Cuts the pending queue into micro-batches: flush on size, on the
/// oldest read's wait time, or unconditionally while draining. Exits
/// (closing the batch queue) once draining *and* the queue is empty.
fn batcher_loop(shared: &Shared) {
    loop {
        let flushed: Vec<Request> = {
            let mut pending = lock(&shared.pending);
            loop {
                let draining = shared.draining.load(Ordering::Acquire);
                if pending.is_empty() {
                    if draining {
                        drop(pending);
                        lock(&shared.batches).closed = true;
                        shared.batch_cv.notify_all();
                        return;
                    }
                    pending = shared
                        .pending_cv
                        .wait(pending)
                        .unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                if draining || pending.len() >= shared.config.batch_reads {
                    break;
                }
                let oldest = pending
                    .front()
                    .expect("non-empty queue has a front")
                    .admitted_at
                    .elapsed();
                if oldest >= shared.config.batch_wait {
                    break;
                }
                let (guard, _) = shared
                    .pending_cv
                    .wait_timeout(pending, shared.config.batch_wait - oldest)
                    .unwrap_or_else(|e| e.into_inner());
                pending = guard;
            }
            let take = pending.len().min(shared.config.batch_reads);
            let flushed = pending.drain(..take).collect();
            shared
                .telemetry
                .metrics
                .gauge(QUEUE_DEPTH_GAUGE)
                .set(pending.len() as u64);
            flushed
        };
        let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
        lock(&shared.batches).queue.push_back(MicroBatch {
            seq,
            requests: flushed,
        });
        shared.batch_cv.notify_one();
    }
}

/// Claims micro-batches until the queue is closed *and* empty.
fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut batches = lock(&shared.batches);
            loop {
                if let Some(batch) = batches.queue.pop_front() {
                    break batch;
                }
                if batches.closed {
                    return;
                }
                batches = shared
                    .batch_cv
                    .wait(batches)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        process_batch(shared, batch);
    }
}

/// Runs one micro-batch through the staged pipeline and delivers
/// every member's response. Panics anywhere in batch processing
/// (including injected ones) are contained to this batch: its reads
/// resolve as [`ReadOutcome::Poisoned`] and the worker keeps serving.
fn process_batch(shared: &Shared, batch: MicroBatch) {
    let metrics = &shared.telemetry.metrics;
    let now_inflight = shared.batches_inflight.fetch_add(1, Ordering::AcqRel) + 1;
    metrics.gauge(BATCHES_INFLIGHT_GAUGE).set(now_inflight);

    let outcomes = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        genasm_chaos::check(genasm_chaos::sites::SERVE_BATCH_DELAY, batch.seq);
        // A micro-batch runs under its earliest member's deadline;
        // reads the token cuts off resolve as `Incomplete` (possibly
        // with a partial mapping), exactly like `map --deadline-ms`.
        let earliest = batch.requests.iter().filter_map(|r| r.deadline).min();
        let mut engine = shared.engine.clone();
        if let Some(deadline) = earliest {
            let budget = deadline.saturating_duration_since(Instant::now());
            engine = engine.with_cancel(CancelToken::with_deadline(budget));
        }
        let reads: Vec<&[u8]> = batch.requests.iter().map(|r| r.seq.as_slice()).collect();
        let (outcomes, _timings) = shared.mapper.map_batch_resilient(&reads, &engine);
        outcomes
    }));
    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            batch
                .requests
                .iter()
                .map(|_| ReadOutcome::Poisoned {
                    message: message.clone(),
                })
                .collect()
        }
    };

    for (request, outcome) in batch.requests.into_iter().zip(outcomes) {
        match &outcome {
            ReadOutcome::Incomplete { .. } => {
                metrics.counter(READS_DEADLINE_DROPPED_COUNTER).incr();
            }
            ReadOutcome::Poisoned { .. } => {
                metrics.counter(READS_POISONED_COUNTER).incr();
            }
            ReadOutcome::Mapped(_) | ReadOutcome::Unmapped => {}
        }
        metrics
            .histogram(REQUEST_LATENCY_HISTOGRAM)
            .record_duration(request.admitted_at.elapsed());
        let response = Response {
            order: request.order,
            name: request.name,
            seq: request.seq,
            kind: ResponseKind::Outcome(outcome),
        };
        // A panicking sink must not take down the worker; the panic
        // is surfaced to the sink's owner via missing delivery counts.
        let delivery = catch_unwind(AssertUnwindSafe(|| request.sink.deliver(response)));
        drop(delivery);
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
    metrics.counter(BATCHES_COUNTER).incr();
    let now_inflight = shared.batches_inflight.fetch_sub(1, Ordering::AcqRel) - 1;
    metrics.gauge(BATCHES_INFLIGHT_GAUGE).set(now_inflight);
}
