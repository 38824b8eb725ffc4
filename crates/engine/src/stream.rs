//! The streaming `submit`/`drain` session: a persistent worker pool
//! that starts executing jobs the moment they are submitted.

use crate::engine::panic_message;
use crate::job::{Job, JobError};
use crate::kernel::Kernel;
use genasm_core::align::Alignment;
use genasm_obs::Telemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Name of the counter Drop bumps for every job submitted but never
/// drained when a session is torn down — work the owner lost (one
/// count per job, whether it had already computed or was still
/// queued). Drained/closed sessions never bump it.
pub const STREAM_DROPPED_JOBS_COUNTER: &str = "engine.stream_dropped_jobs";

/// Everything workers and the owner share, guarded by one mutex (held
/// only for queue pops and result stores — kernels run outside it).
struct StreamState {
    queue: VecDeque<(usize, Job)>,
    results: Vec<Option<Result<Alignment, JobError>>>,
    completed: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<StreamState>,
    /// Signals workers: work arrived or shutdown.
    work: Condvar,
    /// Signals the owner: a job finished.
    done: Condvar,
}

/// A persistent streaming session created by
/// [`Engine::stream`](crate::Engine::stream).
///
/// Jobs submitted are picked up immediately by the session's worker
/// pool (each worker holding its own kernel scratch, so arena reuse
/// spans the whole session). [`drain`](Self::drain) blocks until every
/// submitted job completed and returns results in submission order;
/// the session stays open for further rounds.
///
/// Dropping the stream shuts the pool down, discarding any results
/// not yet drained — every such job is counted into
/// [`STREAM_DROPPED_JOBS_COUNTER`] so the loss is visible. Prefer
/// [`close`](Self::close), which drains first and returns the pending
/// results instead of discarding them.
pub struct EngineStream {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    submitted: usize,
    telemetry: Telemetry,
}

impl EngineStream {
    pub(crate) fn spawn(kernel: Arc<dyn Kernel>, workers: usize, telemetry: Telemetry) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(StreamState {
                queue: VecDeque::new(),
                results: Vec::new(),
                completed: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let kernel = Arc::clone(&kernel);
                std::thread::spawn(move || worker_loop(&shared, &*kernel))
            })
            .collect();
        EngineStream {
            shared,
            handles,
            submitted: 0,
            telemetry,
        }
    }

    /// Enqueues one job; execution starts as soon as a worker is free.
    pub fn submit(&mut self, job: Job) {
        let mut state = self.shared.state.lock().expect("stream state poisoned");
        let index = self.submitted;
        self.submitted += 1;
        state.results.push(None);
        state.queue.push_back((index, job));
        drop(state);
        self.shared.work.notify_one();
    }

    /// Jobs submitted since the last [`drain`](Self::drain).
    pub fn pending(&self) -> usize {
        self.submitted
    }

    /// Waits for all submitted jobs and returns their results in
    /// submission order, resetting the session for the next round.
    /// A kernel panic poisons only its own job
    /// ([`JobError::Panicked`]); the session and its workers survive.
    pub fn drain(&mut self) -> Vec<Result<Alignment, JobError>> {
        let mut state = self.shared.state.lock().expect("stream state poisoned");
        while state.completed < self.submitted {
            state = self.shared.done.wait(state).expect("stream state poisoned");
        }
        let results = std::mem::take(&mut state.results);
        state.completed = 0;
        self.submitted = 0;
        results
            .into_iter()
            .map(|slot| slot.expect("drained after all jobs completed"))
            .collect()
    }

    /// Ends the session cleanly: waits for every submitted job,
    /// returns the pending results in submission order, and shuts the
    /// worker pool down. Unlike dropping the stream mid-flight,
    /// nothing is discarded and [`STREAM_DROPPED_JOBS_COUNTER`] stays
    /// untouched.
    pub fn close(mut self) -> Vec<Result<Alignment, JobError>> {
        self.drain()
        // Drop runs here with `submitted == 0`: plain pool teardown.
    }
}

impl Drop for EngineStream {
    fn drop(&mut self) {
        // Jobs submitted and never drained are lost — completed
        // results are discarded and queued jobs are never computed
        // (shutdown wins over queued work, so drop stays prompt).
        // Count the loss instead of swallowing it.
        if self.submitted > 0 {
            self.telemetry
                .metrics
                .counter(STREAM_DROPPED_JOBS_COUNTER)
                .add(self.submitted as u64);
        }
        {
            let mut state = self.shared.state.lock().expect("stream state poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, kernel: &dyn Kernel) {
    let mut scratch = kernel.new_scratch();
    loop {
        let (index, job) = {
            let mut state = shared.state.lock().expect("stream state poisoned");
            loop {
                // Shutdown wins over queued work: dropping the stream
                // discards undrained jobs instead of computing them.
                if state.shutdown {
                    return;
                }
                if let Some(work) = state.queue.pop_front() {
                    break work;
                }
                state = shared.work.wait(state).expect("stream state poisoned");
            }
        };
        let result = match catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            genasm_chaos::check(genasm_chaos::sites::ENGINE_KERNEL_PANIC, job.key);
            kernel.align(&job.text, &job.pattern, scratch.as_mut())
        })) {
            Ok(result) => result.map_err(JobError::from),
            Err(payload) => {
                // The panicked job's arenas may hold torn state; the
                // worker rebuilds its scratch and keeps serving.
                scratch = kernel.new_scratch();
                Err(JobError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        let mut state = shared.state.lock().expect("stream state poisoned");
        state.results[index] = Some(result);
        state.completed += 1;
        drop(state);
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use genasm_core::align::GenAsmAligner;

    #[test]
    fn submit_drain_matches_sequential() {
        let engine = Engine::new(EngineConfig::default().with_workers(4));
        let mut stream = engine.stream();
        let base: Vec<u8> = b"GATTACAGGC".iter().copied().cycle().take(300).collect();
        let aligner = GenAsmAligner::default();
        let mut expected = Vec::new();
        for i in 0..25usize {
            let len = 50 + (i * 11) % 200;
            let mut pattern = base[..len].to_vec();
            pattern[i % len] = if pattern[i % len] == b'G' { b'T' } else { b'G' };
            expected.push(aligner.align(&base, &pattern));
            stream.submit(Job::new(&base, &pattern));
        }
        let results = stream.drain();
        assert_eq!(results.len(), 25);
        for (got, want) in results.iter().zip(&expected) {
            assert_eq!(got.as_ref().unwrap(), want.as_ref().unwrap());
        }
    }

    #[test]
    fn multiple_rounds_reuse_the_session() {
        let engine = Engine::new(EngineConfig::default().with_workers(2));
        let mut stream = engine.stream();
        for round in 0..3 {
            for i in 0..10usize {
                let text: Vec<u8> = b"ACGT"
                    .iter()
                    .copied()
                    .cycle()
                    .take(40 + round * 4 + i)
                    .collect();
                stream.submit(Job::new(&text, &text));
            }
            let results = stream.drain();
            assert_eq!(results.len(), 10);
            assert!(results
                .iter()
                .all(|r| r.as_ref().unwrap().edit_distance == 0));
        }
        assert_eq!(stream.pending(), 0);
    }

    #[test]
    fn drain_on_empty_session_returns_nothing() {
        let engine = Engine::default();
        let mut stream = engine.stream();
        assert!(stream.drain().is_empty());
    }

    #[test]
    fn drop_discards_undrained_work_promptly() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let mut stream = engine.stream();
        let text: Vec<u8> = b"ACGGTCAT".iter().copied().cycle().take(4_000).collect();
        for _ in 0..500 {
            stream.submit(Job::new(&text, &text));
        }
        let started = std::time::Instant::now();
        drop(stream); // must not align the remaining queue first
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "drop blocked on queued work for {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn close_drains_pending_results_instead_of_discarding() {
        let telemetry = Telemetry::enabled();
        let engine =
            Engine::new(EngineConfig::default().with_workers(2)).with_telemetry(telemetry.clone());
        let mut stream = engine.stream();
        let text: Vec<u8> = b"ACGT".iter().copied().cycle().take(120).collect();
        for _ in 0..12 {
            stream.submit(Job::new(&text, &text));
        }
        let results = stream.close();
        assert_eq!(results.len(), 12);
        assert!(results
            .iter()
            .all(|r| r.as_ref().unwrap().edit_distance == 0));
        // A closed session lost nothing, so the drop counter is absent.
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(snapshot.counter(STREAM_DROPPED_JOBS_COUNTER), None);
    }

    #[test]
    fn drop_counts_undrained_jobs_in_the_registry() {
        let telemetry = Telemetry::enabled();
        let engine =
            Engine::new(EngineConfig::default().with_workers(1)).with_telemetry(telemetry.clone());
        let mut stream = engine.stream();
        let text: Vec<u8> = b"GATTACA".iter().copied().cycle().take(700).collect();
        for _ in 0..40 {
            stream.submit(Job::new(&text, &text));
        }
        drop(stream);
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(snapshot.counter(STREAM_DROPPED_JOBS_COUNTER), Some(40));
        // A drained-then-dropped session lost nothing further.
        let mut stream = engine.stream();
        stream.submit(Job::new(&text, &text));
        let _ = stream.drain();
        drop(stream);
        let snapshot = telemetry.metrics.snapshot();
        assert_eq!(snapshot.counter(STREAM_DROPPED_JOBS_COUNTER), Some(40));
    }
}
