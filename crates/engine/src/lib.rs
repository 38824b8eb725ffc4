//! # genasm-engine
//!
//! A batched, multi-threaded alignment throughput engine — the
//! software analogue of the GenASM accelerator's 64-PE pipelined
//! design (§7 of the paper), which earns its speedups by keeping many
//! alignments in flight at once. This crate does the same on CPU
//! cores:
//!
//! * [`Engine::align_batch`] fans a slice of [`Job`]s (reference
//!   region, read) out over a scoped worker pool. Workers claim work
//!   in chunks from a lock-free atomic cursor, so there is no queue
//!   lock on the hot path.
//! * Within a worker, the default [`DcDispatch::Lockstep`] mode runs
//!   one lock-step scheduler per execution mode at four lanes
//!   ([`lockstep`], [`genasm_core::dc_multi`]): full alignments gather
//!   each in-flight job's next window into one multi-lane DC pass, and
//!   distance-only scans stream pattern blocks through lanes that
//!   refill the moment they resolve — the software shape of the
//!   pipelined PEs' in-flight window pool. [`DcDispatch::Scalar`] is
//!   the one-window-at-a-time reference path; both produce
//!   bit-identical results, and [`BatchStats::lane_occupancy`] reports
//!   the row-slot waste of the lock-step passes.
//! * Each worker owns a reusable [`AlignArena`](genasm_core::AlignArena)
//!   (kernel scratch), so the GenASM-DC bitvector storage — the
//!   dominant allocation of an alignment — is recycled across jobs and
//!   the hot loop performs no allocation after warm-up. This mirrors
//!   the accelerator's statically provisioned per-PE TB-SRAMs.
//! * [`Engine::stream`] opens a persistent [`EngineStream`] with a
//!   `submit`/`drain` API for callers that produce jobs incrementally.
//! * Kernels are pluggable ([`Kernel`]): [`GenAsmKernel`] (DC + TB) and
//!   [`GotohKernel`] (the affine-gap DP baseline) ship in-crate so the
//!   bench suite can compare them head-to-head on the same harness.
//! * [`BatchStats`] reports per-batch throughput and latency.
//!
//! Results are **bit-identical** to the sequential
//! [`GenAsmAligner::align`](genasm_core::GenAsmAligner::align) path:
//! scheduling only decides *who* runs a job, never *how*.
//!
//! Failures are contained per job ([`JobError`]): a kernel panic is
//! caught at the chunk boundary, the worker's arenas are discarded and
//! rebuilt, and only the panicking job is quarantined while the rest
//! of the batch completes. An optional [`CancelToken`] / deadline
//! ([`EngineConfig::with_deadline`]) is checked at chunk-claim
//! boundaries — never in the kernel hot loop — and on expiry the batch
//! returns partial results with unclaimed jobs marked
//! [`JobError::Cancelled`]. See `docs/ROBUSTNESS.md` for the full
//! containment story.
//!
//! # Quick example
//!
//! ```
//! use genasm_engine::{Engine, EngineConfig, Job};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let jobs = vec![
//!     Job::new(b"ACGTTTGCATTTACGGTTACATTGCA", b"ACGTTTGCTTTACGGATTACATTGCA"),
//!     Job::new(b"GATTACAGATTACA", b"GATTACAGATTACA"),
//! ];
//! let results = engine.align_batch(&jobs);
//! assert_eq!(results[0].as_ref().unwrap().edit_distance, 2);
//! assert_eq!(results[1].as_ref().unwrap().edit_distance, 0);
//! ```

pub mod engine;
pub mod job;
pub mod kernel;
pub mod lockstep;
pub mod obs;
pub mod stats;
pub mod stream;

pub use engine::{CancelToken, Engine, EngineConfig};
pub use job::{DistanceJob, Job, JobError, KeyedDistance, KeyedResult};
pub use kernel::{DcDispatch, GenAsmKernel, GotohKernel, Kernel, KernelScratch};
pub use lockstep::LockstepScratch;
pub use obs::WorkerObs;
pub use stats::{lane_occupancy_ratio, BatchOutput, BatchStats};
pub use stream::{EngineStream, STREAM_DROPPED_JOBS_COUNTER};
