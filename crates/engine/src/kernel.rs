//! Pluggable alignment kernels.
//!
//! A [`Kernel`] is the computation the engine schedules; the engine
//! itself only moves jobs and scratch state around. Two kernels ship
//! in-crate: [`GenAsmKernel`] (the paper's DC + TB windowed aligner)
//! and [`GotohKernel`] (the affine-gap DP software baseline the paper
//! compares against), so throughput comparisons run on the identical
//! harness.

use crate::job::{DistanceJob, Job};
use crate::lockstep::{self, LockstepScratch, LANES};
use genasm_baselines::gotoh::{GotohAligner, GotohMode};
use genasm_core::align::{AlignArena, Alignment, GenAsmAligner, GenAsmConfig};
use genasm_core::error::AlignError;
use genasm_core::scoring::Scoring;
use std::any::Any;

/// How the GenASM kernel schedules its GenASM-DC work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DcDispatch {
    /// One window at a time per worker — the paper's Algorithm 2 run
    /// sequentially. The reference path every identity test targets.
    Scalar,
    /// The lock-step schedulers of [`lockstep`](crate::lockstep): full
    /// alignments advance up to four windows per DC pass, and
    /// distance-only scans stream pattern blocks through the
    /// shared-text occurrence stream (bit-identical results). The
    /// engine default.
    #[default]
    Lockstep,
}

/// Per-worker mutable state a kernel wants carried between jobs
/// (arenas, DP matrices). Created once per worker thread, never
/// shared.
pub trait KernelScratch: Send {
    /// Downcast access for the owning kernel.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl KernelScratch for AlignArena {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl KernelScratch for LockstepScratch {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Scratch for kernels that carry no state.
#[derive(Debug, Default)]
pub struct NoScratch;

impl KernelScratch for NoScratch {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An alignment computation the engine can schedule.
pub trait Kernel: Send + Sync {
    /// Short stable name, used in stats and bench output.
    fn name(&self) -> &'static str;

    /// Fresh per-worker scratch state.
    fn new_scratch(&self) -> Box<dyn KernelScratch>;

    /// Aligns `pattern` against `text` (anchored at the text start).
    ///
    /// # Errors
    ///
    /// Kernel-specific; the GenASM kernel surfaces
    /// [`AlignError`] for invalid inputs or exhausted budgets.
    fn align(
        &self,
        text: &[u8],
        pattern: &[u8],
        scratch: &mut dyn KernelScratch,
    ) -> Result<Alignment, AlignError>;

    /// Aligns a whole chunk of jobs in one call when the kernel has a
    /// batched scheduler (the GenASM kernel's lock-step window mode);
    /// `None` tells the engine to fall back to per-job
    /// [`align`](Self::align) calls. Implementations must return one
    /// result per job, in job order, identical to per-job alignment.
    fn align_chunk(
        &self,
        jobs: &[Job],
        scratch: &mut dyn KernelScratch,
    ) -> Option<Vec<Result<Alignment, AlignError>>> {
        let _ = (jobs, scratch);
        None
    }

    /// Distance-only (phase-1) scan of one job: a certified **lower
    /// bound** of [`align`](Self::align)'s edit distance on the same
    /// pair — normally equal to it on realistic reads — with `Ok(None)`
    /// certifying the bound exceeds `k_max`. This is the contract the
    /// two-phase mapper's distance-first resolution relies on. The
    /// GenASM kernel computes the block-decomposed occurrence bound
    /// ([`block_occurrence_distance_into`](genasm_core::align::block_occurrence_distance_into):
    /// disjoint 64-character pattern blocks, each scanned for its
    /// cheapest occurrence anywhere in the text, summed); the default
    /// implementation runs the full alignment as the exact oracle,
    /// ignoring `k_max`.
    ///
    /// # Errors
    ///
    /// Kernel-specific, matching [`align`](Self::align)'s conditions.
    fn distance(
        &self,
        text: &[u8],
        pattern: &[u8],
        k_max: usize,
        scratch: &mut dyn KernelScratch,
    ) -> Result<Option<usize>, AlignError> {
        let _ = k_max;
        self.align(text, pattern, scratch)
            .map(|a| Some(a.edit_distance))
    }

    /// Scans a whole chunk of distance jobs in one call when the
    /// kernel has a batched distance scheduler (the GenASM kernel's
    /// occurrence stream); `None` tells the engine
    /// to fall back to per-job [`distance`](Self::distance) calls.
    /// Implementations must return one result per job, in job order,
    /// identical to per-job scanning.
    fn distance_chunk(
        &self,
        jobs: &[DistanceJob],
        scratch: &mut dyn KernelScratch,
    ) -> Option<Vec<Result<Option<usize>, AlignError>>> {
        let _ = (jobs, scratch);
        None
    }

    /// Smallest work-queue chunk that lets the kernel's batched
    /// scheduler fill its lanes; the engine raises auto-sized chunks to
    /// this floor. Kernels without batched scheduling keep the default
    /// of 1.
    fn preferred_chunk(&self) -> usize {
        1
    }

    /// Returns and resets the kernel's lock-step row-slot counters
    /// accumulated in `scratch`: `(issued, useful)` lane-slots. The
    /// engine sums these across workers into
    /// [`BatchStats`](crate::BatchStats) so lane occupancy is a
    /// measured, regression-trackable number. Kernels without lock-step
    /// scheduling report `(0, 0)`.
    fn take_lane_rows(&self, scratch: &mut dyn KernelScratch) -> (u64, u64) {
        let _ = scratch;
        (0, 0)
    }

    /// Returns and resets the kernel's traceback counters accumulated
    /// in `scratch`: `(windows walked, rows available to those walks)`.
    /// The engine sums these into
    /// [`BatchStats::{tb_windows,tb_rows}`](crate::BatchStats) so the
    /// traceback volume each execution mode issues is a measured,
    /// regression-trackable number. Kernels without TB accounting
    /// report `(0, 0)`.
    fn take_tb_counters(&self, scratch: &mut dyn KernelScratch) -> (u64, u64) {
        let _ = scratch;
        (0, 0)
    }
}

/// The GenASM windowed aligner (DC + TB) with per-worker arena reuse,
/// scheduling its DC work per [`DcDispatch`].
#[derive(Debug, Clone)]
pub struct GenAsmKernel {
    aligner: GenAsmAligner,
    dispatch: DcDispatch,
}

impl GenAsmKernel {
    /// A kernel running the given aligner configuration under the
    /// default (lock-step) dispatch.
    pub fn new(config: GenAsmConfig) -> Self {
        GenAsmKernel {
            aligner: GenAsmAligner::new(config),
            dispatch: DcDispatch::default(),
        }
    }

    /// Selects the DC dispatch mode.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DcDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The underlying aligner configuration.
    pub fn config(&self) -> &GenAsmConfig {
        self.aligner.config()
    }

    /// The kernel's DC dispatch mode.
    pub fn dispatch(&self) -> DcDispatch {
        self.dispatch
    }
}

impl Default for GenAsmKernel {
    fn default() -> Self {
        GenAsmKernel::new(GenAsmConfig::default())
    }
}

impl Kernel for GenAsmKernel {
    fn name(&self) -> &'static str {
        match self.dispatch {
            DcDispatch::Scalar => "genasm",
            DcDispatch::Lockstep => "genasm-lockstep",
        }
    }

    fn new_scratch(&self) -> Box<dyn KernelScratch> {
        // Every dispatch shares the LockstepScratch shape: scalar
        // dispatch uses only its embedded arena and TB counters, so
        // traceback accounting works identically across modes.
        Box::new(LockstepScratch::default())
    }

    fn align(
        &self,
        text: &[u8],
        pattern: &[u8],
        scratch: &mut dyn KernelScratch,
    ) -> Result<Alignment, AlignError> {
        // Accept either scratch shape so streams and engines can share
        // a kernel regardless of dispatch.
        let scratch = scratch.as_any_mut();
        if let Some(arena) = scratch.downcast_mut::<AlignArena>() {
            self.aligner.align_with_arena(text, pattern, arena)
        } else if let Some(ls) = scratch.downcast_mut::<LockstepScratch>() {
            // The scalar driver folds traceback accounting into the
            // scratch counters even when the walk fails mid-alignment,
            // so tb stats agree across dispatch modes.
            lockstep::align_job_scalar(
                self.aligner.config(),
                text,
                pattern,
                &mut ls.scalar,
                &mut ls.tb,
            )
        } else {
            panic!("GenAsmKernel scratch must be an AlignArena or LockstepScratch")
        }
    }

    fn align_chunk(
        &self,
        jobs: &[Job],
        scratch: &mut dyn KernelScratch,
    ) -> Option<Vec<Result<Alignment, AlignError>>> {
        if self.dispatch == DcDispatch::Scalar {
            return None;
        }
        let ls = scratch
            .as_any_mut()
            .downcast_mut::<LockstepScratch>()
            .expect("lock-step dispatch requires LockstepScratch");
        Some(lockstep::align_chunk_chunked(
            self.aligner.config(),
            jobs,
            &mut ls.multi,
            &mut ls.scalar,
            &mut ls.tb,
            &mut ls.obs,
        ))
    }

    fn distance(
        &self,
        text: &[u8],
        pattern: &[u8],
        k_max: usize,
        scratch: &mut dyn KernelScratch,
    ) -> Result<Option<usize>, AlignError> {
        let scratch = scratch.as_any_mut();
        if let Some(arena) = scratch.downcast_mut::<AlignArena>() {
            lockstep::distance_job_scalar(text, pattern, k_max, arena)
        } else if let Some(ls) = scratch.downcast_mut::<LockstepScratch>() {
            lockstep::distance_job_scalar(text, pattern, k_max, &mut ls.scalar)
        } else {
            panic!("GenAsmKernel scratch must be an AlignArena or LockstepScratch")
        }
    }

    // Lock-step dispatch runs phase-1 scans on the occurrence stream;
    // scalar dispatch falls back to the per-job block metric.
    fn distance_chunk(
        &self,
        jobs: &[DistanceJob],
        scratch: &mut dyn KernelScratch,
    ) -> Option<Vec<Result<Option<usize>, AlignError>>> {
        if self.dispatch == DcDispatch::Scalar {
            return None;
        }
        let ls = scratch
            .as_any_mut()
            .downcast_mut::<LockstepScratch>()
            .expect("lock-step dispatch requires LockstepScratch");
        // Distance-only scans are pure DC: one span covers the chunk.
        if let Some(o) = ls.obs.as_mut() {
            o.spans.begin("dc");
        }
        let results = lockstep::distance_chunk_streaming(jobs, &mut ls.occurrence);
        if let Some(o) = ls.obs.as_mut() {
            o.spans.end("dc");
        }
        Some(results)
    }

    fn preferred_chunk(&self) -> usize {
        match self.dispatch {
            DcDispatch::Scalar => 1,
            // One claim fills a lock-step pass.
            DcDispatch::Lockstep => LANES,
        }
    }

    fn take_lane_rows(&self, scratch: &mut dyn KernelScratch) -> (u64, u64) {
        match scratch.as_any_mut().downcast_mut::<LockstepScratch>() {
            Some(ls) => ls.take_row_counters(),
            None => (0, 0),
        }
    }

    fn take_tb_counters(&self, scratch: &mut dyn KernelScratch) -> (u64, u64) {
        match scratch.as_any_mut().downcast_mut::<LockstepScratch>() {
            Some(ls) => ls.tb.take(),
            None => (0, 0),
        }
    }
}

/// The affine-gap DP baseline (Gotoh), the software aligner the paper
/// benchmarks GenASM against (§10).
#[derive(Debug, Clone)]
pub struct GotohKernel {
    aligner: GotohAligner,
}

impl GotohKernel {
    /// A kernel under the given scoring scheme, with read-alignment
    /// (text-suffix-free) semantics matching the GenASM kernel's
    /// semiglobal mode.
    pub fn new(scoring: Scoring) -> Self {
        GotohKernel {
            aligner: GotohAligner::new(scoring, GotohMode::TextSuffixFree),
        }
    }
}

impl Default for GotohKernel {
    fn default() -> Self {
        GotohKernel::new(Scoring::bwa_mem())
    }
}

impl Kernel for GotohKernel {
    fn name(&self) -> &'static str {
        "gotoh"
    }

    fn new_scratch(&self) -> Box<dyn KernelScratch> {
        Box::new(NoScratch)
    }

    fn align(
        &self,
        text: &[u8],
        pattern: &[u8],
        _scratch: &mut dyn KernelScratch,
    ) -> Result<Alignment, AlignError> {
        if pattern.is_empty() {
            return Err(AlignError::EmptyPattern);
        }
        if text.is_empty() {
            return Err(AlignError::EmptyText);
        }
        let a = self.aligner.align(text, pattern);
        Ok(Alignment {
            edit_distance: a.cigar.edit_distance(),
            text_consumed: a.cigar.text_len(),
            pattern_consumed: a.cigar.pattern_len(),
            cigar: a.cigar,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genasm_kernel_matches_direct_aligner() {
        let kernel = GenAsmKernel::default();
        let mut scratch = kernel.new_scratch();
        let direct = GenAsmAligner::default()
            .align(b"ACGTACGTACGT", b"ACGTACCTACGT")
            .unwrap();
        let via_kernel = kernel
            .align(b"ACGTACGTACGT", b"ACGTACCTACGT", scratch.as_mut())
            .unwrap();
        assert_eq!(direct, via_kernel);
    }

    #[test]
    fn gotoh_kernel_produces_valid_transcripts() {
        let kernel = GotohKernel::default();
        let mut scratch = kernel.new_scratch();
        let a = kernel
            .align(b"ACGTACGTACGT", b"ACGTACCTACGT", scratch.as_mut())
            .unwrap();
        assert!(a
            .cigar
            .validates(b"ACGTACGTACGT"[..a.text_consumed].as_ref(), b"ACGTACCTACGT"));
        assert_eq!(a.edit_distance, 1);
    }

    #[test]
    fn gotoh_kernel_rejects_empty_inputs() {
        let kernel = GotohKernel::default();
        let mut scratch = kernel.new_scratch();
        assert!(matches!(
            kernel.align(b"ACGT", b"", scratch.as_mut()),
            Err(AlignError::EmptyPattern)
        ));
        assert!(matches!(
            kernel.align(b"", b"ACGT", scratch.as_mut()),
            Err(AlignError::EmptyText)
        ));
    }
}
