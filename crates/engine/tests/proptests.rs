//! Property tests for the batch engine, centered on arena reuse: a
//! worker's `AlignArena` is recycled across batches of wildly varying
//! pattern lengths and must never change results.

use genasm_core::align::{AlignArena, GenAsmAligner, GenAsmConfig};
use genasm_engine::{DcDispatch, Engine, EngineConfig, Job};
use proptest::prelude::*;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        1..=max_len,
    )
}

/// A batch of jobs with varying text/pattern lengths (1..=300 /
/// 1..=250 bases).
fn job_batch(max_jobs: usize) -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(
        (dna(300), dna(250)).prop_map(|(text, pattern)| Job::from_owned(text, pattern)),
        1..=max_jobs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// One arena reused across batches of varying pattern lengths
    /// produces results identical to a fresh aligner per pair — the
    /// arena carries capacity between jobs, never state.
    #[test]
    fn arena_reuse_across_batches_never_changes_results(
        batches in proptest::collection::vec(job_batch(12), 1..=4),
    ) {
        let aligner = GenAsmAligner::new(GenAsmConfig::default());
        let mut arena = AlignArena::new();
        for batch in &batches {
            for job in batch {
                let fresh = aligner.align(&job.text, &job.pattern);
                let reused = aligner.align_with_arena(&job.text, &job.pattern, &mut arena);
                match (fresh, reused) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.cigar, &b.cigar);
                        prop_assert_eq!(a.edit_distance, b.edit_distance);
                    }
                    (Err(a), Err(b)) => {
                        prop_assert_eq!(format!("{:?}", a), format!("{:?}", b))
                    }
                    (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b),
                }
            }
        }
    }

    /// Arena capacity converges: after two warm-up passes over a batch
    /// of varying pattern lengths, re-running the batch allocates no
    /// further row storage (the largest-first pool means a row only
    /// grows when no pooled row fits).
    #[test]
    fn arena_capacity_stops_growing_on_repeat(batch in job_batch(16)) {
        let aligner = GenAsmAligner::new(GenAsmConfig::default());
        let mut arena = AlignArena::new();
        for _ in 0..2 {
            for job in &batch {
                let _ = aligner.align_with_arena(&job.text, &job.pattern, &mut arena);
            }
        }
        let warmed = arena.retained_words();
        prop_assert!(warmed > 0);
        for _ in 0..3 {
            for job in &batch {
                let _ = aligner.align_with_arena(&job.text, &job.pattern, &mut arena);
            }
            prop_assert_eq!(arena.retained_words(), warmed);
        }
    }

    /// The lock-step dispatch produces byte-identical batch results to
    /// the scalar oracle on arbitrary job mixes (ragged lengths,
    /// divergent distances, invalid jobs), at the auto chunk size and
    /// at explicit small chunks whose claim boundaries cut through the
    /// mix and leave ragged passes against the four lanes.
    #[test]
    fn lockstep_dispatch_agrees_with_scalar(
        mut batch in job_batch(20),
        workers in 1usize..4,
        chunk in 0usize..6,
    ) {
        // Sprinkle in invalid jobs so error lanes are exercised too.
        if batch.len() > 2 {
            batch[0].pattern.clear();
            let mid = batch.len() / 2;
            batch[mid].text = b"ACGTNACGT".to_vec();
        }
        let scalar = Engine::new(
            EngineConfig::default()
                .with_workers(workers)
                .with_dispatch(DcDispatch::Scalar),
        );
        let scalar_output = scalar.align_batch_with_stats(&batch);
        prop_assert_eq!(
            scalar_output.stats.lane_occupancy(),
            None,
            "scalar runs no lock-step rows"
        );
        let engine = Engine::new(
            EngineConfig::default()
                .with_workers(workers)
                .with_chunk(chunk)
                .with_dispatch(DcDispatch::Lockstep),
        );
        let output = engine.align_batch_with_stats(&batch);
        prop_assert_eq!(scalar_output.results.len(), output.results.len());
        for (idx, (a, b)) in scalar_output.results.iter().zip(&output.results).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "job {} chunk={}", idx, chunk),
                (Err(a), Err(b)) => prop_assert_eq!(
                    format!("{:?}", a),
                    format!("{:?}", b),
                    "job {} chunk={}",
                    idx,
                    chunk
                ),
                (a, b) => prop_assert!(
                    false,
                    "job {} diverged at chunk={}: {:?} vs {:?}",
                    idx, chunk, a, b
                ),
            }
        }
        // Both dispatches walk the identical traceback windows, and the
        // lock-step row-slot accounting is internally consistent.
        prop_assert_eq!(
            (output.stats.tb_windows, output.stats.tb_rows),
            (scalar_output.stats.tb_windows, scalar_output.stats.tb_rows)
        );
        prop_assert!(
            output.stats.dc_rows_issued >= output.stats.dc_rows_useful,
            "issued >= useful"
        );
    }

    /// The engine over the same jobs agrees with the arena-reusing
    /// sequential path regardless of worker count and batch order.
    #[test]
    fn engine_batches_agree_with_sequential(batch in job_batch(20), workers in 1usize..6) {
        let engine = Engine::new(EngineConfig::default().with_workers(workers));
        let aligner = GenAsmAligner::new(GenAsmConfig::default());
        let results = engine.align_batch(&batch);
        prop_assert_eq!(results.len(), batch.len());
        for (job, result) in batch.iter().zip(&results) {
            match (aligner.align(&job.text, &job.pattern), result) {
                (Ok(a), Ok(b)) => prop_assert_eq!(&a, b),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(format!("{:?}", a), format!("{:?}", b))
                }
                (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b),
            }
        }
    }
}
