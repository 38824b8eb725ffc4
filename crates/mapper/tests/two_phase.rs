//! Two-phase (distance-first) alignment execution must be bit-identical
//! to the full path, end to end:
//!
//! * the distance-based resolution picks the same per-read winner as
//!   full-alignment resolution — ties included — at 1, 2 and 8 workers,
//!   under both dispatch modes and at small lock-step claim sizes;
//! * the per-candidate phase-1 distances are certified lower bounds of
//!   the full windowed alignment's edit distances (the invariant the
//!   resolution's correctness proof rests on);
//! * two-phase execution issues strictly fewer traceback rows than the
//!   full path whenever reads have more candidates than winners.
//!
//! `scripts/ci.sh` runs this suite with `--no-default-features` too, so
//! identity also holds on the portable (non-AVX2) lock-step rows.

use genasm_engine::{DcDispatch, DistanceJob, Engine, EngineConfig};
use genasm_mapper::pipeline::{AlignMode, AlignerKind, MapperConfig, ReadMapper};
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..=max,
    )
}

/// Substrings of the reference at spread starts, xorshift-mutated, half
/// reverse-complemented — plus one duplicated read so identical
/// candidate sets (guaranteed resolution ties) are always present.
fn derive_reads(reference: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut reads: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            let span = reference.len() - 160;
            let start = (next() as usize) % span;
            let mut read = reference[start..start + 110 + (i * 12)].to_vec();
            for _ in 0..(next() % 7) {
                let pos = (next() as usize) % read.len();
                read[pos] = b"ACGT"[(next() % 4) as usize];
            }
            if next() % 3 == 0 {
                read.remove((next() as usize) % read.len());
            }
            if i % 2 == 1 {
                read = read
                    .iter()
                    .rev()
                    .map(|&b| genasm_core::alphabet::Dna::complement(b))
                    .collect();
            }
            read
        })
        .collect();
    let dup = reads[0].clone();
    reads.push(dup);
    reads
}

fn mapper_with(reference: &[u8], align_mode: AlignMode) -> ReadMapper {
    ReadMapper::build(
        reference,
        MapperConfig {
            both_strands: true,
            index_shards: 4,
            align_mode,
            aligner: AlignerKind::GenAsm,
            ..MapperConfig::default()
        },
    )
}

/// An engine for `mapper` under `dispatch` with an explicit claim size
/// (`0` picks the auto size), so small chunks cut claim boundaries
/// through the batch's job mix.
fn engine_for(mapper: &ReadMapper, workers: usize, dispatch: DcDispatch, chunk: usize) -> Engine {
    Engine::new(
        EngineConfig::default()
            .with_workers(workers)
            .with_chunk(chunk)
            .with_genasm(mapper.config().genasm.clone())
            .with_dispatch(dispatch),
    )
}

/// The dispatch × claim-size grid the identity tests sweep: the
/// lock-step scheduler at the auto size and at chunks of 1 and 3, and
/// the scalar oracle.
const DISPATCH_GRID: [(DcDispatch, usize); 4] = [
    (DcDispatch::Lockstep, 0),
    (DcDispatch::Lockstep, 1),
    (DcDispatch::Lockstep, 3),
    (DcDispatch::Scalar, 0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Distance-first resolution picks the same winner as
    /// full-alignment resolution across random read/candidate sets
    /// (ties included, via the duplicated read), at 1, 2 and 8
    /// workers, under both dispatch modes and several claim sizes.
    #[test]
    fn distance_resolution_picks_the_full_path_winner(
        reference in dna(2_000, 3_000),
        seed in any::<u64>(),
    ) {
        let reads = derive_reads(&reference, seed);
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let two_phase = mapper_with(&reference, AlignMode::TwoPhase);
        let full = mapper_with(&reference, AlignMode::Full);

        let full_engine = full.engine(2, DcDispatch::Lockstep);
        let (full_mappings, full_timings) = full.map_batch_with_engine(&read_refs, &full_engine);

        let mut tb_rows_two_phase = None;
        for workers in [1usize, 2, 8] {
            for (dispatch, chunk) in DISPATCH_GRID {
                let engine = engine_for(&two_phase, workers, dispatch, chunk);
                let (mappings, timings) = two_phase.map_batch_with_engine(&read_refs, &engine);
                prop_assert_eq!(
                    &full_mappings,
                    &mappings,
                    "workers={} dispatch={:?} chunk={}",
                    workers,
                    dispatch,
                    chunk
                );
                prop_assert!(timings.distance_jobs <= full_timings.candidates.1 as u64);
                // Traceback volume is deterministic: the same under
                // every worker count, dispatch and claim size.
                match tb_rows_two_phase {
                    None => tb_rows_two_phase = Some(timings.tb_rows),
                    Some(rows) => prop_assert_eq!(rows, timings.tb_rows),
                }
            }
        }

        // Two-phase never walks more traceback than the full path, and
        // walks strictly less as soon as some read carries more
        // candidates than winners.
        let (tb_windows, tb_rows) = tb_rows_two_phase.unwrap();
        prop_assert!(tb_rows <= full_timings.tb_rows.1);
        prop_assert!(tb_windows <= full_timings.tb_rows.0);
        if full_timings.traceback_jobs > reads.len() as u64 * 2 {
            // More survivors than (read, strand) pairs: winners are a
            // strict subset, so rows must drop.
            prop_assert!(
                tb_rows < full_timings.tb_rows.1,
                "two-phase {} rows vs full {}",
                tb_rows,
                full_timings.tb_rows.1
            );
        }
    }

    /// The phase-1 distances the resolution runs on are lower bounds of
    /// the full alignments' edit distances for every candidate region —
    /// the invariant that makes distance-first resolution sound.
    #[test]
    fn phase1_distances_lower_bound_full_alignments(
        reference in dna(1_500, 2_200),
        seed in any::<u64>(),
    ) {
        use genasm_core::align::{GenAsmAligner, GenAsmConfig};
        let reads = derive_reads(&reference, seed);
        let mapper = mapper_with(&reference, AlignMode::TwoPhase);
        let engine = mapper.engine(2, DcDispatch::Lockstep);
        let aligner = GenAsmAligner::new(GenAsmConfig::default());

        // Candidate regions straight off the reference at arbitrary
        // offsets: the same (region, read) pairs both phases see.
        let mut djobs = Vec::new();
        let mut pairs = Vec::new();
        for (i, read) in reads.iter().enumerate() {
            let k = (read.len() as f64 * 0.15).ceil() as usize;
            let pos = (i * 331) % (reference.len() - read.len() - k);
            let region = &reference[pos..pos + read.len() + k];
            djobs.push(DistanceJob::new(region, read, k).with_key(i as u64));
            pairs.push((region, read));
        }
        let (distances, stats) = engine.distance_batch_keyed(&djobs);
        prop_assert_eq!(stats.dc_distance_jobs, djobs.len() as u64);
        prop_assert_eq!(stats.tb_rows, 0);
        for (kd, (region, read)) in distances.iter().zip(&pairs) {
            let full = aligner.align(region, read).unwrap();
            match kd.result.as_ref().unwrap() {
                Some(d) => prop_assert!(
                    *d <= full.edit_distance,
                    "distance {} vs full {}",
                    d,
                    full.edit_distance
                ),
                None => prop_assert!(full.edit_distance > djobs[kd.key as usize].k_max),
            }
        }
    }
}
