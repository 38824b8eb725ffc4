//! The staged batch mapper must be bit-identical to the sequential
//! mapper: same `Mapping`s (position, strand, CIGAR, edit distance,
//! score), same per-read order, across every filter and aligner kind,
//! both strands, and both DC dispatch modes (the lock-step one also at
//! small claim sizes). `scripts/ci.sh` runs
//! this test with `--no-default-features` too, so identity also holds
//! on the portable (non-AVX2) lock-step rows.

use genasm_engine::{DcDispatch, Engine, EngineConfig};
use genasm_mapper::pipeline::{AlignMode, AlignerKind, FilterKind, MapperConfig, ReadMapper};
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        min..=max,
    )
}

/// Derives a small read set from the reference: substrings at spread
/// starts, xorshift-mutated (substitutions and a deletion), half of
/// them reverse-complemented so strand resolution is exercised.
fn derive_reads(reference: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..4)
        .map(|i| {
            let span = reference.len() - 160;
            let start = (next() as usize) % span;
            let mut read = reference[start..start + 120 + (i * 10)].to_vec();
            for _ in 0..(next() % 6) {
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
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batch output == sequential output, per read, in order, for all
    /// filter/aligner combinations and both engine dispatch modes.
    #[test]
    fn batch_mapper_is_bit_identical_to_sequential(
        reference in dna(2_000, 3_000),
        seed in any::<u64>(),
    ) {
        let reads = derive_reads(&reference, seed);
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        for filter in [FilterKind::GenAsm, FilterKind::Shouji, FilterKind::None] {
            for aligner in [AlignerKind::GenAsm, AlignerKind::Gotoh] {
                for align_mode in [AlignMode::TwoPhase, AlignMode::Full] {
                    let config = MapperConfig {
                        filter,
                        aligner,
                        both_strands: true,
                        index_shards: 4,
                        align_mode,
                        ..MapperConfig::default()
                    };
                    let mapper = ReadMapper::build(&reference, config);
                    let sequential: Vec<_> =
                        read_refs.iter().map(|r| mapper.map_read(r).0).collect();
                    for (dispatch, chunk) in [
                        (DcDispatch::Lockstep, 0),
                        (DcDispatch::Lockstep, 1),
                        (DcDispatch::Lockstep, 3),
                        (DcDispatch::Scalar, 0),
                    ] {
                        // Explicit small chunks cut claim boundaries
                        // through the batch's job mix.
                        let engine = if chunk == 0 {
                            mapper.engine(2, dispatch)
                        } else {
                            Engine::new(
                                EngineConfig::default()
                                    .with_workers(2)
                                    .with_chunk(chunk)
                                    .with_genasm(mapper.config().genasm.clone())
                                    .with_dispatch(dispatch),
                            )
                        };
                        let (batch, timings) =
                            mapper.map_batch_with_engine(&read_refs, &engine);
                        prop_assert_eq!(
                            &sequential,
                            &batch,
                            "filter={:?} aligner={:?} mode={:?} dispatch={:?} chunk={}",
                            filter,
                            aligner,
                            align_mode,
                            dispatch,
                            chunk
                        );
                        prop_assert!(timings.candidates.1 <= timings.candidates.0);
                        if aligner == AlignerKind::Gotoh {
                            break; // dispatch only affects the GenASM kernel
                        }
                    }
                }
            }
        }
    }

    /// The parallel seed-and-filter stage is deterministic: the batch
    /// pipeline returns identical mappings *and* identical candidate
    /// counters at 1, 2 and 8 workers (reads are claimed from an
    /// atomic cursor, so thread interleaving varies between runs — the
    /// read-order merge must hide it), and identical to the sequential
    /// path.
    #[test]
    fn parallel_seeding_is_deterministic_across_worker_counts(
        reference in dna(2_000, 3_000),
        seed in any::<u64>(),
    ) {
        let reads = derive_reads(&reference, seed);
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let mapper = ReadMapper::build(
            &reference,
            MapperConfig {
                both_strands: true,
                index_shards: 4,
                ..MapperConfig::default()
            },
        );
        let sequential: Vec<_> = read_refs.iter().map(|r| mapper.map_read(r).0).collect();
        let mut baseline: Option<(Vec<_>, (usize, usize))> = None;
        for workers in [1usize, 2, 8] {
            let engine = mapper.engine(workers, DcDispatch::Lockstep);
            let (batch, timings) = mapper.map_batch_with_engine(&read_refs, &engine);
            prop_assert_eq!(&sequential, &batch, "workers={}", workers);
            match &baseline {
                None => baseline = Some((batch, timings.candidates)),
                Some((mappings, candidates)) => {
                    prop_assert_eq!(mappings, &batch, "workers={}", workers);
                    prop_assert_eq!(*candidates, timings.candidates, "workers={}", workers);
                }
            }
        }
    }
}
