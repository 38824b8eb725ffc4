//! Seeded input generation. The program under test receives only what
//! these functions build from the run's `--seed`.

use crate::stats::SplitMix;
use genasm_bench::workloads::{dataset_pairs, error_budget, AlignmentPair};
use genasm_seq::genome::GenomeBuilder;
use genasm_seq::profile::ErrorProfile;
use genasm_seq::readsim::{LengthModel, PaperDataset, ReadSimulator, SimConfig, SimulatedRead};

/// Reference length of the short-read workloads.
pub const GENOME_BP: usize = 200_000;
/// Share of the reference covered by repeat copies.
pub const REPEAT_FRACTION: f64 = 0.35;
/// Repeat unit length.
pub const REPEAT_UNIT: usize = 420;
/// Divergence of each repeat copy from its family's unit.
pub const REPEAT_DIVERGENCE: f64 = 0.08;
/// Short reads per run (both strands, Illumina 5% profile). Fewer reads
/// give each timed call more repeats in a run (see `best_call_times`).
pub const SHORT_READS: usize = 1024;
/// Short read length.
pub const SHORT_BP: usize = 150;
/// A mapping is at its origin when on the simulated strand and within
/// this many bases of the simulated start.
pub const ORIGIN_TOLERANCE_BP: usize = 16;

/// Long candidate pairs per run.
pub const LONG_PAIRS: usize = 64;
/// Long read length.
pub const LONG_BP: usize = 10_000;
/// The long-read dataset profile.
pub const LONG_DATASET: PaperDataset = PaperDataset::PacBio10;

/// Sub-stream tags, so each input draws independent randomness.
const STREAM_GENOME: u64 = 1;
const STREAM_READS: u64 = 2;
const STREAM_PAIRS: u64 = 3;
pub const STREAM_SCHEDULE: u64 = 4;

/// The short-read workloads' inputs: a repeat-rich reference and reads
/// simulated from it with their true origins.
pub struct ShortInputs {
    pub genome: Vec<u8>,
    pub reads: Vec<SimulatedRead>,
}

impl ShortInputs {
    pub fn generate(seed: u64) -> Self {
        let genome = GenomeBuilder::new(GENOME_BP)
            .seed(SplitMix::new(seed, STREAM_GENOME).next_u64())
            .repeat_fraction(REPEAT_FRACTION)
            .repeat_unit(REPEAT_UNIT)
            .repeat_divergence(REPEAT_DIVERGENCE)
            .build()
            .sequence()
            .to_vec();
        let reads = ReadSimulator::new(SimConfig {
            read_length: SHORT_BP,
            count: SHORT_READS,
            profile: ErrorProfile::illumina(),
            seed: SplitMix::new(seed, STREAM_READS).next_u64(),
            both_strands: true,
            length_model: LengthModel::Fixed,
        })
        .simulate(&genome);
        ShortInputs { genome, reads }
    }

    /// The read sequences, in simulation order.
    pub fn read_seqs(&self) -> Vec<&[u8]> {
        self.reads.iter().map(|r| r.seq.as_slice()).collect()
    }

    /// Whether `mapping` places read `idx` at its simulated origin.
    pub fn at_origin(&self, idx: usize, position: usize, reverse: bool) -> bool {
        let truth = &self.reads[idx];
        truth.reverse == reverse && truth.origin.abs_diff(position) <= ORIGIN_TOLERANCE_BP
    }
}

/// The long-pair workloads' inputs: (candidate region, read) pairs.
pub fn long_pairs(seed: u64) -> Vec<AlignmentPair> {
    dataset_pairs(
        LONG_DATASET,
        LONG_BP,
        LONG_PAIRS,
        SplitMix::new(seed, STREAM_PAIRS).next_u64(),
    )
}

/// The distance budget of a long pair (the dataset's error rate plus
/// slack, as the candidate region was extended).
pub fn long_budget() -> usize {
    error_budget(LONG_BP, LONG_DATASET)
}
