//! Property-based tests for the GenASM core algorithms.
//!
//! A small reference Needleman–Wunsch implementation (independent of
//! the `genasm-baselines` crate, which depends on this one) provides
//! ground truth for distances.

use genasm_core::align::{AlignmentMode, GenAsmAligner, GenAsmConfig};
use genasm_core::alphabet::Dna;
use genasm_core::bitap;
use genasm_core::cigar::Cigar;
use genasm_core::dc::window_dc;
use genasm_core::dc_multi::{
    window_dc_multi_distance_into, window_dc_multi_into, DcLaneStream, MultiDcArena, MultiLane,
};
use genasm_core::edit_distance::EditDistanceCalculator;
use genasm_core::filter::PreAlignmentFilter;
use genasm_core::tb::{window_traceback, TracebackOrder};
use proptest::prelude::*;

/// Reference global (NW) edit distance, O(m*n) DP.
fn nw_distance(a: &[u8], b: &[u8]) -> usize {
    let n = a.len();
    let m = b.len();
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j - 1] + cost).min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Reference semiglobal distance: best alignment of the whole pattern
/// `b` inside text `a` (free text prefix and suffix).
fn semiglobal_distance(a: &[u8], b: &[u8]) -> usize {
    let n = a.len();
    let m = b.len();
    // Rows over pattern; free start anywhere in text: row 0 all zeros.
    let mut prev = vec![0usize; n + 1];
    let mut cur = vec![0usize; n + 1];
    for j in 1..=m {
        cur[0] = j;
        for i in 1..=n {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[i] = (prev[i - 1] + cost).min(prev[i] + 1).min(cur[i - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.iter().copied().min().unwrap()
}

fn dna_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        1..=max_len,
    )
}

/// A (text, pattern) pair where the pattern is a mutated copy of a text
/// substring, mimicking a read with sequencing errors.
fn read_pair(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna_seq(max_len), any::<u64>()).prop_map(|(text, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pattern = Vec::with_capacity(text.len());
        for &c in &text {
            match next() % 100 {
                // 5% substitution, 3% deletion, 3% insertion.
                0..=4 => pattern.push(b"ACGT"[(next() % 4) as usize]),
                5..=7 => {}
                8..=10 => {
                    pattern.push(c);
                    pattern.push(b"ACGT"[(next() % 4) as usize]);
                }
                _ => pattern.push(c),
            }
        }
        if pattern.is_empty() {
            pattern.push(b'A');
        }
        (text, pattern)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// GenASM's global edit distance never undercounts the true (NW)
    /// distance — its CIGAR is a real transcript — and stays within a
    /// small window-approximation slack of it on realistic error
    /// profiles (the paper's accuracy study reports the same behaviour:
    /// 96.6-99.7% of reads match the DP-optimal score).
    #[test]
    fn genasm_edit_distance_brackets_dp((text, pattern) in read_pair(300)) {
        let calc = EditDistanceCalculator::default();
        let genasm = calc.distance(&text, &pattern).unwrap();
        let dp = nw_distance(&text, &pattern);
        prop_assert!(genasm >= dp, "undercount: genasm={} dp={}", genasm, dp);
        let slack = 2 + text.len() / 32;
        prop_assert!(genasm <= dp + slack, "genasm={} dp={} slack={}", genasm, dp, slack);
    }

    /// For isolated errors separated by more than a window, the
    /// windowed distance is exact.
    #[test]
    fn genasm_edit_distance_exact_for_sparse_errors(
        base in dna_seq(600),
        positions in proptest::collection::vec(0usize..4, 4),
        kinds in proptest::collection::vec(0usize..3, 4),
    ) {
        // Place up to 4 errors at positions spaced ~150 apart.
        let text = base;
        let mut pattern = text.clone();
        let mut offset = 0i64;
        for (slot, (&p, &kind)) in positions.iter().zip(kinds.iter()).enumerate() {
            let pos = slot * 150 + 40 + p;
            let idx = (pos as i64 + offset) as usize;
            if idx >= pattern.len().saturating_sub(2) || pos + 2 >= text.len() {
                continue;
            }
            match kind {
                0 => pattern[idx] = if pattern[idx] == b'A' { b'C' } else { b'A' },
                1 => { pattern.remove(idx); offset -= 1; }
                _ => { pattern.insert(idx, b'G'); offset += 1; }
            }
        }
        let calc = EditDistanceCalculator::default();
        let genasm = calc.distance(&text, &pattern).unwrap();
        let dp = nw_distance(&text, &pattern);
        prop_assert_eq!(genasm, dp);
    }

    /// The global-mode CIGAR is a valid transcript whose edit count
    /// equals the reported distance and consumes both sequences fully.
    #[test]
    fn global_cigar_is_valid_transcript((text, pattern) in read_pair(256)) {
        let calc = EditDistanceCalculator::default();
        let alignment = calc.alignment(&text, &pattern).unwrap();
        prop_assert!(alignment.cigar.validates(&text, &pattern));
        prop_assert_eq!(alignment.cigar.edit_distance(), alignment.edit_distance);
        prop_assert_eq!(alignment.cigar.text_len(), text.len());
        prop_assert_eq!(alignment.cigar.pattern_len(), pattern.len());
    }

    /// The semiglobal aligner produces a valid transcript and consumes
    /// the full pattern.
    #[test]
    fn semiglobal_cigar_is_valid((text, pattern) in read_pair(256)) {
        let aligner = GenAsmAligner::default();
        let a = aligner.align(&text, &pattern).unwrap();
        prop_assert!(a.text_consumed <= text.len());
        prop_assert!(a.cigar.validates(&text[..a.text_consumed], &pattern));
        prop_assert_eq!(a.pattern_consumed, pattern.len());
        prop_assert_eq!(a.cigar.edit_distance(), a.edit_distance);
    }

    /// Bitap reports a position iff the semiglobal DP distance is
    /// within the threshold, and its best distance matches the DP.
    #[test]
    fn bitap_best_matches_semiglobal_dp(text in dna_seq(80), pattern in dna_seq(24), k in 0usize..6) {
        let best = bitap::find_best::<Dna>(&text, &pattern, k).unwrap();
        let dp = semiglobal_distance(&text, &pattern);
        match best {
            Some(m) => prop_assert_eq!(m.distance, dp),
            None => prop_assert!(dp > k, "dp={} k={}", dp, k),
        }
    }

    /// Single-word and multi-word Bitap agree wherever both apply.
    #[test]
    fn bitap_word_paths_agree(text in dna_seq(120), pattern in dna_seq(60), k in 0usize..4) {
        let single = bitap::find_all_single_word::<Dna>(&text, &pattern, k).unwrap();
        let multi = bitap::find_all_multi_word::<Dna>(&text, &pattern, k).unwrap();
        prop_assert_eq!(single, multi);
    }

    /// The pre-alignment filter never rejects a pair the ground truth
    /// accepts (zero false-reject rate, §10.3).
    #[test]
    fn filter_has_zero_false_reject_rate((text, pattern) in read_pair(120), k in 0usize..12) {
        let filter = PreAlignmentFilter::new(k);
        let truth_accepts = semiglobal_distance(&text, &pattern) <= k;
        if truth_accepts {
            prop_assert!(filter.accepts(&text, &pattern).unwrap());
        }
    }

    /// Every valid (W, O) setting produces a valid global transcript
    /// that brackets the DP distance within the window-approximation
    /// slack.
    #[test]
    fn window_settings_are_consistent((text, pattern) in read_pair(200)) {
        let dp = nw_distance(&text, &pattern);
        for (w, o) in [(32usize, 12usize), (48, 16), (64, 24)] {
            let cfg = GenAsmConfig::default()
                .with_window(w)
                .with_overlap(o)
                .with_mode(AlignmentMode::Global);
            let calc = EditDistanceCalculator::new(cfg);
            let alignment = calc.alignment(&text, &pattern).unwrap();
            prop_assert!(alignment.cigar.validates(&text, &pattern), "W={} O={}", w, o);
            // Every configuration yields a real transcript, so the
            // distance never undercounts the optimum. Tightness is
            // asserted separately for the paper's (64, 24) setting —
            // small windows degrade on adversarial homopolymer inputs,
            // which is exactly why the paper ships W = 64.
            prop_assert!(alignment.edit_distance >= dp, "W={} O={}", w, o);
        }
    }

    /// Lock-step lanes are bit-identical to the scalar window kernel:
    /// same distances, same stored bitvectors, same traceback walks —
    /// across mixed window sizes, ragged lane counts (1..=4 of 4), and
    /// early-terminating lanes (k budgets that may be exhausted).
    #[test]
    fn lockstep_lanes_match_scalar_window_dc(
        windows in proptest::collection::vec(
            (dna_seq(64), dna_seq(64), 0usize..66),
            1..=4,
        ),
    ) {
        let mut arena = MultiDcArena::<4>::new();
        let lanes: Vec<MultiLane> = windows
            .iter()
            .map(|(t, p, k)| MultiLane { text: t, pattern: p, k_max: *k })
            .collect();
        window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
        for (l, (t, p, k)) in windows.iter().enumerate() {
            let scalar = window_dc::<Dna>(t, p, *k).unwrap();
            prop_assert_eq!(&Ok(scalar.edit_distance), &arena.outcomes()[l], "lane {}", l);
            let view = arena.lane(l);
            prop_assert_eq!(view.rows(), scalar.bitvectors.rows(), "lane {}", l);
            for d in 0..view.rows() {
                for i in 0..t.len() {
                    prop_assert_eq!(view.match_at(i, d), scalar.bitvectors.match_at(i, d));
                    prop_assert_eq!(view.ins_at(i, d), scalar.bitvectors.ins_at(i, d));
                    prop_assert_eq!(view.del_at(i, d), scalar.bitvectors.del_at(i, d));
                }
            }
            if let Some(d) = scalar.edit_distance {
                let walk_scalar = window_traceback(
                    &scalar.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                let walk_lane = window_traceback(
                    &view, d, usize::MAX, &TracebackOrder::affine()).unwrap();
                prop_assert_eq!(walk_scalar.ops, walk_lane.ops, "lane {}", l);
            }
        }
        // Distance-only mode reports the identical distances.
        let mut fast = MultiDcArena::<4>::new();
        window_dc_multi_distance_into::<Dna, 4>(&lanes, &mut fast);
        prop_assert_eq!(arena.outcomes(), fast.outcomes());
    }

    /// Batched filter decisions equal scalar decisions pair by pair.
    #[test]
    fn filter_batches_match_scalar(
        pairs_in in proptest::collection::vec((dna_seq(90), dna_seq(70)), 1..=9),
        k in 0usize..8,
    ) {
        let filter = PreAlignmentFilter::new(k);
        let pairs: Vec<(&[u8], &[u8])> = pairs_in
            .iter()
            .map(|(t, p)| (t.as_slice(), p.as_slice()))
            .collect();
        let accepts = filter.accepts_many(&pairs);
        let decides = filter.decide_many(&pairs);
        for (idx, &(t, p)) in pairs.iter().enumerate() {
            prop_assert_eq!(&accepts[idx], &filter.accepts(t, p), "idx {}", idx);
            prop_assert_eq!(&decides[idx], &filter.decide(t, p), "idx {}", idx);
        }
    }

    /// Batched distance-only edit distances: exact (DP-equal) whenever
    /// the certified fast path engages, never above the full windowed
    /// path, and identical to it on fallback.
    #[test]
    fn distance_many_brackets_correctly(
        pairs_in in proptest::collection::vec((dna_seq(60), dna_seq(60)), 1..=6),
    ) {
        let calc = EditDistanceCalculator::default();
        let pairs: Vec<(&[u8], &[u8])> = pairs_in
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        let many = calc.distance_many(&pairs);
        for (idx, &(a, b)) in pairs.iter().enumerate() {
            let full = calc.distance(a, b).unwrap();
            let fast = *many[idx].as_ref().unwrap();
            let dp = nw_distance(a, b);
            let max = EditDistanceCalculator::SINGLE_WINDOW_MAX;
            if a.len() <= max && b.len() <= max && dp < EditDistanceCalculator::SENTINEL_PAD {
                prop_assert_eq!(fast, dp, "idx {} not exact", idx);
            } else {
                prop_assert_eq!(fast, full, "idx {} fallback mismatch", idx);
            }
            prop_assert!(dp <= fast && fast <= full, "idx {}: {} {} {}", idx, dp, fast, full);
        }
    }

    /// CIGAR string round-trips through parse/display.
    #[test]
    fn cigar_roundtrip((text, pattern) in read_pair(200)) {
        let aligner = GenAsmAligner::default();
        let a = aligner.align(&text, &pattern).unwrap();
        let s = a.cigar.to_string();
        let parsed: Cigar = s.parse().unwrap();
        prop_assert_eq!(parsed, a.cigar);
    }
}

// ---------------------------------------------------------------------
// The shared-text occurrence stream: lanes scanning their own pattern
// blocks over one text, two levels per pass, against the scalar ground
// truth. These tests carry no feature gates, so the same properties
// also run under `--no-default-features`, where the stream runs its
// portable pass.
// ---------------------------------------------------------------------

use genasm_core::dc::{occurrence_distance_into, DcArena, MAX_WINDOW};
use genasm_core::dc_multi::{STREAM_LANES, STREAM_LEVELS};
use genasm_core::error::AlignError;

/// One occurrence outcome, as the scalar kernel reports it.
type Occurrence = Result<Option<usize>, AlignError>;

/// Streams `scans` (pattern, budget) over `text` in submission order,
/// refilling each lane the moment it resolves, and returns the
/// per-scan outcomes plus the number of steps taken.
fn run_occurrence_stream(
    stream: &mut DcLaneStream,
    text: &[u8],
    scans: &[(Vec<u8>, usize)],
) -> (Vec<Occurrence>, u64) {
    let mut outcomes: Vec<Option<Occurrence>> = vec![None; scans.len()];
    let mut next = 0usize;
    let mut loaded = [usize::MAX; STREAM_LANES];
    stream.load_text::<Dna>(text);
    // Feeds `lane` until it holds a pending scan or the queue dries.
    let mut feed = |stream: &mut DcLaneStream,
                    lane: usize,
                    outcomes: &mut [Option<Occurrence>],
                    loaded: &mut [usize; STREAM_LANES]| {
        while next < scans.len() {
            let (p, k) = &scans[next];
            next += 1;
            match stream.refill_lane::<Dna>(lane, p, *k) {
                Ok(()) => {
                    loaded[lane] = next - 1;
                    return;
                }
                Err(e) => outcomes[next - 1] = Some(Err(e)),
            }
        }
    };
    for lane in 0..STREAM_LANES {
        feed(stream, lane, &mut outcomes, &mut loaded);
    }
    let mut resolved = Vec::new();
    let mut steps = 0u64;
    while stream.active_lanes() > 0 {
        resolved.clear();
        stream.step(&mut resolved);
        steps += 1;
        for &lane in &resolved {
            outcomes[loaded[lane]] = Some(Ok(stream.outcome(lane)));
            stream.release_lane(lane);
            feed(stream, lane, &mut outcomes, &mut loaded);
        }
    }
    (
        outcomes
            .into_iter()
            .map(|o| o.expect("every scan drains"))
            .collect(),
        steps,
    )
}

/// A text for the stream: DNA, sometimes empty, sometimes carrying an
/// invalid byte.
fn stream_text() -> impl Strategy<Value = Vec<u8>> {
    (dna_seq(160), 0usize..8, any::<usize>()).prop_map(|(mut text, kind, pos)| {
        match kind {
            0 => text.clear(),
            1 => {
                let len = text.len();
                text[pos % len] = b'N';
            }
            _ => {}
        }
        text
    })
}

/// A pattern block: DNA up to [`MAX_WINDOW`] characters, sometimes
/// empty, over-long, or carrying an invalid byte.
fn stream_block() -> impl Strategy<Value = Vec<u8>> {
    (dna_seq(MAX_WINDOW), 0usize..16, any::<usize>()).prop_map(|(mut block, kind, pos)| {
        match kind {
            0 => block.clear(),
            1 => block.resize(MAX_WINDOW + 1, b'A'),
            2 => {
                let len = block.len();
                block[pos % len] = b'n';
            }
            _ => {}
        }
        block
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The shared-text occurrence stream matches the scalar occurrence
    /// kernel scan for scan — distances, exhausted budgets, and input
    /// errors in the scalar precedence — and its row counters are
    /// analytic: `STREAM_LANES × STREAM_LEVELS` lane-levels issued per
    /// step, and one useful level per depth each scan needed (row 0
    /// included), so no scan ever runs past its resolving level. The
    /// budgets cross `k >= m`, so scans resolving at `d = m` (where
    /// every position hits) are exercised, and one stream serves every
    /// case, so texts of every length reuse its buffers.
    #[test]
    fn occurrence_stream_matches_scalar_on_shared_text(
        text in stream_text(),
        scans in proptest::collection::vec((stream_block(), 0usize..70), 1..=12),
    ) {
        thread_local! {
            static STREAM: std::cell::RefCell<DcLaneStream> =
                std::cell::RefCell::new(DcLaneStream::new());
        }
        let mut scalar_arena = DcArena::new();
        let scalar: Vec<Occurrence> = scans
            .iter()
            .map(|(p, k)| occurrence_distance_into::<Dna>(&text, p, *k, &mut scalar_arena))
            .collect();
        let useful: u64 = scans
            .iter()
            .zip(&scalar)
            .map(|((_, k), outcome)| match outcome {
                Ok(Some(d)) => *d as u64 + 1,
                Ok(None) => *k as u64 + 1,
                Err(_) => 0,
            })
            .sum();
        let (outcomes, steps, counters) = STREAM.with(|stream| {
            let stream = &mut *stream.borrow_mut();
            stream.take_row_counters();
            let (outcomes, steps) = run_occurrence_stream(stream, &text, &scans);
            (outcomes, steps, stream.take_row_counters())
        });
        prop_assert_eq!(&outcomes, &scalar);
        prop_assert_eq!(
            counters,
            (steps * (STREAM_LANES * STREAM_LEVELS) as u64, useful)
        );
    }
}

// ---------------------------------------------------------------------
// Escalating filter cascade: tier-0 soundness and tier-1 bound
// certification against the legacy scan and the DP ground truth.
// ---------------------------------------------------------------------

use genasm_core::cascade::{dna_codes_into, tier0_rejects, CascadePattern, Tier0Scratch};
use genasm_core::dc_wide::{
    occurrence_distance_lanes, OccurrenceLaneJob, OccurrenceLaneScratch, OCCURRENCE_LANES,
};
use genasm_core::pattern::PatternBitmasks;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Tier-0 of the cascade never rejects a pair the legacy filter
    /// accepts: a q-gram reject is a proof that no in-threshold
    /// occurrence exists, so the cascade's accept set stays exactly
    /// the legacy accept set.
    #[test]
    fn cascade_tier0_is_sound((text, pattern) in read_pair(200), k in 0usize..24) {
        let mut codes = Vec::new();
        prop_assert!(dna_codes_into(&text, &mut codes));
        let cp = CascadePattern::new(&pattern).unwrap();
        let mut scratch = Tier0Scratch::new();
        if bitap::matches_within::<Dna>(&text, &pattern, k).unwrap() {
            prop_assert!(
                !tier0_rejects(&codes, &cp, k, &mut scratch),
                "tier-0 rejected a legacy-accepted pair (m={} n={} k={})",
                pattern.len(), text.len(), k
            );
        }
    }

    /// Tier-1's occurrence distance is a certified bound: present iff
    /// the legacy scan accepts, equal to the legacy scan's best
    /// distance (the value the resolve stage would recompute — the
    /// `exact` claim), never above the semiglobal DP truth, and
    /// independent of how candidates are grouped into lanes. Pattern
    /// lengths cross the 64-character word boundary.
    #[test]
    fn cascade_tier1_bound_is_certified(
        pairs_in in proptest::collection::vec(read_pair(160), 1..=7),
        k in 0usize..24,
    ) {
        let patterns: Vec<CascadePattern> = pairs_in
            .iter()
            .map(|(_, p)| CascadePattern::new(p).unwrap())
            .collect();
        let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = pairs_in
            .iter()
            .zip(&patterns)
            .map(|((text, _), cp)| OccurrenceLaneJob { text, pattern: cp.masks(), k })
            .collect();
        let mut scratch = OccurrenceLaneScratch::new();
        let mut metrics = bitap::ScanMetrics::default();
        let batched = occurrence_distance_lanes::<Dna>(&jobs, &mut scratch, &mut metrics);
        for (idx, ((text, pattern), result)) in pairs_in.iter().zip(&batched).enumerate() {
            let bound = result.as_ref().expect("dna-only inputs scan cleanly");
            let legacy = bitap::find_best::<Dna>(text, pattern, k).unwrap();
            prop_assert_eq!(
                bound.is_some(),
                legacy.is_some(),
                "idx {}: accept sets differ (k={})", idx, k
            );
            if let (Some(d), Some(best)) = (bound, legacy) {
                prop_assert_eq!(*d, best.distance, "idx {}: bound is not exact", idx);
                let truth = semiglobal_distance(text, pattern);
                prop_assert!(*d <= truth, "idx {}: bound {} above truth {}", idx, d, truth);
            }
            // Grouping independence: a singleton scan agrees with the
            // batched lanes.
            let solo = occurrence_distance_lanes::<Dna>(
                &jobs[idx..idx + 1],
                &mut scratch,
                &mut bitap::ScanMetrics::default(),
            );
            prop_assert_eq!(solo[0].as_ref().unwrap(), bound, "idx {}: grouping changed the result", idx);
        }
        let lanes: Vec<Tier1Lane> = pairs_in.iter().map(|(t, p)| (t.clone(), p.clone(), k)).collect();
        prop_assert_eq!(
            (metrics.rows_issued, metrics.rows_useful),
            tier1_expected_rows(&lanes),
            "row counters differ from the analytic count"
        );
    }
}

/// One tier-1 candidate: `(text, pattern, k)`.
type Tier1Lane = (Vec<u8>, Vec<u8>, usize);

/// The `(rows_issued, rows_useful)` that
/// [`occurrence_distance_lanes`] must report for `lanes`, derived from
/// the scalar [`bitap::find_all`] alone. Lanes run in groups of
/// [`OCCURRENCE_LANES`]; a group runs one level per distance up to the
/// deepest level any loaded lane needs, and every level issues
/// `n_max × group width × words_max` slots, where `n_max` and
/// `words_max` cover every lane that passed the length checks (an
/// invalid-byte lane is measured, then never run). A lane resolving at
/// distance `d` is useful over `d` full levels plus its deciding level
/// down to the highest position that matches within `d`; a lane that
/// never resolves is useful over `min(k, m) + 1` full levels.
fn tier1_expected_rows(lanes: &[Tier1Lane]) -> (u64, u64) {
    let (mut issued, mut useful) = (0usize, 0usize);
    for group in lanes.chunks(OCCURRENCE_LANES) {
        let (mut n_max, mut words_max, mut levels) = (0usize, 0usize, 0usize);
        for (text, pattern, k) in group {
            if text.is_empty() {
                continue;
            }
            let (n, words) = (text.len(), pattern.len().div_ceil(64));
            n_max = n_max.max(n);
            words_max = words_max.max(words);
            let Ok(matches) = bitap::find_all::<Dna>(text, pattern, *k) else {
                continue;
            };
            let deepest = match matches.iter().map(|m| m.distance).min() {
                Some(best) => {
                    let decider = matches
                        .iter()
                        .filter(|m| m.distance == best)
                        .map(|m| m.position)
                        .max()
                        .expect("the best distance has a position");
                    useful += (best * n + (n - decider)) * words;
                    best
                }
                None => {
                    let k = (*k).min(pattern.len());
                    useful += (k + 1) * n * words;
                    k
                }
            };
            levels = levels.max(deepest + 1);
        }
        issued += levels * n_max * group.len() * words_max;
    }
    (issued as u64, useful as u64)
}

/// A tier-1 candidate drawn from `seed`: a pattern of `words` 64-bit
/// words' worth of characters (1..=1024), a text of uneven length —
/// a mutated copy of the pattern between random flanks, or unrelated
/// sequence — and a threshold. Half the one-word lanes get a short
/// pattern and a threshold past `m`; half of those get a text sharing
/// no symbol with the pattern, so the scan runs to the `d = m` level,
/// where every position hits. About one lane in eight has an empty
/// text and one in eight an invalid byte.
fn tier1_lane(words: usize, seed: u64) -> Tier1Lane {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let past_m = words == 1 && next(2) == 0;
    let m = if past_m {
        1 + next(24)
    } else {
        (words - 1) * 64 + 1 + next(64)
    };
    let disjoint = past_m && next(2) == 0;
    let pattern: Vec<u8> = (0..m)
        .map(|_| {
            if disjoint {
                b"AC"[next(2)]
            } else {
                b"ACGT"[next(4)]
            }
        })
        .collect();
    let k = if past_m { m + next(3) } else { next(25) };
    let kind = next(8);
    let mut text: Vec<u8> = match kind {
        0 => return (Vec::new(), pattern, k),
        _ if disjoint => (0..1 + next(m + 40)).map(|_| b"GT"[next(2)]).collect(),
        1 | 2 => (0..m / 2 + next(m + 40))
            .map(|_| b"ACGT"[next(4)])
            .collect(),
        _ => {
            let rate = next(9);
            let mut text: Vec<u8> = (0..next(40)).map(|_| b"ACGT"[next(4)]).collect();
            for &c in &pattern {
                match next(100) {
                    r if r < rate => text.push(b"ACGT"[next(4)]),
                    r if r < rate + rate / 2 => {}
                    r if r < 2 * rate => text.extend([c, b"ACGT"[next(4)]]),
                    _ => text.push(c),
                }
            }
            text.extend((0..next(40)).map(|_| b"ACGT"[next(4)]));
            text
        }
    };
    if text.is_empty() {
        text.push(b"ACGT"[next(4)]);
    }
    if kind == 7 {
        let at = next(text.len());
        text[at] = b'N';
    }
    (text, pattern, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tier-1 kernel over every pattern word count (1..=16) and
    /// group width, with mixed pattern lengths, uneven texts,
    /// thresholds past `m`, and error lanes among valid ones: each
    /// lane's outcome equals the scalar oracle's (`find_best`'s best
    /// distance, or the scalar scans' input error), grouping never
    /// changes it, and the row counters equal the analytic count.
    #[test]
    fn cascade_tier1_wide_mixed_groups_match_oracle_and_row_count(
        specs in proptest::collection::vec((1usize..=16, any::<u64>()), 1..=9),
    ) {
        let lanes: Vec<Tier1Lane> = specs.iter().map(|&(w, seed)| tier1_lane(w, seed)).collect();
        let masks: Vec<PatternBitmasks<Dna>> = lanes
            .iter()
            .map(|(_, p, _)| PatternBitmasks::new(p).unwrap())
            .collect();
        let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = lanes
            .iter()
            .zip(&masks)
            .map(|((text, _, k), pattern)| OccurrenceLaneJob { text, pattern, k: *k })
            .collect();
        let mut scratch = OccurrenceLaneScratch::new();
        let mut metrics = bitap::ScanMetrics::default();
        let batched = occurrence_distance_lanes::<Dna>(&jobs, &mut scratch, &mut metrics);
        for (idx, ((text, pattern, k), got)) in lanes.iter().zip(&batched).enumerate() {
            let want = if text.is_empty() {
                Err(AlignError::EmptyText)
            } else {
                bitap::find_best::<Dna>(text, pattern, *k).map(|best| best.map(|b| b.distance))
            };
            prop_assert_eq!(
                got, &want,
                "idx {}: m={} n={} k={}", idx, pattern.len(), text.len(), k
            );
            let solo = occurrence_distance_lanes::<Dna>(
                &jobs[idx..idx + 1],
                &mut scratch,
                &mut bitap::ScanMetrics::default(),
            );
            prop_assert_eq!(&solo[0], got, "idx {}: grouping changed the result", idx);
        }
        prop_assert_eq!(
            (metrics.rows_issued, metrics.rows_useful),
            tier1_expected_rows(&lanes),
            "row counters differ from the analytic count"
        );
    }
}
