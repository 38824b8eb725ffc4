//! Wide-window GenASM-DC: windows larger than the 64-bit machine word.
//!
//! The paper's evaluated configuration uses `W = 64` so every bitvector
//! fits one PE word, but `W` is an architectural parameter — a wider
//! window trades TB-SRAM capacity and per-window cycles for accuracy
//! on long indels (§6's divide-and-conquer analysis is parameterized
//! by `W` throughout). This module implements the window kernel for
//! arbitrary `W` using multi-word bitvectors ([`BitVector`], the same
//! §5 "Long Read Support" machinery as multi-word Bitap), storing the
//! match/insertion/deletion bitvectors per `(text iteration, distance)`
//! for the traceback walk.
//!
//! The wide kernel is exercised through
//! [`GenAsmConfig`](crate::align::GenAsmConfig) by setting
//! `window > 64`; results agree bit-for-bit with the single-word kernel
//! wherever both apply (see the equivalence tests).

use crate::alphabet::Alphabet;
use crate::bitap::ScanMetrics;
use crate::bitvec::BitVector;
use crate::error::AlignError;
use crate::pattern::PatternBitmasks;
use crate::tb::TracebackSource;

/// Upper bound on the wide-kernel window size (keeps per-window memory
/// `W² · 3 · W` bits within tens of megabytes).
pub const MAX_WIDE_WINDOW: usize = 1024;

/// Intermediate bitvectors of one wide window.
#[derive(Debug, Clone, Default)]
pub struct WideWindowBitvectors {
    pattern_len: usize,
    text_len: usize,
    match_rows: Vec<Vec<BitVector>>,
    ins_rows: Vec<Vec<BitVector>>,
    del_rows: Vec<Vec<BitVector>>,
}

impl WideWindowBitvectors {
    /// Number of distance rows stored.
    pub fn rows(&self) -> usize {
        self.match_rows.len()
    }

    /// Number of 64-bit words written for this window (TB-SRAM traffic
    /// of the hypothetical wide configuration).
    pub fn stored_words(&self) -> usize {
        let words = self.pattern_len.div_ceil(64);
        let gap_rows = self.rows().saturating_sub(1);
        self.text_len * words * (1 + 3 * gap_rows)
    }
}

impl TracebackSource for WideWindowBitvectors {
    fn pattern_len(&self) -> usize {
        self.pattern_len
    }

    fn text_len(&self) -> usize {
        self.text_len
    }

    fn stored_words(&self) -> usize {
        WideWindowBitvectors::stored_words(self)
    }

    fn match_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        !self.match_rows[d][i].bit(bit)
    }

    fn ins_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        // Gap rows exist only for d >= 1 and are stored at index d - 1.
        d > 0 && !self.ins_rows[d - 1][i].bit(bit)
    }

    fn del_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        d > 0 && !self.del_rows[d - 1][i].bit(bit)
    }

    fn subs_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        // Substitution = deletion << 1: bit `b` of the shifted vector
        // is bit `b - 1` of the stored deletion vector; bit 0 is the
        // shifted-in 0 (substituting the last pattern character is
        // always a valid chain start).
        d > 0 && (bit == 0 || !self.del_rows[d - 1][i].bit(bit - 1))
    }
}

/// Outcome of the wide-window DC kernel.
#[derive(Debug, Clone)]
pub struct WideDcWindow {
    /// Minimum anchored window distance, `None` if over `k_max`.
    pub edit_distance: Option<usize>,
    /// Stored bitvectors for traceback.
    pub bitvectors: WideWindowBitvectors,
}

/// Reusable storage for wide-window GenASM-DC runs: the multi-word
/// analogue of [`DcArena`](crate::dc::DcArena). Row vectors (and the
/// [`BitVector`]s inside them) are recycled between windows, so a
/// warmed-up arena performs no per-cell allocation — only the handful
/// of per-row boundary vectors are rebuilt.
#[derive(Debug, Default)]
pub struct WideArena {
    bitvectors: WideWindowBitvectors,
    /// Retired rows available for reuse.
    spare: Vec<Vec<BitVector>>,
    /// The rolling `R[d-1]` / `R[d]` scratch rows.
    prev_row: Vec<BitVector>,
    cur_row: Vec<BitVector>,
    /// Flat word-array rolling rows of the distance-only scan
    /// (`n × words` u64s each) — the scan's only storage.
    dist_prev: Vec<u64>,
    dist_cur: Vec<u64>,
}

impl WideArena {
    /// An empty arena; buffers are grown on first use.
    pub fn new() -> Self {
        WideArena::default()
    }

    /// The bitvectors of the most recent [`window_dc_wide_into`] run.
    pub fn bitvectors(&self) -> &WideWindowBitvectors {
        &self.bitvectors
    }

    /// Consumes the arena, keeping the last run's bitvectors.
    pub fn into_bitvectors(self) -> WideWindowBitvectors {
        self.bitvectors
    }

    /// Rows (live plus pooled) currently retained — exposed so tests
    /// can assert reuse across runs.
    pub fn retained_rows(&self) -> usize {
        self.bitvectors.match_rows.len()
            + self.bitvectors.ins_rows.len()
            + self.bitvectors.del_rows.len()
            + self.spare.len()
    }

    /// Moves the previous run's rows into the spare pool.
    fn recycle(&mut self) {
        for rows in [
            &mut self.bitvectors.match_rows,
            &mut self.bitvectors.ins_rows,
            &mut self.bitvectors.del_rows,
        ] {
            self.spare.extend(rows.drain(..).filter(|r| !r.is_empty()));
        }
    }

    /// A row of `n` bitvectors of width `m` whose every entry will be
    /// overwritten by the kernel: pooled rows are reshaped in place,
    /// reallocating an entry only when its width changed.
    fn fresh_row(&mut self, n: usize, m: usize) -> Vec<BitVector> {
        let mut row = self.spare.pop().unwrap_or_default();
        Self::reshape(&mut row, n, m);
        row
    }

    fn reshape(row: &mut Vec<BitVector>, n: usize, m: usize) {
        row.truncate(n);
        for bv in row.iter_mut() {
            if bv.len() != m {
                *bv = BitVector::zeros(m);
            }
        }
        while row.len() < n {
            row.push(BitVector::zeros(m));
        }
    }
}

/// Runs GenASM-DC on one window of arbitrary width (up to
/// [`MAX_WIDE_WINDOW`]), anchored at the start of `text`.
///
/// # Errors
///
/// Same conditions as [`window_dc`](crate::dc::window_dc), with the
/// size limit raised to [`MAX_WIDE_WINDOW`].
pub fn window_dc_wide<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
) -> Result<WideDcWindow, AlignError> {
    let mut arena = WideArena::new();
    let edit_distance = window_dc_wide_into::<A>(text, pattern, k_max, &mut arena)?;
    Ok(WideDcWindow {
        edit_distance,
        bitvectors: arena.into_bitvectors(),
    })
}

/// [`window_dc_wide`] writing into a reusable [`WideArena`]: identical
/// computation and stored bitvectors, with row storage recycled from
/// previous runs (closing the ROADMAP item that had the wide kernel
/// allocating per window).
///
/// # Errors
///
/// Same conditions as [`window_dc_wide`].
pub fn window_dc_wide_into<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut WideArena,
) -> Result<Option<usize>, AlignError> {
    if pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    if text.is_empty() {
        return Err(AlignError::EmptyText);
    }
    if pattern.len() > MAX_WIDE_WINDOW {
        return Err(AlignError::InvalidWindow { w: pattern.len() });
    }
    let pm = PatternBitmasks::<A>::new(pattern)?;
    let m = pattern.len();
    let n = text.len();

    let mut text_pm: Vec<&BitVector> = Vec::with_capacity(n);
    for (i, &byte) in text.iter().enumerate() {
        match pm.mask(byte) {
            Some(mask) => text_pm.push(mask),
            None => return Err(AlignError::InvalidSymbol { pos: i, byte }),
        }
    }

    arena.recycle();
    arena.bitvectors.pattern_len = m;
    arena.bitvectors.text_len = n;
    WideArena::reshape(&mut arena.prev_row, n, m);
    WideArena::reshape(&mut arena.cur_row, n, m);

    // Row 0.
    {
        let mut row0 = arena.fresh_row(n, m);
        let mut r = BitVector::ones(m);
        for i in (0..n).rev() {
            r.shl1_or_into(text_pm[i], &mut row0[i]);
            r.copy_from(&row0[i]);
            arena.prev_row[i].copy_from(&row0[i]);
        }
        arena.bitvectors.match_rows.push(row0);
    }
    let mut edit_distance = if !arena.prev_row[0].msb() {
        Some(0)
    } else {
        None
    };

    if edit_distance.is_none() {
        let mut scratch = BitVector::zeros(m);
        for d in 1..=k_max {
            let init_d = BitVector::ones_shl(m, d);
            let init_dm1 = BitVector::ones_shl(m, d - 1);
            let mut match_row = arena.fresh_row(n, m);
            let mut ins_row = arena.fresh_row(n, m);
            let mut del_row = arena.fresh_row(n, m);
            for i in (0..n).rev() {
                let old_r_dm1 = if i + 1 < n {
                    &arena.prev_row[i + 1]
                } else {
                    &init_dm1
                };
                // R[d][i+1] was just written at i + 1 (boundary at n).
                let (head, tail) = arena.cur_row.split_at_mut(i + 1);
                let r_next: &BitVector = tail.first().unwrap_or(&init_d);
                // match = (oldR[d] << 1) | PM
                r_next.shl1_or_into(text_pm[i], &mut match_row[i]);
                // insertion = R[d-1][i] << 1
                arena.prev_row[i].shl1_into(&mut ins_row[i]);
                // deletion = oldR[d-1], unshifted
                del_row[i].copy_from(old_r_dm1);
                // R[d] = M & I & S & D
                let r = &mut head[i];
                r.copy_from(&match_row[i]);
                r.and_assign(&ins_row[i]);
                old_r_dm1.shl1_into(&mut scratch); // substitution
                r.and_assign(&scratch);
                r.and_assign(old_r_dm1);
            }
            arena.bitvectors.match_rows.push(match_row);
            arena.bitvectors.ins_rows.push(ins_row);
            arena.bitvectors.del_rows.push(del_row);
            std::mem::swap(&mut arena.prev_row, &mut arena.cur_row);
            if !arena.prev_row[0].msb() {
                edit_distance = Some(d);
                break;
            }
        }
    }

    Ok(edit_distance)
}

/// The multi-word boundary state `ones << d` over `m` pattern bits,
/// evaluated per word: word `w` covers bits `64w .. 64w + 63`. Bits at
/// or above `m` are left set — the recurrence only ever shifts upward
/// and ANDs, so they can never influence a bit below `m`.
#[inline]
fn boundary_word(d: usize, w: usize) -> u64 {
    let lo = w * 64;
    if d >= lo + 64 {
        0
    } else if d <= lo {
        u64::MAX
    } else {
        u64::MAX << (d - lo)
    }
}

/// Distance-only wide-window GenASM-DC: the identical recurrence and
/// edit distance as [`window_dc_wide_into`], but no intermediate
/// bitvectors are stored — only two rolling rows of flat `u64` words
/// live, and each recurrence cell is one fused pass (shift-with-carry
/// plus ANDs) instead of per-[`BitVector`] operations. This completes
/// the distance-only mode across the window kernels (the multi-word
/// arm of [`anchored_distance_into`](crate::align::anchored_distance_into),
/// the exact whole-pattern anchored bound) for callers that need the
/// tight anchored distance without TB-SRAM writes; the two-phase
/// mapper's phase 1 instead runs the cheaper block-decomposed
/// [`block_occurrence_distance_into`](crate::align::block_occurrence_distance_into)
/// over single-word blocks. After a distance-only run the arena's
/// stored bitvectors are empty.
///
/// # Errors
///
/// Same conditions as [`window_dc_wide`].
pub fn window_dc_wide_distance_into<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut WideArena,
) -> Result<Option<usize>, AlignError> {
    if pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    if text.is_empty() {
        return Err(AlignError::EmptyText);
    }
    if pattern.len() > MAX_WIDE_WINDOW {
        return Err(AlignError::InvalidWindow { w: pattern.len() });
    }
    let pm = PatternBitmasks::<A>::new(pattern)?;
    let m = pattern.len();
    let n = text.len();
    let words = m.div_ceil(64);
    let msb_word = (m - 1) / 64;
    let msb_bit = (m - 1) % 64;

    let mut text_pm: Vec<&[u64]> = Vec::with_capacity(n);
    for (i, &byte) in text.iter().enumerate() {
        match pm.mask(byte) {
            Some(mask) => text_pm.push(mask.as_words()),
            None => return Err(AlignError::InvalidSymbol { pos: i, byte }),
        }
    }

    arena.recycle();
    arena.bitvectors.pattern_len = m;
    arena.bitvectors.text_len = n;
    arena.dist_prev.clear();
    arena.dist_prev.resize(n * words, 0);
    arena.dist_cur.clear();
    arena.dist_cur.resize(n * words, 0);
    let prev = &mut arena.dist_prev;
    let cur = &mut arena.dist_cur;

    // Row 0: R[0][i] = (R[0][i+1] << 1) | PM, boundary all-ones at n.
    {
        let mut r = vec![u64::MAX; words];
        for i in (0..n).rev() {
            let pm_i = text_pm[i];
            let mut carry = 0u64;
            for w in 0..words {
                let shifted = (r[w] << 1) | carry;
                carry = r[w] >> 63;
                r[w] = shifted | pm_i[w];
            }
            prev[i * words..(i + 1) * words].copy_from_slice(&r);
        }
    }
    if prev[msb_word] >> msb_bit & 1 == 0 {
        return Ok(Some(0));
    }

    for d in 1..=k_max {
        for i in (0..n).rev() {
            let pm_i = text_pm[i];
            // The cell's neighbours: oldR[d-1][i+1] (deletion,
            // unshifted) from `prev` and R[d][i+1] (just written) from
            // `cur`, both replaced by boundary states at i = n - 1.
            let next = (i + 1 < n).then_some((i + 1) * words);
            // Fused pass: every component's shift-with-carry and the
            // AND chain in one word loop.
            let mut del_carry = 0u64;
            let mut ins_carry = 0u64;
            let mut mat_carry = 0u64;
            for w in 0..words {
                let del = match next {
                    Some(base) => prev[base + w],
                    None => boundary_word(d - 1, w),
                };
                let ins_src = prev[i * words + w];
                let rn = match next {
                    Some(base) => cur[base + w],
                    None => boundary_word(d, w),
                };
                let sub = (del << 1) | del_carry;
                del_carry = del >> 63;
                let ins = (ins_src << 1) | ins_carry;
                ins_carry = ins_src >> 63;
                let mat = (rn << 1) | mat_carry | pm_i[w];
                mat_carry = rn >> 63;
                cur[i * words + w] = del & sub & ins & mat;
            }
        }
        std::mem::swap(prev, cur);
        if prev[msb_word] >> msb_bit & 1 == 0 {
            return Ok(Some(d));
        }
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Lock-step multi-word occurrence scan (filter-cascade tier 1)
// ---------------------------------------------------------------------

/// Lanes of the lock-step occurrence scan — matching the
/// [`bitap`](crate::bitap) batch scans' lane count so one pass of the
/// word loop advances four independent candidates.
pub const OCCURRENCE_LANES: usize = 4;

/// One candidate of the lock-step occurrence scan: a text window and a
/// pre-built pattern (shared across every candidate of one oriented
/// read via [`CascadePattern`](crate::cascade::CascadePattern)).
#[derive(Debug, Clone, Copy)]
pub struct OccurrenceLaneJob<'a, A: Alphabet> {
    /// The candidate window.
    pub text: &'a [u8],
    /// The pattern's per-symbol bitmasks.
    pub pattern: &'a PatternBitmasks<A>,
    /// Distance threshold (clamped to the pattern length, like the
    /// legacy filter's threshold clamp).
    pub k: usize,
}

/// Reusable row and gathered-text-mask buffers of
/// [`occurrence_distance_lanes`]; grown on first use, recycled across
/// groups and calls, so a warmed-up scratch allocates nothing per
/// group.
#[derive(Debug, Default)]
pub struct OccurrenceLaneScratch {
    /// The current level's row, lane-interleaved: each level is
    /// computed in place over the previous one.
    rows: Vec<u64>,
    /// Pattern-mask words per text position, lane-interleaved.
    text_pm: Vec<u64>,
}

impl OccurrenceLaneScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        OccurrenceLaneScratch::default()
    }
}

/// Per-lane bookkeeping of one lock-step group.
#[derive(Debug, Clone, Copy, Default)]
struct OccurrenceLane {
    loaded: bool,
    decided: bool,
    n: usize,
    words: usize,
    k: usize,
    msb_word: usize,
    msb_bit: u32,
}

/// Iterative-deepening *occurrence* distance over a batch of
/// candidates, up to [`OCCURRENCE_LANES`] multi-word scans in lock
/// step: the distance-only recurrence of
/// [`window_dc_wide_distance_into`] with the row-0 sentinel probed at
/// **every** text position instead of only position 0, which turns
/// the anchored window distance into the Bitap occurrence distance —
/// `Ok(Some(d))` is the smallest `d` at which any occurrence of the
/// pattern ends in the text, exactly
/// [`find_best`](crate::bitap::find_best)'s best distance, and
/// `Ok(Some(d)).is_some() == matches_within(text, pattern, k)`.
/// Levels escalate one at a time, so a candidate resolving at
/// distance `d` pays `d + 1` recurrence rows instead of the flat
/// filter's `k + 1` — the cascade's tier-1 saving.
///
/// Each group runs one monomorphized kernel instance: the pattern
/// word count (the group's widest pattern, `1..=16` up to
/// [`MAX_WIDE_WINDOW`]) and the group width (`1..=4`) are compile-time
/// constants, so every row cell is a fixed-size array the compiler
/// keeps in registers. A level's hit test is a per-lane AND
/// accumulator over its pattern's top word; only on a level where the
/// accumulator shows a hit does one locate pass find the highest
/// hit position (see `occurrence_kernel`).
///
/// Row-slot accounting follows the
/// [`ScanMetrics`](crate::bitap::ScanMetrics) convention: every
/// `(level, text position)` step issues one slot per lane per pattern
/// word. The lane width is the *group* width, not a constant — a
/// partial trailing group executes (and is charged) only as many
/// lanes as it holds, so per-read candidate lists shorter than
/// [`OCCURRENCE_LANES`] pay no phantom-lane padding. A slot is useful
/// when its lane held a loaded, still-undecided candidate at a real
/// text position (`words` of the lane's own pattern), up to and
/// including the position that decides it. Error candidates
/// contribute nothing.
///
/// Per-candidate results — including error cases — are independent of
/// how candidates are grouped into lanes.
pub fn occurrence_distance_lanes<A: Alphabet>(
    jobs: &[OccurrenceLaneJob<'_, A>],
    scratch: &mut OccurrenceLaneScratch,
    metrics: &mut ScanMetrics,
) -> Vec<Result<Option<usize>, AlignError>> {
    let mut results: Vec<Option<Result<Option<usize>, AlignError>>> = vec![None; jobs.len()];
    for (group_start, group) in jobs.chunks(OCCURRENCE_LANES).enumerate() {
        occurrence_group::<A>(
            group,
            &mut results[group_start * OCCURRENCE_LANES..],
            scratch,
            metrics,
        );
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every job is scanned exactly once"))
        .collect()
}

/// One lock-step group of [`occurrence_distance_lanes`]: validates and
/// gathers the lanes, then dispatches to the kernel instance for the
/// group's word count and width.
fn occurrence_group<A: Alphabet>(
    group: &[OccurrenceLaneJob<'_, A>],
    results: &mut [Option<Result<Option<usize>, AlignError>>],
    scratch: &mut OccurrenceLaneScratch,
    metrics: &mut ScanMetrics,
) {
    let mut lanes = [OccurrenceLane::default(); OCCURRENCE_LANES];

    // Validate and measure. Error lanes resolve immediately and stay
    // unloaded; their slots idle on all-ones padding.
    let mut n_max = 0usize;
    let mut words_max = 0usize;
    for (lane, job) in group.iter().enumerate() {
        let m = job.pattern.len();
        if m == 0 {
            results[lane] = Some(Err(AlignError::EmptyPattern));
            continue;
        }
        if m > MAX_WIDE_WINDOW {
            results[lane] = Some(Err(AlignError::InvalidWindow { w: m }));
            continue;
        }
        if job.text.is_empty() {
            results[lane] = Some(Err(AlignError::EmptyText));
            continue;
        }
        lanes[lane] = OccurrenceLane {
            loaded: true,
            decided: false,
            n: job.text.len(),
            words: m.div_ceil(64),
            k: job.k.min(m),
            msb_word: (m - 1) / 64,
            msb_bit: ((m - 1) % 64) as u32,
        };
        n_max = n_max.max(job.text.len());
        words_max = words_max.max(m.div_ceil(64));
    }

    // Gather text masks into lane-interleaved words: position `i`,
    // word `w`, lane `l` at `(i * words_max + w) * glen + l`. Unloaded
    // slots, positions past a lane's text, and words past a lane's
    // pattern keep the all-ones match-nothing mask: the recurrence
    // then holds such cells at the `ones << d` boundary state (shifts
    // only move bits upward and every combine is an AND), so padding
    // is inert. A lane that hits an invalid byte is unloaded; its
    // partial gather is harmless because lanes never mix.
    let glen = group.len();
    let stride = words_max * glen;
    scratch.text_pm.clear();
    scratch.text_pm.resize(n_max * stride, u64::MAX);
    for (lane, job) in group.iter().enumerate() {
        if !lanes[lane].loaded {
            continue;
        }
        let cells = scratch.text_pm.chunks_exact_mut(stride);
        for (i, (cell, &byte)) in cells.zip(job.text).enumerate() {
            let Some(mask) = job.pattern.mask(byte) else {
                results[lane] = Some(Err(AlignError::InvalidSymbol { pos: i, byte }));
                lanes[lane].loaded = false;
                break;
            };
            for (slot, &word) in cell[lane..].iter_mut().step_by(glen).zip(mask.as_words()) {
                *slot = word;
            }
        }
    }
    if !lanes.iter().any(|l| l.loaded) {
        return;
    }

    macro_rules! kernel_for_width {
        ($w:literal) => {
            match glen {
                1 => occurrence_kernel::<$w, 1>(n_max, &mut lanes, results, scratch, metrics),
                2 => occurrence_kernel::<$w, 2>(n_max, &mut lanes, results, scratch, metrics),
                3 => occurrence_kernel::<$w, 3>(n_max, &mut lanes, results, scratch, metrics),
                _ => occurrence_kernel::<$w, 4>(n_max, &mut lanes, results, scratch, metrics),
            }
        };
    }
    const _: () = assert!(OCCURRENCE_LANES == 4 && MAX_WIDE_WINDOW == 16 * 64);
    match words_max {
        1 => kernel_for_width!(1),
        2 => kernel_for_width!(2),
        3 => kernel_for_width!(3),
        4 => kernel_for_width!(4),
        5 => kernel_for_width!(5),
        6 => kernel_for_width!(6),
        7 => kernel_for_width!(7),
        8 => kernel_for_width!(8),
        9 => kernel_for_width!(9),
        10 => kernel_for_width!(10),
        11 => kernel_for_width!(11),
        12 => kernel_for_width!(12),
        13 => kernel_for_width!(13),
        14 => kernel_for_width!(14),
        15 => kernel_for_width!(15),
        _ => kernel_for_width!(16),
    }
}

/// One row cell: word `w` of lane `l` at `[w][l]`.
type Cell<const W: usize, const L: usize> = [[u64; L]; W];

/// Loads one position's cell from a lane-interleaved buffer.
#[inline(always)]
fn load_cell<const W: usize, const L: usize>(words: &[u64]) -> Cell<W, L> {
    std::array::from_fn(|w| std::array::from_fn(|l| words[w * L + l]))
}

/// Stores one position's cell into a lane-interleaved buffer.
#[inline(always)]
fn store_cell<const W: usize, const L: usize>(cell: &Cell<W, L>, words: &mut [u64]) {
    for (w, lanes) in cell.iter().enumerate() {
        words[w * L..(w + 1) * L].copy_from_slice(lanes);
    }
}

/// Every lane's multi-word value shifted left by one bit, carrying
/// each word's top bit into the next word up.
#[inline(always)]
fn shl1_cell<const W: usize, const L: usize>(x: &Cell<W, L>) -> Cell<W, L> {
    std::array::from_fn(|w| {
        std::array::from_fn(|l| {
            let carry = if w == 0 { 0 } else { x[w - 1][l] >> 63 };
            (x[w][l] << 1) | carry
        })
    })
}

/// The row and text-mask cells of every position, last position
/// first (the recurrence's direction).
#[inline(always)]
fn positions<'a>(
    rows: &'a mut [u64],
    text_pm: &'a [u64],
    stride: usize,
) -> impl Iterator<Item = (&'a mut [u64], &'a [u64])> {
    rows.chunks_exact_mut(stride)
        .rev()
        .zip(text_pm.chunks_exact(stride).rev())
}

/// The boundary state `ones << d` of every lane (see [`boundary_word`]).
#[inline(always)]
fn boundary_cell<const W: usize, const L: usize>(d: usize) -> Cell<W, L> {
    std::array::from_fn(|w| [boundary_word(d, w); L])
}

/// The tier-1 kernel for `W` pattern words and `L` lanes: Bitap
/// iterative deepening, every level computed in place over the last.
///
/// Hit test: each level ANDs every position's top-word cell into a
/// per-lane accumulator. For a lane whose pattern reaches the top word
/// and `d < m`, the accumulator's pattern MSB is clear iff some real
/// position hit (padding positions idle at `ones << d`, whose MSB is
/// set below `m`); at `d = m` every position hits, and the locate pass
/// lands on the lane's last real position. A lane with a shorter
/// pattern than the group's widest has its MSB in a lower word, which
/// the accumulator does not see, so it is located on every level.
/// The locate pass scans the stored row down from the lane's last real
/// position and stops at the first hit — the same position the
/// per-position probe of a scalar scan would stop at, so `rows_useful`
/// stays exact.
#[inline(never)]
fn occurrence_kernel<const W: usize, const L: usize>(
    n_max: usize,
    lanes: &mut [OccurrenceLane; OCCURRENCE_LANES],
    results: &mut [Option<Result<Option<usize>, AlignError>>],
    scratch: &mut OccurrenceLaneScratch,
    metrics: &mut ScanMetrics,
) {
    let stride = W * L;
    let text_pm = &scratch.text_pm[..n_max * stride];
    // Row 0 overwrites every cell, so the buffer is only ever grown.
    if scratch.rows.len() < n_max * stride {
        scratch.rows.resize(n_max * stride, 0);
    }
    let rows = &mut scratch.rows[..n_max * stride];
    let k_rows = lanes[..L]
        .iter()
        .filter(|l| l.loaded)
        .map(|l| l.k)
        .max()
        .unwrap_or(0);

    for d in 0..=k_rows {
        if d > 0 {
            for (lane, state) in lanes[..L].iter_mut().enumerate() {
                if state.loaded && !state.decided && state.k < d {
                    results[lane] = Some(Ok(None));
                    state.decided = true;
                }
            }
            if lanes[..L].iter().all(|l| !l.loaded || l.decided) {
                return;
            }
        }

        let mut acc = [u64::MAX; L];
        if d == 0 {
            // R[0][i] = (R[0][i+1] << 1) | PM, all-ones boundary at n.
            let mut r: Cell<W, L> = [[u64::MAX; L]; W];
            for (row, pm) in positions(rows, text_pm, stride) {
                let pm = load_cell::<W, L>(pm);
                let shifted = shl1_cell(&r);
                r = std::array::from_fn(|w| std::array::from_fn(|l| shifted[w][l] | pm[w][l]));
                store_cell(&r, row);
                for l in 0..L {
                    acc[l] &= r[W - 1][l];
                }
            }
        } else {
            // R[d][i] = D & S & I & M over R[d-1] (the stored row, read
            // just before it is overwritten) and R[d][i+1] (`next`):
            //   deletion     D = R[d-1][i+1]
            //   substitution S = R[d-1][i+1] << 1
            //   insertion    I = R[d-1][i] << 1
            //   match        M = (R[d][i+1] << 1) | PM
            // Position i's insertion term is position i-1's
            // substitution term, so each cell shifts two inputs.
            let mut del: Cell<W, L> = boundary_cell(d - 1);
            let mut sub = shl1_cell(&del);
            let mut next: Cell<W, L> = boundary_cell(d);
            for (row, pm) in positions(rows, text_pm, stride) {
                let pm = load_cell::<W, L>(pm);
                let above = load_cell::<W, L>(row);
                let ins = shl1_cell(&above);
                let mat = shl1_cell(&next);
                next = std::array::from_fn(|w| {
                    std::array::from_fn(|l| {
                        del[w][l] & sub[w][l] & ins[w][l] & (mat[w][l] | pm[w][l])
                    })
                });
                store_cell(&next, row);
                for l in 0..L {
                    acc[l] &= next[W - 1][l];
                }
                del = above;
                sub = ins;
            }
        }
        metrics.rows_issued += (n_max * stride) as u64;

        for (lane, state) in lanes[..L].iter_mut().enumerate() {
            if !state.loaded || state.decided {
                continue;
            }
            let maybe_hit = state.msb_word != W - 1 || acc[lane] >> state.msb_bit & 1 == 0;
            let column = state.msb_word * L + lane;
            let hit = if maybe_hit {
                (0..state.n)
                    .rev()
                    .find(|&i| rows[i * stride + column] >> state.msb_bit & 1 == 0)
            } else {
                None
            };
            let scanned = hit.map_or(state.n, |i| state.n - i);
            metrics.rows_useful += (scanned * state.words) as u64;
            if hit.is_some() {
                results[lane] = Some(Ok(Some(d)));
                state.decided = true;
            }
        }
    }
    for (lane, state) in lanes[..L].iter_mut().enumerate() {
        if state.loaded && !state.decided {
            results[lane] = Some(Ok(None));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Dna;
    use crate::cigar::Cigar;
    use crate::dc::window_dc;
    use crate::tb::{window_traceback, TracebackOrder};

    fn dna(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    #[test]
    fn agrees_with_single_word_kernel_for_small_windows() {
        for seed in 1..6u64 {
            let text = dna(60, seed);
            let mut pattern = text.clone();
            pattern[20] = if pattern[20] == b'A' { b'C' } else { b'A' };
            pattern.remove(40);
            let narrow = window_dc::<Dna>(&text, &pattern, pattern.len()).unwrap();
            let wide = window_dc_wide::<Dna>(&text, &pattern, pattern.len()).unwrap();
            assert_eq!(narrow.edit_distance, wide.edit_distance, "seed={seed}");
            let d = narrow.edit_distance.unwrap();
            let tb_narrow =
                window_traceback(&narrow.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                    .unwrap();
            let tb_wide =
                window_traceback(&wide.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                    .unwrap();
            assert_eq!(tb_narrow.ops, tb_wide.ops, "seed={seed}");
        }
    }

    #[test]
    fn wide_window_handles_128_character_patterns() {
        let text = dna(140, 9);
        let mut pattern = text[..128].to_vec();
        pattern[60] = if pattern[60] == b'A' { b'G' } else { b'A' };
        pattern.insert(100, b'T');
        let dc = window_dc_wide::<Dna>(&text, &pattern, 16).unwrap();
        let d = dc.edit_distance.expect("alignment exists");
        assert_eq!(d, 2);
        let tb =
            window_traceback(&dc.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap();
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert!(cigar.validates(&text[..tb.text_consumed], &pattern));
        assert_eq!(cigar.edit_distance(), 2);
    }

    #[test]
    fn figure3_example_on_wide_kernel() {
        let dc = window_dc_wide::<Dna>(b"CGTGA", b"CTGA", 4).unwrap();
        assert_eq!(dc.edit_distance, Some(1));
        let tb =
            window_traceback(&dc.bitvectors, 1, usize::MAX, &TracebackOrder::affine()).unwrap();
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.to_string(), "1=1D3=");
    }

    #[test]
    fn arena_backed_wide_matches_owned_path_and_reuses_rows() {
        let mut arena = WideArena::new();
        let mut warmed = 0usize;
        for round in 0..3 {
            for seed in 1..8u64 {
                let text = dna(150, seed * 17);
                let mut pattern = text[..140].to_vec();
                let p = (seed as usize * 19) % 120;
                pattern[p] = if pattern[p] == b'A' { b'G' } else { b'A' };
                let owned = window_dc_wide::<Dna>(&text, &pattern, 20).unwrap();
                let reused = window_dc_wide_into::<Dna>(&text, &pattern, 20, &mut arena).unwrap();
                assert_eq!(owned.edit_distance, reused, "seed={seed}");
                let d = reused.unwrap();
                let walk_owned =
                    window_traceback(&owned.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                        .unwrap();
                let walk_arena =
                    window_traceback(arena.bitvectors(), d, usize::MAX, &TracebackOrder::affine())
                        .unwrap();
                assert_eq!(walk_owned.ops, walk_arena.ops, "seed={seed}");
                assert_eq!(
                    owned.bitvectors.stored_words(),
                    arena.bitvectors().stored_words()
                );
            }
            if round == 0 {
                warmed = arena.retained_rows();
            } else {
                assert_eq!(arena.retained_rows(), warmed, "warm rounds must not grow");
            }
        }
    }

    #[test]
    fn distance_only_matches_stored_kernel_and_interleaves_with_it() {
        let mut arena = WideArena::new();
        for seed in 1..12u64 {
            let text = dna(80 + (seed as usize * 29) % 300, seed * 3);
            let take = 60 + (seed as usize * 37) % (text.len() - 60);
            let mut pattern = text[..take].to_vec();
            for e in 0..(seed as usize % 5) {
                let idx = (e * 31 + 7) % pattern.len();
                pattern[idx] = if pattern[idx] == b'A' { b'T' } else { b'A' };
            }
            for k_max in [2usize, 8, pattern.len()] {
                let stored = window_dc_wide::<Dna>(&text, &pattern, k_max).unwrap();
                // Interleave distance-only and stored runs through one
                // arena so row recycling across modes is exercised.
                let distance =
                    window_dc_wide_distance_into::<Dna>(&text, &pattern, k_max, &mut arena)
                        .unwrap();
                assert_eq!(distance, stored.edit_distance, "seed={seed} k={k_max}");
                let restored =
                    window_dc_wide_into::<Dna>(&text, &pattern, k_max, &mut arena).unwrap();
                assert_eq!(restored, stored.edit_distance, "seed={seed} k={k_max}");
            }
        }
    }

    #[test]
    fn distance_only_rejects_bad_inputs_like_stored_kernel() {
        let mut arena = WideArena::new();
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(b"ACGT", b"", 1, &mut arena),
            Err(AlignError::EmptyPattern)
        ));
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(b"", b"ACGT", 1, &mut arena),
            Err(AlignError::EmptyText)
        ));
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(b"ACNT", b"ACGT", 1, &mut arena),
            Err(AlignError::InvalidSymbol { pos: 2, byte: b'N' })
        ));
        let big = vec![b'A'; MAX_WIDE_WINDOW + 1];
        assert!(matches!(
            window_dc_wide_distance_into::<Dna>(&big, &big, 1, &mut arena),
            Err(AlignError::InvalidWindow { .. })
        ));
    }

    #[test]
    fn rejects_oversized_window() {
        let big = vec![b'A'; MAX_WIDE_WINDOW + 1];
        assert!(matches!(
            window_dc_wide::<Dna>(&big, &big, 1),
            Err(AlignError::InvalidWindow { .. })
        ));
    }

    /// Builds a mixed bag of candidate windows for one pattern: true
    /// hits at varying distances plus random misses.
    fn occurrence_cases(m: usize, seed: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
        let reference = dna(600, seed);
        let pos = (seed as usize * 41) % (reference.len() - m - 40);
        let mut read = reference[pos..pos + m].to_vec();
        for e in 0..(seed as usize % 7) {
            let idx = (e * 23 + 11) % read.len();
            read[idx] = if read[idx] == b'A' { b'G' } else { b'A' };
        }
        let k = m * 15 / 100;
        let mut windows = Vec::new();
        // The true locus, a shifted near-miss, short windows, and
        // random windows.
        windows.push(reference[pos..(pos + m + k).min(reference.len())].to_vec());
        windows.push(reference[pos + 5..(pos + 5 + m + k).min(reference.len())].to_vec());
        windows.push(reference[pos..pos + m / 2].to_vec());
        for r in 0..4u64 {
            windows.push(dna(m + k, seed * 100 + r));
        }
        (read, windows)
    }

    #[test]
    fn occurrence_lanes_match_bitap_best_distance() {
        use crate::bitap::find_best;
        let mut scratch = OccurrenceLaneScratch::new();
        for m in [40usize, 100, 150, 200] {
            for seed in 1..8u64 {
                let (read, windows) = occurrence_cases(m, seed * 7 + m as u64);
                let k = m * 15 / 100;
                let pm = PatternBitmasks::<Dna>::new(&read).unwrap();
                let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = windows
                    .iter()
                    .map(|w| OccurrenceLaneJob {
                        text: w,
                        pattern: &pm,
                        k,
                    })
                    .collect();
                let mut metrics = ScanMetrics::default();
                let got = occurrence_distance_lanes::<Dna>(&jobs, &mut scratch, &mut metrics);
                for (win, outcome) in windows.iter().zip(&got) {
                    let want = find_best::<Dna>(win, &read, k)
                        .unwrap()
                        .map(|best| best.distance);
                    assert_eq!(
                        outcome.as_ref().unwrap(),
                        &want,
                        "m={m} seed={seed} window_len={}",
                        win.len()
                    );
                }
                assert!(metrics.rows_issued >= metrics.rows_useful);
                assert!(metrics.rows_useful > 0);
            }
        }
    }

    #[test]
    fn occurrence_lanes_cover_every_kernel_instance() {
        // Every (word count, group width) pair the dispatcher can pick:
        // lane `l` holds the pattern behind `l` random bases, with `l`
        // substitutions, so the lanes resolve at different levels.
        use crate::bitap::find_best;
        let mut scratch = OccurrenceLaneScratch::new();
        for words in 1..=MAX_WIDE_WINDOW / 64 {
            let m = words * 64 - 5 * (words % 3);
            for width in 1..=OCCURRENCE_LANES {
                let seed = (words * 8 + width) as u64;
                let read = dna(m, seed);
                let pm = PatternBitmasks::<Dna>::new(&read).unwrap();
                let windows: Vec<Vec<u8>> = (0..width)
                    .map(|lane| {
                        let mut window = dna(lane, seed * 3 + lane as u64);
                        let start = window.len();
                        window.extend_from_slice(&read);
                        for e in 0..lane {
                            let at = start + (e * 37 + 11) % m;
                            window[at] = if window[at] == b'A' { b'C' } else { b'A' };
                        }
                        window
                    })
                    .collect();
                let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = windows
                    .iter()
                    .map(|text| OccurrenceLaneJob {
                        text,
                        pattern: &pm,
                        k: 2,
                    })
                    .collect();
                let mut metrics = ScanMetrics::default();
                let got = occurrence_distance_lanes::<Dna>(&jobs, &mut scratch, &mut metrics);
                for (window, outcome) in windows.iter().zip(&got) {
                    let want = find_best::<Dna>(window, &read, 2)
                        .unwrap()
                        .map(|best| best.distance);
                    assert_eq!(outcome, &Ok(want), "words={words} width={width}");
                }
            }
        }
    }

    #[test]
    fn occurrence_lanes_are_grouping_independent() {
        let mut scratch = OccurrenceLaneScratch::new();
        let (read, windows) = occurrence_cases(150, 3);
        let pm = PatternBitmasks::<Dna>::new(&read).unwrap();
        let jobs: Vec<OccurrenceLaneJob<'_, Dna>> = windows
            .iter()
            .map(|w| OccurrenceLaneJob {
                text: w,
                pattern: &pm,
                k: 22,
            })
            .collect();
        let mut batched_metrics = ScanMetrics::default();
        let batched = occurrence_distance_lanes::<Dna>(&jobs, &mut scratch, &mut batched_metrics);
        for (job, want) in jobs.iter().zip(&batched) {
            let mut metrics = ScanMetrics::default();
            let solo = occurrence_distance_lanes::<Dna>(
                std::slice::from_ref(job),
                &mut scratch,
                &mut metrics,
            );
            assert_eq!(solo[0].as_ref().unwrap(), want.as_ref().unwrap());
        }
    }

    #[test]
    fn occurrence_lanes_report_errors_like_the_scalar_scans() {
        let mut scratch = OccurrenceLaneScratch::new();
        let pm = PatternBitmasks::<Dna>::new(b"ACGTACGT").unwrap();
        let jobs = [
            OccurrenceLaneJob::<'_, Dna> {
                text: b"",
                pattern: &pm,
                k: 2,
            },
            OccurrenceLaneJob::<'_, Dna> {
                text: b"ACGNACGT",
                pattern: &pm,
                k: 2,
            },
            OccurrenceLaneJob::<'_, Dna> {
                text: b"ACGTACGT",
                pattern: &pm,
                k: 2,
            },
        ];
        let mut metrics = ScanMetrics::default();
        let got = occurrence_distance_lanes::<Dna>(&jobs, &mut scratch, &mut metrics);
        assert!(matches!(got[0], Err(AlignError::EmptyText)));
        assert!(matches!(
            got[1],
            Err(AlignError::InvalidSymbol { pos: 3, byte: b'N' })
        ));
        assert_eq!(got[2], Ok(Some(0)));
    }

    #[test]
    fn occurrence_lane_accounting_shrinks_with_early_resolution() {
        // An exact hit resolves at level 0; a clean miss must escalate
        // through every level — the useful-row gap between them is the
        // cascade's tier-1 saving.
        let mut scratch = OccurrenceLaneScratch::new();
        let read = dna(150, 5);
        let pm = PatternBitmasks::<Dna>::new(&read).unwrap();
        let hit_window = read.clone();
        let miss_window = dna(172, 99);
        let mut hit_metrics = ScanMetrics::default();
        let hit_jobs = [OccurrenceLaneJob::<'_, Dna> {
            text: &hit_window,
            pattern: &pm,
            k: 22,
        }];
        let hit = occurrence_distance_lanes::<Dna>(&hit_jobs, &mut scratch, &mut hit_metrics);
        assert_eq!(hit[0], Ok(Some(0)));
        let mut miss_metrics = ScanMetrics::default();
        let miss_jobs = [OccurrenceLaneJob::<'_, Dna> {
            text: &miss_window,
            pattern: &pm,
            k: 22,
        }];
        let miss = occurrence_distance_lanes::<Dna>(&miss_jobs, &mut scratch, &mut miss_metrics);
        assert_eq!(miss[0], Ok(None));
        assert!(hit_metrics.rows_useful * 10 < miss_metrics.rows_useful);
    }

    #[test]
    fn stored_words_scale_with_width() {
        let text = dna(128, 3);
        let mut pattern = text.clone();
        pattern[64] = if pattern[64] == b'A' { b'C' } else { b'A' };
        let dc = window_dc_wide::<Dna>(&text, &pattern, 8).unwrap();
        // 2 words per bitvector at 128 bits.
        let rows = dc.bitvectors.rows();
        assert_eq!(dc.bitvectors.stored_words(), 128 * 2 * (1 + 3 * (rows - 1)));
    }
}
