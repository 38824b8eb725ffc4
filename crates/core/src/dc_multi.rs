//! Lock-step multi-window GenASM-DC: several *independent* windows per
//! recurrence step.
//!
//! The GenASM accelerator earns its throughput by keeping many
//! alignments in flight across 64 pipelined PEs (§7 of the paper); the
//! key enabler is the `T(i)–R(d)` dependency structure of the Bitap
//! recurrence (Figure 5), which leaves *different windows* completely
//! independent. This module is the software transliteration of that
//! observation: since `W <= 64` means every bitvector is one `u64`, a
//! struct-of-arrays `[u64; LANES]` layout lets one pass of the
//! distance-major loop advance `LANES` windows — gathered from
//! different jobs or reads — in lock step. The inner loop is written so
//! LLVM auto-vectorizes it (256-bit AVX2 covers four lanes per vector
//! op); an explicit `core::arch::x86_64` AVX2 path for the
//! distance-only recurrence is available behind the `lockstep-avx2`
//! feature flag.
//!
//! Two modes share one implementation:
//!
//! * **full** ([`window_dc_multi_into`]) stores the per-iteration
//!   match/insertion/deletion bitvectors exactly like the scalar
//!   [`window_dc_into`](crate::dc::window_dc_into); each lane's rows
//!   are readable through a [`LaneBitvectors`] view that plugs into
//!   [`window_traceback`](crate::tb::window_traceback). Results are
//!   **bit-identical** to the scalar kernel, lane by lane.
//! * **distance-only** ([`window_dc_multi_distance_into`]) keeps only
//!   the rolling `R` rows — the mode of the pre-alignment-filtering and
//!   edit-distance use cases (paper use cases 2–3), where traceback is
//!   never walked.
//!
//! Ragged lanes (windows of different text lengths, or fewer windows
//! than lanes) cost no branches: unused positions are padded with
//! all-ones pattern masks, under which the recurrence provably holds
//! every `R[d]` at its boundary state `ones << d`, i.e. padding lanes
//! idle at exactly the initialization the scalar kernel would use.
//! Per-lane early exit is tracked so a lane that resolves at distance
//! `d` stops being *read* — the lock-step trade-off is that its slots
//! keep computing until the deepest unresolved lane finishes, just as
//! idle PEs burn cycles in the hardware pipeline.
//!
//! The distance-only phase-1 scans run on a third shape instead: the
//! shared-text occurrence stream ([`DcLaneStream`]), whose lanes each
//! advance an unanchored scan of their own pattern block over one
//! shared text, at their own depth, two levels per text pass, and
//! refill the moment they resolve.

use crate::alphabet::Alphabet;
use crate::dc::{boundary_state, MAX_WINDOW};
use crate::error::AlignError;
use crate::pattern::PatternBitmasks64;
use crate::tb::{edge_store_words, TracebackSource};

/// Lane count the engine's window scheduler uses: four `u64` lanes fill
/// one 256-bit AVX2 vector, the widest unit ubiquitous on current x86
/// servers, and keep lock-step waste from divergent window distances
/// low.
pub const DEFAULT_LANES: usize = 4;

/// One window of a lock-step batch: the same inputs the scalar
/// [`window_dc`](crate::dc::window_dc) takes.
#[derive(Debug, Clone, Copy)]
pub struct MultiLane<'a> {
    /// Window sub-text, anchored at its first character.
    pub text: &'a [u8],
    /// Window sub-pattern (at most [`MAX_WINDOW`] characters).
    pub pattern: &'a [u8],
    /// Per-window distance-row budget.
    pub k_max: usize,
}

/// Per-lane bookkeeping of one lock-step run.
#[derive(Debug, Clone, Copy, Default)]
struct LaneMeta {
    n: usize,
    m: usize,
    msb: u64,
    k_max: usize,
    /// Distance rows this lane's traceback may read (`d_found + 1`, or
    /// `k_max + 1` when the budget was exhausted); 0 for error lanes.
    rows: usize,
}

/// Reusable struct-of-arrays storage for lock-step GenASM-DC runs: the
/// multi-lane analogue of [`DcArena`](crate::dc::DcArena). Row storage
/// is recycled between runs, so a warmed-up arena allocates nothing.
#[derive(Debug)]
pub struct MultiDcArena<const L: usize> {
    /// Pattern bitmask per text position, lane-interleaved; padding
    /// positions hold all-ones.
    text_pm: Vec<[u64; L]>,
    /// Rolling `R[d-1]` / `R[d]` rows.
    prev: Vec<[u64; L]>,
    cur: Vec<[u64; L]>,
    /// Stored rows (full mode only): match rows for `d = 0..rows`, gap
    /// rows for `d >= 1` at index `d - 1`, mirroring the scalar layout.
    match_rows: Vec<Vec<[u64; L]>>,
    ins_rows: Vec<Vec<[u64; L]>>,
    del_rows: Vec<Vec<[u64; L]>>,
    /// Retired rows available for reuse.
    spare: Vec<Vec<[u64; L]>>,
    meta: Vec<LaneMeta>,
    outcomes: Vec<Result<Option<usize>, AlignError>>,
    max_n: usize,
    /// Lock-step row-slot accounting across runs: slots computed
    /// (`L` per full-width row) vs slots that advanced a still
    /// unresolved window. See [`MultiDcArena::row_counters`].
    rows_issued: u64,
    rows_useful: u64,
}

impl<const L: usize> Default for MultiDcArena<L> {
    fn default() -> Self {
        MultiDcArena {
            text_pm: Vec::new(),
            prev: Vec::new(),
            cur: Vec::new(),
            match_rows: Vec::new(),
            ins_rows: Vec::new(),
            del_rows: Vec::new(),
            spare: Vec::new(),
            meta: Vec::new(),
            outcomes: Vec::new(),
            max_n: 0,
            rows_issued: 0,
            rows_useful: 0,
        }
    }
}

impl<const L: usize> MultiDcArena<L> {
    /// An empty arena; buffers are grown on first use.
    pub fn new() -> Self {
        MultiDcArena::default()
    }

    /// Per-lane outcomes of the most recent run, in input order: the
    /// window edit distance (`None` when the lane's `k_max` was
    /// exhausted), or the lane's input error.
    pub fn outcomes(&self) -> &[Result<Option<usize>, AlignError>] {
        &self.outcomes
    }

    /// The stored bitvectors of one lane of the most recent *full* run,
    /// as a traceback source. After a distance-only run the view is
    /// empty (zero rows).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not an input index of the last run.
    pub fn lane(&self, lane: usize) -> LaneBitvectors<'_, L> {
        assert!(
            lane < self.meta.len(),
            "lane {lane} was not part of the run"
        );
        LaneBitvectors { arena: self, lane }
    }

    /// Total `[u64; L]` row slots currently retained (live plus
    /// pooled) — exposed so tests can assert reuse across runs.
    pub fn retained_rows(&self) -> usize {
        self.match_rows.len() + self.ins_rows.len() + self.del_rows.len() + self.spare.len()
    }

    /// Returns and resets the lock-step row-slot accounting
    /// accumulated across runs: `(issued, useful)`, where every
    /// full-width lock-step row issues `L` lane-slots and a slot is
    /// useful when it advanced a window that was still unresolved (row
    /// 0 is useful for every valid lane). The gap between the two is
    /// the chunk-granularity waste: a pass runs until its deepest
    /// window resolves.
    pub fn take_row_counters(&mut self) -> (u64, u64) {
        let counters = (self.rows_issued, self.rows_useful);
        self.rows_issued = 0;
        self.rows_useful = 0;
        counters
    }

    fn recycle(&mut self) {
        for rows in [&mut self.match_rows, &mut self.ins_rows, &mut self.del_rows] {
            self.spare
                .extend(rows.drain(..).filter(|r| r.capacity() > 0));
        }
    }

    /// A row of `n` slots whose every entry the kernel overwrites
    /// before reading; pooled rows of the right length are handed back
    /// as-is (stale contents, never read) to skip the zero-fill.
    fn fresh_row(&mut self, n: usize) -> Vec<[u64; L]> {
        match self.spare.pop() {
            Some(mut row) => {
                if row.len() != n {
                    row.clear();
                    row.resize(n, [0u64; L]);
                }
                row
            }
            None => vec![[0u64; L]; n],
        }
    }
}

/// One lane of a [`MultiDcArena`] full-mode run, viewed exactly like
/// the scalar kernel's
/// [`WindowBitvectors`](crate::dc::WindowBitvectors): same indexing,
/// same derived substitution bitvector, same TB-SRAM word accounting —
/// so [`window_traceback`](crate::tb::window_traceback) walks are
/// bit-identical between the scalar and lock-step kernels.
#[derive(Debug, Clone, Copy)]
pub struct LaneBitvectors<'a, const L: usize> {
    arena: &'a MultiDcArena<L>,
    lane: usize,
}

impl<const L: usize> LaneBitvectors<'_, L> {
    /// Distance rows this lane stored (`d = 0..rows()`).
    pub fn rows(&self) -> usize {
        self.arena.meta[self.lane].rows
    }

    /// Match bitvector at text iteration `i`, distance `d`.
    pub fn match_at(&self, i: usize, d: usize) -> u64 {
        debug_assert!(d < self.rows() && i < self.text_len());
        self.arena.match_rows[d][i][self.lane]
    }

    /// Insertion bitvector at `(i, d)`; all-ones for `d = 0`.
    pub fn ins_at(&self, i: usize, d: usize) -> u64 {
        if d == 0 {
            u64::MAX
        } else {
            self.arena.ins_rows[d - 1][i][self.lane]
        }
    }

    /// Deletion bitvector at `(i, d)`; all-ones for `d = 0`.
    pub fn del_at(&self, i: usize, d: usize) -> u64 {
        if d == 0 {
            u64::MAX
        } else {
            self.arena.del_rows[d - 1][i][self.lane]
        }
    }
}

impl<const L: usize> TracebackSource for LaneBitvectors<'_, L> {
    fn pattern_len(&self) -> usize {
        self.arena.meta[self.lane].m
    }

    fn text_len(&self) -> usize {
        self.arena.meta[self.lane].n
    }

    fn stored_words(&self) -> usize {
        // Scalar-equivalent accounting for this lane's rows only:
        // slots the lock-step layout computed past this lane's early
        // exit are never read and are not TB-SRAM traffic in the
        // modeled hardware.
        edge_store_words(self.text_len(), self.rows())
    }

    fn match_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        (self.match_at(i, d) >> bit) & 1 == 0
    }

    fn ins_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        d > 0 && (self.ins_at(i, d) >> bit) & 1 == 0
    }

    fn del_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        d > 0 && (self.del_at(i, d) >> bit) & 1 == 0
    }

    fn subs_bit(&self, i: usize, d: usize, bit: usize) -> bool {
        d > 0 && ((self.del_at(i, d) << 1) >> bit) & 1 == 0
    }
}

/// Runs GenASM-DC on up to `L` independent windows in lock step,
/// storing each lane's intermediate bitvectors for traceback
/// (readable via [`MultiDcArena::lane`]; per-lane distances via
/// [`MultiDcArena::outcomes`]).
///
/// Lane results — distances, stored bitvectors, and input errors — are
/// bit-identical to running the scalar
/// [`window_dc_into`](crate::dc::window_dc_into) on each window
/// separately.
///
/// # Panics
///
/// Panics when `lanes` is empty or holds more than `L` windows.
pub fn window_dc_multi_into<A: Alphabet, const L: usize>(
    lanes: &[MultiLane<'_>],
    arena: &mut MultiDcArena<L>,
) {
    run_multi::<A, L, true>(lanes, arena);
}

/// Distance-only lock-step GenASM-DC: identical per-lane distances to
/// [`window_dc_multi_into`], but no bitvectors are stored — the mode
/// the filter and edit-distance use cases run, where traceback is never
/// walked.
///
/// # Panics
///
/// Panics when `lanes` is empty or holds more than `L` windows.
pub fn window_dc_multi_distance_into<A: Alphabet, const L: usize>(
    lanes: &[MultiLane<'_>],
    arena: &mut MultiDcArena<L>,
) {
    run_multi::<A, L, false>(lanes, arena);
}

// The resolution loops index several parallel per-lane arrays at once;
// a range loop is the clearest shape for that.
#[allow(clippy::needless_range_loop)]
fn run_multi<A: Alphabet, const L: usize, const STORE: bool>(
    lanes: &[MultiLane<'_>],
    arena: &mut MultiDcArena<L>,
) {
    assert!(
        !lanes.is_empty() && lanes.len() <= L,
        "lock-step batch must hold 1..={L} windows, got {}",
        lanes.len()
    );
    arena.recycle();
    arena.outcomes.clear();
    arena.meta.clear();

    // One pass per lane: validate, build the pattern bitmasks (stack
    // storage), and immediately resolve the lane's text-mask column.
    // Error lanes stay inert: their columns keep the all-ones padding
    // mask, under which the recurrence idles at the boundary state.
    let max_n = lanes.iter().map(|l| l.text.len()).max().unwrap_or(0);
    arena.max_n = max_n;
    arena.text_pm.clear();
    arena.text_pm.resize(max_n, [u64::MAX; L]);
    for (lane_idx, lane) in lanes.iter().enumerate() {
        let validated: Result<PatternBitmasks64<A>, AlignError> = if lane.pattern.is_empty() {
            Err(AlignError::EmptyPattern)
        } else if lane.text.is_empty() {
            Err(AlignError::EmptyText)
        } else if lane.pattern.len() > MAX_WINDOW {
            Err(AlignError::InvalidWindow {
                w: lane.pattern.len(),
            })
        } else {
            PatternBitmasks64::<A>::new(lane.pattern)
        };
        let resolved: Result<(), AlignError> = validated.and_then(|pm| {
            for (i, &byte) in lane.text.iter().enumerate() {
                match pm.mask(byte) {
                    Some(mask) => arena.text_pm[i][lane_idx] = mask,
                    None => {
                        // Same error the scalar kernel reports (first
                        // text position in ascending order); reset the
                        // column to padding so the lane stays inert.
                        for row in arena.text_pm.iter_mut().take(i) {
                            row[lane_idx] = u64::MAX;
                        }
                        return Err(AlignError::InvalidSymbol { pos: i, byte });
                    }
                }
            }
            Ok(())
        });
        match resolved {
            Ok(()) => {
                arena.meta.push(LaneMeta {
                    n: lane.text.len(),
                    m: lane.pattern.len(),
                    msb: 1u64 << (lane.pattern.len() - 1),
                    k_max: lane.k_max,
                    rows: 0,
                });
                arena.outcomes.push(Ok(None));
            }
            Err(e) => {
                arena.meta.push(LaneMeta::default());
                arena.outcomes.push(Err(e));
            }
        }
    }
    if arena.outcomes.iter().all(Result::is_err) {
        return; // every lane failed validation
    }

    // Row d = 0: R[0][i] = (R[0][i+1] << 1) | PM, R[0][max_n] = ones.
    if arena.prev.len() != max_n {
        arena.prev.clear();
        arena.prev.resize(max_n, [0u64; L]);
    }
    dc_row_zero::<L>(&arena.text_pm, &mut arena.prev);
    if STORE {
        let mut row0 = arena.fresh_row(max_n);
        row0.copy_from_slice(&arena.prev);
        arena.match_rows.push(row0);
    }

    // Resolve lanes whose anchor cleared at distance 0 (or whose budget
    // is already exhausted).
    let mut resolved = [false; L];
    let mut unresolved = 0usize;
    arena.rows_issued += L as u64;
    arena.rows_useful += arena.outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    for lane_idx in 0..lanes.len() {
        let meta = arena.meta[lane_idx];
        if arena.outcomes[lane_idx].is_err() {
            resolved[lane_idx] = true;
        } else if arena.prev[0][lane_idx] & meta.msb == 0 {
            arena.outcomes[lane_idx] = Ok(Some(0));
            arena.meta[lane_idx].rows = usize::from(STORE);
            resolved[lane_idx] = true;
        } else if meta.k_max == 0 {
            arena.outcomes[lane_idx] = Ok(None);
            arena.meta[lane_idx].rows = usize::from(STORE);
            resolved[lane_idx] = true;
        } else {
            unresolved += 1;
        }
    }

    if arena.cur.len() != max_n {
        arena.cur.clear();
        arena.cur.resize(max_n, [0u64; L]);
    }
    let mut d = 0usize;
    while unresolved > 0 {
        d += 1;
        arena.rows_issued += L as u64;
        arena.rows_useful += unresolved as u64;
        // Boundary before any text is consumed: ones << d (see
        // `boundary_state`). In the chunked scheduler every lane sits
        // at the same depth, so the per-lane init arrays broadcast one
        // state; padding positions reproduce it automatically under
        // all-ones masks.
        let init_d = [boundary_state(d); L];
        let init_dm1 = [boundary_state(d - 1); L];
        let stored = if STORE {
            let match_row = arena.fresh_row(max_n);
            let ins_row = arena.fresh_row(max_n);
            let del_row = arena.fresh_row(max_n);
            Some((match_row, ins_row, del_row))
        } else {
            None
        };
        match stored {
            Some((mut match_row, mut ins_row, mut del_row)) => {
                dc_row_full::<L>(
                    &arena.text_pm,
                    &arena.prev,
                    &mut arena.cur,
                    &mut match_row,
                    &mut ins_row,
                    &mut del_row,
                    &init_d,
                    &init_dm1,
                );
                arena.match_rows.push(match_row);
                arena.ins_rows.push(ins_row);
                arena.del_rows.push(del_row);
            }
            None => {
                dc_row_distance::<L>(
                    &arena.text_pm,
                    &arena.prev,
                    &mut arena.cur,
                    &init_d,
                    &init_dm1,
                );
            }
        }
        std::mem::swap(&mut arena.prev, &mut arena.cur);

        for lane_idx in 0..lanes.len() {
            if resolved[lane_idx] {
                continue;
            }
            let meta = arena.meta[lane_idx];
            debug_assert!(d <= meta.k_max);
            if arena.prev[0][lane_idx] & meta.msb == 0 {
                arena.outcomes[lane_idx] = Ok(Some(d));
                arena.meta[lane_idx].rows = if STORE { d + 1 } else { 0 };
                resolved[lane_idx] = true;
                unresolved -= 1;
            } else if d == meta.k_max {
                arena.outcomes[lane_idx] = Ok(None);
                arena.meta[lane_idx].rows = if STORE { d + 1 } else { 0 };
                resolved[lane_idx] = true;
                unresolved -= 1;
            }
        }
    }
}

/// Lanes of the occurrence stream: one 256-bit AVX2 vector of `u64`s.
pub const STREAM_LANES: usize = DEFAULT_LANES;
const _: () = assert!(STREAM_LANES == 4, "the AVX2 stream pass holds four lanes");

/// Distance levels every [`DcLaneStream::step`] advances each lane by:
/// two levels per text pass halve the passes over the text and the
/// rolling row while keeping the levels a resolving lane wastes low.
pub const STREAM_LEVELS: usize = 2;

/// One lane-interleaved row word: `row[lane]`.
type LaneWords = [u64; STREAM_LANES];

/// Lifecycle of one stream lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum LaneState {
    /// No scan loaded; the lane's slots compute values nobody reads.
    #[default]
    Idle,
    /// A scan is being advanced.
    Active,
    /// The scan resolved; its outcome is readable until the lane is
    /// refilled or released.
    Resolved,
}

/// Per-lane bookkeeping of a [`DcLaneStream`].
#[derive(Debug, Clone, Copy, Default)]
struct StreamLaneMeta {
    state: LaneState,
    msb: u64,
    k_max: usize,
    /// Depth of the next level a step computes: 0 for a freshly
    /// loaded scan, otherwise the rolling row holds `R[next - 1]`.
    next: usize,
    /// Scan distance, `None` when `k_max` was exhausted; meaningful
    /// only in [`LaneState::Resolved`].
    outcome: Option<usize>,
}

/// The lock-step **unanchored occurrence scan** over one shared text:
/// [`STREAM_LANES`] lanes, each carrying its own pattern of at most
/// [`MAX_WINDOW`] characters at its own depth, all scanning the text
/// last loaded with [`load_text`](DcLaneStream::load_text). Each lane
/// resolves at the first depth where its pattern occurs *anywhere* in
/// the text; per-lane results are identical to the scalar
/// [`occurrence_distance_into`](crate::dc::occurrence_distance_into).
///
/// This is the kernel behind the engine's distance-only (phase-1)
/// block scans, where the lanes carry the 64-character blocks of one
/// read against that read's candidate text. The text is encoded once
/// per load as symbol codes; a [`refill_lane`](DcLaneStream::refill_lane)
/// only writes the lane's column of a code-major symbol → mask table,
/// so reloading a lane costs `O(σ)`, not `O(n)`. Every
/// [`step`](DcLaneStream::step) is one pass over the text that advances
/// every loaded lane by [`STREAM_LEVELS`] distance levels — a freshly
/// loaded lane's row 0 included — keeping the intermediate levels in
/// registers and storing only the last. The hit test rides inside the
/// pass as one AND accumulator per level; buffers hold exactly the
/// text's positions, so the accumulator is exact at every depth.
#[derive(Debug)]
pub struct DcLaneStream {
    /// The shared text as alphabet codes, at its exact length.
    codes: Vec<u8>,
    /// The shared text's validation error, reported by every refill.
    text_error: Option<AlignError>,
    /// Pattern mask per symbol code and lane: `table[code][lane]`.
    /// Indexed by a `u8` code, so lookups need no bounds check; only
    /// the alphabet's first σ entries are ever read.
    table: Box<[LaneWords; 256]>,
    /// Rolling row: `rows[i][lane]` holds the lane's `R[d_lane][i]`.
    rows: Vec<LaneWords>,
    meta: [StreamLaneMeta; STREAM_LANES],
    rows_issued: u64,
    rows_useful: u64,
}

impl Default for DcLaneStream {
    fn default() -> Self {
        DcLaneStream {
            codes: Vec::new(),
            text_error: Some(AlignError::EmptyText),
            table: Box::new([[u64::MAX; STREAM_LANES]; 256]),
            rows: Vec::new(),
            meta: [StreamLaneMeta::default(); STREAM_LANES],
            rows_issued: 0,
            rows_useful: 0,
        }
    }
}

impl DcLaneStream {
    /// An empty occurrence stream (its text is empty until the first
    /// [`load_text`](Self::load_text)); buffers are grown on first use.
    pub fn new() -> Self {
        DcLaneStream::default()
    }

    /// Lanes a [`step`](Self::step) will advance (loaded, unresolved).
    pub fn active_lanes(&self) -> usize {
        self.meta
            .iter()
            .filter(|m| m.state == LaneState::Active)
            .count()
    }

    /// Returns and resets the row-slot accounting accumulated since
    /// the last call: `(issued, useful)` — every step issues
    /// [`STREAM_LANES`] × [`STREAM_LEVELS`] lane-levels, of which the
    /// levels a loaded lane needed (up to and including the one that
    /// resolved it, row 0 included) are useful.
    pub fn take_row_counters(&mut self) -> (u64, u64) {
        let counters = (self.rows_issued, self.rows_useful);
        self.rows_issued = 0;
        self.rows_useful = 0;
        counters
    }

    /// The resolved scan distance of `lane` (`None` when the lane's
    /// `k_max` was exhausted).
    ///
    /// # Panics
    ///
    /// Panics when the lane is not in the resolved state.
    pub fn outcome(&self, lane: usize) -> Option<usize> {
        assert!(
            self.meta[lane].state == LaneState::Resolved,
            "lane {lane} has no resolved outcome"
        );
        self.meta[lane].outcome
    }

    /// Unloads `lane` (after its outcome has been consumed, or to
    /// abandon it).
    pub fn release_lane(&mut self, lane: usize) {
        self.meta[lane].state = LaneState::Idle;
    }

    /// Makes `text` the text every lane scans, encoding it once as
    /// symbol codes; every lane is released. An empty or invalid text
    /// is not reported here but by each later
    /// [`refill_lane`](Self::refill_lane), in the scalar kernel's
    /// precedence.
    ///
    /// # Panics
    ///
    /// Panics when the alphabet has more than 256 symbols.
    pub fn load_text<A: Alphabet>(&mut self, text: &[u8]) {
        assert!(A::SIZE <= 256, "symbol codes are bytes");
        self.meta = [StreamLaneMeta::default(); STREAM_LANES];
        self.codes.clear();
        self.text_error = None;
        for (pos, &byte) in text.iter().enumerate() {
            match A::index(byte) {
                Some(code) => self.codes.push(code as u8),
                None => {
                    self.codes.clear();
                    self.text_error = Some(AlignError::InvalidSymbol { pos, byte });
                    break;
                }
            }
        }
        if text.is_empty() {
            self.text_error = Some(AlignError::EmptyText);
        }
        self.rows.resize(self.codes.len(), [0; STREAM_LANES]);
    }

    /// Loads a scan of `pattern` over the shared text into `lane`,
    /// replacing whatever ran there; the next [`step`](Self::step)
    /// computes its row 0. On error the lane is left idle.
    ///
    /// # Errors
    ///
    /// The same input errors, in the same precedence, as the scalar
    /// [`occurrence_distance_into`](crate::dc::occurrence_distance_into)
    /// on the shared text: empty pattern, empty text, pattern longer
    /// than [`MAX_WINDOW`], invalid pattern symbol, invalid text symbol
    /// (first position in ascending order).
    pub fn refill_lane<A: Alphabet>(
        &mut self,
        lane: usize,
        pattern: &[u8],
        k_max: usize,
    ) -> Result<(), AlignError> {
        self.meta[lane].state = LaneState::Idle;
        if pattern.is_empty() {
            return Err(AlignError::EmptyPattern);
        }
        if self.text_error == Some(AlignError::EmptyText) {
            return Err(AlignError::EmptyText);
        }
        if pattern.len() > MAX_WINDOW {
            return Err(AlignError::InvalidWindow { w: pattern.len() });
        }
        let pm = PatternBitmasks64::<A>::new(pattern)?;
        if let Some(e) = &self.text_error {
            return Err(e.clone());
        }
        for (code, entry) in self.table.iter_mut().enumerate().take(A::SIZE) {
            entry[lane] = pm.mask_by_index(code);
        }
        self.meta[lane] = StreamLaneMeta {
            state: LaneState::Active,
            msb: 1u64 << (pattern.len() - 1),
            k_max,
            next: 0,
            outcome: None,
        };
        Ok(())
    }

    /// One pass over the shared text: advances every loaded lane by
    /// [`STREAM_LEVELS`] distance levels — a fresh lane's first level
    /// is its row 0 — and appends the lanes that resolved to
    /// `resolved`. A step with no loaded lane is a no-op.
    pub fn step(&mut self, resolved: &mut Vec<usize>) {
        // Per lane: the boundary states the recurrence starts each
        // level from, and the fresh-lane mask.
        let mut fresh = [0u64; STREAM_LANES];
        let mut dm1 = [u64::MAX; STREAM_LANES];
        let mut init = [[u64::MAX; STREAM_LANES]; STREAM_LEVELS];
        for (lane, meta) in self.meta.iter().enumerate() {
            if meta.state != LaneState::Active {
                continue;
            }
            match meta.next.checked_sub(1) {
                None => fresh[lane] = u64::MAX,
                Some(d) => dm1[lane] = boundary_state(d),
            }
            for (level, init) in init.iter_mut().enumerate() {
                init[lane] = boundary_state(meta.next + level);
            }
        }
        if self.active_lanes() == 0 {
            return;
        }
        self.rows_issued += (STREAM_LANES * STREAM_LEVELS) as u64;

        let acc = stream_pass(
            &self.codes,
            &self.table,
            &mut self.rows,
            &fresh,
            &dm1,
            &init,
        );

        // Each level a lane needed is useful, up to and including the
        // one that resolves it.
        for (lane, meta) in self.meta.iter_mut().enumerate() {
            if meta.state != LaneState::Active {
                continue;
            }
            for acc in &acc {
                let depth = meta.next;
                meta.next += 1;
                self.rows_useful += 1;
                let hit = acc[lane] & meta.msb == 0;
                if hit || depth == meta.k_max {
                    meta.state = LaneState::Resolved;
                    meta.outcome = hit.then_some(depth);
                    resolved.push(lane);
                    break;
                }
            }
        }
    }
}

/// One stream pass: advances every lane of `rows` (holding each lane's
/// `R[d]`) by [`STREAM_LEVELS`] levels in place, and returns per level
/// the AND of that level's `R` word over every text position — the
/// "pattern occurs anywhere" probe, whose MSB is clear iff some
/// position's is.
///
/// Per lane, `init[j]` is level `j`'s boundary state before any text
/// is consumed and `dm1` the boundary of the row the first level
/// deletes from; `fresh` is all-ones on lanes whose first level is
/// row 0, which turns that level's gap term into all-ones so it
/// computes `R[0][i] = (R[0][i+1] << 1) | PM` regardless of the stale
/// row. Dispatches to the explicit AVX2 implementation when the
/// `lockstep-avx2` feature is enabled and the CPU supports it.
fn stream_pass(
    codes: &[u8],
    table: &[LaneWords; 256],
    rows: &mut [LaneWords],
    fresh: &LaneWords,
    dm1: &LaneWords,
    init: &[LaneWords; STREAM_LEVELS],
) -> [LaneWords; STREAM_LEVELS] {
    #[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected at runtime.
            unsafe {
                return stream_pass_avx2(codes, table, rows, fresh, dm1, init);
            }
        }
    }
    let mut acc = [[u64::MAX; STREAM_LANES]; STREAM_LEVELS];
    // `r[j]` holds level j's R at the position after the current one.
    let mut r = *init;
    // The first level's deletion input: the stored row, one position on.
    let mut carry = *dm1;
    for (&code, row) in codes.iter().zip(rows.iter_mut()).rev() {
        let pm = &table[usize::from(code)];
        let mut below = *row; // R[level - 1][i]
        let mut del = carry; // R[level - 1][i + 1]
        carry = below;
        for (level, (r, acc)) in r.iter_mut().zip(acc.iter_mut()).enumerate() {
            for lane in 0..STREAM_LANES {
                let mut gap = del[lane] & (del[lane] << 1) & (below[lane] << 1);
                if level == 0 {
                    gap |= fresh[lane];
                }
                let value = gap & ((r[lane] << 1) | pm[lane]);
                del[lane] = r[lane];
                r[lane] = value;
                below[lane] = value;
                acc[lane] &= value;
            }
        }
        *row = below;
    }
    acc
}

/// Explicit AVX2 stream pass: one 256-bit vector per level holds all
/// four lanes; bit-identical rows and accumulators to the portable
/// loop.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn stream_pass_avx2(
    codes: &[u8],
    table: &[LaneWords; 256],
    rows: &mut [LaneWords],
    fresh: &LaneWords,
    dm1: &LaneWords,
    init: &[LaneWords; STREAM_LEVELS],
) -> [LaneWords; STREAM_LEVELS] {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_slli_epi64, _mm256_storeu_si256,
    };
    let load = |words: &LaneWords| -> __m256i { _mm256_loadu_si256(words.as_ptr().cast()) };
    let fresh = load(fresh);
    let mut carry = load(dm1);
    let mut r: [__m256i; STREAM_LEVELS] = std::array::from_fn(|level| load(&init[level]));
    let mut acc = [_mm256_set1_epi64x(-1); STREAM_LEVELS];
    for (&code, row) in codes.iter().zip(rows.iter_mut()).rev() {
        let pm = load(&table[usize::from(code)]);
        let mut below = load(row);
        let mut del = carry;
        carry = below;
        for level in 0..STREAM_LEVELS {
            let mut gap = _mm256_and_si256(
                _mm256_and_si256(del, _mm256_slli_epi64::<1>(del)),
                _mm256_slli_epi64::<1>(below),
            );
            if level == 0 {
                gap = _mm256_or_si256(gap, fresh);
            }
            let value =
                _mm256_and_si256(gap, _mm256_or_si256(_mm256_slli_epi64::<1>(r[level]), pm));
            del = r[level];
            r[level] = value;
            below = value;
            acc[level] = _mm256_and_si256(acc[level], value);
        }
        _mm256_storeu_si256(row.as_mut_ptr().cast(), below);
    }
    let mut out = [[0u64; STREAM_LANES]; STREAM_LEVELS];
    for (out, acc) in out.iter_mut().zip(acc) {
        _mm256_storeu_si256(out.as_mut_ptr().cast(), acc);
    }
    out
}

/// One lock-step distance row in full (edge-storing) mode. Kept free of
/// bounds checks and branches in the lane dimension so LLVM unrolls and
/// vectorizes the `L`-wide inner loop. The boundary inits are per-lane
/// arrays holding one broadcast depth.
#[allow(clippy::too_many_arguments)]
fn dc_row_multi<const L: usize, const STORE: bool>(
    pm: &[[u64; L]],
    prev: &[[u64; L]],
    cur: &mut [[u64; L]],
    match_row: &mut [[u64; L]],
    ins_row: &mut [[u64; L]],
    del_row: &mut [[u64; L]],
    init_d: &[u64; L],
    init_dm1: &[u64; L],
) {
    let n = pm.len();
    let mut r_next = *init_d;
    for i in (0..n).rev() {
        let prev_ip1 = if i + 1 < n { prev[i + 1] } else { *init_dm1 };
        let prev_i = prev[i];
        let pm_i = pm[i];
        let mut matched_v = [0u64; L];
        let mut ins_v = [0u64; L];
        for lane in 0..L {
            let deletion = prev_ip1[lane]; // Alg. 1 line 15
            let substitution = deletion << 1; // line 16
            let insertion = prev_i[lane] << 1; // line 17
            let matched = (r_next[lane] << 1) | pm_i[lane]; // line 18
            let r = deletion & substitution & insertion & matched; // line 19
            matched_v[lane] = matched;
            ins_v[lane] = insertion;
            r_next[lane] = r;
        }
        if STORE {
            match_row[i] = matched_v;
            ins_row[i] = ins_v;
            del_row[i] = prev_ip1; // deletion is oldR[d-1], unshifted
        }
        cur[i] = r_next;
    }
}

/// The lock-step `d = 0` pass: `R[0][i] = (R[0][i+1] << 1) | PM`,
/// written into `prev`, with the same AVX2 dispatch as the distance
/// rows.
fn dc_row_zero<const L: usize>(pm: &[[u64; L]], prev: &mut [[u64; L]]) {
    #[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
    {
        if L.is_multiple_of(4) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected at runtime.
            unsafe {
                return dc_row_zero_avx2::<L>(pm, prev);
            }
        }
    }
    let n = pm.len();
    let mut r = [u64::MAX; L];
    for i in (0..n).rev() {
        let pm_i = &pm[i];
        for lane in 0..L {
            r[lane] = (r[lane] << 1) | pm_i[lane];
        }
        prev[i] = r;
    }
}

/// Explicit AVX2 `d = 0` pass; bit-identical to the portable loop.
#[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn dc_row_zero_avx2<const L: usize>(pm: &[[u64; L]], prev: &mut [[u64; L]]) {
    use std::arch::x86_64::{
        __m256i, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x, _mm256_slli_epi64,
        _mm256_storeu_si256,
    };
    let n = pm.len();
    let groups = L / 4;
    for g in 0..groups {
        let mut r: __m256i = _mm256_set1_epi64x(-1);
        for i in (0..n).rev() {
            let masks = _mm256_loadu_si256(pm[i].as_ptr().add(g * 4).cast::<__m256i>());
            r = _mm256_or_si256(_mm256_slli_epi64::<1>(r), masks);
            _mm256_storeu_si256(prev[i].as_mut_ptr().add(g * 4).cast::<__m256i>(), r);
        }
    }
}

/// One lock-step row in full (edge-storing) mode, dispatching to the
/// explicit AVX2 implementation when the `lockstep-avx2` feature is
/// enabled (the default), the CPU supports it, and the lane count is a
/// multiple of four.
#[allow(clippy::too_many_arguments)]
fn dc_row_full<const L: usize>(
    pm: &[[u64; L]],
    prev: &[[u64; L]],
    cur: &mut [[u64; L]],
    match_row: &mut [[u64; L]],
    ins_row: &mut [[u64; L]],
    del_row: &mut [[u64; L]],
    init_d: &[u64; L],
    init_dm1: &[u64; L],
) {
    #[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
    {
        if L.is_multiple_of(4) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected at runtime.
            unsafe {
                return dc_row_full_avx2::<L>(
                    pm, prev, cur, match_row, ins_row, del_row, init_d, init_dm1,
                );
            }
        }
    }
    dc_row_multi::<L, true>(pm, prev, cur, match_row, ins_row, del_row, init_d, init_dm1);
}

/// Explicit AVX2 lock-step full-mode row: bit-identical to the
/// portable loop (same operations, same order), with the three edge
/// bitvector kinds stored per step.
#[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn dc_row_full_avx2<const L: usize>(
    pm: &[[u64; L]],
    prev: &[[u64; L]],
    cur: &mut [[u64; L]],
    match_row: &mut [[u64; L]],
    ins_row: &mut [[u64; L]],
    del_row: &mut [[u64; L]],
    init_d: &[u64; L],
    init_dm1: &[u64; L],
) {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_slli_epi64,
        _mm256_storeu_si256,
    };
    let n = pm.len();
    let groups = L / 4;
    for g in 0..groups {
        let boundary_d = _mm256_loadu_si256(init_d.as_ptr().add(g * 4).cast::<__m256i>());
        let boundary_dm1 = _mm256_loadu_si256(init_dm1.as_ptr().add(g * 4).cast::<__m256i>());
        let mut r_next = boundary_d;
        for i in (0..n).rev() {
            let load = |row: &[u64; L]| -> __m256i {
                _mm256_loadu_si256(row.as_ptr().add(g * 4).cast::<__m256i>())
            };
            let store = |row: &mut [u64; L], v: __m256i| {
                _mm256_storeu_si256(row.as_mut_ptr().add(g * 4).cast::<__m256i>(), v);
            };
            let deletion = if i + 1 < n {
                load(&prev[i + 1])
            } else {
                boundary_dm1
            };
            let substitution = _mm256_slli_epi64::<1>(deletion);
            let insertion = _mm256_slli_epi64::<1>(load(&prev[i]));
            let matched = _mm256_or_si256(_mm256_slli_epi64::<1>(r_next), load(&pm[i]));
            let r = _mm256_and_si256(
                _mm256_and_si256(deletion, substitution),
                _mm256_and_si256(insertion, matched),
            );
            store(&mut match_row[i], matched);
            store(&mut ins_row[i], insertion);
            store(&mut del_row[i], deletion);
            store(&mut cur[i], r);
            r_next = r;
        }
    }
}

/// One lock-step distance row in distance-only mode: the recurrence
/// with no stores beyond the rolling row. Dispatches to the explicit
/// AVX2 implementation when the `lockstep-avx2` feature is enabled, the
/// CPU supports it, and the lane count is a multiple of four.
fn dc_row_distance<const L: usize>(
    pm: &[[u64; L]],
    prev: &[[u64; L]],
    cur: &mut [[u64; L]],
    init_d: &[u64; L],
    init_dm1: &[u64; L],
) {
    #[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
    {
        if L.is_multiple_of(4) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just detected at runtime.
            unsafe {
                return dc_row_distance_avx2::<L>(pm, prev, cur, init_d, init_dm1);
            }
        }
    }
    let mut dummy_match = [];
    let mut dummy_ins = [];
    let mut dummy_del = [];
    dc_row_multi::<L, false>(
        pm,
        prev,
        cur,
        &mut dummy_match,
        &mut dummy_ins,
        &mut dummy_del,
        init_d,
        init_dm1,
    );
}

/// Explicit AVX2 lock-step distance row: each 256-bit vector carries
/// four `u64` lanes, so `L = 4` is one vector per step and `L = 8` two.
/// Bit-identical to the portable loop (same operations, same order).
#[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn dc_row_distance_avx2<const L: usize>(
    pm: &[[u64; L]],
    prev: &[[u64; L]],
    cur: &mut [[u64; L]],
    init_d: &[u64; L],
    init_dm1: &[u64; L],
) {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_slli_epi64,
        _mm256_storeu_si256,
    };
    let n = pm.len();
    let groups = L / 4;
    for g in 0..groups {
        let boundary_d = _mm256_loadu_si256(init_d.as_ptr().add(g * 4).cast::<__m256i>());
        let boundary_dm1 = _mm256_loadu_si256(init_dm1.as_ptr().add(g * 4).cast::<__m256i>());
        let mut r_next = boundary_d;
        for i in (0..n).rev() {
            let load = |row: &[u64; L]| -> __m256i {
                _mm256_loadu_si256(row.as_ptr().add(g * 4).cast::<__m256i>())
            };
            let deletion = if i + 1 < n {
                load(&prev[i + 1])
            } else {
                boundary_dm1
            };
            let substitution = _mm256_slli_epi64::<1>(deletion);
            let insertion = _mm256_slli_epi64::<1>(load(&prev[i]));
            let matched = _mm256_or_si256(_mm256_slli_epi64::<1>(r_next), load(&pm[i]));
            let r = _mm256_and_si256(
                _mm256_and_si256(deletion, substitution),
                _mm256_and_si256(insertion, matched),
            );
            _mm256_storeu_si256(cur[i].as_mut_ptr().add(g * 4).cast::<__m256i>(), r);
            r_next = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Dna;
    use crate::dc::{window_dc, DcArena, WindowBitvectors};
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

    fn assert_lane_matches_scalar<const L: usize>(
        arena: &MultiDcArena<L>,
        lane: usize,
        scalar_d: Option<usize>,
        scalar_bv: &WindowBitvectors,
    ) {
        assert_eq!(arena.outcomes()[lane], Ok(scalar_d), "lane {lane} distance");
        let view = arena.lane(lane);
        assert_eq!(view.rows(), scalar_bv.rows(), "lane {lane} rows");
        for d in 0..view.rows() {
            for i in 0..scalar_bv.text_len() {
                assert_eq!(
                    view.match_at(i, d),
                    scalar_bv.match_at(i, d),
                    "M {lane} {i} {d}"
                );
                assert_eq!(
                    view.ins_at(i, d),
                    scalar_bv.ins_at(i, d),
                    "I {lane} {i} {d}"
                );
                assert_eq!(
                    view.del_at(i, d),
                    scalar_bv.del_at(i, d),
                    "D {lane} {i} {d}"
                );
            }
        }
        assert_eq!(view.stored_words(), scalar_bv.stored_words(), "lane {lane}");
    }

    #[test]
    fn lanes_match_scalar_kernel_bit_for_bit() {
        let mut arena = MultiDcArena::<4>::new();
        for seed in 1..10u64 {
            // Four windows of ragged sizes and divergent distances.
            let texts: Vec<Vec<u8>> = (0..4)
                .map(|l| dna(20 + (seed as usize * 7 + l * 13) % 44, seed * 5 + l as u64))
                .collect();
            let patterns: Vec<Vec<u8>> = texts
                .iter()
                .enumerate()
                .map(|(l, t)| {
                    let mut p = t[..t.len().min(16 + l * 9)].to_vec();
                    for e in 0..l {
                        let idx = (e * 11 + 3) % p.len();
                        p[idx] = if p[idx] == b'A' { b'T' } else { b'A' };
                    }
                    p
                })
                .collect();
            let lanes: Vec<MultiLane> = texts
                .iter()
                .zip(&patterns)
                .map(|(t, p)| MultiLane {
                    text: t,
                    pattern: p,
                    k_max: p.len(),
                })
                .collect();
            window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar = window_dc::<Dna>(lane.text, lane.pattern, lane.k_max).unwrap();
                assert_lane_matches_scalar(&arena, l, scalar.edit_distance, &scalar.bitvectors);
            }
        }
    }

    #[test]
    fn tracebacks_through_lane_views_are_identical() {
        let mut arena = MultiDcArena::<4>::new();
        let text = dna(60, 77);
        let mut pattern = text.clone();
        pattern[20] = if pattern[20] == b'G' { b'C' } else { b'G' };
        pattern.remove(40);
        let lanes = [
            MultiLane {
                text: &text,
                pattern: &pattern,
                k_max: pattern.len(),
            },
            MultiLane {
                text: &text[..30],
                pattern: &pattern[..25],
                k_max: 25,
            },
        ];
        window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
        for (l, lane) in lanes.iter().enumerate() {
            let scalar = window_dc::<Dna>(lane.text, lane.pattern, lane.k_max).unwrap();
            let d = scalar.edit_distance.unwrap();
            let walk_scalar =
                window_traceback(&scalar.bitvectors, d, usize::MAX, &TracebackOrder::affine())
                    .unwrap();
            let walk_lane =
                window_traceback(&arena.lane(l), d, usize::MAX, &TracebackOrder::affine()).unwrap();
            assert_eq!(walk_scalar.ops, walk_lane.ops, "lane {l}");
        }
    }

    #[test]
    fn ragged_lane_counts_and_budgets() {
        let mut arena = MultiDcArena::<4>::new();
        let text = dna(50, 5);
        let mut far = dna(50, 9);
        far.truncate(40);
        // One lane, tight budget that fails; plus an exact lane.
        let lanes = [
            MultiLane {
                text: &text,
                pattern: &far,
                k_max: 2,
            },
            MultiLane {
                text: &text,
                pattern: &text[..48],
                k_max: 48,
            },
        ];
        window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
        let scalar0 = window_dc::<Dna>(&text, &far, 2).unwrap();
        assert_eq!(arena.outcomes()[0], Ok(scalar0.edit_distance));
        assert_eq!(arena.outcomes()[1], Ok(Some(0)));
        assert_eq!(arena.lane(0).rows(), scalar0.bitvectors.rows());
        assert_eq!(arena.lane(1).rows(), 1);
    }

    #[test]
    fn error_lanes_do_not_disturb_neighbours() {
        let mut arena = MultiDcArena::<4>::new();
        let text = dna(32, 3);
        let lanes = [
            MultiLane {
                text: b"",
                pattern: b"ACGT",
                k_max: 4,
            },
            MultiLane {
                text: &text,
                pattern: &text[..20],
                k_max: 20,
            },
            MultiLane {
                text: b"ACGTN",
                pattern: b"ACGT",
                k_max: 4,
            },
            MultiLane {
                text: b"ACGT",
                pattern: b"",
                k_max: 4,
            },
        ];
        window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
        assert_eq!(arena.outcomes()[0], Err(AlignError::EmptyText));
        assert_eq!(arena.outcomes()[1], Ok(Some(0)));
        assert_eq!(
            arena.outcomes()[2],
            Err(AlignError::InvalidSymbol { pos: 4, byte: b'N' })
        );
        assert_eq!(arena.outcomes()[3], Err(AlignError::EmptyPattern));
    }

    #[test]
    fn distance_only_matches_full_mode() {
        let mut full = MultiDcArena::<4>::new();
        let mut fast = MultiDcArena::<4>::new();
        for seed in 1..12u64 {
            let texts: Vec<Vec<u8>> = (0..3)
                .map(|l| dna(30 + l * 11, seed * 3 + l as u64))
                .collect();
            let lanes: Vec<MultiLane> = texts
                .iter()
                .map(|t| MultiLane {
                    text: t,
                    pattern: &t[..t.len() - 3],
                    k_max: 8,
                })
                .collect();
            window_dc_multi_into::<Dna, 4>(&lanes, &mut full);
            window_dc_multi_distance_into::<Dna, 4>(&lanes, &mut fast);
            assert_eq!(full.outcomes(), fast.outcomes(), "seed={seed}");
            assert_eq!(fast.lane(0).rows(), 0, "distance-only stores no rows");
        }
    }

    #[test]
    fn arena_reuses_rows_across_runs() {
        let mut arena = MultiDcArena::<4>::new();
        let text = dna(64, 21);
        let mut pattern = text.clone();
        for p in [5usize, 25, 45] {
            pattern[p] = if pattern[p] == b'A' { b'C' } else { b'A' };
        }
        let lanes = [MultiLane {
            text: &text,
            pattern: &pattern,
            k_max: pattern.len(),
        }];
        window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
        let warmed = arena.retained_rows();
        assert!(warmed > 0);
        for _ in 0..5 {
            window_dc_multi_into::<Dna, 4>(&lanes, &mut arena);
            assert_eq!(arena.retained_rows(), warmed, "warm runs must not grow");
        }
    }

    #[cfg(all(feature = "lockstep-avx2", target_arch = "x86_64"))]
    #[test]
    fn avx2_distance_rows_match_portable() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut fast = MultiDcArena::<4>::new();
        for seed in 1..20u64 {
            let texts: Vec<Vec<u8>> = (0..4)
                .map(|l| dna(16 + l * 16, seed * 7 + l as u64))
                .collect();
            let lanes: Vec<MultiLane> = texts
                .iter()
                .map(|t| MultiLane {
                    text: t,
                    pattern: &t[..t.len() / 2],
                    k_max: t.len() / 2,
                })
                .collect();
            // The AVX2 path dispatches inside dc_row_distance; verify
            // per-lane distances against the scalar kernel.
            window_dc_multi_distance_into::<Dna, 4>(&lanes, &mut fast);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar = window_dc::<Dna>(lane.text, lane.pattern, lane.k_max).unwrap();
                assert_eq!(
                    fast.outcomes()[l],
                    Ok(scalar.edit_distance),
                    "seed={seed} lane={l}"
                );
            }
        }
    }
    /// One scan of a shared-text drain: pattern and budget.
    type Scan = (Vec<u8>, usize);

    /// Drains `scans` over `text` through `stream`, refilling each lane
    /// the moment it resolves, and checks every outcome — refill
    /// errors included — against the scalar
    /// [`occurrence_distance_into`](crate::dc::occurrence_distance_into).
    /// Also checks the row counters against their analytic values:
    /// every step issues `STREAM_LANES × STREAM_LEVELS` lane-levels,
    /// and a scan needs one level per depth up to its outcome (row 0
    /// included).
    fn drain_shared_text(stream: &mut DcLaneStream, text: &[u8], scans: &[Scan]) {
        let mut scalar_arena = DcArena::new();
        let scalar: Vec<_> = scans
            .iter()
            .map(|(p, k)| {
                crate::dc::occurrence_distance_into::<Dna>(text, p, *k, &mut scalar_arena)
            })
            .collect();
        let before = stream.take_row_counters();
        stream.load_text::<Dna>(text);
        let mut next = 0usize;
        let mut loaded = [None; STREAM_LANES];
        let mut steps = 0u64;
        let mut resolved = Vec::new();
        let mut feed = |stream: &mut DcLaneStream, lane: usize, loaded: &mut [Option<usize>]| {
            while next < scans.len() {
                let (p, k) = &scans[next];
                next += 1;
                match stream.refill_lane::<Dna>(lane, p, *k) {
                    Ok(()) => {
                        loaded[lane] = Some(next - 1);
                        return;
                    }
                    Err(e) => assert_eq!(scalar[next - 1], Err(e), "scan {}", next - 1),
                }
            }
        };
        for lane in 0..STREAM_LANES {
            feed(stream, lane, &mut loaded);
        }
        while stream.active_lanes() > 0 {
            resolved.clear();
            stream.step(&mut resolved);
            steps += 1;
            for &lane in &resolved {
                let scan = loaded[lane].take().expect("resolved lane is loaded");
                assert_eq!(scalar[scan], Ok(stream.outcome(lane)), "scan {scan}");
                stream.release_lane(lane);
                feed(stream, lane, &mut loaded);
            }
        }
        let useful: u64 = scans
            .iter()
            .zip(&scalar)
            .map(|((_, k), outcome)| match outcome {
                Ok(Some(d)) => *d as u64 + 1,
                Ok(None) => *k as u64 + 1,
                Err(_) => 0,
            })
            .sum();
        assert_eq!(before, (0, 0));
        assert_eq!(
            stream.take_row_counters(),
            (steps * (STREAM_LANES * STREAM_LEVELS) as u64, useful)
        );
    }

    /// `count` scans over `text`: substrings with a few substitutions,
    /// of every length class up to [`MAX_WINDOW`], with zero, tight and
    /// generous budgets.
    fn scans_over(text: &[u8], count: usize, seed: u64) -> Vec<Scan> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        (0..count)
            .map(|_| {
                let m = 1 + next() % MAX_WINDOW.min(text.len());
                let start = next() % (text.len() - m + 1);
                let mut pattern = text[start..start + m].to_vec();
                for _ in 0..next() % 6 {
                    let idx = next() % m;
                    pattern[idx] = b"ACGT"[next() % 4];
                }
                let k = match next() % 4 {
                    0 => 0,
                    1 => next() % 4,
                    _ => m,
                };
                (pattern, k)
            })
            .collect()
    }

    #[test]
    fn occurrence_stream_matches_scalar_across_text_loads() {
        // One stream across texts of different lengths, longer and
        // shorter than the last, so every load reuses stale buffers.
        let mut stream = DcLaneStream::new();
        for seed in 1..12u64 {
            let text = dna(1 + (seed as usize * 37) % 300, seed * 0xA5A5);
            let scans = scans_over(&text, 1 + (seed as usize * 5) % 23, seed);
            drain_shared_text(&mut stream, &text, &scans);
        }
    }

    #[test]
    fn budgets_landing_on_every_level_of_a_pass_resolve_like_scalar() {
        // Distances 0..=5 against budgets 0..=6 put the resolving depth
        // and the exhausted budget on either level of a two-level pass.
        let text = dna(160, 41);
        let mut stream = DcLaneStream::new();
        for edits in 0..=5usize {
            let mut pattern = text[50..110].to_vec();
            for e in 0..edits {
                let idx = 3 + e * 11;
                pattern[idx] = if pattern[idx] == b'A' { b'C' } else { b'A' };
            }
            let scans: Vec<Scan> = (0..=6).map(|k| (pattern.clone(), k)).collect();
            drain_shared_text(&mut stream, &text, &scans);
        }
    }

    #[test]
    fn symbol_disjoint_texts_resolve_at_depth_m() {
        // A pattern sharing no symbol with the text occurs nowhere
        // below d = m, where deleting every pattern character matches.
        let mut stream = DcLaneStream::new();
        let text = b"CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC".to_vec();
        let scans: Vec<Scan> = [1usize, 2, 3, 7, 63, 64]
            .iter()
            .map(|&m| (vec![b'A'; m], m))
            .collect();
        drain_shared_text(&mut stream, &text, &scans);
        drain_shared_text(&mut stream, b"G", &scans);
    }

    #[test]
    fn refill_errors_follow_scalar_precedence() {
        let mut stream = DcLaneStream::new();
        let long = vec![b'A'; MAX_WINDOW + 1];
        let scans: Vec<Scan> = vec![
            (b"ACGT".to_vec(), 4),
            (Vec::new(), 4),
            (long.clone(), 4),
            (b"ACNT".to_vec(), 4),
            (b"GG".to_vec(), 1),
        ];
        // Empty text, a text with an invalid byte, and a clean text:
        // each pattern error is weighed against each text error.
        for text in [&b""[..], b"ACGTACNGTT", b"ACGTACGGTT"] {
            drain_shared_text(&mut stream, text, &scans);
        }
    }

    #[test]
    fn distance_only_scalar_wrapper_agrees() {
        // Cross-check the scalar distance-only kernel against the
        // lock-step one on a single lane.
        let mut multi = MultiDcArena::<4>::new();
        let mut scalar_arena = DcArena::new();
        let text = dna(48, 13);
        let mut pattern = text[..40].to_vec();
        pattern[10] = if pattern[10] == b'C' { b'T' } else { b'C' };
        let lanes = [MultiLane {
            text: &text,
            pattern: &pattern,
            k_max: 40,
        }];
        window_dc_multi_distance_into::<Dna, 4>(&lanes, &mut multi);
        let scalar =
            crate::dc::window_dc_distance_into::<Dna>(&text, &pattern, 40, &mut scalar_arena)
                .unwrap();
        assert_eq!(multi.outcomes()[0], Ok(scalar));
    }
}
