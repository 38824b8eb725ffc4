//! The divide-and-conquer windowed aligner (§6 of the paper).
//!
//! Storing every intermediate bitvector for a whole long read would
//! require tens of gigabytes (the paper quotes ~80 GB for a 10 Kbp read
//! at 15% error). GenASM instead divides the text and pattern into
//! overlapping windows of `W` characters: each window runs GenASM-DC,
//! then GenASM-TB consumes at most `W − O` characters of each sequence
//! so that consecutive windows overlap by `O` characters and boundary
//! artifacts are absorbed. The per-window partial traceback outputs are
//! concatenated into the complete CIGAR.
//!
//! The paper's evaluated configuration is `W = 64`, `O = 24`
//! (§10.2, "the optimum (W, O) setting ... in terms of performance and
//! accuracy").

use crate::alphabet::{Alphabet, Dna, WithSentinel, SENTINEL};
use crate::bitap;
use crate::cigar::{Cigar, CigarOp};
use crate::dc::{window_dc_into, DcArena, MAX_WINDOW};
use crate::dc_sene::window_dc_sene_into;
use crate::dc_wide::{window_dc_wide_into, WideArena, MAX_WIDE_WINDOW};
use crate::error::AlignError;
use crate::tb::{window_traceback, TracebackOrder, TracebackSource};

/// Which window kernel stores the traceback state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WindowKernel {
    /// Store the match/insertion/deletion edge bitvectors per cell
    /// (the paper's TB-SRAM layout, §6-§7).
    #[default]
    EdgeStore,
    /// Store only the `R` entries and recompute edges during traceback
    /// — ~3x less traceback memory (the Scrooge follow-on's "SENE"
    /// optimization). Only available for windows up to 64.
    Sene,
}

/// End-of-alignment semantics of the windowed aligner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AlignmentMode {
    /// Read-alignment semantics: the pattern (read) is consumed fully,
    /// text beyond the alignment end is left unconsumed and uncharged.
    #[default]
    Semiglobal,
    /// Global (Needleman-Wunsch) semantics: both sequences are consumed
    /// fully; the final window is sentinel-terminated so the traceback
    /// is forced to reach the text end, and any text that still remains
    /// is charged as deletions by the caller.
    Global,
}

/// Configuration of the windowed GenASM aligner.
///
/// # Examples
///
/// ```
/// use genasm_core::align::GenAsmConfig;
///
/// let cfg = GenAsmConfig::default();
/// assert_eq!((cfg.window, cfg.overlap), (64, 24)); // the paper's setting
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GenAsmConfig {
    /// Window size `W`: 1..=64 uses the single-word kernel (the
    /// hardware configuration); 65..=1024 uses the multi-word wide
    /// kernel.
    pub window: usize,
    /// Overlap `O` between consecutive windows (`O < W`).
    pub overlap: usize,
    /// Traceback case-check order (scoring-scheme support, §6).
    pub order: TracebackOrder,
    /// Optional per-window error budget; `None` computes up to the
    /// window's pattern length, which always finds an alignment.
    pub max_window_error: Option<usize>,
    /// End-of-alignment semantics (semiglobal read alignment vs global
    /// edit distance).
    pub mode: AlignmentMode,
    /// Traceback-state storage strategy.
    pub kernel: WindowKernel,
}

impl GenAsmConfig {
    /// The paper's evaluated configuration: `W = 64`, `O = 24`, affine
    /// traceback order, unbounded per-window errors.
    pub fn new() -> Self {
        GenAsmConfig {
            window: 64,
            overlap: 24,
            order: TracebackOrder::affine(),
            max_window_error: None,
            mode: AlignmentMode::Semiglobal,
            kernel: WindowKernel::EdgeStore,
        }
    }

    /// Selects the traceback-state storage strategy.
    #[must_use]
    pub fn with_kernel(mut self, kernel: WindowKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the end-of-alignment semantics.
    #[must_use]
    pub fn with_mode(mut self, mode: AlignmentMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the window size `W`.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the overlap `O`.
    #[must_use]
    pub fn with_overlap(mut self, overlap: usize) -> Self {
        self.overlap = overlap;
        self
    }

    /// Sets the traceback case order.
    #[must_use]
    pub fn with_order(mut self, order: TracebackOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets a per-window error budget.
    #[must_use]
    pub fn with_max_window_error(mut self, budget: usize) -> Self {
        self.max_window_error = Some(budget);
        self
    }

    /// Validates the window/overlap combination.
    ///
    /// # Errors
    ///
    /// [`AlignError::InvalidWindow`] if `window` is 0 or exceeds 1024;
    /// [`AlignError::InvalidOverlap`] if `overlap >= window`.
    pub fn validate(&self) -> Result<(), AlignError> {
        if self.window == 0 || self.window > MAX_WIDE_WINDOW {
            return Err(AlignError::InvalidWindow { w: self.window });
        }
        if self.overlap >= self.window {
            return Err(AlignError::InvalidOverlap {
                o: self.overlap,
                w: self.window,
            });
        }
        Ok(())
    }
}

impl Default for GenAsmConfig {
    fn default() -> Self {
        GenAsmConfig::new()
    }
}

/// The result of aligning a pattern (read) against a text (reference
/// region), anchored at the start of the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// The complete merged traceback output.
    pub cigar: Cigar,
    /// Total edits in the final CIGAR (`X + I + D`).
    pub edit_distance: usize,
    /// Text characters covered by the alignment.
    pub text_consumed: usize,
    /// Pattern characters covered (always the full pattern on success).
    pub pattern_consumed: usize,
}

/// Statistics about the window decomposition of one alignment, used by
/// the hardware model to account SRAM traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Number of windows executed.
    pub windows: usize,
    /// Total 64-bit bitvector words written to TB-SRAM.
    pub bitvector_words: usize,
    /// Sum of per-window edit distances (before overlap re-counting).
    pub window_edits: usize,
    /// Distance rows the traceback walks had available (`d + 1` per
    /// walked window) — the row-level measure of TB-SRAM pressure the
    /// two-phase mapper reduces by tracing only per-read winners.
    pub tb_rows: usize,
}

/// Reusable scratch storage for repeated alignments.
///
/// One aligner call runs GenASM-DC once per window; the DC bitvector
/// rows are by far its dominant allocation. An `AlignArena` carries a
/// [`DcArena`] across windows *and* across calls, so a worker that
/// aligns many reads (the batch engine's per-worker state) allocates
/// nothing in the DC hot loop once warmed up.
///
/// Arena reuse covers every window kernel: the default
/// [`WindowKernel::EdgeStore`] single-word kernel and the SENE kernel
/// share one [`DcArena`] row pool, and wide windows (`W > 64`) recycle
/// their multi-word rows through an embedded
/// [`WideArena`](crate::dc_wide::WideArena).
#[derive(Debug, Default)]
pub struct AlignArena {
    pub(crate) dc: DcArena,
    pub(crate) wide: WideArena,
}

impl AlignArena {
    /// An empty arena; storage grows on first use.
    pub fn new() -> Self {
        AlignArena::default()
    }

    /// Total 64-bit words of single-word DC row capacity currently
    /// retained (wide-window rows are tracked separately by
    /// [`WideArena::retained_rows`](crate::dc_wide::WideArena)).
    pub fn retained_words(&self) -> usize {
        self.dc.retained_words()
    }
}

/// The GenASM aligner: GenASM-DC + GenASM-TB over overlapping windows.
///
/// # Examples
///
/// ```
/// use genasm_core::align::{GenAsmAligner, GenAsmConfig};
///
/// # fn main() -> Result<(), genasm_core::error::AlignError> {
/// let aligner = GenAsmAligner::new(GenAsmConfig::default());
/// let alignment = aligner.align(b"ACGTACGTACGT", b"ACGTACCTACGT")?;
/// assert_eq!(alignment.edit_distance, 1);
/// assert!(alignment.cigar.validates(b"ACGTACGTACGT", b"ACGTACCTACGT"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GenAsmAligner {
    config: GenAsmConfig,
}

impl GenAsmAligner {
    /// Creates an aligner with the given configuration. The
    /// configuration is validated on each call to `align`.
    pub fn new(config: GenAsmConfig) -> Self {
        GenAsmAligner { config }
    }

    /// The aligner's configuration.
    pub fn config(&self) -> &GenAsmConfig {
        &self.config
    }

    /// Aligns `pattern` against `text` over the DNA alphabet, anchored
    /// at the start of `text` (the candidate mapping location).
    ///
    /// # Errors
    ///
    /// Configuration errors ([`AlignError::InvalidWindow`],
    /// [`AlignError::InvalidOverlap`]), input errors
    /// ([`AlignError::EmptyPattern`], [`AlignError::EmptyText`],
    /// [`AlignError::InvalidSymbol`]), and
    /// [`AlignError::ExceededErrorBudget`] when `max_window_error` is
    /// set and some window exceeds it.
    pub fn align(&self, text: &[u8], pattern: &[u8]) -> Result<Alignment, AlignError> {
        self.align_with_alphabet::<Dna>(text, pattern)
    }

    /// [`align`](Self::align) over an arbitrary alphabet `A` (generic
    /// text search, §11).
    pub fn align_with_alphabet<A: Alphabet>(
        &self,
        text: &[u8],
        pattern: &[u8],
    ) -> Result<Alignment, AlignError> {
        self.align_inner::<A>(
            text,
            pattern,
            &mut WindowStats::default(),
            &mut AlignArena::new(),
        )
    }

    /// [`align`](Self::align) reusing scratch storage from `arena`:
    /// identical results, but the DC bitvector rows are recycled across
    /// windows and across calls instead of reallocated. This is the
    /// entry point the batch engine's workers use.
    ///
    /// # Errors
    ///
    /// Same conditions as [`align`](Self::align).
    pub fn align_with_arena(
        &self,
        text: &[u8],
        pattern: &[u8],
        arena: &mut AlignArena,
    ) -> Result<Alignment, AlignError> {
        self.align_inner::<Dna>(text, pattern, &mut WindowStats::default(), arena)
    }

    /// [`align`](Self::align) that also reports window-decomposition
    /// statistics for the hardware model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`align`](Self::align).
    pub fn align_with_stats(
        &self,
        text: &[u8],
        pattern: &[u8],
    ) -> Result<(Alignment, WindowStats), AlignError> {
        self.align_with_arena_and_stats(text, pattern, &mut AlignArena::new())
    }

    /// [`align_with_arena`](Self::align_with_arena) that also reports
    /// window-decomposition statistics — the entry point the engine's
    /// scalar dispatch uses so traceback-row accounting survives the
    /// kernel boundary.
    ///
    /// # Errors
    ///
    /// Same conditions as [`align`](Self::align).
    pub fn align_with_arena_and_stats(
        &self,
        text: &[u8],
        pattern: &[u8],
        arena: &mut AlignArena,
    ) -> Result<(Alignment, WindowStats), AlignError> {
        let mut stats = WindowStats::default();
        let alignment = self.align_inner::<Dna>(text, pattern, &mut stats, arena)?;
        Ok((alignment, stats))
    }

    /// Finds the best semiglobal occurrence of `pattern` in `text` with
    /// at most `k` edits (baseline Bitap scan), then produces the full
    /// alignment anchored there. Returns `None` when no occurrence
    /// exists within `k`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`align`](Self::align).
    pub fn search_and_align(
        &self,
        text: &[u8],
        pattern: &[u8],
        k: usize,
    ) -> Result<Option<(usize, Alignment)>, AlignError> {
        let best = bitap::find_best::<Dna>(text, pattern, k)?;
        match best {
            None => Ok(None),
            Some(m) => {
                let alignment = self.align(&text[m.position..], pattern)?;
                Ok(Some((m.position, alignment)))
            }
        }
    }

    fn align_inner<A: Alphabet>(
        &self,
        text: &[u8],
        pattern: &[u8],
        stats: &mut WindowStats,
        arena: &mut AlignArena,
    ) -> Result<Alignment, AlignError> {
        let mut walk = WindowWalk::new(&self.config, text, pattern)?;
        drive_window_walk::<A>(&mut walk, arena)?;
        *stats = *walk.stats();
        Ok(walk.finish())
    }
}

/// One window of work requested by a [`WindowWalk`]: the sub-text and
/// sub-pattern slices GenASM-DC should process, the per-window error
/// budget, and the traceback consume limit (`W − O` for interior
/// windows, unbounded for the final one).
#[derive(Debug, Clone, Copy)]
pub struct WindowRequest<'a> {
    /// The window's sub-text (reference side).
    pub sub_text: &'a [u8],
    /// The window's sub-pattern (read side).
    pub sub_pattern: &'a [u8],
    /// Maximum distance rows GenASM-DC may compute for this window.
    pub budget: usize,
    /// Characters the traceback may consume (Algorithm 2 line 11).
    pub consume_limit: usize,
    /// `true` for the sentinel-terminated final window of global mode,
    /// which must run through
    /// [`WindowWalk::apply_global_final`] instead of a plain kernel.
    pub global_final: bool,
}

/// Incremental per-window state of one alignment: the Algorithm 2
/// window loop (`cur_pattern` / `cur_text` cursors, CIGAR accumulation,
/// overlap bookkeeping) decoupled from the kernel that computes each
/// window.
///
/// [`GenAsmAligner::align`] drives a walk to completion with the scalar
/// kernels via [`drive_window_walk`]; the batch engine's lock-step
/// scheduler instead gathers `next_window` requests from several
/// in-flight walks, runs them through the multi-lane DC kernel, and
/// feeds each result back with [`apply`](Self::apply). Both paths
/// execute the identical windowing decisions, so they cannot diverge.
#[derive(Debug)]
pub struct WindowWalk<'a> {
    config: &'a GenAsmConfig,
    text: &'a [u8],
    pattern: &'a [u8],
    cur_pattern: usize, // Algorithm 2 line 1
    cur_text: usize,
    cigar: Cigar,
    stats: WindowStats,
    /// `(budget, consume_limit)` of the window handed out by the last
    /// [`next_window`](Self::next_window) call, awaiting `apply`.
    pending: Option<(usize, usize)>,
    done: bool,
}

impl<'a> WindowWalk<'a> {
    /// Starts a walk, validating the configuration and inputs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GenAsmAligner::align`] raises before its
    /// first window.
    pub fn new(
        config: &'a GenAsmConfig,
        text: &'a [u8],
        pattern: &'a [u8],
    ) -> Result<Self, AlignError> {
        config.validate()?;
        if pattern.is_empty() {
            return Err(AlignError::EmptyPattern);
        }
        if text.is_empty() {
            return Err(AlignError::EmptyText);
        }
        if config.mode == AlignmentMode::Global {
            // Global mode appends the reserved sentinel byte to the
            // final window; a sentinel byte in user input would alias
            // it, so reject it here regardless of the alphabet.
            for seq in [text, pattern] {
                if let Some(pos) = seq.iter().position(|&b| b == SENTINEL) {
                    return Err(AlignError::InvalidSymbol {
                        pos,
                        byte: SENTINEL,
                    });
                }
            }
        }
        Ok(WindowWalk {
            config,
            text,
            pattern,
            cur_pattern: 0,
            cur_text: 0,
            cigar: Cigar::new(),
            stats: WindowStats::default(),
            pending: None,
            done: false,
        })
    }

    /// The walk's aligner configuration.
    pub fn config(&self) -> &GenAsmConfig {
        self.config
    }

    /// `true` once the pattern is fully consumed; `next_window` will
    /// return `None` and [`finish`](Self::finish) may be called.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Window-decomposition statistics accumulated so far.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// The next window this alignment needs, or `None` when the walk is
    /// complete. Tail pattern characters left after the text is
    /// exhausted are charged as insertions internally (they need no
    /// kernel work).
    pub fn next_window(&mut self) -> Option<WindowRequest<'a>> {
        if self.done {
            return None;
        }
        let w = self.config.window;
        let stride = w - self.config.overlap;
        let m = self.pattern.len();
        let n = self.text.len();
        if self.cur_pattern >= m {
            self.done = true;
            return None;
        }
        if self.cur_text >= n {
            // Text exhausted: remaining pattern characters can only be
            // insertions.
            self.cigar
                .push_run(CigarOp::Ins, (m - self.cur_pattern) as u32);
            self.cur_pattern = m;
            self.done = true;
            return None;
        }
        let remaining = m - self.cur_pattern;
        let is_final = remaining <= stride;

        // Global mode: the final window is sentinel-terminated so the
        // minimum-distance traceback is forced through the text end
        // instead of greedily substituting and stranding a text tail.
        if self.config.mode == AlignmentMode::Global && is_final && remaining < w {
            return Some(WindowRequest {
                sub_text: &self.text[self.cur_text..],
                sub_pattern: &self.pattern[self.cur_pattern..],
                budget: remaining,
                consume_limit: usize::MAX,
                global_final: true,
            });
        }

        let sub_pattern = &self.pattern[self.cur_pattern..(self.cur_pattern + w).min(m)]; // line 3
        let sub_text = &self.text[self.cur_text..(self.cur_text + w).min(n)]; // line 4
        let budget = self
            .config
            .max_window_error
            .unwrap_or(sub_pattern.len())
            .min(sub_pattern.len());

        // Interior windows consume at most W - O characters so the
        // next window overlaps by O (Algorithm 2 line 11). Once the
        // remaining pattern fits within one stride this is the final
        // window and the walk runs until the pattern is exhausted.
        let consume_limit = if is_final { usize::MAX } else { stride };
        self.pending = Some((budget, consume_limit));
        Some(WindowRequest {
            sub_text,
            sub_pattern,
            budget,
            consume_limit,
            global_final: false,
        })
    }

    /// Feeds back the GenASM-DC outcome of the window handed out by the
    /// last [`next_window`](Self::next_window): runs GenASM-TB over the
    /// stored bitvectors and advances the cursors.
    ///
    /// # Errors
    ///
    /// [`AlignError::ExceededErrorBudget`] when `distance` is `None`
    /// (no alignment within the window budget) or the traceback makes
    /// no forward progress (possible only with degenerate custom case
    /// orders).
    ///
    /// # Panics
    ///
    /// Panics if no window request is pending.
    pub fn apply<S: TracebackSource>(
        &mut self,
        distance: Option<usize>,
        bv: &S,
    ) -> Result<(), AlignError> {
        let (budget, consume_limit) = self
            .pending
            .take()
            .expect("apply called without a pending window request");
        let d = distance.ok_or(AlignError::ExceededErrorBudget { budget })?;
        let tb = window_traceback(bv, d, consume_limit, &self.config.order)?;
        self.stats.windows += 1;
        self.stats.bitvector_words += bv.stored_words();
        self.stats.window_edits += d;
        self.stats.tb_rows += d + 1;
        for &op in &tb.ops {
            self.cigar.push(op);
        }
        self.cur_pattern += tb.pattern_consumed; // line 31
        self.cur_text += tb.text_consumed; // line 32
        if tb.pattern_consumed == 0 && tb.text_consumed == 0 {
            // No forward progress: report rather than loop.
            return Err(AlignError::ExceededErrorBudget { budget });
        }
        Ok(())
    }

    /// Runs the sentinel-terminated final window of global mode
    /// (requests flagged [`WindowRequest::global_final`]) end to end:
    /// kernel, traceback, and sentinel-op stripping.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GenAsmAligner::align`] in global mode.
    pub fn apply_global_final<A: Alphabet>(
        &mut self,
        arena: &mut AlignArena,
    ) -> Result<(), AlignError> {
        let w = self.config.window;
        let n = self.text.len();
        let remaining = self.pattern.len() - self.cur_pattern;
        let real_pattern = &self.pattern[self.cur_pattern..];
        let real_text = &self.text[self.cur_text..(self.cur_text + w - 1).min(n)];

        let mut sub_pattern = Vec::with_capacity(real_pattern.len() + 1);
        sub_pattern.extend_from_slice(real_pattern);
        sub_pattern.push(SENTINEL);
        let mut sub_text = Vec::with_capacity(real_text.len() + 1);
        sub_text.extend_from_slice(real_text);
        sub_text.push(SENTINEL);

        let budget = self
            .config
            .max_window_error
            .unwrap_or(sub_pattern.len())
            .min(sub_pattern.len());
        let (tb, window_distance, stored_words) = if sub_pattern.len() <= MAX_WINDOW
            && sub_text.len() <= MAX_WINDOW
        {
            let d =
                window_dc_into::<WithSentinel<A>>(&sub_text, &sub_pattern, budget, &mut arena.dc)?
                    .ok_or(AlignError::ExceededErrorBudget { budget })?;
            let tb = window_traceback(arena.dc.bitvectors(), d, usize::MAX, &self.config.order)?;
            (tb, d, arena.dc.bitvectors().stored_words())
        } else {
            let d = window_dc_wide_into::<WithSentinel<A>>(
                &sub_text,
                &sub_pattern,
                budget,
                &mut arena.wide,
            )?
            .ok_or(AlignError::ExceededErrorBudget { budget })?;
            let tb = window_traceback(arena.wide.bitvectors(), d, usize::MAX, &self.config.order)?;
            (tb, d, arena.wide.bitvectors().stored_words())
        };

        // Strip operations that touch either sentinel; both sit at the
        // very end of their sequence, so stripping cannot split runs.
        let mut ops = Vec::with_capacity(tb.ops.len());
        let mut t_idx = 0usize;
        let mut p_idx = 0usize;
        for &op in &tb.ops {
            let touches_sentinel = (op.consumes_text() && t_idx >= real_text.len())
                || (op.consumes_pattern() && p_idx >= real_pattern.len());
            if op.consumes_text() {
                t_idx += 1;
            }
            if op.consumes_pattern() {
                p_idx += 1;
            }
            if !touches_sentinel {
                ops.push(op);
            }
        }
        let text_used = ops.iter().filter(|op| op.consumes_text()).count();
        let pattern_used = ops.iter().filter(|op| op.consumes_pattern()).count();

        self.stats.windows += 1;
        self.stats.bitvector_words += stored_words;
        self.stats.window_edits += window_distance;
        self.stats.tb_rows += window_distance + 1;
        for op in ops {
            self.cigar.push(op);
        }
        self.cur_pattern += pattern_used;
        self.cur_text += text_used;
        if pattern_used == 0 && text_used == 0 {
            return Err(AlignError::ExceededErrorBudget { budget: remaining });
        }
        Ok(())
    }

    /// Consumes the finished walk and assembles the [`Alignment`].
    ///
    /// # Panics
    ///
    /// Panics if the walk is not done (`next_window` has not returned
    /// `None` yet).
    pub fn finish(self) -> Alignment {
        assert!(self.done, "finish called on an unfinished window walk");
        let edit_distance = self.cigar.edit_distance();
        let text_consumed = self.cigar.text_len();
        let pattern_consumed = self.cigar.pattern_len();
        debug_assert_eq!(pattern_consumed, self.pattern.len());
        Alignment {
            cigar: self.cigar,
            edit_distance,
            text_consumed,
            pattern_consumed,
        }
    }
}

/// Drives a [`WindowWalk`] to completion with the scalar window
/// kernels, dispatching each window by the walk's configuration:
/// single-word edge-store or SENE for `W <= 64`, multi-word for wider
/// windows — all arena-backed. This is the sequential aligner's loop;
/// the engine's lock-step scheduler uses it as the straggler fallback
/// for walks it cannot batch.
///
/// # Errors
///
/// Same conditions as [`GenAsmAligner::align`].
pub fn drive_window_walk<A: Alphabet>(
    walk: &mut WindowWalk<'_>,
    arena: &mut AlignArena,
) -> Result<(), AlignError> {
    while let Some(req) = walk.next_window() {
        if req.global_final {
            walk.apply_global_final::<A>(arena)?;
            continue;
        }
        // Window kernel dispatch: single-word for W <= 64 (the
        // hardware configuration), multi-word for wider windows.
        let w = walk.config().window;
        if w <= MAX_WINDOW && walk.config().kernel == WindowKernel::Sene {
            let d =
                window_dc_sene_into::<A>(req.sub_text, req.sub_pattern, req.budget, &mut arena.dc)?;
            let view = arena.dc.sene_view();
            walk.apply(d, &view)?;
        } else if w <= MAX_WINDOW {
            let d = window_dc_into::<A>(req.sub_text, req.sub_pattern, req.budget, &mut arena.dc)?; // line 5
            walk.apply(d, arena.dc.bitvectors())?;
        } else {
            let d = window_dc_wide_into::<A>(
                req.sub_text,
                req.sub_pattern,
                req.budget,
                &mut arena.wide,
            )?;
            walk.apply(d, arena.wide.bitvectors())?;
        }
    }
    Ok(())
}

impl Default for GenAsmAligner {
    fn default() -> Self {
        GenAsmAligner::new(GenAsmConfig::default())
    }
}

/// Distance-only anchored semiglobal scan: the minimum edits at which
/// `pattern` (whole, un-windowed) matches a prefix of `text`, computed
/// by the single-word kernel for patterns up to
/// [`MAX_WINDOW`](crate::dc::MAX_WINDOW) and the multi-word wide kernel
/// up to [`MAX_WIDE_WINDOW`] — no row storage, no TB-SRAM traffic.
/// Returns `None` when the distance exceeds `k_max`.
///
/// Like the windowed aligner's transcript, any anchored alignment of
/// the pair witnesses this distance, so the value is a **lower bound**
/// of the full [`GenAsmAligner::align`] edit distance. It is the exact
/// (tightest) anchored bound; the two-phase mapper's phase 1 instead
/// runs the cheaper block-decomposed
/// [`block_occurrence_distance_into`], whose per-block scans descend
/// only to each block's local distance.
///
/// # Errors
///
/// The window kernels' input errors (empty pattern/text, invalid
/// symbol), plus [`AlignError::InvalidWindow`] for patterns longer than
/// [`MAX_WIDE_WINDOW`] (callers fall back to the windowed aligner
/// there).
pub fn anchored_distance_into<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut AlignArena,
) -> Result<Option<usize>, AlignError> {
    if pattern.len() <= MAX_WINDOW {
        crate::dc::window_dc_distance_into::<A>(text, pattern, k_max, &mut arena.dc)
    } else {
        crate::dc_wide::window_dc_wide_distance_into::<A>(text, pattern, k_max, &mut arena.wide)
    }
}

/// The two-phase mapper's **phase-1 metric**: the sum over `pattern`'s
/// disjoint [`MAX_WINDOW`]-character blocks of each block's minimum
/// unanchored occurrence distance in `text`
/// ([`occurrence_distance_into`](crate::dc::occurrence_distance_into)),
/// `None` when the sum exceeds `k_max`.
///
/// **Lower-bound guarantee:** for any valid alignment of `pattern`
/// against a prefix of `text` — in particular the windowed
/// [`GenAsmAligner::align`] transcript — each block's slice of the
/// transcript is an occurrence of that block somewhere in `text`, and
/// the blocks are disjoint, so the summed minima never exceed the
/// alignment's edit distance. That is what lets per-read best
/// resolution run on these values *before* any traceback, with a
/// bounded verification round closing the gap exactly.
///
/// Works for patterns of any length (every block fits the single-word
/// kernel), runs iterative-deepening depth per block (cheap on
/// low-error reads), and is the scalar reference the engine's
/// shared-text distance stream is tested against.
///
/// # Errors
///
/// The window kernel's input errors (empty pattern, empty text,
/// invalid symbol).
pub fn block_occurrence_distance_into<A: Alphabet>(
    text: &[u8],
    pattern: &[u8],
    k_max: usize,
    arena: &mut AlignArena,
) -> Result<Option<usize>, AlignError> {
    if pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    let mut sum = 0usize;
    for block in pattern.chunks(MAX_WINDOW) {
        match crate::dc::occurrence_distance_into::<A>(text, block, k_max, &mut arena.dc)? {
            Some(d) => sum += d,
            None => return Ok(None),
        }
        if sum > k_max {
            return Ok(None);
        }
    }
    Ok(Some(sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligner() -> GenAsmAligner {
        GenAsmAligner::new(GenAsmConfig::default())
    }

    #[test]
    fn exact_alignment_single_window() {
        let a = aligner().align(b"ACGTACGT", b"ACGTACGT").unwrap();
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.cigar.to_string(), "8=");
    }

    #[test]
    fn exact_alignment_many_windows() {
        let seq: Vec<u8> = b"ACGGTCAT".iter().copied().cycle().take(400).collect();
        let a = aligner().align(&seq, &seq).unwrap();
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.cigar.to_string(), "400=");
        assert_eq!(a.text_consumed, 400);
    }

    #[test]
    fn single_substitution_across_windows() {
        let text: Vec<u8> = b"ACGGTCAT".iter().copied().cycle().take(300).collect();
        let mut pattern = text.clone();
        pattern[150] = if pattern[150] == b'A' { b'C' } else { b'A' };
        let a = aligner().align(&text, &pattern).unwrap();
        assert_eq!(a.edit_distance, 1);
        assert!(a.cigar.validates(&text[..a.text_consumed], &pattern));
    }

    #[test]
    fn deletion_and_insertion_across_windows() {
        let text: Vec<u8> = b"ACGGTCATTGCA".iter().copied().cycle().take(240).collect();
        // Pattern: delete text[100], insert GG after position 200.
        let mut pattern = Vec::new();
        pattern.extend_from_slice(&text[..100]);
        pattern.extend_from_slice(&text[101..200]);
        pattern.extend_from_slice(b"GG");
        pattern.extend_from_slice(&text[200..]);
        let a = aligner().align(&text, &pattern).unwrap();
        assert!(a.cigar.validates(&text[..a.text_consumed], &pattern));
        assert_eq!(a.edit_distance, 3); // 1 del + 2 ins
    }

    #[test]
    fn pattern_longer_than_text_gets_tail_insertions() {
        let a = aligner().align(b"ACGT", b"ACGTGGA").unwrap();
        assert!(a.cigar.validates(b"ACGT", b"ACGTGGA"));
        assert_eq!(a.edit_distance, 3);
        assert_eq!(a.pattern_consumed, 7);
    }

    #[test]
    fn window_stats_are_populated() {
        let seq: Vec<u8> = b"ACGGTCAT".iter().copied().cycle().take(400).collect();
        let (_, stats) = aligner().align_with_stats(&seq, &seq).unwrap();
        // 400 pattern chars, stride 40: 10 windows.
        assert_eq!(stats.windows, 10);
        assert!(stats.bitvector_words > 0);
        assert_eq!(stats.window_edits, 0);
    }

    #[test]
    fn small_window_configurations_work() {
        let text: Vec<u8> = b"GATTACA".iter().copied().cycle().take(120).collect();
        let mut pattern = text.clone();
        pattern[60] = if pattern[60] == b'G' { b'T' } else { b'G' };
        for (w, o) in [(8, 3), (16, 4), (32, 8), (48, 16), (64, 24)] {
            let cfg = GenAsmConfig::default().with_window(w).with_overlap(o);
            let a = GenAsmAligner::new(cfg).align(&text, &pattern).unwrap();
            assert!(
                a.cigar.validates(&text[..a.text_consumed], &pattern),
                "W={w} O={o}"
            );
            assert_eq!(a.edit_distance, 1, "W={w} O={o}");
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let cfg = GenAsmConfig::default().with_window(0);
        assert!(matches!(
            GenAsmAligner::new(cfg).align(b"ACGT", b"ACGT"),
            Err(AlignError::InvalidWindow { w: 0 })
        ));
        let cfg = GenAsmConfig::default().with_window(2_000);
        assert!(matches!(
            GenAsmAligner::new(cfg).align(b"ACGT", b"ACGT"),
            Err(AlignError::InvalidWindow { w: 2_000 })
        ));
        let cfg = GenAsmConfig::default().with_window(32).with_overlap(32);
        assert!(matches!(
            GenAsmAligner::new(cfg).align(b"ACGT", b"ACGT"),
            Err(AlignError::InvalidOverlap { o: 32, w: 32 })
        ));
    }

    #[test]
    fn error_budget_is_enforced() {
        let cfg = GenAsmConfig::default().with_max_window_error(1);
        let a = GenAsmAligner::new(cfg);
        // Three substitutions in one window exceed the budget of 1.
        let err = a.align(b"AAAAAAAAAA", b"TTTAAAAAAA").unwrap_err();
        assert!(matches!(err, AlignError::ExceededErrorBudget { budget: 1 }));
    }

    #[test]
    fn search_and_align_finds_offset_occurrence() {
        let mut text: Vec<u8> = b"TTTTTTTTTT".to_vec();
        text.extend_from_slice(b"ACGGTCATGCA");
        text.extend_from_slice(b"GGGGGGGG");
        let (pos, alignment) = aligner()
            .search_and_align(&text, b"ACGGTCATGCA", 1)
            .unwrap()
            .unwrap();
        assert_eq!(pos, 10);
        assert_eq!(alignment.edit_distance, 0);
    }

    #[test]
    fn search_and_align_none_when_absent() {
        let result = aligner()
            .search_and_align(b"AAAAAAAAAA", b"CGCGCG", 1)
            .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn sene_kernel_matches_edge_kernel_through_the_public_api() {
        let text: Vec<u8> = b"ACGGTCATTGCAGGTTACAG"
            .iter()
            .copied()
            .cycle()
            .take(500)
            .collect();
        let mut pattern = text.clone();
        pattern[100] = if pattern[100] == b'A' { b'C' } else { b'A' };
        pattern.remove(250);
        pattern.insert(400, b'T');
        let edges = GenAsmAligner::new(GenAsmConfig::default())
            .align(&text, &pattern)
            .unwrap();
        let sene_cfg = GenAsmConfig::default().with_kernel(WindowKernel::Sene);
        let (sene, stats) = GenAsmAligner::new(sene_cfg)
            .align_with_stats(&text, &pattern)
            .unwrap();
        assert_eq!(
            edges.cigar, sene.cigar,
            "kernels must produce identical alignments"
        );
        let (_, edge_stats) = GenAsmAligner::new(GenAsmConfig::default())
            .align_with_stats(&text, &pattern)
            .unwrap();
        // Low-error windows store only a couple of rows, so the
        // realized saving on this workload is below the asymptotic 3x;
        // it must still be substantial.
        assert!(
            stats.bitvector_words * 3 < edge_stats.bitvector_words * 2,
            "sene {} vs edges {}",
            stats.bitvector_words,
            edge_stats.bitvector_words
        );
    }

    #[test]
    fn wide_windows_align_through_the_public_api() {
        let text: Vec<u8> = b"ACGGTCATTGCAGGTTACAG"
            .iter()
            .copied()
            .cycle()
            .take(800)
            .collect();
        let mut pattern = text.clone();
        pattern[100] = if pattern[100] == b'A' { b'C' } else { b'A' };
        pattern.remove(400);
        pattern.insert(600, b'G');
        let narrow = GenAsmAligner::new(GenAsmConfig::default())
            .align(&text, &pattern)
            .unwrap();
        for (w, o) in [(128usize, 48usize), (256, 96)] {
            let cfg = GenAsmConfig::default().with_window(w).with_overlap(o);
            let a = GenAsmAligner::new(cfg).align(&text, &pattern).unwrap();
            assert!(
                a.cigar.validates(&text[..a.text_consumed], &pattern),
                "W={w}"
            );
            assert_eq!(a.edit_distance, 3, "W={w}");
        }
        assert_eq!(narrow.edit_distance, 3);
    }

    #[test]
    fn arena_alignment_is_identical_and_reuses_storage() {
        let text: Vec<u8> = b"ACGGTCATTGCAGGTTACAG"
            .iter()
            .copied()
            .cycle()
            .take(600)
            .collect();
        let mut pattern = text.clone();
        pattern[50] = if pattern[50] == b'A' { b'C' } else { b'A' };
        pattern.remove(300);
        pattern.insert(450, b'T');
        let a = aligner();
        let mut arena = AlignArena::new();
        // Results are byte-identical to the allocating path, for every
        // pattern length, across repeated arena reuse.
        for len in [40usize, 600, 120, 300] {
            let fresh = a.align(&text, &pattern[..len]).unwrap();
            let reused = a
                .align_with_arena(&text, &pattern[..len], &mut arena)
                .unwrap();
            assert_eq!(fresh.cigar, reused.cigar, "len={len}");
            assert_eq!(fresh.edit_distance, reused.edit_distance, "len={len}");
        }
        // A warmed arena stops growing.
        a.align_with_arena(&text, &pattern, &mut arena).unwrap();
        let warmed = arena.retained_words();
        assert!(warmed > 0);
        for _ in 0..5 {
            a.align_with_arena(&text, &pattern, &mut arena).unwrap();
            assert_eq!(arena.retained_words(), warmed);
        }
    }

    #[test]
    fn generic_alphabet_alignment() {
        use crate::alphabet::Ascii;
        let a = aligner()
            .align_with_alphabet::<Ascii>(b"the quick brown fox", b"the quick brwn fox")
            .unwrap();
        assert_eq!(a.edit_distance, 1);
    }
}
