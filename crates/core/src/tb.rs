//! GenASM-TB: the Bitap-compatible traceback algorithm (Algorithm 2,
//! §6 of the paper).
//!
//! After GenASM-DC finds a window alignment with `d` edits, GenASM-TB
//! walks the stored intermediate bitvectors from the most significant
//! bit (the first sub-pattern character) toward the least significant
//! bit, following a chain of `0`s and reverting the bitwise operations:
//! at each step the case whose bitvector holds a `0` at the current
//! `(textI, curError, patternI)` determines the CIGAR operation, and
//! the three indices advance according to which sequence(s) the
//! operation consumes.
//!
//! The order in which the cases are checked is configurable
//! ([`TracebackOrder`]); reordering it is how GenASM provides partial
//! support for affine-gap and non-unit-cost scoring schemes (§6,
//! "Partial Support for Complex Scoring Schemes").

use crate::cigar::CigarOp;
use crate::dc::WindowBitvectors;
use crate::error::AlignError;

/// Access to a window's stored intermediate bitvectors, as GenASM-TB
/// reads them from TB-SRAM. Implemented by the single-word kernel's
/// [`WindowBitvectors`] and the wide kernel's
/// [`WideWindowBitvectors`](crate::dc_wide::WideWindowBitvectors).
///
/// Each accessor answers "is there a 0 (match chain) at pattern bit
/// `bit` in the given bitvector at text iteration `i`, distance `d`?"
pub trait TracebackSource {
    /// Window sub-pattern length (bitvector width).
    fn pattern_len(&self) -> usize;
    /// Window sub-text length (stored text iterations).
    fn text_len(&self) -> usize;
    /// 64-bit words this source wrote to TB-SRAM — the quantity the
    /// hardware model accounts as traceback memory traffic.
    fn stored_words(&self) -> usize;
    /// `true` if the match bitvector has a 0 at `bit`.
    fn match_bit(&self, i: usize, d: usize, bit: usize) -> bool;
    /// `true` if the insertion bitvector has a 0 at `bit` (`d >= 1`).
    fn ins_bit(&self, i: usize, d: usize, bit: usize) -> bool;
    /// `true` if the deletion bitvector has a 0 at `bit` (`d >= 1`).
    fn del_bit(&self, i: usize, d: usize, bit: usize) -> bool;
    /// `true` if the (derived) substitution bitvector has a 0 at `bit`.
    fn subs_bit(&self, i: usize, d: usize, bit: usize) -> bool;
}

/// TB-SRAM words written by an edge-storing window that kept `rows`
/// distance rows over `text_len` iterations: one word per match cell
/// plus three per gap-row cell (`d >= 1` stores match, insertion and
/// deletion). The shared accounting of every edge-store
/// [`TracebackSource`] — the scalar kernel's view and both lock-step
/// lane views — so the hardware model charges identical traffic no
/// matter which kernel computed the window.
pub fn edge_store_words(text_len: usize, rows: usize) -> usize {
    if rows == 0 {
        return 0;
    }
    text_len * (1 + 3 * (rows - 1))
}

impl TracebackSource for WindowBitvectors {
    fn pattern_len(&self) -> usize {
        WindowBitvectors::pattern_len(self)
    }

    fn text_len(&self) -> usize {
        WindowBitvectors::text_len(self)
    }

    fn stored_words(&self) -> usize {
        WindowBitvectors::stored_words(self)
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
        d > 0 && (self.subs_at(i, d) >> bit) & 1 == 0
    }
}

/// One traceback case check, in the sense of Algorithm 2 lines 13–24.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracebackCase {
    /// Extend a previously opened insertion (line 13): checked only
    /// when the previous output was an insertion.
    InsExtend,
    /// Extend a previously opened deletion (line 15).
    DelExtend,
    /// Match (line 17).
    Match,
    /// Substitution (line 19).
    Subst,
    /// Open a new insertion (line 21).
    InsOpen,
    /// Open a new deletion (line 23).
    DelOpen,
}

impl TracebackCase {
    /// The CIGAR operation this case emits.
    #[inline]
    pub fn op(self) -> CigarOp {
        match self {
            TracebackCase::Match => CigarOp::Match,
            TracebackCase::Subst => CigarOp::Subst,
            TracebackCase::InsExtend | TracebackCase::InsOpen => CigarOp::Ins,
            TracebackCase::DelExtend | TracebackCase::DelOpen => CigarOp::Del,
        }
    }
}

/// The priority order in which traceback cases are checked.
///
/// # Examples
///
/// ```
/// use genasm_core::tb::TracebackOrder;
///
/// // The Algorithm 2 default: gap extensions first, then match,
/// // substitution, and gap openings.
/// let order = TracebackOrder::affine();
/// assert_eq!(order.cases().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracebackOrder {
    cases: Vec<TracebackCase>,
}

impl TracebackOrder {
    /// The order written in Algorithm 2: insertion-extend,
    /// deletion-extend, match, substitution, insertion-open,
    /// deletion-open. Mimics the affine gap penalty model by
    /// prioritizing the extension of an already-open gap.
    pub fn affine() -> Self {
        TracebackOrder {
            cases: vec![
                TracebackCase::InsExtend,
                TracebackCase::DelExtend,
                TracebackCase::Match,
                TracebackCase::Subst,
                TracebackCase::InsOpen,
                TracebackCase::DelOpen,
            ],
        }
    }

    /// Plain unit-cost order with no gap-extension priority: match,
    /// substitution, insertion, deletion.
    pub fn unit() -> Self {
        TracebackOrder {
            cases: vec![
                TracebackCase::Match,
                TracebackCase::Subst,
                TracebackCase::InsOpen,
                TracebackCase::DelOpen,
            ],
        }
    }

    /// The §6 variant for scoring schemes where substitutions are
    /// penalized more than gap openings: the substitution check moves
    /// after the gap-open checks (lines 19–20 after line 24).
    pub fn subs_last() -> Self {
        TracebackOrder {
            cases: vec![
                TracebackCase::InsExtend,
                TracebackCase::DelExtend,
                TracebackCase::Match,
                TracebackCase::InsOpen,
                TracebackCase::DelOpen,
                TracebackCase::Subst,
            ],
        }
    }

    /// A custom case order. Orders lacking some case are permitted; the
    /// walk fails with a stuck error if no listed case ever applies.
    pub fn custom(cases: Vec<TracebackCase>) -> Self {
        TracebackOrder { cases }
    }

    /// The case-check sequence.
    pub fn cases(&self) -> &[TracebackCase] {
        &self.cases
    }
}

impl Default for TracebackOrder {
    /// The Algorithm 2 (affine) order.
    fn default() -> Self {
        TracebackOrder::affine()
    }
}

/// The traceback output of one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTraceback {
    /// CIGAR operations in forward order (first sub-pattern character
    /// first), ready to append to the whole-read CIGAR.
    pub ops: Vec<CigarOp>,
    /// Text characters consumed (`textConsumed` of Algorithm 2).
    pub text_consumed: usize,
    /// Pattern characters consumed (`patternConsumed`).
    pub pattern_consumed: usize,
    /// Errors of the window alignment actually used by the walk.
    pub errors_used: usize,
}

/// The GenASM-TB walk of one window as an explicit, resumable state
/// machine (Algorithm 2, lines 6–30) — the traceback mirror of
/// [`WindowWalk`](crate::align::WindowWalk).
///
/// [`window_traceback`] drives a walker to completion in one call;
/// [`step`](TbWalker::step) exposes the walk one case check at a time.
#[derive(Debug, Clone)]
pub struct TbWalker {
    /// Position of the 0 being processed (first sub-pattern char last).
    pattern_i: isize,
    text_i: usize,
    /// Window text length, captured from the traceback source.
    text_len: usize,
    cur_error: usize,
    /// The window distance the walk started from.
    edit_distance: usize,
    consume_limit: usize,
    text_consumed: usize,
    pattern_consumed: usize,
    prev: Option<CigarOp>,
    ops: Vec<CigarOp>,
}

impl TbWalker {
    /// Starts a walk over `bv`, from the window distance GenASM-DC
    /// reported. `consume_limit` is `W − O` for interior windows
    /// (Algorithm 2 line 11) or `usize::MAX` for the final window.
    pub fn new<S: TracebackSource>(bv: &S, edit_distance: usize, consume_limit: usize) -> Self {
        TbWalker {
            pattern_i: bv.pattern_len() as isize - 1,
            text_i: 0,
            text_len: bv.text_len(),
            cur_error: edit_distance,
            edit_distance,
            consume_limit,
            text_consumed: 0,
            pattern_consumed: 0,
            prev: None,
            ops: Vec::new(),
        }
    }

    /// The window distance the walk started from.
    pub fn edit_distance(&self) -> usize {
        self.edit_distance
    }

    /// `true` once the walk has consumed its sub-pattern, its sub-text,
    /// or its consume limit; [`finish`](Self::finish) may be called.
    pub fn is_done(&self) -> bool {
        self.pattern_i < 0
            || self.text_i >= self.text_len
            || self.text_consumed >= self.consume_limit
            || self.pattern_consumed >= self.consume_limit
    }

    /// Performs one case check + operation emission (Algorithm 2 lines
    /// 13–30). A no-op on a finished walk.
    ///
    /// # Errors
    ///
    /// [`AlignError::ExceededErrorBudget`] if no case in `order`
    /// applies — impossible for the complete case orders when the walk
    /// started from [`window_dc`](crate::dc::window_dc)'s distance on
    /// the same window, but possible for custom orders that omit cases.
    pub fn step<S: TracebackSource>(
        &mut self,
        bv: &S,
        order: &TracebackOrder,
    ) -> Result<(), AlignError> {
        if self.is_done() {
            return Ok(());
        }
        let bit = self.pattern_i as usize;
        let (text_i, cur_error, prev) = (self.text_i, self.cur_error, self.prev);
        let mut chosen: Option<TracebackCase> = None;

        for &case in order.cases() {
            let applies = match case {
                TracebackCase::InsExtend => {
                    cur_error >= 1
                        && prev == Some(CigarOp::Ins)
                        && bv.ins_bit(text_i, cur_error, bit)
                }
                TracebackCase::DelExtend => {
                    cur_error >= 1
                        && prev == Some(CigarOp::Del)
                        && bv.del_bit(text_i, cur_error, bit)
                }
                TracebackCase::Match => bv.match_bit(text_i, cur_error, bit),
                TracebackCase::Subst => cur_error >= 1 && bv.subs_bit(text_i, cur_error, bit),
                TracebackCase::InsOpen => cur_error >= 1 && bv.ins_bit(text_i, cur_error, bit),
                TracebackCase::DelOpen => cur_error >= 1 && bv.del_bit(text_i, cur_error, bit),
            };
            if applies {
                chosen = Some(case);
                break;
            }
        }

        let case = chosen.ok_or(AlignError::ExceededErrorBudget {
            budget: self.edit_distance,
        })?;
        self.apply_case(case);
        Ok(())
    }

    /// Emits `case`'s operation and advances the three indices
    /// (Algorithm 2 lines 25–30) — the commit half of
    /// [`step`](Self::step).
    fn apply_case(&mut self, case: TracebackCase) {
        let op = case.op();
        self.ops.push(op);
        self.prev = Some(op);

        // Index updates (Algorithm 2 lines 25-30).
        if op.is_edit() {
            self.cur_error -= 1;
        }
        if op.consumes_text() {
            self.text_i += 1;
            self.text_consumed += 1;
        }
        if op.consumes_pattern() {
            self.pattern_i -= 1;
            self.pattern_consumed += 1;
        }
    }

    /// Drives the walk to completion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn run<S: TracebackSource>(
        &mut self,
        bv: &S,
        order: &TracebackOrder,
    ) -> Result<(), AlignError> {
        while !self.is_done() {
            self.step(bv, order)?;
        }
        Ok(())
    }

    /// Consumes the finished walk and assembles the window's traceback
    /// output.
    pub fn finish(self) -> WindowTraceback {
        WindowTraceback {
            ops: self.ops,
            text_consumed: self.text_consumed,
            pattern_consumed: self.pattern_consumed,
            errors_used: self.edit_distance - self.cur_error,
        }
    }
}

/// Walks the stored window bitvectors and produces the window's
/// traceback output (Algorithm 2, lines 6–30): a [`TbWalker`] driven to
/// completion in one call.
///
/// `edit_distance` is the window distance reported by GenASM-DC;
/// `consume_limit` is `W − O` for interior windows (line 11) or
/// `usize::MAX` for the final window, where the walk runs until the
/// sub-pattern is exhausted.
///
/// # Errors
///
/// Returns [`AlignError::ExceededErrorBudget`] if no case in `order`
/// applies at some step — impossible for the complete case orders
/// ([`TracebackOrder::affine`], [`TracebackOrder::unit`],
/// [`TracebackOrder::subs_last`]) when `edit_distance` came from
/// [`window_dc`](crate::dc::window_dc) on the same window, but possible
/// for custom orders that omit cases.
pub fn window_traceback<S: TracebackSource>(
    bv: &S,
    edit_distance: usize,
    consume_limit: usize,
    order: &TracebackOrder,
) -> Result<WindowTraceback, AlignError> {
    let mut walker = TbWalker::new(bv, edit_distance, consume_limit);
    walker.run(bv, order)?;
    Ok(walker.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Dna;
    use crate::cigar::Cigar;
    use crate::dc::window_dc;

    fn walk(text: &[u8], pattern: &[u8]) -> WindowTraceback {
        let dc = window_dc::<Dna>(text, pattern, pattern.len()).unwrap();
        let d = dc.edit_distance.expect("alignment must exist");
        window_traceback(&dc.bitvectors, d, usize::MAX, &TracebackOrder::affine()).unwrap()
    }

    /// Figure 6a: pattern CTGA vs text CGTGA anchored at location 0 is
    /// Match, Del, Match, Match, Match.
    #[test]
    fn figure6_deletion_example() {
        let tb = walk(b"CGTGA", b"CTGA");
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.to_string(), "1=1D3=");
        assert_eq!(tb.text_consumed, 5);
        assert_eq!(tb.pattern_consumed, 4);
        assert_eq!(tb.errors_used, 1);
    }

    /// Figure 6b: anchored at location 1 (text GTGA) the walk is
    /// Subst, Match, Match, Match.
    #[test]
    fn figure6_substitution_example() {
        let tb = walk(b"GTGA", b"CTGA");
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.to_string(), "1X3=");
        assert_eq!(tb.errors_used, 1);
    }

    /// Figure 6c: anchored at location 2 (text TGA) the walk is
    /// Ins, Match, Match, Match.
    #[test]
    fn figure6_insertion_example() {
        let tb = walk(b"TGA", b"CTGA");
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.to_string(), "1I3=");
        assert_eq!(tb.text_consumed, 3);
        assert_eq!(tb.pattern_consumed, 4);
    }

    #[test]
    fn exact_match_all_matches() {
        let tb = walk(b"ACGTACGT", b"ACGTACGT");
        assert!(tb.ops.iter().all(|&op| op == CigarOp::Match));
        assert_eq!(tb.errors_used, 0);
    }

    #[test]
    fn cigar_is_consistent_with_sequences() {
        let text = b"ACGGTCATGCAATTGCAGTC";
        let pattern = b"ACGTCATGAATTGCAGTC"; // one del, one subst vs text
        let tb = walk(text, pattern);
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert!(cigar.validates(&text[..tb.text_consumed], pattern));
        assert_eq!(cigar.edit_distance(), tb.errors_used);
    }

    #[test]
    fn consume_limit_stops_interior_window() {
        let text = b"ACGTACGTACGTACGT";
        let pattern = b"ACGTACGTACGTACGT";
        let dc = window_dc::<Dna>(text, pattern, pattern.len()).unwrap();
        let tb = window_traceback(&dc.bitvectors, 0, 10, &TracebackOrder::affine()).unwrap();
        assert_eq!(tb.pattern_consumed, 10);
        assert_eq!(tb.text_consumed, 10);
        assert_eq!(tb.ops.len(), 10);
    }

    #[test]
    fn affine_order_extends_open_gaps() {
        // Pattern needs a 2-long insertion; affine order must emit the
        // two insertions contiguously.
        let text = b"ACGTACGT";
        let pattern = b"ACGGGTACGT"; // GG inserted after ACG
        let tb = walk(text, pattern);
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.edit_distance(), 2);
        let ins_runs = cigar
            .runs()
            .iter()
            .filter(|&&(op, _)| op == CigarOp::Ins)
            .count();
        assert_eq!(
            ins_runs, 1,
            "affine order should produce one coalesced gap, got {cigar}"
        );
    }

    #[test]
    fn unit_order_still_yields_minimum_edits() {
        let text = b"ACGTTTGCA";
        let pattern = b"ACGTTGCA"; // one deletion
        let dc = window_dc::<Dna>(text, pattern, pattern.len()).unwrap();
        let d = dc.edit_distance.unwrap();
        let tb = window_traceback(&dc.bitvectors, d, usize::MAX, &TracebackOrder::unit()).unwrap();
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert_eq!(cigar.edit_distance(), 1);
        assert!(cigar.validates(&text[..tb.text_consumed], pattern));
    }

    #[test]
    fn subs_last_order_prefers_gaps() {
        // A substitution can be rewritten as ins+del; subs_last only
        // reorders the checks, so the walk still uses the budget d and
        // must remain valid.
        let text = b"ACGTACGT";
        let pattern = b"ACCTACGT";
        let dc = window_dc::<Dna>(text, pattern, pattern.len()).unwrap();
        let d = dc.edit_distance.unwrap();
        let tb =
            window_traceback(&dc.bitvectors, d, usize::MAX, &TracebackOrder::subs_last()).unwrap();
        let cigar: Cigar = tb.ops.iter().copied().collect();
        assert!(cigar.validates(&text[..tb.text_consumed], pattern));
    }

    #[test]
    fn stepwise_walker_matches_one_shot_walk() {
        let text = b"ACGGTCATGCAATTGCAGTC";
        let pattern = b"ACGTCATGAATTGCAGTC";
        let dc = window_dc::<Dna>(text, pattern, pattern.len()).unwrap();
        let d = dc.edit_distance.unwrap();
        let order = TracebackOrder::affine();
        let one_shot = window_traceback(&dc.bitvectors, d, usize::MAX, &order).unwrap();
        let mut walker = TbWalker::new(&dc.bitvectors, d, usize::MAX);
        let mut steps = 0usize;
        while !walker.is_done() {
            walker.step(&dc.bitvectors, &order).unwrap();
            steps += 1;
        }
        assert_eq!(walker.edit_distance(), d);
        let stepped = walker.finish();
        assert_eq!(one_shot, stepped);
        assert_eq!(steps, one_shot.ops.len());
    }

    #[test]
    fn custom_order_missing_cases_errors_instead_of_hanging() {
        let text = b"ACGTACGT";
        let pattern = b"ACCTACGT"; // needs a substitution
        let dc = window_dc::<Dna>(text, pattern, pattern.len()).unwrap();
        let d = dc.edit_distance.unwrap();
        let order = TracebackOrder::custom(vec![TracebackCase::Match]);
        let err = window_traceback(&dc.bitvectors, d, usize::MAX, &order).unwrap_err();
        assert!(matches!(err, AlignError::ExceededErrorBudget { .. }));
    }
}
