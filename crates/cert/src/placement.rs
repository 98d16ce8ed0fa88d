//! The index-placement abstraction behind the indexed and span-restricted
//! certifiers, and the generic history certifier written once over it.
//!
//! [`IndexedCertifier`](crate::IndexedCertifier) and
//! [`SpanCertifier`](crate::SpanCertifier) differ only in *which* committed
//! writes land in the probe index and *which* read-set entries are probed —
//! the history window, sequence numbering, garbage collection and the
//! speculative certify/confirm pipeline are identical. [`IndexPlacement`]
//! captures exactly the varying part; [`HistoryCertifier`] supplies the
//! invariant scaffolding once, so the optimistic pipeline below lands in a
//! single place instead of being duplicated per backend.
//!
//! # Speculative certification
//!
//! The pipelined commit path overlaps certification with the total-order
//! broadcast: when a request is *tentatively* delivered (content received,
//! global sequence not yet known), [`HistoryCertifier::speculate`] probes the
//! index against the history seen so far and remembers the answer together
//! with its `basis` — the last committed sequence number covered by the
//! probe. When the global sequence arrives, [`HistoryCertifier::confirm`]
//! turns the speculation into the *bit-identical* synchronous outcome:
//!
//! * a speculative **conflict** is final — later commits only append higher
//!   sequence numbers, so the speculative hit is still the linear scan's
//!   first (lowest) hit ([`SpecResolution::Hit`]);
//! * a speculative **pass** with an unchanged basis commits with no further
//!   probing ([`SpecResolution::Hit`]);
//! * a speculative **pass** overtaken by later commits re-probes only the
//!   delta window `(basis, last_committed]`
//!   ([`SpecResolution::Revalidated`], or [`SpecResolution::Rollback`] when
//!   the delta overturns the speculative commit);
//! * a request with no speculation on file falls back to a full synchronous
//!   certification ([`SpecResolution::Miss`]).
//!
//! Soundness leans on two invariants: commits append strictly increasing
//! sequence numbers (so nothing below the basis appears later), and garbage
//! collection only evicts history at or below the low-water mark, which
//! [`HistoryCertifier::confirm`] checks against `start_seq` before trusting
//! any speculation.

use crate::certifier::{CertWork, HistoryTruncated, Outcome};
use crate::fxhash::FxHashMap;
use crate::request::CertRequest;
use crate::rwset::RwSet;
use std::collections::VecDeque;

/// Per-table slice of the write-history index.
///
/// All three containers hold *ascending* sequence numbers: commits arrive in
/// total order, so insertion is a push to the back, and garbage collection —
/// which retires the globally oldest history entry first — is a pop from the
/// front. A conflict probe is then a single `partition_point` for the first
/// sequence number above the request's snapshot.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableIndex {
    /// Row number → sequence numbers of committed transactions that wrote it.
    /// Only looked up by row, never iterated, so hash order cannot leak.
    pub(crate) rows: FxHashMap<u64, RowSeqs>,
    /// Sequence numbers of table-level (wildcard) writes to this table.
    pub(crate) wildcard: VecDeque<u64>,
    /// Sequence numbers of *any* write touching this table (row or
    /// wildcard), deduplicated — the list a wildcard *read* probes.
    pub(crate) any_writer: VecDeque<u64>,
}

impl TableIndex {
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.wildcard.is_empty() && self.any_writer.is_empty()
    }
}

/// Smallest sequence number in `seqs` strictly above `start_seq`.
pub(crate) fn first_above(seqs: &VecDeque<u64>, start_seq: u64) -> Option<u64> {
    let i = seqs.partition_point(|s| *s <= start_seq);
    seqs.get(i).copied()
}

/// Pops the front of `seqs` when it equals the sequence number being
/// garbage-collected; eviction follows history order, so the retired
/// sequence number is always the oldest one present.
pub(crate) fn evict_front(seqs: &mut VecDeque<u64>, seq: u64) {
    debug_assert!(seqs.front().is_none_or(|s| *s >= seq), "eviction out of order");
    if seqs.front() == Some(&seq) {
        seqs.pop_front();
    }
}

/// The writers of one row, ascending. Most rows inside the conflict window
/// were written once, and that one sequence number is stored inline; the
/// deque is allocated only for a second concurrent writer.
#[derive(Debug, Clone)]
pub(crate) enum RowSeqs {
    One(u64),
    Many(VecDeque<u64>),
}

impl Default for RowSeqs {
    /// The empty list (allocates nothing).
    fn default() -> Self {
        RowSeqs::Many(VecDeque::new())
    }
}

impl RowSeqs {
    /// Appends `seq`, which is above every sequence number present.
    pub(crate) fn push_back(&mut self, seq: u64) {
        match self {
            RowSeqs::One(first) => *self = RowSeqs::Many(VecDeque::from([*first, seq])),
            RowSeqs::Many(seqs) if seqs.is_empty() => *self = RowSeqs::One(seq),
            RowSeqs::Many(seqs) => seqs.push_back(seq),
        }
    }

    /// [`first_above`] over this row's writers.
    pub(crate) fn first_above(&self, start_seq: u64) -> Option<u64> {
        match self {
            RowSeqs::One(seq) => (*seq > start_seq).then_some(*seq),
            RowSeqs::Many(seqs) => first_above(seqs, start_seq),
        }
    }

    /// [`evict_front`] over this row's writers.
    pub(crate) fn evict_front(&mut self, seq: u64) {
        match self {
            RowSeqs::One(first) => {
                debug_assert!(*first >= seq, "eviction out of order");
                if *first == seq {
                    *self = RowSeqs::default();
                }
            }
            RowSeqs::Many(seqs) => evict_front(seqs, seq),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            RowSeqs::One(_) => 1,
            RowSeqs::Many(seqs) => seqs.len(),
        }
    }
}

/// Which committed writes are indexed and which read-set entries are
/// probed — the only part that differs between the indexed and
/// span-restricted certifiers. [`HistoryCertifier`] supplies everything
/// else.
///
/// Implementations must be deterministic, and over the tuples they index
/// the conflict answer returned by [`IndexPlacement::probe`] must equal the
/// linear scan's first hit.
pub trait IndexPlacement {
    /// Probes for the lowest sequence number strictly above `start_seq`
    /// whose indexed write-set intersects `read_set`, returning it together
    /// with the number of index probes performed.
    fn probe(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, usize);

    /// Indexes a committed write-set under `seq` (sequence numbers arrive
    /// strictly increasing).
    fn index_writes(&mut self, seq: u64, writes: &RwSet);

    /// Removes one retired history entry's contributions from the index
    /// (entries retire oldest-first).
    fn unindex_writes(&mut self, seq: u64, writes: &RwSet);
}

/// A speculative certification answer produced at tentative-delivery time.
#[derive(Debug, Clone, Copy)]
struct Speculation {
    /// The request snapshot the probe ran against.
    start_seq: u64,
    /// `last_committed` at probe time: everything at or below it was
    /// covered by the speculative probe.
    basis: u64,
    /// The speculative conflict, if one was found.
    conflict: Option<u64>,
}

/// How [`HistoryCertifier::confirm`] resolved a request against its
/// speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecResolution {
    /// The speculative answer was final: a speculative conflict, or a
    /// speculative pass whose basis still equals `last_committed` — zero
    /// delta work on the critical path.
    Hit,
    /// The speculative pass was overtaken by later commits; the delta
    /// window re-probe upheld the commit.
    Revalidated,
    /// The delta re-probe overturned a speculative pass into an abort —
    /// the optimistic work is rolled back.
    Rollback,
    /// No speculation was on file; a full synchronous certification ran.
    Miss,
}

/// The certification scaffolding shared by every indexed backend: the
/// committed-history window, total-order sequence numbering, garbage
/// collection, and the speculative certify/confirm pipeline — generic over
/// the [`IndexPlacement`] that decides where writes are indexed.
///
/// Use through its concrete aliases
/// [`IndexedCertifier`](crate::IndexedCertifier) and
/// [`SpanCertifier`](crate::SpanCertifier).
#[derive(Debug, Clone)]
pub struct HistoryCertifier<P> {
    /// The probe index — the part that varies per backend.
    pub(crate) place: P,
    /// Committed `(seq, write_set)` pairs, oldest first — retained only to
    /// drive incremental index eviction on gc.
    history: VecDeque<(u64, RwSet)>,
    /// Next global sequence number to assign.
    next_seq: u64,
    /// All sequence numbers `<= low_water` have been garbage collected.
    low_water: u64,
    /// Outstanding speculations keyed by `(site, txn)`. Looked up by key;
    /// the one pass over it, gc's `retain`, keeps or drops each entry by its
    /// own fields, so hash order cannot leak.
    specs: FxHashMap<(u16, u64), Speculation>,
}

impl<P: IndexPlacement> HistoryCertifier<P> {
    /// Wraps a placement in the shared certification scaffolding; the first
    /// committed transaction receives sequence number 1.
    pub fn from_placement(place: P) -> Self {
        HistoryCertifier {
            place,
            history: VecDeque::new(),
            next_seq: 1,
            low_water: 0,
            specs: FxHashMap::default(),
        }
    }

    /// Rebuilds the retained history on top of a *different* placement.
    ///
    /// This is the receiving half of rejoin state transfer under partial
    /// placement: the donor holds the full history, and the rejoiner only
    /// wants the rows its spans own, so the transfer re-indexes every
    /// retained write-set through `place` instead of shipping the donor's
    /// index verbatim. Speculations are not carried over — they are bound to
    /// requests in flight at the donor, which the rejoiner never saw.
    pub fn reproject<Q: IndexPlacement>(&self, mut place: Q) -> HistoryCertifier<Q> {
        for (seq, writes) in &self.history {
            place.index_writes(*seq, writes);
        }
        HistoryCertifier {
            place,
            history: self.history.clone(),
            next_seq: self.next_seq,
            low_water: self.low_water,
            specs: FxHashMap::default(),
        }
    }

    /// Sequence number of the last committed transaction (0 if none).
    pub fn last_committed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of write-sets retained.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Oldest garbage-collected sequence number.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Outstanding speculations (bounded by requests in flight between
    /// tentative and total-order delivery).
    pub fn speculations(&self) -> usize {
        self.specs.len()
    }

    /// Probes the placement, reporting the probe count as [`CertWork`].
    fn probe_conflicts(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, CertWork) {
        let (conflict, probes) = self.place.probe(read_set, start_seq);
        (conflict, CertWork { probes, ..CertWork::default() })
    }

    /// Appends a commit: assigns the next sequence number and indexes the
    /// write-set (empty write-sets leave no history).
    fn commit(&mut self, req: &CertRequest) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !req.write_set.is_empty() {
            self.place.index_writes(seq, &req.write_set);
            self.history.push_back((seq, req.write_set.clone()));
        }
        seq
    }

    /// Certifies a request delivered in total order; same contract and same
    /// decisions as [`LinearCertifier::certify`](crate::LinearCertifier::certify),
    /// at O(request) probe cost.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        let (conflict, work) = self.probe_conflicts(&req.read_set, req.start_seq);
        if let Some(conflict_seq) = conflict {
            return Ok((Outcome::Abort { conflict_seq }, work));
        }
        let seq = self.commit(req);
        Ok((Outcome::Commit(seq), work))
    }

    /// Local read-only validation; same contract as
    /// [`LinearCertifier::certify_read_only`](crate::LinearCertifier::certify_read_only).
    pub fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        let (conflict, work) = self.probe_conflicts(read_set, start_seq);
        (conflict.is_none(), work)
    }

    /// The probe half of [`HistoryCertifier::certify`], with no state
    /// change: this site's *verdict* on the request — the lowest conflicting
    /// sequence number among the tuples this placement indexes, or `None`.
    ///
    /// Under partial replication ([`SpanCertifier`](crate::SpanCertifier))
    /// each replica votes only on its local span; combining a covering set
    /// of votes with [`merge_votes`](crate::merge_votes) reproduces the
    /// full-replication conflict answer bit for bit, because the global
    /// earliest conflict is the minimum of the per-span earliest conflicts.
    /// The decision is applied separately via [`HistoryCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn vote(&self, req: &CertRequest) -> Result<(Option<u64>, CertWork), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        Ok(self.probe_conflicts(&req.read_set, req.start_seq))
    }

    /// The state-change half of [`HistoryCertifier::certify`]: applies an
    /// externally merged decision. A commit must carry the next sequence
    /// number in total order — every replica applies the same decision
    /// stream, so the counters stay in lockstep; aborts consume nothing.
    pub fn apply(&mut self, req: &CertRequest, outcome: Outcome) {
        if let Outcome::Commit(seq) = outcome {
            debug_assert_eq!(seq, self.next_seq, "decision applied out of order");
            let assigned = self.commit(req);
            debug_assert_eq!(assigned, seq);
            let _ = assigned;
        }
    }

    /// Speculatively certifies a *tentatively* delivered request (content
    /// received, global order unknown) against the history seen so far,
    /// recording the answer for [`HistoryCertifier::confirm`]. Never
    /// mutates the index, so it is safe at any interleaving; requests whose
    /// snapshot already fell below the low-water mark are probed but not
    /// recorded (their confirm re-checks and reports truncation). Returns
    /// the work of the speculative probe.
    pub fn speculate(&mut self, req: &CertRequest) -> CertWork {
        let (conflict, work) = self.probe_conflicts(&req.read_set, req.start_seq);
        if req.start_seq >= self.low_water {
            self.specs.insert(
                (req.site.0, req.txn),
                Speculation { start_seq: req.start_seq, basis: self.last_committed(), conflict },
            );
        }
        work
    }

    /// Resolves a request at total-order delivery time against its
    /// speculation, producing the *bit-identical* outcome a synchronous
    /// [`HistoryCertifier::certify`] would have — see the module
    /// documentation for the case analysis. The returned [`CertWork`] is
    /// only the delta work performed *here*, on the delivery critical path;
    /// the speculative probe was already accounted by
    /// [`HistoryCertifier::speculate`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn confirm(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Outcome, CertWork, SpecResolution), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        let Some(spec) = self.specs.remove(&(req.site.0, req.txn)) else {
            let (outcome, work) = self.certify(req)?;
            return Ok((outcome, work, SpecResolution::Miss));
        };
        debug_assert_eq!(spec.start_seq, req.start_seq, "speculation for a different snapshot");
        if let Some(conflict_seq) = spec.conflict {
            // Commits after the speculative probe all carry sequence numbers
            // above its basis, hence above this conflict: the speculative
            // hit is still the linear scan's first (lowest) hit.
            return Ok((Outcome::Abort { conflict_seq }, CertWork::default(), SpecResolution::Hit));
        }
        if spec.basis == self.last_committed() {
            // Nothing committed since the speculative pass covered the full
            // window: commit with zero delta work.
            let seq = self.commit(req);
            return Ok((Outcome::Commit(seq), CertWork::default(), SpecResolution::Hit));
        }
        // Re-probe only the delta window (basis, last_committed]; the
        // speculative pass already cleared (start_seq, basis].
        let delta_start = spec.basis.max(req.start_seq);
        let (conflict, work) = self.probe_conflicts(&req.read_set, delta_start);
        match conflict {
            Some(conflict_seq) => {
                Ok((Outcome::Abort { conflict_seq }, work, SpecResolution::Rollback))
            }
            None => {
                let seq = self.commit(req);
                Ok((Outcome::Commit(seq), work, SpecResolution::Revalidated))
            }
        }
    }

    /// Resolves a request at total-order delivery time against its
    /// speculation into this site's *vote* — the probe half of
    /// [`HistoryCertifier::confirm`], with no commit. The conflict answer is
    /// bit-identical to what [`HistoryCertifier::vote`] would return at the
    /// same point, but a speculative hit or a quiet basis costs zero delta
    /// probes on the delivery critical path: the pipelined partial-
    /// replication path overlaps the span probe with the ordering round and
    /// only pays here for the delta window. The merged decision is applied
    /// separately via [`HistoryCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn confirm_vote(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Option<u64>, CertWork, SpecResolution), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        let Some(spec) = self.specs.remove(&(req.site.0, req.txn)) else {
            let (conflict, work) = self.vote(req)?;
            return Ok((conflict, work, SpecResolution::Miss));
        };
        debug_assert_eq!(spec.start_seq, req.start_seq, "speculation for a different snapshot");
        if let Some(conflict_seq) = spec.conflict {
            // Later commits only append higher sequence numbers: the
            // speculative hit is still the lowest one.
            return Ok((Some(conflict_seq), CertWork::default(), SpecResolution::Hit));
        }
        if spec.basis == self.last_committed() {
            // Nothing committed since the speculative pass covered the full
            // window: a clean vote with zero delta work.
            return Ok((None, CertWork::default(), SpecResolution::Hit));
        }
        // Re-probe only the delta window (basis, last_committed].
        let delta_start = spec.basis.max(req.start_seq);
        let (conflict, work) = self.probe_conflicts(&req.read_set, delta_start);
        let res =
            if conflict.is_some() { SpecResolution::Rollback } else { SpecResolution::Revalidated };
        Ok((conflict, work, res))
    }

    /// Discards history at or below `stable_seq` (clamped to
    /// [`HistoryCertifier::last_committed`]), incrementally evicting the
    /// retired entries from the placement and pruning speculations whose
    /// snapshot fell below the new low-water mark (their confirm would
    /// report truncation anyway).
    pub fn gc(&mut self, stable_seq: u64) {
        let stable_seq = stable_seq.min(self.last_committed());
        while let Some((seq, _)) = self.history.front() {
            if *seq > stable_seq {
                break;
            }
            let (seq, writes) = self.history.pop_front().expect("front just checked");
            self.place.unindex_writes(seq, &writes);
        }
        self.low_water = self.low_water.max(stable_seq);
        let low_water = self.low_water;
        self.specs.retain(|_, s| s.start_seq >= low_water);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::LinearCertifier;
    use crate::tuple::{TableId, TupleId};
    use crate::{IndexedCertifier, SiteId};

    fn id(t: u16, r: u64) -> TupleId {
        TupleId::new(TableId(t), r)
    }

    fn req(site: u16, txn: u64, start: u64, reads: &[TupleId], writes: &[TupleId]) -> CertRequest {
        CertRequest {
            site: SiteId(site),
            txn,
            start_seq: start,
            read_set: reads.iter().copied().collect(),
            write_set: writes.iter().copied().collect(),
            write_bytes: 0,
        }
    }

    #[test]
    fn row_seqs_match_a_plain_deque() {
        // Grow through empty -> One -> Many and shrink back, probing every
        // snapshot at every step against the list it replaces.
        let mut rows = RowSeqs::default();
        let mut plain: VecDeque<u64> = VecDeque::new();
        let check = |rows: &RowSeqs, plain: &VecDeque<u64>| {
            assert_eq!(rows.len(), plain.len());
            assert_eq!(rows.is_empty(), plain.is_empty());
            for start in 0..12 {
                assert_eq!(rows.first_above(start), first_above(plain, start), "start {start}");
            }
        };
        check(&rows, &plain);
        for seq in [3, 5, 9] {
            rows.push_back(seq);
            plain.push_back(seq);
            check(&rows, &plain);
        }
        // gc walks the history oldest-first; a seq that never wrote the row
        // (4) evicts nothing.
        for seq in [3, 4, 5, 9] {
            rows.evict_front(seq);
            evict_front(&mut plain, seq);
            check(&rows, &plain);
        }
        rows.push_back(11);
        assert!(matches!(rows, RowSeqs::One(11)), "a lone writer is stored inline");
    }

    #[test]
    fn reproject_rebuilds_history_on_a_new_placement() {
        fn span_of(t: TupleId) -> Option<u64> {
            Some(t.row() % 2)
        }
        let mut oracle = IndexedCertifier::new();
        oracle.certify(&req(0, 1, 0, &[], &[id(1, 2)])).expect("even row"); // seq 1, span 0
        oracle.certify(&req(0, 2, 1, &[], &[id(1, 3)])).expect("odd row"); // seq 2, span 1
        let mut local = oracle.reproject(crate::span::SpanPlacement::new(span_of, [0]));
        assert_eq!(local.last_committed(), oracle.last_committed());
        assert_eq!(local.history_len(), oracle.history_len());
        assert_eq!(local.low_water(), oracle.low_water());
        assert_eq!(local.speculations(), 0, "donor speculations are not transferred");
        // The re-indexed placement sees the owned row's writer…
        let (v, _) = local.vote(&req(1, 3, 0, &[id(1, 2)], &[])).expect("vote");
        assert_eq!(v, Some(1), "owned span was re-indexed from the donor history");
        // …and sequencing resumes exactly where the donor left off.
        let (o, _) = local.certify(&req(1, 4, 2, &[], &[id(1, 4)])).expect("post-rejoin commit");
        assert_eq!(o, Outcome::Commit(3));
    }

    #[test]
    fn speculative_pass_with_quiet_basis_confirms_for_free() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("seed"); // seq 1
        let r = req(1, 2, 1, &[id(1, 2)], &[id(1, 2)]);
        assert!(c.speculate(&r).probes > 0, "speculation does the probe work");
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Commit(2));
        assert_eq!(res, SpecResolution::Hit);
        assert_eq!(w, CertWork::default(), "zero delta work on the critical path");
        assert_eq!(c.speculations(), 0, "speculation consumed");
    }

    #[test]
    fn speculative_conflict_is_final() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("writer"); // seq 1
        let r = req(1, 2, 0, &[id(1, 5)], &[]);
        c.speculate(&r);
        // A later commit (higher seq) cannot lower the first hit.
        c.certify(&req(0, 3, 1, &[], &[id(1, 5)])).expect("later writer"); // seq 2
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(res, SpecResolution::Hit);
        assert_eq!(w, CertWork::default());
    }

    #[test]
    fn overtaken_speculation_revalidates_through_the_delta_window() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("seed"); // seq 1
        let r = req(1, 2, 1, &[id(2, 7)], &[id(2, 7)]);
        c.speculate(&r);
        // A non-conflicting commit lands between speculation and confirm.
        c.certify(&req(0, 3, 1, &[], &[id(3, 9)])).expect("interloper"); // seq 2
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Commit(3));
        assert_eq!(res, SpecResolution::Revalidated);
        assert!(w.probes > 0, "the delta window is re-probed");
    }

    #[test]
    fn reordering_rolls_back_a_speculative_commit() {
        let mut c = IndexedCertifier::new();
        let r = req(1, 2, 0, &[id(1, 5)], &[id(1, 5)]);
        c.speculate(&r); // sees an empty history: speculative commit
                         // Total order places a conflicting writer first.
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("winner"); // seq 1
        let (o, _, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(res, SpecResolution::Rollback);
    }

    #[test]
    fn confirm_without_speculation_is_a_full_certify() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("writer");
        let r = req(1, 2, 0, &[id(1, 5)], &[]);
        let (o, w, res) = c.confirm(&r).expect("confirm");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(res, SpecResolution::Miss);
        assert!(w.probes > 0);
    }

    #[test]
    fn pipelined_stream_matches_synchronous_certifier() {
        // Interleave speculate arbitrarily early, confirm in total order,
        // with gc mixed in: outcomes match the synchronous linear scan bit
        // for bit.
        let mut sync = LinearCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let mut x = 0xd1b5_4a32_d192_ed03u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pending: Vec<CertRequest> = Vec::new();
        for i in 0..400u64 {
            let reads: Vec<TupleId> =
                (0..rng() % 5).map(|_| id((rng() % 4) as u16, rng() % 37 + 1)).collect();
            let writes: Vec<TupleId> =
                (0..rng() % 3).map(|_| id((rng() % 4) as u16, rng() % 37 + 1)).collect();
            let r = req((i % 3) as u16, i, i.saturating_sub(rng() % 4), &reads, &writes);
            pipe.speculate(&r);
            pending.push(r);
            // Confirm a random prefix (total order = submission order here).
            while pending.len() > (rng() % 4) as usize {
                let r = pending.remove(0);
                let (a, _) = sync.certify(&r).expect("sync");
                let (b, _, _) = pipe.confirm(&r).expect("pipe");
                assert_eq!(a, b, "request {} diverged", r.txn);
            }
            if i % 83 == 0 {
                let stable = sync.last_committed().saturating_sub(8);
                sync.gc(stable);
                pipe.gc(stable);
            }
        }
        for r in pending {
            let (a, _) = sync.certify(&r).expect("sync");
            let (b, _, _) = pipe.confirm(&r).expect("pipe");
            assert_eq!(a, b);
        }
        assert_eq!(sync.last_committed(), pipe.last_committed());
        assert_eq!(sync.history_len(), pipe.history_len());
    }

    #[test]
    fn confirm_vote_matches_plain_vote_across_resolutions() {
        // Drive a (speculate → interleaved commits → confirm_vote) stream
        // next to an apply-only twin that votes synchronously: the conflict
        // answers must agree bit for bit, and the cheap resolutions must
        // show up with zero delta work.
        let mut sync = IndexedCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seen = [false; 4];
        let mut pending: Vec<CertRequest> = Vec::new();
        for i in 0..300u64 {
            let reads: Vec<TupleId> =
                (0..rng() % 5).map(|_| id((rng() % 3) as u16, rng() % 23 + 1)).collect();
            let writes: Vec<TupleId> =
                (0..rng() % 3).map(|_| id((rng() % 3) as u16, rng() % 23 + 1)).collect();
            let r = req((i % 3) as u16, i, i.saturating_sub(rng() % 4), &reads, &writes);
            pipe.speculate(&r);
            pending.push(r);
            while pending.len() > (rng() % 4) as usize {
                let r = pending.remove(0);
                let (a, _) = sync.vote(&r).expect("sync vote");
                let (b, w, res) = pipe.confirm_vote(&r).expect("pipelined vote");
                assert_eq!(a, b, "request {} diverged", r.txn);
                let outcome = match a {
                    Some(conflict_seq) => Outcome::Abort { conflict_seq },
                    None => Outcome::Commit(sync.last_committed() + 1),
                };
                sync.apply(&r, outcome);
                pipe.apply(&r, outcome);
                if res == SpecResolution::Hit {
                    assert_eq!(w, CertWork::default(), "hits are free on the critical path");
                }
                seen[res as usize] = true;
            }
        }
        assert_eq!(sync.last_committed(), pipe.last_committed());
        assert!(seen[SpecResolution::Hit as usize], "stream must exercise hits");
        assert!(seen[SpecResolution::Revalidated as usize], "stream must exercise delta probes");
        assert!(seen[SpecResolution::Rollback as usize], "stream must exercise overturns");
    }

    #[test]
    fn confirm_vote_without_speculation_is_a_full_vote() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("writer"); // seq 1
        let r = req(1, 2, 0, &[id(1, 5)], &[]);
        let (v, w, res) = c.confirm_vote(&r).expect("vote");
        assert_eq!(v, Some(1));
        assert_eq!(res, SpecResolution::Miss);
        assert!(w.probes > 0);
        assert_eq!(c.last_committed(), 1, "confirm_vote never commits");
    }

    #[test]
    fn confirm_vote_reports_truncation_like_confirm() {
        let mut c = IndexedCertifier::new();
        for i in 0..6u64 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        let stale = req(1, 100, 1, &[id(1, 1)], &[]);
        c.speculate(&stale);
        c.gc(4);
        let err = c.confirm_vote(&stale).expect_err("stale snapshot");
        assert_eq!(err, HistoryTruncated { start_seq: 1, low_water: 4 });
    }

    #[test]
    fn gc_prunes_speculations_below_the_low_water_mark() {
        let mut c = IndexedCertifier::new();
        for i in 0..8u64 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        let stale = req(1, 100, 2, &[id(1, 1)], &[]);
        let fresh = req(1, 101, 8, &[id(1, 1)], &[]);
        c.speculate(&stale);
        c.speculate(&fresh);
        assert_eq!(c.speculations(), 2);
        c.gc(6);
        assert_eq!(c.speculations(), 1, "stale speculation pruned");
        let err = c.confirm(&stale).expect_err("stale snapshot");
        assert_eq!(err, HistoryTruncated { start_seq: 2, low_water: 6 });
        let (o, _, res) = c.confirm(&fresh).expect("fresh");
        assert!(o.is_commit());
        assert_eq!(res, SpecResolution::Hit);
    }

    #[test]
    fn linear_twin_agrees_with_speculation_under_rollback_storm() {
        // Heavy same-row contention maximizes rollbacks; the linear
        // certifier is the ground truth.
        let mut lin = LinearCertifier::new();
        let mut pipe = IndexedCertifier::new();
        let mut reqs = Vec::new();
        for i in 0..60u64 {
            reqs.push(req((i % 2) as u16, i, i / 4, &[id(1, i % 3 + 1)], &[id(1, i % 3 + 1)]));
        }
        // Speculate everything up front (worst-case reordering), confirm in
        // total order.
        for r in &reqs {
            pipe.speculate(r);
        }
        let mut rollbacks = 0;
        for r in &reqs {
            let (a, _) = lin.certify(r).expect("linear");
            let (b, _, res) = pipe.confirm(r).expect("pipe");
            assert_eq!(a, b, "txn {} diverged", r.txn);
            if res == SpecResolution::Rollback {
                rollbacks += 1;
            }
        }
        assert!(rollbacks > 0, "the storm must exercise the rollback path");
    }
}
