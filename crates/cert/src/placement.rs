//! The indexed certifier: the DBSM conflict check (§3.3) answered from a
//! per-table index of the write history, optionally restricted to the spans
//! a partially replicating site stores.
//!
//! Unrestricted, [`IndexedCertifier`] indexes every committed write and
//! reaches the linear scan's decisions at O(request) probe cost. Under
//! partial replication ([`IndexedCertifier::with_span`]) it indexes, and
//! probes, only the tuples whose [`ShardKeyFn`] span it owns; everything
//! else costs nothing here, and its verdicts are combined across sites
//! with [`merge_votes`](crate::merge_votes). The history window, sequence
//! numbering, garbage collection and the speculative pipeline are the same
//! either way.
//!
//! # Speculative certification
//!
//! The pipelined commit path overlaps certification with the total-order
//! broadcast: when a request is *tentatively* delivered (content received,
//! global sequence not yet known), [`IndexedCertifier::speculate`] probes the
//! index against the history seen so far and remembers the answer together
//! with its `basis` — the last committed sequence number covered by the
//! probe. When the global sequence arrives, [`IndexedCertifier::confirm`]
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
//! [`IndexedCertifier::confirm`] checks against `start_seq` before trusting
//! any speculation.

use crate::certifier::{CertWork, HistoryTruncated, Outcome};
use crate::fxhash::FxHashMap;
use crate::request::CertRequest;
use crate::rwset::RwSet;
use crate::span::ShardKeyFn;
use crate::tuple::{TableId, TupleId};
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
    fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.wildcard.is_empty() && self.any_writer.is_empty()
    }
}

/// Smallest sequence number in `seqs` strictly above `start_seq`.
fn first_above(seqs: &VecDeque<u64>, start_seq: u64) -> Option<u64> {
    let i = seqs.partition_point(|s| *s <= start_seq);
    seqs.get(i).copied()
}

/// Pops the front of `seqs` when it equals the sequence number being
/// garbage-collected; eviction follows history order, so the retired
/// sequence number is always the oldest one present.
///
/// # Panics
///
/// Panics with "eviction out of order" if `seqs` holds a sequence number
/// below `seq`, i.e. an older entry was never evicted.
fn evict_front(seqs: &mut VecDeque<u64>, seq: u64) {
    assert!(seqs.front().is_none_or(|s| *s >= seq), "eviction out of order");
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
    fn push_back(&mut self, seq: u64) {
        match self {
            RowSeqs::One(first) => *self = RowSeqs::Many(VecDeque::from([*first, seq])),
            RowSeqs::Many(seqs) if seqs.is_empty() => *self = RowSeqs::One(seq),
            RowSeqs::Many(seqs) => seqs.push_back(seq),
        }
    }

    /// [`first_above`] over this row's writers.
    fn first_above(&self, start_seq: u64) -> Option<u64> {
        match self {
            RowSeqs::One(seq) => (*seq > start_seq).then_some(*seq),
            RowSeqs::Many(seqs) => first_above(seqs, start_seq),
        }
    }

    /// [`evict_front`] over this row's writers.
    ///
    /// # Panics
    ///
    /// Panics with "eviction out of order", as [`evict_front`] does.
    fn evict_front(&mut self, seq: u64) {
        match self {
            RowSeqs::One(first) => {
                assert!(*first >= seq, "eviction out of order");
                if *first == seq {
                    *self = RowSeqs::default();
                }
            }
            RowSeqs::Many(seqs) => evict_front(seqs, seq),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            RowSeqs::One(_) => 1,
            RowSeqs::Many(seqs) => seqs.len(),
        }
    }
}

/// The spans a partially replicating site stores.
#[derive(Debug, Clone)]
struct Span {
    span_of: ShardKeyFn,
    /// Owned span ids, sorted for binary-search membership.
    owned: Vec<u64>,
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

/// How [`IndexedCertifier::confirm`] resolved a request against its
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

/// A certifier that answers the DBSM conflict check from a per-table index
/// of the write history instead of scanning it.
///
/// For every read-set entry the probe is: the row's writer list (was this
/// tuple overwritten concurrently?), the table's wildcard list (did a
/// table-level write cover it?), and — for wildcard reads — the table's
/// any-writer list. Each is a hash lookup plus one binary search, so the
/// total cost is proportional to the *request*, not to the conflict window.
/// The index is maintained incrementally: commits append, gc evicts exactly
/// the entries of the history rows it retires.
///
/// A certifier built with [`IndexedCertifier::with_span`] indexes and
/// probes only the tuples it [stores](IndexedCertifier::is_local). Drive it
/// with [`IndexedCertifier::vote`] / [`merge_votes`](crate::merge_votes) /
/// [`IndexedCertifier::apply`]; its `certify` decides from the local spans
/// alone, which is only correct when they cover every span.
#[derive(Debug, Clone)]
pub struct IndexedCertifier {
    /// The per-table probe structures, looked up by table and never
    /// iterated, so hash order cannot leak.
    pub(crate) tables: FxHashMap<TableId, TableIndex>,
    /// The stored spans; `None` stores every tuple.
    span: Option<Span>,
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

impl Default for IndexedCertifier {
    fn default() -> Self {
        IndexedCertifier::new()
    }
}

impl IndexedCertifier {
    /// Creates an unrestricted certifier with an empty history; the first
    /// committed transaction receives sequence number 1.
    pub fn new() -> Self {
        IndexedCertifier {
            tables: FxHashMap::default(),
            span: None,
            history: VecDeque::new(),
            next_seq: 1,
            low_water: 0,
            specs: FxHashMap::default(),
        }
    }

    /// Creates a certifier storing only the `owned` spans under the
    /// `span_of` key (tuples it maps to `None` are stored everywhere), with
    /// an empty history.
    pub fn with_span(span_of: ShardKeyFn, owned: impl IntoIterator<Item = u64>) -> Self {
        let mut owned: Vec<u64> = owned.into_iter().collect();
        owned.sort_unstable();
        owned.dedup();
        IndexedCertifier { span: Some(Span { span_of, owned }), ..IndexedCertifier::new() }
    }

    /// A copy of this certifier's retained history, sequence counter and
    /// low-water mark, storing only the `owned` spans under `span_of`.
    ///
    /// This is the receiving half of rejoin state transfer under partial
    /// placement: the donor holds the full history, and the rejoiner only
    /// wants the rows its spans own, so the transfer re-indexes every
    /// retained write-set instead of shipping the donor's index verbatim.
    /// Speculations are not carried over — they are bound to requests in
    /// flight at the donor, which the rejoiner never saw.
    pub fn restricted_to(&self, span_of: ShardKeyFn, owned: impl IntoIterator<Item = u64>) -> Self {
        let mut c = IndexedCertifier {
            history: self.history.clone(),
            next_seq: self.next_seq,
            low_water: self.low_water,
            ..IndexedCertifier::with_span(span_of, owned)
        };
        for (seq, writes) in &self.history {
            c.index(*seq, writes);
        }
        c
    }

    /// True when this certifier stores `id`: it is unrestricted, the span of
    /// `id` is owned, or the key maps `id` to no span.
    pub fn is_local(&self, id: TupleId) -> bool {
        self.span
            .as_ref()
            .is_none_or(|s| (s.span_of)(id).is_none_or(|span| s.owned.binary_search(&span).is_ok()))
    }

    /// The owned span ids, sorted ascending (empty when unrestricted).
    pub fn owned_spans(&self) -> &[u64] {
        self.span.as_ref().map_or(&[], |s| &s.owned)
    }

    /// `(local, total)` id counts of `set` — the numerator/denominator of
    /// the `span_fraction` metric.
    pub fn coverage(&self, set: &RwSet) -> (usize, usize) {
        let local = set.ids().iter().filter(|&&id| self.is_local(id)).count();
        (local, set.len())
    }

    /// The subset of `set` stored here (what a remote write-set application
    /// touches).
    pub fn local_subset(&self, set: &RwSet) -> RwSet {
        // Filtering a sorted set preserves order.
        RwSet::from_sorted(set.ids().iter().copied().filter(|&id| self.is_local(id)).collect())
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

    /// The lowest sequence number strictly above `start_seq` whose stored
    /// writes intersect `read_set`. Ids stored elsewhere are skipped without
    /// counting a probe: a site performs *no* work for tuples outside its
    /// spans.
    fn probe(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, CertWork) {
        let mut earliest: Option<u64> = None;
        let mut note = |seq: Option<u64>| {
            if let Some(s) = seq {
                earliest = Some(earliest.map_or(s, |e| e.min(s)));
            }
        };
        let mut probes = 0;
        for &id in read_set.ids() {
            if !self.is_local(id) {
                continue;
            }
            // The table lookup itself is one probe.
            probes += 1;
            let Some(table) = self.tables.get(&id.table()) else { continue };
            if id.is_table_level() {
                // A wildcard read conflicts with any concurrent write to the
                // table.
                probes += 1;
                note(first_above(&table.any_writer, start_seq));
            } else {
                // A row read conflicts with concurrent writes to that row or
                // with a concurrent table-level write.
                probes += 2;
                note(first_above(&table.wildcard, start_seq));
                if let Some(rows) = table.rows.get(&id.row()) {
                    note(rows.first_above(start_seq));
                }
            }
        }
        (earliest, CertWork { probes, ..CertWork::default() })
    }

    /// Indexes the stored part of a write-set committed under `seq`
    /// (sequence numbers arrive strictly increasing).
    fn index(&mut self, seq: u64, writes: &RwSet) {
        for &id in writes.ids() {
            if !self.is_local(id) {
                continue;
            }
            let table = self.tables.entry(id.table()).or_default();
            if id.is_table_level() {
                table.wildcard.push_back(seq);
            } else {
                table.rows.entry(id.row()).or_default().push_back(seq);
            }
            // One entry per (table, seq) pair: ids of the same table are
            // adjacent in the sorted write-set, so dedup against the back.
            if table.any_writer.back() != Some(&seq) {
                table.any_writer.push_back(seq);
            }
        }
    }

    /// Removes one retired history entry's contributions from the index
    /// (entries retire oldest-first). Needs no span check: a list holds
    /// `seq` only if [`IndexedCertifier::index`] stored it there, and
    /// `seq` is the oldest entry of every list that does.
    fn unindex(&mut self, seq: u64, writes: &RwSet) {
        for &id in writes.ids() {
            let Some(table) = self.tables.get_mut(&id.table()) else { continue };
            if id.is_table_level() {
                evict_front(&mut table.wildcard, seq);
            } else if let Some(rows) = table.rows.get_mut(&id.row()) {
                rows.evict_front(seq);
                if rows.is_empty() {
                    table.rows.remove(&id.row());
                }
            }
            evict_front(&mut table.any_writer, seq);
            if table.is_empty() {
                self.tables.remove(&id.table());
            }
        }
    }

    /// Appends a commit: assigns the next sequence number and indexes the
    /// write-set (empty write-sets leave no history).
    fn commit(&mut self, req: &CertRequest) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !req.write_set.is_empty() {
            self.index(seq, &req.write_set);
            self.history.push_back((seq, req.write_set.clone()));
        }
        seq
    }

    /// Turns a conflict answer into the outcome, committing a pass.
    fn decide(&mut self, req: &CertRequest, conflict: Option<u64>) -> Outcome {
        match conflict {
            Some(conflict_seq) => Outcome::Abort { conflict_seq },
            None => Outcome::Commit(self.commit(req)),
        }
    }

    /// Rejects a snapshot that predates the garbage collection low-water
    /// mark.
    fn check_window(&self, start_seq: u64) -> Result<(), HistoryTruncated> {
        if start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq, low_water: self.low_water });
        }
        Ok(())
    }

    /// Certifies a request delivered in total order; same contract and same
    /// decisions as [`LinearCertifier::certify`](crate::LinearCertifier::certify),
    /// at O(request) probe cost: [`IndexedCertifier::vote`] plus a commit.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        let (conflict, work) = self.vote(req)?;
        Ok((self.decide(req, conflict), work))
    }

    /// Local read-only validation; same contract as
    /// [`LinearCertifier::certify_read_only`](crate::LinearCertifier::certify_read_only).
    pub fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        let (conflict, work) = self.probe(read_set, start_seq);
        (conflict.is_none(), work)
    }

    /// The probe half of [`IndexedCertifier::certify`], with no state
    /// change: this site's *verdict* on the request — the lowest conflicting
    /// sequence number among the tuples it stores, or `None`.
    ///
    /// Under partial replication each replica votes only on its local spans;
    /// combining a covering set of votes with
    /// [`merge_votes`](crate::merge_votes) reproduces the full-replication
    /// conflict answer bit for bit, because the global earliest conflict is
    /// the minimum of the per-span earliest conflicts. The decision is
    /// applied separately via [`IndexedCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn vote(&self, req: &CertRequest) -> Result<(Option<u64>, CertWork), HistoryTruncated> {
        self.check_window(req.start_seq)?;
        Ok(self.probe(&req.read_set, req.start_seq))
    }

    /// The state-change half of [`IndexedCertifier::certify`]: applies an
    /// externally merged decision. A commit must carry the next sequence
    /// number in total order — every replica applies the same decision
    /// stream, so the counters stay in lockstep; aborts consume nothing.
    ///
    /// # Panics
    ///
    /// Panics with "decision applied out of order" if a commit does not
    /// carry the next sequence number.
    pub fn apply(&mut self, req: &CertRequest, outcome: Outcome) {
        if let Outcome::Commit(seq) = outcome {
            assert_eq!(seq, self.next_seq, "decision applied out of order");
            self.commit(req);
        }
    }

    /// Speculatively certifies a *tentatively* delivered request (content
    /// received, global order unknown) against the history seen so far,
    /// recording the answer for [`IndexedCertifier::confirm`]. Never
    /// mutates the index, so it is safe at any interleaving; requests whose
    /// snapshot already fell below the low-water mark are probed but not
    /// recorded (their confirm re-checks and reports truncation). Returns
    /// the work of the speculative probe.
    pub fn speculate(&mut self, req: &CertRequest) -> CertWork {
        let (conflict, work) = self.probe(&req.read_set, req.start_seq);
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
    /// [`IndexedCertifier::certify`] would have — see the module
    /// documentation for the case analysis: [`IndexedCertifier::confirm_vote`]
    /// plus a commit. The returned [`CertWork`] is only the delta work
    /// performed *here*, on the delivery critical path; the speculative
    /// probe was already accounted by [`IndexedCertifier::speculate`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    ///
    /// # Panics
    ///
    /// As [`IndexedCertifier::confirm_vote`].
    pub fn confirm(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Outcome, CertWork, SpecResolution), HistoryTruncated> {
        let (conflict, work, res) = self.confirm_vote(req)?;
        Ok((self.decide(req, conflict), work, res))
    }

    /// Resolves a request at total-order delivery time against its
    /// speculation into this site's *vote* — the probe half of
    /// [`IndexedCertifier::confirm`], with no commit. The conflict answer is
    /// bit-identical to what [`IndexedCertifier::vote`] would return at the
    /// same point, but a speculative hit or a quiet basis costs zero delta
    /// probes on the delivery critical path: the pipelined partial-
    /// replication path overlaps the span probe with the ordering round and
    /// only pays here for the delta window. The merged decision is applied
    /// separately via [`IndexedCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    ///
    /// # Panics
    ///
    /// Panics with "speculation for a different snapshot" if the
    /// speculation on file for `req`'s `(site, txn)` ran against another
    /// `start_seq`.
    pub fn confirm_vote(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Option<u64>, CertWork, SpecResolution), HistoryTruncated> {
        self.check_window(req.start_seq)?;
        let Some(spec) = self.specs.remove(&(req.site.0, req.txn)) else {
            let (conflict, work) = self.probe(&req.read_set, req.start_seq);
            return Ok((conflict, work, SpecResolution::Miss));
        };
        assert_eq!(spec.start_seq, req.start_seq, "speculation for a different snapshot");
        if spec.conflict.is_some() || spec.basis == self.last_committed() {
            // Commits after the speculative probe all carry sequence numbers
            // above its basis, hence above any conflict it found: that hit is
            // still the linear scan's first (lowest) one. A pass with nothing
            // committed since covered the full window.
            return Ok((spec.conflict, CertWork::default(), SpecResolution::Hit));
        }
        // Re-probe only the delta window (basis, last_committed]; the
        // speculative pass already cleared (start_seq, basis].
        let (conflict, work) = self.probe(&req.read_set, spec.basis.max(req.start_seq));
        let res =
            if conflict.is_some() { SpecResolution::Rollback } else { SpecResolution::Revalidated };
        Ok((conflict, work, res))
    }

    /// Discards history at or below `stable_seq` (clamped to
    /// [`IndexedCertifier::last_committed`]), incrementally evicting the
    /// retired entries from the index and pruning speculations whose
    /// snapshot fell below the new low-water mark (their confirm would
    /// report truncation anyway).
    ///
    /// # Panics
    ///
    /// Panics with "eviction out of order" if the index holds a sequence
    /// number the history already retired.
    pub fn gc(&mut self, stable_seq: u64) {
        let stable_seq = stable_seq.min(self.last_committed());
        while let Some((seq, writes)) = self.history.pop_front_if(|(seq, _)| *seq <= stable_seq) {
            self.unindex(seq, &writes);
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
        let mut local = oracle.restricted_to(span_of, [0]);
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
