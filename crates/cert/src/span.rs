//! Span-restricted certification for partial replication.
//!
//! Under *genuine partial replication* (Sutra & Shapiro) each replica
//! stores — and therefore can certify — only the rows of the warehouses it
//! replicates, its **span**. [`SpanPlacement`] is an [`IndexPlacement`]
//! whose probe index holds exactly that slice of the committed write
//! history: a [`ShardKeyFn`] maps every tuple to a span (tuples it maps to
//! `None` — the shared item catalogue, table-level wildcards — are treated
//! as replicated everywhere), and ids outside the owned span set are
//! skipped *without performing any probe work*, which is where the k/N
//! certification saving comes from.
//!
//! [`SpanCertifier`] is the [`HistoryCertifier`] instantiated at this
//! placement, driven through the vote/apply split instead of the one-shot
//! `certify`:
//!
//! * [`HistoryCertifier::vote`] probes the local span and returns the
//!   site's *verdict* — the lowest conflicting sequence number among the
//!   tuples it indexes, or `None`;
//! * [`merge_votes`] combines a covering set of per-span verdicts by the
//!   same earliest-conflict rule the full certifier uses;
//! * [`HistoryCertifier::apply`] applies the merged decision, advancing the
//!   shared sequence counter in lockstep on every replica while indexing
//!   only the local slice of the write-set.
//!
//! # Why the merge is exact
//!
//! The full certifier's conflict answer is the minimum, over the read-set's
//! tuples, of each tuple's first committed writer above the snapshot. The
//! span key partitions the tuple space (with `None`-span tuples owned by
//! every replica), so as long as every read tuple is covered by at least
//! one voting replica, the minimum of the per-span minima *is* the global
//! minimum — the merged outcome is bit-identical to full replication. The
//! property test `partial_matches_full_replication_outcome_streams`
//! (`tests/properties.rs`) checks this against [`IndexedCertifier`] over
//! random streams, placements and gc interleavings.

use crate::backend::UnifiedPlacement;
use crate::placement::{HistoryCertifier, IndexPlacement};
use crate::rwset::RwSet;
use crate::tuple::TupleId;

/// Maps a tuple to the span (partition of the tuple space) that stores it,
/// or `None` for tuples every replica stores.
///
/// The function must be **pure** — same tuple, same span — so every replica
/// of a placement agrees on who owns what. For the TPC-C workload the span
/// is the 0-based home warehouse
/// (`dbsm_tpcc::schema::home_warehouse_shard_key`).
pub type ShardKeyFn = fn(TupleId) -> Option<u64>;

/// An [`IndexPlacement`] restricted to a set of owned spans: committed
/// writes are indexed — and read-sets probed — only for tuples whose
/// [`ShardKeyFn`] span this replica owns (or whose span is `None`,
/// meaning replicated everywhere). Everything else costs nothing here.
#[derive(Debug, Clone)]
pub struct SpanPlacement {
    inner: UnifiedPlacement,
    span_of: ShardKeyFn,
    /// Owned span ids, sorted for binary-search membership.
    owned: Vec<u64>,
}

impl SpanPlacement {
    /// Creates a placement owning `owned` spans under the `span_of` key.
    pub fn new(span_of: ShardKeyFn, owned: impl IntoIterator<Item = u64>) -> Self {
        let mut owned: Vec<u64> = owned.into_iter().collect();
        owned.sort_unstable();
        owned.dedup();
        SpanPlacement { inner: UnifiedPlacement::default(), span_of, owned }
    }

    /// True when this replica stores `id`: its span is owned, or the key
    /// maps it to no span (replicated everywhere).
    pub fn is_local(&self, id: TupleId) -> bool {
        (self.span_of)(id).is_none_or(|s| self.owned.binary_search(&s).is_ok())
    }

    /// The owned span ids, sorted ascending.
    pub fn owned_spans(&self) -> &[u64] {
        &self.owned
    }

    /// `(local, total)` id counts of `set` — the numerator/denominator of
    /// the `span_fraction` metric.
    pub fn coverage(&self, set: &RwSet) -> (usize, usize) {
        let local = set.ids().iter().filter(|&&id| self.is_local(id)).count();
        (local, set.len())
    }

    /// The subset of `set` stored by this replica (what a remote write-set
    /// application touches here).
    pub fn local_subset(&self, set: &RwSet) -> RwSet {
        // Filtering a sorted set preserves order.
        RwSet::from_sorted(set.ids().iter().copied().filter(|&id| self.is_local(id)).collect())
    }
}

impl IndexPlacement for SpanPlacement {
    fn probe(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, usize) {
        self.inner.probe_where(read_set, start_seq, |id| self.is_local(id))
    }

    fn index_writes(&mut self, seq: u64, writes: &RwSet) {
        let SpanPlacement { inner, span_of, owned } = self;
        inner.index_writes_where(seq, writes, |id| {
            (span_of)(id).is_none_or(|s| owned.binary_search(&s).is_ok())
        });
    }

    fn unindex_writes(&mut self, seq: u64, writes: &RwSet) {
        let SpanPlacement { inner, span_of, owned } = self;
        inner.unindex_writes_where(seq, writes, |id| {
            (span_of)(id).is_none_or(|s| owned.binary_search(&s).is_ok())
        });
    }
}

/// A partially replicating site's certifier: the generic
/// [`HistoryCertifier`] over a [`SpanPlacement`]. Drive it with
/// [`HistoryCertifier::vote`] / [`merge_votes`] /
/// [`HistoryCertifier::apply`]; its `certify` would decide from the local
/// span alone, which is only correct when the placement covers every span.
pub type SpanCertifier = HistoryCertifier<SpanPlacement>;

impl SpanCertifier {
    /// Creates a certifier owning `owned` spans under the `span_of` key,
    /// with an empty history; the first committed transaction receives
    /// sequence number 1.
    pub fn with_span(span_of: ShardKeyFn, owned: impl IntoIterator<Item = u64>) -> Self {
        HistoryCertifier::from_placement(SpanPlacement::new(span_of, owned))
    }

    /// True when this replica stores `id` (owned span or `None`-span).
    pub fn is_local(&self, id: TupleId) -> bool {
        self.place.is_local(id)
    }

    /// The owned span ids, sorted ascending.
    pub fn owned_spans(&self) -> &[u64] {
        self.place.owned_spans()
    }

    /// `(local, total)` id counts of `set` on this replica.
    pub fn coverage(&self, set: &RwSet) -> (usize, usize) {
        self.place.coverage(set)
    }

    /// The subset of `set` stored by this replica.
    pub fn local_subset(&self, set: &RwSet) -> RwSet {
        self.place.local_subset(set)
    }
}

/// Combines per-span verdicts by the earliest-conflict rule: the merged
/// conflict is the lowest sequence number any voter reported, `None` when
/// every voter passed. Exactly the full certifier's rule, so a covering
/// vote set reproduces its outcome bit for bit.
pub fn merge_votes(votes: impl IntoIterator<Item = Option<u64>>) -> Option<u64> {
    votes.into_iter().flatten().min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::Outcome;
    use crate::request::CertRequest;
    use crate::tuple::TableId;
    use crate::{IndexedCertifier, SiteId};

    /// Test span key: span = row % 4; table 0 and wildcards are global.
    fn span4(id: TupleId) -> Option<u64> {
        if id.is_table_level() || id.table().0 == 0 {
            None
        } else {
            Some(id.row() % 4)
        }
    }

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
    fn locality_honours_owned_spans_and_globals() {
        let c = SpanCertifier::with_span(span4, [1, 3]);
        assert!(c.is_local(id(1, 5)), "row 5 -> span 1, owned");
        assert!(!c.is_local(id(1, 4)), "row 4 -> span 0, foreign");
        assert!(c.is_local(id(0, 4)), "table 0 is global");
        assert!(c.is_local(TupleId::table_level(TableId(7))), "wildcards are global");
        assert_eq!(c.owned_spans(), &[1, 3]);
    }

    #[test]
    fn foreign_tuples_cost_no_probe_work() {
        let mut c = SpanCertifier::with_span(span4, [1]);
        c.apply(&req(0, 1, 0, &[], &[id(1, 1), id(1, 2)]), Outcome::Commit(1));
        // Only the foreign tuple: zero probes, no verdict.
        let (conflict, work) = c.vote(&req(1, 2, 0, &[id(1, 2)], &[])).expect("vote");
        assert_eq!(conflict, None);
        assert_eq!(work.probes, 0, "foreign span is not probed");
        // The local tuple conflicts and is charged.
        let (conflict, work) = c.vote(&req(1, 3, 0, &[id(1, 1)], &[])).expect("vote");
        assert_eq!(conflict, Some(1));
        assert!(work.probes > 0);
    }

    #[test]
    fn apply_keeps_sequence_lockstep_without_indexing_foreign_writes() {
        let mut c = SpanCertifier::with_span(span4, [0]);
        // A commit writing only foreign tuples still consumes the sequence
        // number (every replica applies the same decision stream).
        c.apply(&req(0, 1, 0, &[], &[id(1, 1)]), Outcome::Commit(1));
        assert_eq!(c.last_committed(), 1);
        // An abort consumes nothing.
        c.apply(&req(0, 2, 0, &[id(1, 4)], &[]), Outcome::Abort { conflict_seq: 1 });
        assert_eq!(c.last_committed(), 1);
        // The foreign write was not indexed: a local-span read of the same
        // row (impossible in a real placement, but the index must agree).
        let (conflict, _) = c.vote(&req(1, 3, 0, &[id(1, 4)], &[])).expect("vote");
        assert_eq!(conflict, None);
    }

    #[test]
    fn covering_votes_merge_to_the_full_verdict() {
        // Two replicas covering spans {0,1} and {2,3}; a full certifier is
        // the ground truth.
        let mut a = SpanCertifier::with_span(span4, [0, 1]);
        let mut b = SpanCertifier::with_span(span4, [2, 3]);
        let mut full = IndexedCertifier::new();
        let stream = [
            req(0, 1, 0, &[], &[id(1, 4), id(1, 6)]), // spans 0 and 2
            req(0, 2, 0, &[], &[id(1, 5)]),           // span 1
            req(1, 3, 0, &[id(1, 6), id(1, 5)], &[]), // cross-span reader
            req(1, 4, 1, &[id(1, 6)], &[id(1, 7)]),
            req(0, 5, 2, &[id(0, 9)], &[id(0, 9)]), // global tuples
        ];
        for r in &stream {
            let va = a.vote(r).expect("a");
            let vb = b.vote(r).expect("b");
            let merged = merge_votes([va.0, vb.0]);
            let (expect, _) = full.certify(r).expect("full");
            let outcome = match merged {
                Some(conflict_seq) => Outcome::Abort { conflict_seq },
                None => Outcome::Commit(a.last_committed() + 1),
            };
            assert_eq!(outcome, expect, "txn {} diverged", r.txn);
            a.apply(r, outcome);
            b.apply(r, outcome);
            assert_eq!(a.last_committed(), full.last_committed());
            assert_eq!(b.last_committed(), full.last_committed());
        }
    }

    #[test]
    fn cross_span_conflict_aborts_identically_on_every_voting_site() {
        // The integration shape: a transaction reading spans owned by
        // different sites conflicts only on the remote span; the merged
        // abort is applied identically everywhere.
        let mut members: Vec<SpanCertifier> = vec![
            SpanCertifier::with_span(span4, [0, 1]),
            SpanCertifier::with_span(span4, [1, 2]),
            SpanCertifier::with_span(span4, [2, 3]),
            SpanCertifier::with_span(span4, [3, 0]),
        ];
        let mut full = IndexedCertifier::new();
        let writer = req(0, 1, 0, &[], &[id(1, 6)]); // span 2
        let reader = req(3, 2, 0, &[id(1, 4), id(1, 6)], &[id(1, 4)]); // spans 0+2
        for r in [&writer, &reader] {
            let votes: Vec<Option<u64>> =
                members.iter().map(|m| m.vote(r).expect("vote").0).collect();
            let merged = merge_votes(votes.iter().copied());
            let (expect, _) = full.certify(r).expect("full");
            let outcome = match merged {
                Some(conflict_seq) => Outcome::Abort { conflict_seq },
                None => Outcome::Commit(full.last_committed()),
            };
            assert_eq!(outcome, expect);
            for m in &mut members {
                m.apply(r, outcome);
            }
        }
        // The reader aborted: only sites owning span 2 saw the conflict,
        // but *all* sites recorded the same abort (sequence unchanged).
        for m in &members {
            assert_eq!(m.last_committed(), 1);
            assert_eq!(m.last_committed(), full.last_committed());
        }
    }

    #[test]
    fn gc_keeps_filtered_history_consistent() {
        let mut c = SpanCertifier::with_span(span4, [1]);
        for i in 0..40u64 {
            // Mixed local/foreign/global writes.
            let w = [id(1, i % 8 + 1), id(0, 3)];
            c.apply(&req(0, i, i, &[], &w), Outcome::Commit(i + 1));
        }
        assert_eq!(c.history_len(), 40);
        c.gc(38);
        assert_eq!(c.history_len(), 2);
        assert_eq!(c.low_water(), 38);
        // Votes against fresh snapshots still work after eviction.
        let (conflict, _) = c.vote(&req(1, 99, 38, &[id(0, 3)], &[])).expect("fresh");
        assert!(conflict.is_some(), "surviving global writers still indexed");
        let err = c.vote(&req(1, 100, 2, &[id(1, 1)], &[])).expect_err("stale");
        assert_eq!(err.low_water, 38);
    }

    #[test]
    fn local_subset_and_coverage() {
        let c = SpanCertifier::with_span(span4, [0]);
        let set: RwSet = [id(1, 4), id(1, 5), id(0, 1)].into_iter().collect();
        assert_eq!(c.coverage(&set), (2, 3));
        let local = c.local_subset(&set);
        assert_eq!(local.ids(), &[id(0, 1), id(1, 4)]);
    }
}
