//! Span-restricted certification for partial replication.
//!
//! Under *genuine partial replication* (Sutra & Shapiro) each replica
//! stores — and therefore can certify — only the rows of the warehouses it
//! replicates, its **span**. A [`ShardKeyFn`] maps every tuple to a span
//! (tuples it maps to `None` — the shared item catalogue, table-level
//! wildcards — are replicated everywhere), and
//! [`IndexedCertifier::with_span`](crate::IndexedCertifier::with_span)
//! builds a certifier whose probe index holds exactly its spans' slice of
//! the committed write history: ids outside the owned span set are skipped
//! *without performing any probe work*, which is where the k/N
//! certification saving comes from. It is driven through the vote/apply
//! split instead of the one-shot `certify`:
//!
//! * [`vote`](crate::IndexedCertifier::vote) probes the local spans and
//!   returns the site's *verdict* — the lowest conflicting sequence number
//!   among the tuples it indexes, or `None`;
//! * [`merge_votes`] combines a covering set of per-span verdicts by the
//!   same earliest-conflict rule the full certifier uses;
//! * [`apply`](crate::IndexedCertifier::apply) applies the merged decision,
//!   advancing the shared sequence counter in lockstep on every replica
//!   while indexing only the local slice of the write-set.
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
//! (`tests/properties.rs`) checks this against an unrestricted certifier
//! over random streams, placements and gc interleavings.

use crate::tuple::TupleId;

/// Maps a tuple to the span (partition of the tuple space) that stores it,
/// or `None` for tuples every replica stores.
///
/// The function must be **pure** — same tuple, same span — so every replica
/// of a placement agrees on who owns what. For the TPC-C workload the span
/// is the 0-based home warehouse
/// (`dbsm_tpcc::schema::home_warehouse_shard_key`).
pub type ShardKeyFn = fn(TupleId) -> Option<u64>;

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
    use crate::rwset::RwSet;
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
        let c = IndexedCertifier::with_span(span4, [1, 3]);
        assert!(c.is_local(id(1, 5)), "row 5 -> span 1, owned");
        assert!(!c.is_local(id(1, 4)), "row 4 -> span 0, foreign");
        assert!(c.is_local(id(0, 4)), "table 0 is global");
        assert!(c.is_local(TupleId::table_level(TableId(7))), "wildcards are global");
        assert_eq!(c.owned_spans(), &[1, 3]);
    }

    #[test]
    fn foreign_tuples_cost_no_probe_work() {
        let mut c = IndexedCertifier::with_span(span4, [1]);
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
        let mut c = IndexedCertifier::with_span(span4, [0]);
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
    #[should_panic(expected = "decision applied out of order")]
    fn applying_a_commit_out_of_order_panics() {
        // A fresh certifier expects Commit(1): applying Commit(5) would
        // desync its sequence counter from every other replica's.
        let mut c = IndexedCertifier::with_span(span4, [0]);
        c.apply(&req(0, 1, 0, &[], &[id(1, 4)]), Outcome::Commit(5));
    }

    #[test]
    fn covering_votes_merge_to_the_full_verdict() {
        // Two replicas covering spans {0,1} and {2,3}; a full certifier is
        // the ground truth.
        let mut a = IndexedCertifier::with_span(span4, [0, 1]);
        let mut b = IndexedCertifier::with_span(span4, [2, 3]);
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
        let mut members: Vec<IndexedCertifier> = vec![
            IndexedCertifier::with_span(span4, [0, 1]),
            IndexedCertifier::with_span(span4, [1, 2]),
            IndexedCertifier::with_span(span4, [2, 3]),
            IndexedCertifier::with_span(span4, [3, 0]),
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
        let mut c = IndexedCertifier::with_span(span4, [1]);
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
        let c = IndexedCertifier::with_span(span4, [0]);
        let set: RwSet = [id(1, 4), id(1, 5), id(0, 1)].into_iter().collect();
        assert_eq!(c.coverage(&set), (2, 3));
        let local = c.local_subset(&set);
        assert_eq!(local.ids(), &[id(0, 1), id(1, 4)]);
    }
}
