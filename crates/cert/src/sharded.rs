//! N-way sharded certification: the write-history index partitioned by a
//! tuple shard key, probed in parallel, priced by its critical path.
//!
//! [`ShardedCertifier`] splits the per-table write-history index of
//! [`IndexedCertifier`](crate::IndexedCertifier) into `N` keyed shards plus
//! one *spill* shard. A pure [`ShardKeyFn`] maps every row-level tuple to a
//! partition key (for the TPC-C workload: the home warehouse); tuples with
//! no extractable key and all table-level (wildcard) entries live in the
//! spill shard. Certification probes only the shards the request's read-set
//! actually touches, so independent requests — disjoint key ranges — probe
//! disjoint shards and could be certified by `N` worker threads without
//! synchronizing on a shared index.
//!
//! Decisions are **bit-identical** to [`LinearCertifier`] and
//! [`IndexedCertifier`](crate::IndexedCertifier) for *every* shard count and
//! *every* key function: the shard map only changes where an index entry is
//! stored, never whether a conflict is found or which `conflict_seq` is
//! reported. The property test `sharded_matches_linear_outcome_streams` and
//! this module's unit tests enforce that, including under interleaved
//! garbage collection.
//!
//! What sharding *does* change is the cost shape reported through
//! [`CertWork`]: `probes` stays the total work across all shards, while
//! `critical_probes` is the most-loaded shard's share (the critical path of
//! an N-way parallel certification) and `shards_touched` counts the fan-out
//! that a merge step must join. The simulation prices a sharded
//! certification as `max(per-shard probe cost) + merge × shards touched`
//! instead of the serial sum — or, with first-class shard servers, queues
//! each shard's probes on its own FIFO server.
//!
//! Since the placement refactor the certifier itself is the generic
//! [`HistoryCertifier`](crate::HistoryCertifier); this module contributes
//! only [`ShardedPlacement`], the index-placement strategy.
//!
//! # Index placement
//!
//! * A **row-level write** is indexed in its key's shard (row list and
//!   table any-writer list).
//! * A **table-level (wildcard) write** covers rows in every shard, so it is
//!   replicated into every shard's wildcard and any-writer lists — rare
//!   (only read-set upgrades produce wildcards in TPC-C) and cheap.
//! * A **row-level read** probes exactly its key's shard: the row list plus
//!   that shard's wildcard list (complete, because wildcards are
//!   replicated).
//! * A **table-level read** conflicts with any write to the table, wherever
//!   it was indexed, so it probes every shard's any-writer list — the
//!   cross-shard case the spill/merge pricing accounts for.
//!
//! [`LinearCertifier`]: crate::LinearCertifier
//! [`CertWork`]: crate::CertWork

use crate::placement::{
    evict_front, first_above, HistoryCertifier, IndexPlacement, ShardLoads, TableIndex,
};
use crate::rwset::RwSet;
use crate::tuple::{TableId, TupleId};
use std::collections::HashMap;

/// Maps a row-level tuple to its partition key, or `None` for tuples that
/// have no extractable key (routed to the spill shard).
///
/// The function must be **pure** (same tuple, same key — every replica of a
/// site configuration shards identically) and is never called with
/// table-level entries: wildcards are handled by the certifier itself.
/// Correctness does not depend on the key at all; only load balance does.
pub type ShardKeyFn = fn(TupleId) -> Option<u64>;

/// The default shard key: the row number. Generic and uniform for synthetic
/// workloads; real deployments install a locality-aware key (e.g. the TPC-C
/// home warehouse) so one transaction's tuples cluster in few shards.
pub fn row_shard_key(id: TupleId) -> Option<u64> {
    Some(id.row())
}

/// One shard's slice of the write-history index: per-table row, wildcard
/// and any-writer lists, exactly the [`IndexedCertifier`] structures scoped
/// to the tuples mapped here.
///
/// [`IndexedCertifier`]: crate::IndexedCertifier
#[derive(Debug, Clone, Default)]
struct Shard {
    tables: HashMap<TableId, TableIndex>,
}

/// The N-way sharded index placement: keyed shards `0..n` plus the spill
/// shard at index `n`, each an independent index server. See the module
/// documentation for the placement rules and the equivalence guarantee.
#[derive(Debug, Clone)]
pub struct ShardedPlacement {
    /// Keyed shards `0..n` plus the spill shard at index `n`.
    shards: Vec<Shard>,
    /// The partition key for row-level tuples.
    key: ShardKeyFn,
}

impl ShardedPlacement {
    /// Creates a placement with `shards` keyed shards plus the spill shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, key: ShardKeyFn) -> Self {
        assert!(shards >= 1, "at least one shard");
        ShardedPlacement { shards: vec![Shard::default(); shards + 1], key }
    }

    /// Number of keyed shards (the spill shard is extra).
    pub fn shard_count(&self) -> usize {
        self.shards.len() - 1
    }

    /// Index of the spill shard.
    fn spill(&self) -> usize {
        self.shards.len() - 1
    }

    /// Home shard of a row-level tuple.
    fn shard_of(&self, id: TupleId) -> usize {
        debug_assert!(!id.is_table_level(), "wildcards have no home shard");
        match (self.key)(id) {
            Some(k) => (k % self.shard_count() as u64) as usize,
            None => self.spill(),
        }
    }
}

impl IndexPlacement for ShardedPlacement {
    fn servers(&self) -> usize {
        self.shards.len()
    }

    /// Probes the sharded index for the lowest sequence number above
    /// `start_seq` whose write-set intersects `read_set` — the same answer
    /// the linear scan's first hit gives — while accounting probes per
    /// shard so the fold can report the critical path.
    fn probe(&self, read_set: &RwSet, start_seq: u64, loads: &mut ShardLoads) -> Option<u64> {
        let mut earliest: Option<u64> = None;
        let mut note = |seq: Option<u64>| {
            if let Some(s) = seq {
                earliest = Some(earliest.map_or(s, |e| e.min(s)));
            }
        };
        for id in read_set.ids() {
            if id.is_table_level() {
                // A wildcard read conflicts with any concurrent write to the
                // table, wherever its shard: probe every any-writer list.
                for (s, shard) in self.shards.iter().enumerate() {
                    loads.bump(s, 1);
                    let Some(table) = shard.tables.get(&id.table()) else { continue };
                    loads.bump(s, 1);
                    note(first_above(&table.any_writer, start_seq));
                }
            } else {
                // A row read conflicts with concurrent writes to that row or
                // with a concurrent table-level write; both live in the
                // row's home shard (wildcards are replicated into every
                // shard).
                let s = self.shard_of(*id);
                loads.bump(s, 1);
                let Some(table) = self.shards[s].tables.get(&id.table()) else { continue };
                loads.bump(s, 2);
                note(first_above(&table.wildcard, start_seq));
                if let Some(rows) = table.rows.get(&id.row()) {
                    note(rows.first_above(start_seq));
                }
            }
        }
        earliest
    }

    fn index_writes(&mut self, seq: u64, writes: &RwSet) {
        for id in writes.ids() {
            if id.is_table_level() {
                // A table-level write covers rows in every shard: replicate
                // it so row reads stay single-shard.
                for shard in &mut self.shards {
                    let table = shard.tables.entry(id.table()).or_default();
                    table.wildcard.push_back(seq);
                    if table.any_writer.back() != Some(&seq) {
                        table.any_writer.push_back(seq);
                    }
                }
            } else {
                let s = self.shard_of(*id);
                let table = self.shards[s].tables.entry(id.table()).or_default();
                table.rows.entry(id.row()).or_default().push_back(seq);
                // One any-writer entry per (shard, table, seq): ids of the
                // same table are adjacent in the sorted write-set, and seq
                // is the largest value in every list, so dedup against the
                // back suffices.
                if table.any_writer.back() != Some(&seq) {
                    table.any_writer.push_back(seq);
                }
            }
        }
    }

    /// Removes one retired history entry's contributions from exactly the
    /// shards it was indexed in: each id undoes its own insertion — its
    /// key's shard for a row, every shard for a wildcard — so gc cost
    /// follows the write's real fan-out instead of scaling with the shard
    /// count. `evict_front` pops only an exact front match and gc retires
    /// history oldest-first, so revisiting a (shard, table) pair for a
    /// second id of the same write is a harmless no-op.
    fn unindex_writes(&mut self, seq: u64, writes: &RwSet) {
        for id in writes.ids() {
            if id.is_table_level() {
                for shard in &mut self.shards {
                    if let Some(table) = shard.tables.get_mut(&id.table()) {
                        evict_front(&mut table.wildcard, seq);
                        evict_front(&mut table.any_writer, seq);
                        if table.is_empty() {
                            shard.tables.remove(&id.table());
                        }
                    }
                }
            } else {
                let s = self.shard_of(*id);
                if let Some(table) = self.shards[s].tables.get_mut(&id.table()) {
                    if let Some(rows) = table.rows.get_mut(&id.row()) {
                        rows.evict_front(seq);
                        if rows.is_empty() {
                            table.rows.remove(&id.row());
                        }
                    }
                    evict_front(&mut table.any_writer, seq);
                    if table.is_empty() {
                        self.shards[s].tables.remove(&id.table());
                    }
                }
            }
        }
    }
}

/// A certifier that answers the DBSM conflict check from an N-way sharded
/// write-history index, reporting critical-path cost: the generic
/// [`HistoryCertifier`] at a [`ShardedPlacement`]. See the module
/// documentation for the placement rules and the equivalence guarantee.
pub type ShardedCertifier = HistoryCertifier<ShardedPlacement>;

impl ShardedCertifier {
    /// Creates a sharded certifier with `shards` keyed shards and the
    /// generic [`row_shard_key`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        ShardedCertifier::with_key(shards, row_shard_key)
    }

    /// Creates a sharded certifier with `shards` keyed shards and a custom
    /// partition key (e.g. the TPC-C home warehouse).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_key(shards: usize, key: ShardKeyFn) -> Self {
        HistoryCertifier::from_placement(ShardedPlacement::new(shards, key))
    }

    /// Number of keyed shards (the spill shard is extra).
    pub fn shard_count(&self) -> usize {
        self.place.shard_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certifier::{CertWork, HistoryTruncated, LinearCertifier, Outcome};
    use crate::request::CertRequest;
    use crate::SiteId;

    fn id(t: u16, r: u64) -> TupleId {
        TupleId::new(TableId(t), r)
    }

    fn wild(t: u16) -> TupleId {
        TupleId::table_level(TableId(t))
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

    /// A key that refuses every tuple: everything spills.
    fn no_key(_id: TupleId) -> Option<u64> {
        None
    }

    /// A deterministic pseudo-random request stream exercising rows,
    /// wildcards, varying snapshots and varying set sizes (mirrors the
    /// backend.rs equivalence stream).
    fn stream(len: u64) -> Vec<CertRequest> {
        let mut reqs = Vec::new();
        let mut x = 0x51ed_270b_684e_a0d5u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..len {
            let reads: Vec<TupleId> = (0..rng() % 6)
                .map(|_| {
                    let t = (rng() % 5) as u16;
                    match rng() % 8 {
                        0 => wild(t),
                        r => id(t, r % 97 + 1),
                    }
                })
                .collect();
            let writes: Vec<TupleId> = (0..rng() % 4)
                .map(|_| {
                    let t = (rng() % 5) as u16;
                    match rng() % 16 {
                        0 => wild(t),
                        r => id(t, r % 97 + 1),
                    }
                })
                .collect();
            let back = rng() % 5;
            reqs.push(req((i % 3) as u16, i, i.saturating_sub(back), &reads, &writes));
        }
        reqs
    }

    #[test]
    fn every_shard_count_matches_linear_on_a_mixed_stream() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let mut linear = LinearCertifier::new();
            let mut sharded = ShardedCertifier::new(shards);
            for (i, r) in stream(600).iter().enumerate() {
                let a = linear.certify(r);
                let b = sharded.certify(r);
                assert_eq!(
                    a.map(|(o, _)| o),
                    b.map(|(o, _)| o),
                    "request {i} diverged at {shards} shards"
                );
                if i % 97 == 0 {
                    let stable = linear.last_committed().saturating_sub(16);
                    linear.gc(stable);
                    sharded.gc(stable);
                    assert_eq!(linear.low_water(), sharded.low_water());
                    assert_eq!(linear.history_len(), sharded.history_len());
                }
            }
            assert_eq!(linear.last_committed(), sharded.last_committed());
        }
    }

    #[test]
    fn wildcard_writes_conflict_in_every_shard() {
        // A table-level write is replicated into every shard, so row reads
        // of any shard see it, and the reported conflict_seq matches the
        // linear scan's earliest-writer rule.
        let mut c = ShardedCertifier::new(4);
        c.certify(&req(0, 1, 0, &[], &[wild(1)])).expect("wildcard write"); // seq 1
        c.certify(&req(0, 2, 1, &[], &[id(1, 6)])).expect("row write"); // seq 2
        for row in [1u64, 2, 3, 4, 5] {
            // Rows land in different shards (row % 4); all conflict with the
            // wildcard at seq 1.
            let (o, w) = c.certify(&req(1, 10 + row, 0, &[id(1, row)], &[])).expect("read");
            assert_eq!(o, Outcome::Abort { conflict_seq: 1 }, "row {row}");
            assert_eq!(w.shards_touched, 1, "row reads stay single-shard");
        }
        // Past the wildcard, only the row write at seq 2 conflicts — and
        // only for its own row.
        let (o, _) = c.certify(&req(1, 20, 1, &[id(1, 6)], &[])).expect("read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 2 });
        let (o, _) = c.certify(&req(1, 21, 1, &[id(1, 7)], &[])).expect("read");
        assert!(o.is_commit());
    }

    #[test]
    fn wildcard_reads_fan_out_across_all_shards() {
        let mut c = ShardedCertifier::new(4);
        c.certify(&req(0, 1, 0, &[], &[id(2, 9)])).expect("write"); // shard 1
        let (o, w) = c.certify(&req(1, 2, 0, &[wild(2)], &[])).expect("wild read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(w.shards_touched, 5, "wildcard read probes every shard incl. spill");
        assert!(w.critical_probes <= w.probes);
        // A wildcard read of an unwritten table commits after probing the
        // same fan-out.
        let (o, w) = c.certify(&req(1, 3, 0, &[wild(3)], &[])).expect("clean wild read");
        assert!(o.is_commit());
        assert_eq!(w.shards_touched, 5);
    }

    #[test]
    fn keyless_tuples_certify_through_the_spill_shard() {
        let mut c = ShardedCertifier::with_key(8, no_key);
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("write"); // spills
        let (o, w) = c.certify(&req(1, 2, 0, &[id(1, 5)], &[])).expect("read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(w.shards_touched, 1, "everything funnels through spill");
        assert_eq!(w.critical_probes, w.probes, "single shard: critical path is the total");
        // Disjoint rows still commit — the spill shard is a real index, not
        // a pessimistic catch-all.
        let (o, _) = c.certify(&req(1, 3, 0, &[id(1, 6)], &[])).expect("read");
        assert!(o.is_commit());
    }

    #[test]
    fn critical_path_reports_the_most_loaded_shard() {
        let mut c = ShardedCertifier::new(2);
        // Rows 2,4,6 land in shard 0; row 1 in shard 1 (row % 2).
        for (i, r) in [2u64, 4, 6, 1].iter().enumerate() {
            c.certify(&req(0, i as u64, i as u64, &[], &[id(1, *r)])).expect("write");
        }
        let reads = [id(1, 2), id(1, 4), id(1, 6), id(1, 1)];
        let (ok, w) = c.certify_read_only(&reads.iter().copied().collect(), 0);
        assert!(!ok);
        assert_eq!(w.shards_touched, 2);
        // Shard 0 absorbs three row probes (3 × 3), shard 1 one (1 × 3).
        assert_eq!(w.probes, 12);
        assert_eq!(w.critical_probes, 9, "critical path = the 3-row shard");
    }

    #[test]
    fn speculation_reports_per_shard_loads() {
        // The pipelined path feeds each shard's probe count to its own FIFO
        // server; the loads must agree with the folded CertWork.
        let mut c = ShardedCertifier::new(2);
        for (i, r) in [2u64, 4, 6, 1].iter().enumerate() {
            c.certify(&req(0, i as u64, i as u64, &[], &[id(1, *r)])).expect("write");
        }
        let reads = [id(1, 2), id(1, 4), id(1, 6), id(1, 1)];
        let probe = c.speculate(&req(1, 50, 0, &reads, &[]));
        assert_eq!(probe.work.probes, 12);
        assert_eq!(probe.work.critical_probes, 9);
        let mut loads = probe.loads.clone();
        loads.sort_unstable();
        assert_eq!(loads, vec![(0, 9), (1, 3)]);
    }

    #[test]
    fn gc_then_certify_reports_truncation_per_shard() {
        // The HistoryTruncated edge must behave identically no matter which
        // shard a stale snapshot's reads would probe: the low-water check
        // guards the whole certifier, not one shard's index.
        let mut c = ShardedCertifier::new(4);
        for i in 0..12u64 {
            c.certify(&req(0, i, i, &[], &[id(1, i % 8 + 1)])).expect("fill");
        }
        c.gc(10);
        assert_eq!(c.low_water(), 10);
        assert_eq!(c.history_len(), 2);
        for row in [1u64, 2, 3, 4] {
            let err = c.certify(&req(1, 100 + row, 9, &[id(1, row)], &[])).expect_err("stale");
            assert_eq!(err, HistoryTruncated { start_seq: 9, low_water: 10 });
        }
        // At the low-water mark certification works again, in every shard.
        for row in [1u64, 2, 3, 4] {
            c.certify(&req(1, 200 + row, 10, &[id(2, row)], &[])).expect("fresh");
        }
        // gc clamps to last_committed: over-eager stability estimates never
        // strand the next snapshot.
        c.gc(1_000_000);
        assert_eq!(c.history_len(), 0);
        assert_eq!(c.low_water(), c.last_committed());
        let (o, _) =
            c.certify(&req(1, 300, c.last_committed(), &[id(1, 1)], &[])).expect("post-gc");
        assert!(o.is_commit());
    }

    #[test]
    fn gc_evicts_from_every_shard_incrementally() {
        let mut c = ShardedCertifier::new(3);
        for i in 0..30u64 {
            // Rows spread across shards; every 5th write is a wildcard that
            // replicates into all of them.
            let w: Vec<TupleId> = if i % 5 == 0 { vec![wild(1)] } else { vec![id(1, i % 9 + 1)] };
            c.certify(&req(0, i, i, &[], &w)).expect("fill");
        }
        c.gc(28);
        assert_eq!(c.history_len(), 2);
        // The index answers exactly as a fresh certifier fed the surviving
        // suffix would: only seqs 29 and 30 remain probe-able.
        let (o, _) = c.certify(&req(1, 100, 28, &[id(1, (28 % 9) + 1)], &[])).expect("probe");
        assert_eq!(o, Outcome::Abort { conflict_seq: 29 });
        c.gc(30);
        for shard in &c.place.shards {
            assert!(shard.tables.is_empty(), "full gc empties every shard");
        }
    }

    #[test]
    fn scratch_reuse_leaves_no_state_behind() {
        // Back-to-back certifications must not leak probe counts into each
        // other — the scratch drain resets exactly what it touched.
        let mut c = ShardedCertifier::new(4);
        c.certify(&req(0, 1, 0, &[], &[id(1, 1), id(1, 2), id(1, 3)])).expect("write");
        let (_, w1) = c.certify_read_only(&[id(1, 1), id(1, 2)].into_iter().collect(), 1);
        let (_, w2) = c.certify_read_only(&[id(1, 1), id(1, 2)].into_iter().collect(), 1);
        assert_eq!(w1, w2, "identical probes, identical work");
        let (_, w3) = c.certify_read_only(&RwSet::new(), 1);
        assert_eq!(w3, CertWork::default(), "empty read-set performs no work");
    }

    #[test]
    fn trait_object_roundtrip_via_backend_kind() {
        use crate::backend::CertBackendKind;
        let kind = CertBackendKind::Sharded { shards: 4 };
        assert_eq!(kind.name(), "sharded");
        let mut b = kind.new_backend();
        assert_eq!(b.servers(), 5, "four keyed shards plus spill");
        let (o, w) = b.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("first");
        assert_eq!(o, Outcome::Commit(1));
        assert_eq!(w.shards_touched, 0, "empty read-set probes nothing");
        let (o, w) = b.certify(&req(0, 2, 0, &[id(1, 1)], &[])).expect("second");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(w.shards_touched, 1);
        b.gc(1);
        assert_eq!(b.history_len(), 0);
        assert_eq!(b.low_water(), 1);
    }
}
