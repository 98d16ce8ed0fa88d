//! Pluggable certification backends.
//!
//! The DBSM conflict check (§3.3) is a pure function of the totally ordered
//! request stream, so *how* the write history is organized is an
//! implementation choice as long as every backend reaches bit-identical
//! decisions. [`CertBackend`] captures the contract; two implementations
//! are provided:
//!
//! * [`LinearCertifier`] — the paper-faithful ordered-merge scan of every
//!   concurrent write-set. Cost grows with the conflict window
//!   (`history_scanned` × merge `comparisons`).
//! * [`IndexedCertifier`] — a hash index from tuple id to the sequence
//!   numbers that wrote it, plus per-table wildcard and any-writer interval
//!   lists, so certification probes only the request's own keys. Cost is
//!   O(request) `probes`, independent of the window. This is the default.
//!
//! The indexed backend is also partial replication's span-restricted
//! certifier ([`IndexedCertifier::with_span`]). A property test
//! (`tests/properties.rs`) and this module's equivalence tests hold both
//! backends to identical outcome streams on the same totally ordered input,
//! and the smoke test runs each backend's 3-replica experiment
//! bit-reproducibly.

use crate::certifier::{CertWork, HistoryTruncated, LinearCertifier, Outcome};
use crate::placement::{IndexedCertifier, SpecResolution};
use crate::request::CertRequest;
use crate::rwset::RwSet;

/// The operations the replication layer needs from a certifier, independent
/// of how the write history is organized.
///
/// Implementations must be deterministic functions of the call sequence:
/// every replica feeds its backend the same totally ordered stream and must
/// reach the same [`Outcome`] — including the same `conflict_seq` on aborts,
/// which is defined as the *lowest* sequence number among conflicting
/// concurrent transactions (the first hit of the paper's linear scan).
pub trait CertBackend {
    /// Certifies a request delivered in total order, updating the history
    /// when it commits. See [`LinearCertifier::certify`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark, making a sound decision impossible.
    fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated>;

    /// Certifies a local read-only transaction without consuming a sequence
    /// number. See [`LinearCertifier::certify_read_only`].
    fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork);

    /// Discards history at or below `stable_seq` (clamped to
    /// [`CertBackend::last_committed`]).
    fn gc(&mut self, stable_seq: u64);

    /// Sequence number of the last committed transaction (0 if none).
    fn last_committed(&self) -> u64;

    /// Committed write-sets currently retained.
    fn history_len(&self) -> usize;

    /// Oldest garbage-collected sequence number; snapshots below it cannot
    /// be certified.
    fn low_water(&self) -> u64;

    /// Deep-copies the certifier behind the trait object. This is the donor
    /// half of a rejoin state transfer: a live site snapshots its certifier
    /// at the transfer cut and ships the copy to the rejoining site, which
    /// resumes certification bit-identically from that point (the copy's
    /// history, low-water mark and next sequence number all carry over).
    fn clone_box(&self) -> Box<dyn CertBackend>;

    /// Speculatively certifies a tentatively delivered request (pipelined
    /// commit path); see [`IndexedCertifier::speculate`]. The default
    /// performs no speculation, so [`CertBackend::confirm`] degenerates to a
    /// full synchronous certify.
    fn speculate(&mut self, _req: &CertRequest) -> CertWork {
        CertWork::default()
    }

    /// Resolves a request at total-order delivery time against its
    /// speculation, with the bit-identical outcome of a synchronous
    /// [`CertBackend::certify`]; see [`IndexedCertifier::confirm`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    fn confirm(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Outcome, CertWork, SpecResolution), HistoryTruncated> {
        let (outcome, work) = self.certify(req)?;
        Ok((outcome, work, SpecResolution::Miss))
    }
}

impl CertBackend for LinearCertifier {
    fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        LinearCertifier::certify(self, req)
    }

    fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        LinearCertifier::certify_read_only(self, read_set, start_seq)
    }

    fn gc(&mut self, stable_seq: u64) {
        LinearCertifier::gc(self, stable_seq)
    }

    fn last_committed(&self) -> u64 {
        LinearCertifier::last_committed(self)
    }

    fn history_len(&self) -> usize {
        LinearCertifier::history_len(self)
    }

    fn low_water(&self) -> u64 {
        LinearCertifier::low_water(self)
    }

    fn clone_box(&self) -> Box<dyn CertBackend> {
        Box::new(self.clone())
    }
}

impl CertBackend for IndexedCertifier {
    fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        IndexedCertifier::certify(self, req)
    }

    fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        IndexedCertifier::certify_read_only(self, read_set, start_seq)
    }

    fn gc(&mut self, stable_seq: u64) {
        IndexedCertifier::gc(self, stable_seq)
    }

    fn last_committed(&self) -> u64 {
        IndexedCertifier::last_committed(self)
    }

    fn history_len(&self) -> usize {
        IndexedCertifier::history_len(self)
    }

    fn low_water(&self) -> u64 {
        IndexedCertifier::low_water(self)
    }

    fn speculate(&mut self, req: &CertRequest) -> CertWork {
        IndexedCertifier::speculate(self, req)
    }

    fn confirm(
        &mut self,
        req: &CertRequest,
    ) -> Result<(Outcome, CertWork, SpecResolution), HistoryTruncated> {
        IndexedCertifier::confirm(self, req)
    }

    fn clone_box(&self) -> Box<dyn CertBackend> {
        Box::new(self.clone())
    }
}

/// Selects which [`CertBackend`] implementation a site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertBackendKind {
    /// The paper-faithful ordered-merge scan ([`LinearCertifier`]).
    Linear,
    /// The write-history index ([`IndexedCertifier`]) — the
    /// default: same decisions as the linear scan at O(request) cost.
    #[default]
    Indexed,
}

impl CertBackendKind {
    /// Instantiates a fresh backend of this kind.
    pub fn new_backend(self) -> Box<dyn CertBackend> {
        match self {
            CertBackendKind::Linear => Box::new(LinearCertifier::new()),
            CertBackendKind::Indexed => Box::new(IndexedCertifier::new()),
        }
    }

    /// Short lowercase name (used in bench ids and reports).
    pub fn name(self) -> &'static str {
        match self {
            CertBackendKind::Linear => "linear",
            CertBackendKind::Indexed => "indexed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TableId, TupleId};
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

    /// A deterministic pseudo-random request stream exercising rows,
    /// wildcards, varying snapshots and varying set sizes.
    fn stream(len: u64) -> Vec<CertRequest> {
        let mut reqs = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
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
            // Snapshots trail an optimistic commit count (request i sees at
            // most i commits); exactness does not matter, validity
            // (≥ low_water) does.
            reqs.push(req((i % 3) as u16, i, i.saturating_sub(back), &reads, &writes));
        }
        reqs
    }

    #[test]
    fn backends_agree_on_a_mixed_stream() {
        let mut linear = LinearCertifier::new();
        let mut indexed = IndexedCertifier::new();
        for (i, r) in stream(600).iter().enumerate() {
            let a = linear.certify(r);
            let b = indexed.certify(r);
            assert_eq!(a.map(|(o, _)| o), b.map(|(o, _)| o), "request {i} diverged");
            if i % 97 == 0 {
                let stable = linear.last_committed().saturating_sub(16);
                linear.gc(stable);
                indexed.gc(stable);
                assert_eq!(linear.low_water(), indexed.low_water());
            }
        }
        assert_eq!(linear.last_committed(), indexed.last_committed());
        assert_eq!(linear.history_len(), indexed.history_len());
    }

    #[test]
    fn three_replicas_per_backend_stay_identical() {
        // The deterministic multi-replica check of the linear certifier,
        // replayed across backend kinds: replicas of every kind fed the same
        // totally ordered stream all agree with each other *and* across
        // kinds.
        let mut replicas: Vec<Box<dyn CertBackend>> = vec![
            CertBackendKind::Linear.new_backend(),
            CertBackendKind::Linear.new_backend(),
            CertBackendKind::Linear.new_backend(),
            CertBackendKind::Indexed.new_backend(),
            CertBackendKind::Indexed.new_backend(),
            CertBackendKind::Indexed.new_backend(),
        ];
        for r in &stream(300) {
            let outcomes: Vec<_> =
                replicas.iter_mut().map(|c| c.certify(r).expect("window").0).collect();
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "replicas diverged: {outcomes:?}");
        }
        let heads: Vec<u64> = replicas.iter().map(|c| c.last_committed()).collect();
        assert!(heads.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn abort_reports_the_earliest_conflicting_seq() {
        // Two concurrent writers of the same tuple: the linear scan reports
        // the first (lowest-seq) one, so the index must too.
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("w1"); // seq 1
        c.certify(&req(0, 2, 1, &[], &[id(1, 5)])).expect("w2"); // seq 2
        let (o, _) = c.certify(&req(1, 3, 0, &[id(1, 5)], &[])).expect("reader");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        // A snapshot past the first writer sees only the second.
        let (o, _) = c.certify(&req(1, 4, 1, &[id(1, 5)], &[])).expect("reader");
        assert_eq!(o, Outcome::Abort { conflict_seq: 2 });
    }

    #[test]
    fn wildcard_reads_and_writes_conflict_through_the_index() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(3, 42)])).expect("row write"); // seq 1
        c.certify(&req(0, 2, 1, &[], &[wild(4)])).expect("table write"); // seq 2
                                                                         // Wildcard read vs row write.
        let (o, _) = c.certify(&req(1, 3, 0, &[wild(3)], &[])).expect("wild read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        // Row read vs wildcard write.
        let (o, _) = c.certify(&req(1, 4, 0, &[id(4, 9)], &[])).expect("row read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 2 });
        // Unrelated table commits.
        let (o, _) = c.certify(&req(1, 5, 0, &[id(5, 1)], &[])).expect("clean");
        assert!(o.is_commit());
    }

    #[test]
    fn gc_evicts_index_entries_incrementally() {
        // Commits 1..=32 each write one of four rows of table 1 and the
        // wildcard of table 2; every row collects eight writers in a list.
        let mut c = IndexedCertifier::new();
        for i in 0..32 {
            c.certify(&req(0, i, i, &[], &[id(1, i % 4 + 1), wild(2)])).expect("fill");
        }
        assert_eq!(c.history_len(), 32);
        assert_eq!(c.tables.len(), 2);
        // One sweep at 30 keeps exactly the writers above it, 31 and 32.
        c.gc(30);
        c.check_index();
        assert_eq!(c.history_len(), 2);
        assert!(c.tables.contains_key(&TableId(1)), "table 1 live");
        let writers: Vec<Vec<u64>> = (1..=4).map(|r| c.rows.writers(id(1, r))).collect();
        assert_eq!(
            writers,
            [vec![], vec![], vec![31], vec![32]],
            "only uncollected writers remain"
        );
        let table2 = c.tables.get(&TableId(2)).expect("table 2 live");
        assert_eq!(table2.wildcard, [31, 32]);
        assert_eq!(c.tables.get(&TableId(1)).expect("table 1").any_writer, [31, 32]);
        // A gc that retires no history leaves the index as it was.
        c.gc(30);
        c.check_index();
        assert_eq!(c.history_len(), 2);
        // Full collection drops the tables entirely.
        c.gc(32);
        c.check_index();
        assert!(c.tables.is_empty());
        assert_eq!(c.history_len(), 0);
        // The emptied certifier still certifies fresh snapshots.
        let (o, _) = c.certify(&req(1, 99, 32, &[id(1, 1)], &[])).expect("fresh");
        assert!(o.is_commit());
    }

    #[test]
    fn probe_work_is_independent_of_history_depth() {
        // The acceptance claim behind the refactor: linear work grows with
        // the conflict window, indexed work stays O(request).
        let probe_reads: Vec<TupleId> = (1..=8).map(|r| id(9, r)).collect();
        let mut probes_by_depth = Vec::new();
        let mut scans_by_depth = Vec::new();
        for depth in [64u64, 512, 4096] {
            let mut linear = LinearCertifier::new();
            let mut indexed = IndexedCertifier::new();
            for i in 0..depth {
                let w = [id(1, i % 50 + 1)];
                linear.certify(&req(0, i, i, &[], &w)).expect("fill");
                indexed.certify(&req(0, i, i, &[], &w)).expect("fill");
            }
            let probe = req(1, depth, 0, &probe_reads, &[]);
            let (ol, wl) = linear.certify(&probe).expect("linear");
            let (oi, wi) = indexed.certify(&probe).expect("indexed");
            assert_eq!(ol, oi);
            probes_by_depth.push(wi.probes);
            scans_by_depth.push(wl.history_scanned);
        }
        assert_eq!(probes_by_depth[0], probes_by_depth[2], "probes flat in depth");
        assert!(scans_by_depth[2] > scans_by_depth[0] * 10, "linear scan grows with depth");
    }

    #[test]
    fn default_constructed_certifiers_are_valid() {
        // Regression: a derived Default would zero next_seq and make
        // last_committed() underflow; Default must agree with new().
        assert_eq!(IndexedCertifier::default().last_committed(), 0);
        assert_eq!(LinearCertifier::default().last_committed(), 0);
    }

    #[test]
    fn backend_kind_constructs_and_names() {
        // The default flipped to Indexed once the paper-scale figures were
        // re-validated under it; the linear scan stays selectable.
        assert_eq!(CertBackendKind::default(), CertBackendKind::Indexed);
        assert_eq!(CertBackendKind::Linear.name(), "linear");
        assert_eq!(CertBackendKind::Indexed.name(), "indexed");
        for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
            let mut b = kind.new_backend();
            assert_eq!(b.last_committed(), 0);
            let (o, _) = b.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("first");
            assert_eq!(o, Outcome::Commit(1));
            assert_eq!(b.history_len(), 1);
            b.gc(1);
            assert_eq!(b.history_len(), 0);
            assert_eq!(b.low_water(), 1);
        }
    }

    #[test]
    fn clone_box_resumes_bit_identically_per_kind() {
        // The rejoin state transfer in miniature: feed a prefix, snapshot
        // via clone_box, then feed the same suffix to original and copy —
        // outcomes must match step for step, and the copy must be fully
        // independent of the original afterwards.
        let all = stream(400);
        let (prefix, suffix) = all.split_at(250);
        for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
            let mut donor = kind.new_backend();
            for r in prefix {
                donor.certify(r).expect("prefix");
            }
            donor.gc(donor.last_committed().saturating_sub(64));
            let mut rejoiner = donor.clone_box();
            assert_eq!(rejoiner.last_committed(), donor.last_committed());
            assert_eq!(rejoiner.history_len(), donor.history_len());
            assert_eq!(rejoiner.low_water(), donor.low_water());
            for r in suffix {
                let a = donor.certify(r).expect("donor").0;
                let b = rejoiner.certify(r).expect("rejoiner").0;
                assert_eq!(a, b, "kind {:?} txn {} diverged after clone", kind.name(), r.txn);
            }
            // Independence: mutating the copy leaves the donor untouched.
            rejoiner.gc(rejoiner.last_committed());
            assert_eq!(rejoiner.history_len(), 0);
            assert!(donor.history_len() > 0, "donor unaffected by the copy's gc");
        }
    }

    #[test]
    fn trait_speculation_matches_synchronous_outcomes_per_kind() {
        // Through the trait object — the way the cluster drives it — every
        // kind resolves speculations to the synchronous answer, including
        // the Linear default which simply misses into a full certify.
        for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
            let mut sync = kind.new_backend();
            let mut pipe = kind.new_backend();
            for r in &stream(200) {
                pipe.speculate(r);
                let a = sync.certify(r).expect("sync").0;
                let (b, _, _) = pipe.confirm(r).expect("pipe");
                assert_eq!(a, b, "kind {:?} txn {} diverged", kind.name(), r.txn);
            }
            assert_eq!(sync.last_committed(), pipe.last_committed());
        }
    }
}
