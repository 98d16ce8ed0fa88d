//! The partial-replication placement map: warehouse → replica set.
//!
//! Full replication makes every site store and certify everything, so
//! adding sites buys fault tolerance but zero throughput. Genuine partial
//! replication (Sutra & Shapiro) replicates each warehouse on only
//! `replication_factor` of the `sites` replicas; [`PlacementMap`] is the
//! deterministic assignment every component consults — client routing
//! picks a site owning the transaction's home warehouse, each site's
//! span-restricted [`IndexedCertifier`](dbsm_cert::IndexedCertifier)
//! indexes only the warehouses it owns, and remote write-sets are applied
//! only where they are stored. The map is static; a span re-homed onto a
//! survivor after its replica set died is an overlay on it, and
//! [`Ownership::owns`](crate::replica::Ownership::owns) is the one rule
//! that combines the two.

/// Deterministic warehouse → replica-set assignment: each warehouse
/// (0-based span key, as produced by
/// [`home_warehouse_shard_key`](dbsm_tpcc::schema::home_warehouse_shard_key))
/// lives on `replication_factor` of the `sites` replicas, round-robin:
/// warehouse `w` starts at site `w % sites` and takes the next
/// `replication_factor` sites on the ring — perfectly balanced for the
/// uniform TPC-C warehouse population. A map with
/// `replication_factor >= sites` degenerates to full replication: every
/// site owns every warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementMap {
    /// Number of replicas in the experiment.
    pub sites: usize,
    /// Replicas holding each warehouse (k of N).
    pub replication_factor: usize,
}

/// SplitMix64 finalizer — the same mixer the bench artifact hashing uses,
/// local so the placement stays dependency-free.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PlacementMap {
    /// Creates a map placing each warehouse on `replication_factor` of
    /// `sites` replicas.
    pub fn new(sites: usize, replication_factor: usize) -> Self {
        PlacementMap { sites, replication_factor }
    }

    /// The effective number of replicas per warehouse.
    fn effective_factor(&self) -> usize {
        self.replication_factor.min(self.sites)
    }

    /// The ring position the replica run for `span` starts at.
    fn start(&self, span: u64) -> usize {
        (span % self.sites as u64) as usize
    }

    /// The sites replicating warehouse `span`, in ring order starting at
    /// its primary.
    pub fn replicas(&self, span: u64) -> Vec<usize> {
        let start = self.start(span);
        (0..self.effective_factor()).map(|j| (start + j) % self.sites).collect()
    }

    /// True when `site` replicates warehouse `span`.
    pub fn owns(&self, site: usize, span: u64) -> bool {
        let start = self.start(span);
        (site + self.sites - start) % self.sites < self.effective_factor()
    }

    /// The warehouses out of `0..spans` that `site` replicates — what its
    /// span-restricted [`IndexedCertifier`](dbsm_cert::IndexedCertifier)
    /// indexes.
    pub fn spans_of(&self, site: usize, spans: u64) -> Vec<u64> {
        (0..spans).filter(|&s| self.owns(site, s)).collect()
    }

    /// The survivor elected to adopt a stranded `span`: the rendezvous
    /// (highest-random-weight) winner over the `live` sites. Every site
    /// evaluates this over the same installed view and reaches the same
    /// answer with no coordination round — the weight depends only on
    /// `(span, site)`, so a later view change that removes unrelated sites
    /// leaves existing winners in place (minimal reshuffling, the classic
    /// HRW property). Ties are impossible for distinct sites under a
    /// 64-bit mix, but the max scan resolves them toward the lowest site
    /// id deterministically. Returns `None` when nobody is alive.
    pub fn rendezvous_owner(span: u64, live: &[usize]) -> Option<usize> {
        live.iter()
            .copied()
            .map(|site| (mix64(span ^ mix64(site as u64 + 1)), site))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, site)| site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_balances_and_covers() {
        let p = PlacementMap::new(6, 2);
        let mut per_site = vec![0usize; 6];
        for w in 0..600u64 {
            let reps = p.replicas(w);
            assert_eq!(reps.len(), 2);
            for &s in &reps {
                per_site[s] += 1;
                assert!(p.owns(s, w));
            }
            // Sites off the replica run do not own the warehouse.
            for s in 0..6 {
                assert_eq!(p.owns(s, w), reps.contains(&s), "site {s} warehouse {w}");
            }
        }
        assert!(per_site.iter().all(|&n| n == 200), "round robin balances: {per_site:?}");
    }

    #[test]
    fn spans_of_partitions_the_warehouse_space() {
        let p = PlacementMap::new(3, 2);
        let all: Vec<Vec<u64>> = (0..3).map(|s| p.spans_of(s, 12)).collect();
        for w in 0..12u64 {
            let owners = all.iter().filter(|spans| spans.contains(&w)).count();
            assert_eq!(owners, 2, "warehouse {w} lives on exactly k sites");
        }
    }

    #[test]
    fn full_replication_degenerates() {
        // k >= N: every site owns every warehouse, and each replica run is
        // the whole ring from the warehouse's primary.
        for (sites, k) in [(3, 3), (3, 9), (1, 1)] {
            let p = PlacementMap::new(sites, k);
            for w in 0..12u64 {
                assert!((0..sites).all(|s| p.owns(s, w)), "{sites} sites, k {k}, warehouse {w}");
                let start = w as usize % sites;
                let ring: Vec<usize> = (0..sites).map(|j| (start + j) % sites).collect();
                assert_eq!(p.replicas(w), ring, "{sites} sites, k {k}, warehouse {w}");
            }
        }
        // k < N is not full: some site misses each warehouse.
        let p = PlacementMap::new(3, 2);
        assert!((0..12u64).all(|w| (0..3).any(|s| !p.owns(s, w)) && p.replicas(w).len() == 2));
    }

    #[test]
    fn rendezvous_owner_is_deterministic_and_minimally_disruptive() {
        assert_eq!(PlacementMap::rendezvous_owner(7, &[]), None);
        assert_eq!(PlacementMap::rendezvous_owner(7, &[4]), Some(4));
        let live: Vec<usize> = (0..6).collect();
        for span in 0..200u64 {
            let owner = PlacementMap::rendezvous_owner(span, &live).unwrap();
            // Same answer regardless of the order the survivor list is
            // walked in — each site computes it independently.
            let mut rev = live.clone();
            rev.reverse();
            assert_eq!(PlacementMap::rendezvous_owner(span, &rev), Some(owner));
            // Removing a site that did not win leaves the winner in place.
            let without_loser: Vec<usize> =
                live.iter().copied().filter(|&s| s == owner || s != (owner + 1) % 6).collect();
            assert_eq!(PlacementMap::rendezvous_owner(span, &without_loser), Some(owner));
        }
        // The election spreads spans over survivors rather than piling on
        // one site.
        let mut per_site = vec![0usize; 6];
        for span in 0..600u64 {
            per_site[PlacementMap::rendezvous_owner(span, &live).unwrap()] += 1;
        }
        let (min, max) = (per_site.iter().min().unwrap(), per_site.iter().max().unwrap());
        assert!(max - min < 80, "rendezvous spread stays rough-balanced: {per_site:?}");
    }
}
