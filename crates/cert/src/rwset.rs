//! Read/write sets: sorted, deduplicated lists of [`TupleId`]s.
//!
//! "The runtime is minimized by keeping tuple identifiers ordered in both
//! lists, thus requiring only a single traversal to conclude the procedure"
//! (§3.3). The intersection test below is that single traversal, extended to
//! understand table-level (wildcard) entries.

use crate::tuple::TupleId;

/// A sorted, duplicate-free set of tuple identifiers.
///
/// # Examples
///
/// ```
/// use dbsm_cert::{RwSet, TableId, TupleId};
///
/// let a = RwSet::from_iter([TupleId::new(TableId(1), 5), TupleId::new(TableId(1), 9)]);
/// let b = RwSet::from_iter([TupleId::new(TableId(1), 9)]);
/// assert!(a.intersects(&b));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RwSet {
    ids: Vec<TupleId>,
}

impl RwSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RwSet::default()
    }

    /// Builds a set from an unsorted, possibly duplicated id list.
    pub fn from_unsorted(mut ids: Vec<TupleId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        RwSet { ids }
    }

    /// Builds from a list that the caller guarantees is already sorted and
    /// duplicate-free (e.g. straight off the wire after validation).
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if the invariant does not hold.
    pub fn from_sorted(ids: Vec<TupleId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted and unique");
        RwSet { ids }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the set has no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The entries, sorted ascending.
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// Membership test honouring wildcards in *this* set: a table-level
    /// entry contains every tuple of its table.
    pub fn contains(&self, id: TupleId) -> bool {
        if self.ids.binary_search(&id).is_ok() {
            return true;
        }
        !id.is_table_level() && self.ids.binary_search(&TupleId::table_level(id.table())).is_ok()
    }

    /// Single-traversal intersection test with wildcard awareness: a
    /// table-level entry in either set conflicts with any entry of the same
    /// table in the other.
    pub fn intersects(&self, other: &RwSet) -> bool {
        self.intersect_stats(other).0
    }

    /// Intersection test that also reports how many entries were examined —
    /// the cost driver used to charge simulated CPU for certification.
    pub fn intersect_stats(&self, other: &RwSet) -> (bool, usize) {
        let (a, b) = (&self.ids, &other.ids);
        let (mut i, mut j, mut steps) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            steps += 1;
            let (x, y) = (a[i], b[j]);
            if x == y {
                return (true, steps);
            }
            // Wildcards sort first within their table, so when x < y and x is
            // a wildcard of y's table, it covers y (and vice versa).
            if x < y {
                if x.is_table_level() && x.table() == y.table() {
                    return (true, steps);
                }
                i += 1;
            } else {
                if y.is_table_level() && y.table() == x.table() {
                    return (true, steps);
                }
                j += 1;
            }
        }
        (false, steps)
    }

    /// Upgrades per-tuple entries to a single table-level entry for every
    /// table with more than `threshold` entries — the read-set compression
    /// of §3.3 ("similar to the common practice of upgrading individual
    /// locks on tuples to a single table lock"). Returns the number of
    /// tables upgraded.
    pub fn upgrade_large_tables(&mut self, threshold: usize) -> usize {
        if self.ids.len() <= threshold {
            return 0;
        }
        // First pass: detect whether any table actually exceeds the
        // threshold. Certification runs this per request, and most requests
        // upgrade nothing — deciding that must not allocate.
        if !self.has_table_run_longer_than(threshold) {
            return 0;
        }
        let mut out: Vec<TupleId> = Vec::with_capacity(self.ids.len());
        let mut upgraded = 0usize;
        let mut i = 0;
        while i < self.ids.len() {
            let table = self.ids[i].table();
            let mut j = i;
            while j < self.ids.len() && self.ids[j].table() == table {
                j += 1;
            }
            if j - i > threshold {
                out.push(TupleId::table_level(table));
                upgraded += 1;
            } else {
                out.extend_from_slice(&self.ids[i..j]);
            }
            i = j;
        }
        self.ids = out;
        upgraded
    }

    /// True when some table contributes more than `threshold` entries — the
    /// allocation-free pre-check of [`RwSet::upgrade_large_tables`] (ids are
    /// sorted, so each table is one contiguous run).
    fn has_table_run_longer_than(&self, threshold: usize) -> bool {
        let mut run_start = 0usize;
        for i in 1..=self.ids.len() {
            if i == self.ids.len() || self.ids[i].table() != self.ids[run_start].table() {
                if i - run_start > threshold {
                    return true;
                }
                run_start = i;
            }
        }
        false
    }

    /// Merges `other` into this set.
    pub fn union_with(&mut self, other: &RwSet) {
        if other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (a, b) = (&self.ids, &other.ids);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.ids = merged;
    }
}

impl FromIterator<TupleId> for RwSet {
    fn from_iter<T: IntoIterator<Item = TupleId>>(iter: T) -> Self {
        RwSet::from_unsorted(iter.into_iter().collect())
    }
}

impl Extend<TupleId> for RwSet {
    fn extend<T: IntoIterator<Item = TupleId>>(&mut self, iter: T) {
        let add: RwSet = iter.into_iter().collect();
        self.union_with(&add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TableId;

    fn id(t: u16, r: u64) -> TupleId {
        TupleId::new(TableId(t), r)
    }

    fn wild(t: u16) -> TupleId {
        TupleId::table_level(TableId(t))
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let s = RwSet::from_unsorted(vec![id(1, 3), id(1, 1), id(1, 3), id(0, 9)]);
        assert_eq!(s.ids(), &[id(0, 9), id(1, 1), id(1, 3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn disjoint_sets_do_not_intersect() {
        let a = RwSet::from_iter([id(1, 1), id(1, 3)]);
        let b = RwSet::from_iter([id(1, 2), id(2, 1)]);
        assert!(!a.intersects(&b));
        assert!(!b.intersects(&a));
    }

    #[test]
    fn shared_tuple_intersects() {
        let a = RwSet::from_iter([id(1, 1), id(2, 7)]);
        let b = RwSet::from_iter([id(2, 7)]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn wildcard_conflicts_with_same_table_rows() {
        let a = RwSet::from_iter([wild(2)]);
        let b = RwSet::from_iter([id(2, 99)]);
        let c = RwSet::from_iter([id(3, 99)]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        // Wildcard vs wildcard of the same table.
        let d = RwSet::from_iter([wild(2)]);
        assert!(a.intersects(&d));
    }

    #[test]
    fn empty_sets_never_intersect() {
        let a = RwSet::new();
        let b = RwSet::from_iter([id(1, 1)]);
        assert!(!a.intersects(&b));
        assert!(!b.intersects(&a));
        assert!(!a.intersects(&RwSet::new()));
        assert!(a.is_empty());
    }

    #[test]
    fn contains_honours_wildcards() {
        let s = RwSet::from_iter([wild(1), id(2, 5)]);
        assert!(s.contains(id(1, 123)));
        assert!(s.contains(id(2, 5)));
        assert!(!s.contains(id(2, 6)));
        assert!(s.contains(wild(1)));
        assert!(!s.contains(wild(2)));
    }

    #[test]
    fn upgrade_compresses_large_tables_only() {
        let mut s: RwSet = (1..=10).map(|r| id(1, r)).chain([id(2, 1)]).collect();
        let upgraded = s.upgrade_large_tables(5);
        assert_eq!(upgraded, 1);
        assert_eq!(s.ids(), &[wild(1), id(2, 1)]);
        // Below threshold: untouched.
        let mut t: RwSet = (1..=3).map(|r| id(1, r)).collect();
        assert_eq!(t.upgrade_large_tables(5), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn upgrade_fast_path_skips_sets_with_no_oversized_table() {
        // Total size above the threshold but no single table over it: the
        // allocation-free pre-check must decline without rebuilding.
        let mut s: RwSet = (1u16..=3).flat_map(|t| (1..=3).map(move |r| id(t, r))).collect();
        assert_eq!(s.len(), 9);
        let before = s.clone();
        assert_eq!(s.upgrade_large_tables(5), 0);
        assert_eq!(s, before, "set untouched when nothing upgrades");
        // And the boundary: exactly threshold entries in one table does not
        // upgrade, threshold+1 does.
        let mut at: RwSet = (1..=5).map(|r| id(7, r)).chain([id(8, 1)]).collect();
        assert_eq!(at.upgrade_large_tables(5), 0);
        let mut over: RwSet = (1..=6).map(|r| id(7, r)).chain([id(8, 1)]).collect();
        assert_eq!(over.upgrade_large_tables(5), 1);
        assert_eq!(over.ids()[0], wild(7));
    }

    #[test]
    fn upgraded_set_still_conflicts_with_original_rows() {
        let mut big: RwSet = (1..=100).map(|r| id(7, r)).collect();
        big.upgrade_large_tables(10);
        let probe = RwSet::from_iter([id(7, 55)]);
        assert!(big.intersects(&probe));
    }

    #[test]
    fn union_merges_sorted() {
        let mut a = RwSet::from_iter([id(1, 1), id(1, 5)]);
        a.union_with(&RwSet::from_iter([id(1, 3), id(1, 5)]));
        assert_eq!(a.ids(), &[id(1, 1), id(1, 3), id(1, 5)]);
    }

    #[test]
    fn intersect_stats_reports_work() {
        let a: RwSet = (1..=100).map(|r| id(1, 2 * r)).collect();
        let b: RwSet = (1..=100).map(|r| id(1, 2 * r + 1)).collect();
        let (hit, steps) = a.intersect_stats(&b);
        assert!(!hit);
        assert!(steps >= 100, "steps {steps}");
    }
}
