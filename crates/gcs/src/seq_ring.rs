//! [`SeqRing`]: a map keyed by a dense, mostly monotone sequence number.
//!
//! The stack's per-stream buffers — out-of-order and retained fragments
//! and the own send buffer — and the simulation bridge's timer table are all keyed by a per-stream sequence
//! number that grows by one, get consumed from the front and garbage
//! collected as a prefix. A ring of optional slots from the lowest live key
//! serves that pattern in O(1) per step, where a `BTreeMap` paid a tree
//! walk per insert and remove and rebuilt itself on every prefix cut.
//!
//! Keys must stay dense: the ring spans from its lowest to its highest live
//! key, holes included, so it suits keys that lie within a flow-control or
//! timer window of each other.

use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

/// A map from `u64` sequence numbers to values, stored as a ring of slots
/// from the lowest live key to the highest. Iteration is in key order.
#[derive(Debug)]
pub(crate) struct SeqRing<V> {
    /// Key of `slots[0]`; meaningless while the ring is empty.
    base: u64,
    /// Never starts or ends with a hole.
    slots: VecDeque<Option<V>>,
    /// Occupied slots.
    len: usize,
}

impl<V> Default for SeqRing<V> {
    fn default() -> Self {
        SeqRing { base: 0, slots: VecDeque::new(), len: 0 }
    }
}

impl<V> SeqRing<V> {
    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn index(&self, key: u64) -> Option<usize> {
        let i = usize::try_from(key.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The value at `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.slots[self.index(key)?].as_ref()
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` at `key`, returning the value it replaces. A key
    /// below the lowest present one grows the ring at the front.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if self.slots.is_empty() {
            self.base = key;
        } else if key < self.base {
            for _ in key..self.base {
                self.slots.push_front(None);
            }
            self.base = key;
        }
        let i = usize::try_from(key - self.base).expect("sequence gap fits memory");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.index(key)?;
        let value = self.slots[i].take()?;
        self.len -= 1;
        self.trim();
        Some(value)
    }

    /// Removes every key `<= key`: the prefix a cumulative ack or a
    /// stability step garbage-collects.
    pub fn drop_through(&mut self, key: u64) {
        if self.is_empty() || key < self.base {
            return;
        }
        let n = (key - self.base).saturating_add(1);
        if n >= self.slots.len() as u64 {
            self.clear();
            return;
        }
        for slot in self.slots.drain(..n as usize) {
            self.len -= usize::from(slot.is_some());
        }
        self.base += n;
        self.trim();
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Restores the no-hole-at-either-end invariant after a removal.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
    }

    /// The present keys within `range` and their values, in key order.
    pub fn range(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = (u64, &V)> {
        let end = self.base.saturating_add(self.slots.len() as u64);
        let lo = match range.start_bound() {
            Bound::Included(&k) => k,
            Bound::Excluded(&k) => k.saturating_add(1),
            Bound::Unbounded => 0,
        }
        .clamp(self.base, end);
        let hi = match range.end_bound() {
            Bound::Included(&k) => k.saturating_add(1),
            Bound::Excluded(&k) => k,
            Bound::Unbounded => end,
        }
        .clamp(lo, end);
        let (from, to) = ((lo - self.base) as usize, (hi - self.base) as usize);
        let base = self.base;
        self.slots
            .range(from..to)
            .enumerate()
            .filter_map(move |(i, v)| Some((base + (from + i) as u64, v.as_ref()?)))
    }

    /// The present keys, in order.
    #[cfg(test)]
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.range(..).map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        DropThrough(u64),
        Get(u64),
        Range(u64, u64),
        First,
        Clear,
    }

    /// Keys within a window, so holes, gc past the end and re-insertion
    /// below the base all come up often.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..48, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..48, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..48, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..48).prop_map(Op::Remove),
            (0u64..56).prop_map(Op::DropThrough),
            (0u64..48).prop_map(Op::Get),
            (0u64..56, 0u64..56).prop_map(|(a, b)| Op::Range(a, b)),
            // Clear rarely, so the ring grows between clears.
            (0u8..8).prop_map(|x| if x == 0 { Op::Clear } else { Op::First }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn ring_matches_a_btreemap(ops in prop::collection::vec(op(), 1..120)) {
            let mut ring = SeqRing::default();
            let mut model = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(ring.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(ring.remove(k), model.remove(&k)),
                    Op::DropThrough(k) => {
                        ring.drop_through(k);
                        model = model.split_off(&(k + 1));
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(ring.get(k), model.get(&k));
                        prop_assert_eq!(ring.contains_key(k), model.contains_key(&k));
                    }
                    Op::Range(a, b) => {
                        let got: Vec<(u64, u32)> = ring.range(a..=b).map(|(k, v)| (k, *v)).collect();
                        let want: Vec<(u64, u32)> = if a <= b {
                            model.range(a..=b).map(|(k, v)| (*k, *v)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(got, want);
                        let below: Vec<u64> = ring.range(..a).map(|(k, _)| k).collect();
                        prop_assert_eq!(below, model.range(..a).map(|(k, _)| *k).collect::<Vec<_>>());
                    }
                    Op::First => prop_assert_eq!(ring.keys().next(), model.keys().next().copied()),
                    Op::Clear => {
                        ring.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert_eq!(ring.keys().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn front_consumption_and_prefix_gc_keep_the_ring_tight() {
        let mut ring = SeqRing::default();
        for k in 10..20 {
            ring.insert(k, k);
        }
        ring.remove(15);
        assert_eq!(ring.remove(10), Some(10));
        assert_eq!(ring.keys().next(), Some(11));
        ring.drop_through(16);
        assert_eq!(ring.keys().collect::<Vec<_>>(), vec![17, 18, 19]);
        assert_eq!(ring.slots.len(), 3, "the cut prefix is popped, not kept as holes");
        ring.drop_through(100);
        assert!(ring.is_empty());
        // An emptied ring starts over at whatever key comes next.
        ring.insert(5, 5);
        assert_eq!((ring.keys().next(), ring.slots.len()), (Some(5), 1));
    }
}
