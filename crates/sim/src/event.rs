//! Event identifiers, action slots and the scheduler's monotone radix queue.
//!
//! Scheduled actions live in a slab of `Slot`s recycled through a free
//! list; the queue holds only each event's `(time, seq)` key and slot index.
//! An [`EventId`] names both the slot and the sequence number of the event
//! that occupied it, so a cancel of an executed or already-cancelled event
//! is inert even after the slot has been handed to a newer event. A slot
//! holds either a boxed closure or, for a CPU job's completion, an unboxed
//! kernel action (see [`Action`]).

use crate::cpu::Bank;
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Handle to a scheduled event, usable to [cancel](crate::Sim::cancel) it.
///
/// The sequence number inside is unique for the lifetime of a
/// [`Sim`](crate::Sim) instance and is never reused; the slot it names is
/// recycled once the event runs or is cancelled, and the sequence number is
/// what tells a stale id from the slot's new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl EventId {
    /// A sentinel id that no scheduled event ever receives.
    pub const NONE: EventId = EventId { seq: u64::MAX, slot: u32::MAX };
}

/// The action executed when an event fires.
///
/// Most actions are boxed `FnOnce` closures; they typically capture `Rc`
/// handles to the components they operate on. The kernel is single-threaded
/// so no `Send` bound is required. The most frequent event of all, a CPU
/// job's completion, is a kernel action of its own: the bank's state and the
/// CPU's index, run without a closure allocation.
pub(crate) enum Action {
    Boxed(Box<dyn FnOnce()>),
    CpuDone(Rc<RefCell<Bank>>, u32),
}

/// One slab entry: the sequence number of the event that last occupied it
/// and, while that event is pending, its action.
pub(crate) struct Slot {
    pub seq: u64,
    pub action: Option<Action>,
}

/// A queued event: its ordering key and the slot holding its action.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    /// Simulated time in nanoseconds.
    pub at: u64,
    pub seq: u64,
    pub slot: u32,
}

impl Queued {
    pub fn new(at: SimTime, seq: u64, slot: u32) -> Self {
        Queued { at: at.as_nanos(), seq, slot }
    }

    /// Key establishing deterministic execution order: earlier time first,
    /// then FIFO by insertion order (the monotone sequence number).
    pub fn key(self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// The largest key an event at or before `t` can carry.
pub(crate) fn last_key_at(t: SimTime) -> u128 {
    (u128::from(t.as_nanos()) << 64) | u128::from(u64::MAX)
}

/// A monotone radix heap over 128-bit keys.
///
/// Every key pushed is strictly greater than the last key popped (`last`):
/// events are never scheduled in the past and sequence numbers grow. The
/// scheduler also pops the entries of cancelled events, which may lie past
/// the clock; when such pops empty the queue, `last` is reset to zero, as an
/// empty queue constrains no key, so an idle clock can schedule again. An
/// entry lives in the bucket numbered by the highest bit in which its key
/// differs from `last`, so bucket `i` holds keys below those of every higher
/// bucket. Push is O(1); pop takes the lowest non-empty bucket, commits its
/// minimum as the new `last` and moves the rest into strictly lower buckets,
/// so each entry is moved at most 128 times over its life.
#[derive(Default)]
pub(crate) struct RadixQueue {
    /// Allocated on first push, so an idle queue costs nothing.
    buckets: Vec<Vec<Queued>>,
    /// Bit `i` is set when bucket `i` is non-empty.
    occupied: u128,
    last: u128,
}

impl RadixQueue {
    pub fn push(&mut self, e: Queued) {
        assert!(e.key() > self.last, "radix queue key below the last pop");
        if self.buckets.is_empty() {
            self.buckets.resize_with(128, Vec::new);
        }
        self.insert(e);
    }

    fn insert(&mut self, e: Queued) {
        let b = 127 - (e.key() ^ self.last).leading_zeros() as usize;
        self.buckets[b].push(e);
        self.occupied |= 1 << b;
    }

    /// Removes and returns the entry with the smallest key, unless that key
    /// exceeds `limit`: then nothing moves, and in particular `last` is not
    /// advanced, so keys between `last` and `limit` may still be pushed.
    pub fn pop_at_most(&mut self, limit: u128) -> Option<Queued> {
        if self.occupied == 0 {
            self.last = 0;
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        let bucket = &mut self.buckets[b];
        let (i, min) = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.key())
            .map(|(i, e)| (i, *e))
            .expect("occupied bucket is non-empty");
        if min.key() > limit {
            return None;
        }
        bucket.swap_remove(i);
        self.last = min.key();
        self.occupied &= !(1 << b);
        if !bucket.is_empty() {
            let mut rest = std::mem::take(bucket);
            for e in rest.drain(..) {
                self.insert(e);
            }
            self.buckets[b] = rest;
        }
        Some(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(at: u64, seq: u64) -> Queued {
        Queued::new(SimTime::from_nanos(at), seq, 0)
    }

    #[test]
    fn heap_order_is_time_then_fifo() {
        let mut queue = RadixQueue::default();
        queue.push(q(10, 2));
        queue.push(q(5, 3));
        queue.push(q(10, 1));
        let order: Vec<u64> =
            std::iter::from_fn(|| queue.pop_at_most(u128::MAX)).map(|e| e.seq).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn a_refused_pop_leaves_room_below_the_minimum() {
        let mut queue = RadixQueue::default();
        queue.push(q(100, 1));
        assert!(queue.pop_at_most(last_key_at(SimTime::from_nanos(50))).is_none());
        // The refused minimum was not committed: a key below it still fits.
        queue.push(q(50, 2));
        let order: Vec<u64> =
            std::iter::from_fn(|| queue.pop_at_most(u128::MAX)).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn none_sentinel_is_distinct() {
        assert_ne!(EventId::NONE, EventId { seq: 0, slot: 0 });
    }
}
