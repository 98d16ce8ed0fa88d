//! The lock table implementing the paper's PostgreSQL-style multi-version
//! policy (§3.1): fetched items are ignored; updated items are locked
//! exclusively; all of a transaction's locks are acquired atomically and
//! released atomically at commit/abort, which makes deadlock impossible
//! (access sets are known upfront, and no transaction waits while holding).
//!
//! Outcome rules on release:
//!
//! * **commit** — waiters on the released locks *abort* (write-write
//!   conflict against the newly committed version);
//! * **abort** — waiters may acquire.
//!
//! Remotely-certified transactions preempt local lock holders ("local
//! transactions holding the same locks are preempted and aborted right
//! away"), except holders already past certification, which cannot abort.
//! A [`Conservative2pl`](CcPolicy::Conservative2pl) variant (waiters survive
//! commits) is provided for the locking-policy ablation the paper mentions.
//!
//! # The wait queues
//!
//! Every queued request gets an *arrival number*, and each tuple it wants
//! gets that number pushed to the back of the tuple's own FIFO wait queue,
//! kept in a map looked up by tuple only. Arrivals are handed out in
//! increasing order, so every queue is sorted. Most queues hold a single
//! waiter, which the map stores inline; a second waiter spills the queue
//! into a slot of an overflow slab, and the queue moves back inline when it
//! is down to one and leaves the map with its last waiter. Reading a
//! queue's head is one hash lookup, enqueueing a push to the back, and a
//! withdrawal a binary search and a removal within that tuple's queue.
//! Nothing ever walks the waiters that do not share a tuple with the
//! request at hand:
//!
//! * `acquire` is blocked by the queue iff one of its tuples has a
//!   non-empty queue — `|set|` lookups, none at all while nobody waits;
//! * a committing `release` aborts exactly the non-remote waiters queued on
//!   the released tuples, in arrival order;
//! * re-granting looks only at the queue heads of the *touched* tuples —
//!   those released, and those of every waiter the release removed. A
//!   waiter is grantable iff each of its tuples is free *and* it heads each
//!   of those queues. No waiter is grantable between operations (it queued
//!   because a tuple was held or queued for, and it is re-examined whenever
//!   that stops being so), so a waiter can only become grantable by heading
//!   a touched queue; and a grant frees nothing and leaves every tuple it
//!   was queued for held, so it makes no second waiter grantable: one pass
//!   over the heads, in arrival order, is complete.
//!
//! A release therefore costs `O(|set| + Σ |set of each waiter it aborts or
//! grants|)` expected hash lookups, plus `O(log q)` per removal from a queue
//! of `q` waiters, whatever the number of unrelated waiters. Lock sets
//! are reference-counted slices: the table keeps the caller's allocation
//! from acquisition to release, moving it from waiter to holder on a grant.

use dbsm_cert::{FxHashMap, TupleId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Engine-local transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// Who a lock owner is, for conflict arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerKind {
    /// Local transaction still abortable (executing / waiting).
    LocalAbortable,
    /// Local transaction past the point of no return (certifying or
    /// writing back a certified commit).
    LocalPinned,
    /// Remote (already certified) transaction; never aborted.
    Remote,
}

/// Concurrency-control policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CcPolicy {
    /// The paper's multi-version emulation: waiters abort when the holder
    /// commits.
    #[default]
    MultiVersion,
    /// Conservative two-phase locking: waiters acquire after the holder
    /// commits (no waiter aborts).
    Conservative2pl,
}

/// A transaction's lock request: holding when in `holders`, queued when in
/// `waiters`.
#[derive(Debug)]
struct Request {
    txn: TxnId,
    set: Arc<[TupleId]>,
    kind: OwnerKind,
}

/// What happened to the waiters after a release or preemption.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReleaseEffects {
    /// Waiters granted all their locks (in FIFO order).
    pub granted: Vec<TxnId>,
    /// Waiters aborted by the policy (write-write conflict with a commit).
    pub aborted: Vec<TxnId>,
}

/// Result of an acquisition attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquire {
    /// All locks granted.
    Granted,
    /// Conflicts exist; the transaction queued FIFO.
    Queued,
    /// (Remote only) conflicts are local abortable holders that must be
    /// aborted by the engine; the remote acquisition retries afterwards.
    Preempt(Vec<TxnId>),
}

/// Tag of a `queues` word naming a slot of `spilled` (arrival numbers never
/// reach it).
const SPILLED: u64 = 1 << 63;

/// The site-wide lock table.
#[derive(Debug, Default)]
pub struct LockTable {
    policy: CcPolicy,
    /// Holder of every locked tuple. This map, `holders` and `arrivals` are
    /// only looked up by key, never iterated, so hash order cannot leak.
    held: FxHashMap<TupleId, TxnId>,
    holders: FxHashMap<TxnId, Request>,
    /// Queued requests by arrival number: iteration order is FIFO order.
    waiters: BTreeMap<u64, Request>,
    /// Arrival number of every queued transaction, for withdrawal.
    arrivals: FxHashMap<TxnId, u64>,
    /// The wait queue of every tuple some request waits for (see the module
    /// docs), as one word: the arrival number of its only waiter, or
    /// `SPILLED | slot`. Only looked up by key, never iterated.
    queues: FxHashMap<TupleId, u64>,
    /// Slots of the queues holding two waiters or more, oldest first; a
    /// slot on `free` is empty and kept for reuse.
    spilled: Vec<VecDeque<u64>>,
    free: Vec<usize>,
    next_arrival: u64,
    /// Queue entries looked up, walked, inserted or removed so far.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl LockTable {
    /// Creates an empty table under `policy`.
    pub fn new(policy: CcPolicy) -> Self {
        LockTable { policy, ..LockTable::default() }
    }

    /// Number of transactions currently holding locks.
    pub fn holder_count(&self) -> usize {
        self.holders.len()
    }

    /// Number of transactions waiting.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// True if `txn` currently holds its locks.
    pub fn is_holder(&self, txn: TxnId) -> bool {
        self.holders.contains_key(&txn)
    }

    /// Attempts to atomically acquire write locks on `set` for `txn`.
    ///
    /// An empty set is granted trivially. Remote transactions report
    /// [`Acquire::Preempt`] when blocked (only) by abortable local holders.
    /// The table keeps `set` as handed over: pass an `Arc<[TupleId]>` to
    /// retry after a preemption without copying it again.
    ///
    /// # Panics
    ///
    /// Panics if `txn` already holds or waits (each transaction acquires
    /// exactly once), or if `set` contains table-level entries (writes are
    /// always row-level in the supported workloads).
    pub fn acquire(
        &mut self,
        txn: TxnId,
        set: impl Into<Arc<[TupleId]>>,
        kind: OwnerKind,
    ) -> Acquire {
        let set: Arc<[TupleId]> = set.into();
        assert!(!self.holders.contains_key(&txn), "{txn:?} already holds locks");
        assert!(!self.arrivals.contains_key(&txn), "{txn:?} already waits");
        let mut conflicts: Vec<TxnId> = Vec::new();
        for t in set.iter() {
            assert!(!t.is_table_level(), "row-level writes only: {t:?}");
            if let Some(h) = self.held.get(t) {
                if !conflicts.contains(h) {
                    conflicts.push(*h);
                }
            }
        }
        // FIFO fairness: a new request also waits behind queued waiters
        // that want any of the same locks.
        let free = conflicts.is_empty()
            && (self.queues.is_empty() || set.iter().all(|t| self.queue_head(*t).is_none()));
        if free {
            self.grant(Request { txn, set, kind });
            return Acquire::Granted;
        }
        if kind == OwnerKind::Remote {
            let abortable: Vec<TxnId> = conflicts
                .into_iter()
                .filter(|c| self.holders[c].kind == OwnerKind::LocalAbortable)
                .collect();
            if !abortable.is_empty() {
                return Acquire::Preempt(abortable);
            }
        }
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        for t in set.iter() {
            self.enqueue(*t, arrival);
        }
        self.arrivals.insert(txn, arrival);
        self.waiters.insert(arrival, Request { txn, set, kind });
        Acquire::Queued
    }

    fn grant(&mut self, req: Request) {
        for t in req.set.iter() {
            self.held.insert(*t, req.txn);
        }
        self.holders.insert(req.txn, req);
    }

    /// Marks a holder as past the point of no return (entering
    /// certification / write-back): remote preemption will wait instead of
    /// aborting it.
    pub fn pin(&mut self, txn: TxnId) {
        if let Some(h) = self.holders.get_mut(&txn) {
            if h.kind == OwnerKind::LocalAbortable {
                h.kind = OwnerKind::LocalPinned;
            }
        }
    }

    /// Releases all locks of `txn`. `committed` selects the policy outcome
    /// for waiters. Also used to abort a *waiting* transaction (its queue
    /// entry is removed).
    pub fn release(&mut self, txn: TxnId, committed: bool) -> ReleaseEffects {
        let mut effects = ReleaseEffects::default();
        // Lock sets whose tuples' queues may have a new grantable head.
        let mut touched: Vec<Arc<[TupleId]>> = Vec::new();
        if let Some(holder) = self.holders.remove(&txn) {
            for t in holder.set.iter() {
                self.held.remove(t);
            }
            if self.queues.is_empty() {
                return effects;
            }
            // Multi-version rule: waiters wanting the committed locks abort —
            // but never remote waiters (they are certified and must apply).
            if committed && self.policy == CcPolicy::MultiVersion {
                let mut victims: Vec<u64> = Vec::new();
                for t in holder.set.iter() {
                    for arrival in self.queue(*t) {
                        self.visit();
                        if self.waiters[&arrival].kind != OwnerKind::Remote {
                            victims.push(arrival);
                        }
                    }
                }
                victims.sort_unstable();
                victims.dedup();
                for arrival in victims {
                    let w = self.dequeue(arrival);
                    effects.aborted.push(w.txn);
                    touched.push(w.set);
                }
            }
            touched.push(holder.set);
        } else if let Some(&arrival) = self.arrivals.get(&txn) {
            // A waiter withdrawing (e.g. aborted while queued).
            touched.push(self.dequeue(arrival).set);
        }
        // Grant whichever waiters can now proceed, in FIFO order.
        let mut heads: Vec<u64> =
            touched.iter().flat_map(|s| s.iter()).filter_map(|t| self.queue_head(*t)).collect();
        heads.sort_unstable();
        heads.dedup();
        for arrival in heads {
            let set = &self.waiters[&arrival].set;
            let grantable = set
                .iter()
                .all(|t| !self.held.contains_key(t) && self.queue_head(*t) == Some(arrival));
            if grantable {
                let w = self.dequeue(arrival);
                effects.granted.push(w.txn);
                self.grant(w);
            }
        }
        effects
    }

    /// Pushes `arrival`, the newest request, to the back of `t`'s queue.
    fn enqueue(&mut self, t: TupleId, arrival: u64) {
        self.visit();
        match self.queues.entry(t) {
            Entry::Vacant(e) => {
                e.insert(arrival);
            }
            Entry::Occupied(mut e) => {
                let word = *e.get();
                if word & SPILLED != 0 {
                    self.spilled[(word & !SPILLED) as usize].push_back(arrival);
                    return;
                }
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.spilled.push(VecDeque::new());
                    self.spilled.len() - 1
                });
                self.spilled[slot].extend([word, arrival]);
                e.insert(SPILLED | slot as u64);
            }
        }
    }

    /// The wait queue of `t`: arrival numbers, oldest first.
    fn queue(&self, t: TupleId) -> impl Iterator<Item = u64> + '_ {
        let (front, back) = match self.queues.get(&t) {
            None => (&[][..], &[][..]),
            Some(word) if word & SPILLED == 0 => (std::slice::from_ref(word), &[][..]),
            Some(word) => self.spilled[(word & !SPILLED) as usize].as_slices(),
        };
        front.iter().chain(back).copied()
    }

    /// Arrival number of the oldest request queued for `t`.
    fn queue_head(&self, t: TupleId) -> Option<u64> {
        self.visit();
        let word = *self.queues.get(&t)?;
        if word & SPILLED == 0 {
            return Some(word);
        }
        // A spilled queue holds two waiters or more.
        Some(self.spilled[(word & !SPILLED) as usize][0])
    }

    /// Removes the request that arrived as `arrival` from the waiters and
    /// from the queue of each of its tuples.
    fn dequeue(&mut self, arrival: u64) -> Request {
        let w = self.waiters.remove(&arrival).expect("queued request");
        self.arrivals.remove(&w.txn);
        for t in w.set.iter() {
            self.visit();
            let Entry::Occupied(mut e) = self.queues.entry(*t) else {
                unreachable!("{t:?} has no wait queue");
            };
            let word = *e.get();
            if word & SPILLED == 0 {
                debug_assert_eq!(word, arrival, "only waiter of {t:?}");
                e.remove();
                continue;
            }
            let slot = (word & !SPILLED) as usize;
            let q = &mut self.spilled[slot];
            let at = q.binary_search(&arrival).expect("queued for its tuples");
            q.remove(at);
            if q.len() == 1 {
                e.insert(q.pop_front().expect("one waiter left"));
                self.free.push(slot);
            }
        }
        w
    }

    #[cfg(test)]
    fn visit(&self) {
        self.visits.set(self.visits.get() + 1);
    }

    #[cfg(not(test))]
    fn visit(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsm_cert::TableId;

    fn id(r: u64) -> TupleId {
        TupleId::new(TableId(1), r)
    }

    fn table() -> LockTable {
        LockTable::new(CcPolicy::MultiVersion)
    }

    #[test]
    fn disjoint_sets_acquire_concurrently() {
        let mut lt = table();
        assert_eq!(lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable), Acquire::Granted);
        assert_eq!(lt.acquire(TxnId(2), vec![id(2)], OwnerKind::LocalAbortable), Acquire::Granted);
        assert_eq!(lt.holder_count(), 2);
    }

    #[test]
    fn empty_set_is_trivially_granted() {
        let mut lt = table();
        assert_eq!(lt.acquire(TxnId(1), vec![], OwnerKind::LocalAbortable), Acquire::Granted);
    }

    #[test]
    fn conflicting_acquire_queues_fifo() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        assert_eq!(lt.acquire(TxnId(2), vec![id(1)], OwnerKind::LocalAbortable), Acquire::Queued);
        assert_eq!(lt.waiter_count(), 1);
    }

    #[test]
    fn commit_aborts_waiters_multiversion() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1), id(2)], OwnerKind::LocalAbortable);
        lt.acquire(TxnId(2), vec![id(1)], OwnerKind::LocalAbortable);
        lt.acquire(TxnId(3), vec![id(9)], OwnerKind::LocalAbortable);
        let fx = lt.release(TxnId(1), true);
        assert_eq!(fx.aborted, vec![TxnId(2)], "waiter on committed lock aborts");
        assert!(fx.granted.is_empty());
        assert_eq!(lt.holder_count(), 1, "txn3 unaffected");
    }

    #[test]
    fn abort_lets_waiters_acquire() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        lt.acquire(TxnId(2), vec![id(1)], OwnerKind::LocalAbortable);
        let fx = lt.release(TxnId(1), false);
        assert_eq!(fx.granted, vec![TxnId(2)]);
        assert!(fx.aborted.is_empty());
        assert!(lt.is_holder(TxnId(2)));
    }

    #[test]
    fn conservative_2pl_grants_after_commit() {
        let mut lt = LockTable::new(CcPolicy::Conservative2pl);
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        lt.acquire(TxnId(2), vec![id(1)], OwnerKind::LocalAbortable);
        let fx = lt.release(TxnId(1), true);
        assert_eq!(fx.granted, vec![TxnId(2)]);
        assert!(fx.aborted.is_empty());
    }

    #[test]
    fn remote_preempts_abortable_local() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        match lt.acquire(TxnId(100), vec![id(1)], OwnerKind::Remote) {
            Acquire::Preempt(victims) => assert_eq!(victims, vec![TxnId(1)]),
            other => panic!("expected preempt, got {other:?}"),
        }
        // Engine aborts the victim, then retries.
        let fx = lt.release(TxnId(1), false);
        assert!(fx.granted.is_empty());
        assert_eq!(lt.acquire(TxnId(100), vec![id(1)], OwnerKind::Remote), Acquire::Granted);
    }

    #[test]
    fn remote_waits_for_pinned_local() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        lt.pin(TxnId(1));
        assert_eq!(lt.acquire(TxnId(100), vec![id(1)], OwnerKind::Remote), Acquire::Queued);
        // Pinned local commits; the remote waiter survives (it must apply)
        // and acquires.
        let fx = lt.release(TxnId(1), true);
        assert_eq!(fx.granted, vec![TxnId(100)]);
        assert!(fx.aborted.is_empty());
    }

    #[test]
    fn remote_queues_behind_remote() {
        let mut lt = table();
        lt.acquire(TxnId(100), vec![id(1)], OwnerKind::Remote);
        assert_eq!(lt.acquire(TxnId(101), vec![id(1)], OwnerKind::Remote), Acquire::Queued);
        let fx = lt.release(TxnId(100), true);
        assert_eq!(fx.granted, vec![TxnId(101)]);
    }

    #[test]
    fn fifo_no_queue_jumping() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        lt.acquire(TxnId(2), vec![id(1), id(2)], OwnerKind::LocalAbortable);
        // Txn 3 wants id(2), free right now — but txn 2 queued first for it.
        assert_eq!(lt.acquire(TxnId(3), vec![id(2)], OwnerKind::LocalAbortable), Acquire::Queued);
        let fx = lt.release(TxnId(1), false);
        assert_eq!(fx.granted, vec![TxnId(2)], "FIFO order respected");
        let fx = lt.release(TxnId(2), false);
        assert_eq!(fx.granted, vec![TxnId(3)]);
    }

    #[test]
    fn waiting_txn_can_withdraw() {
        let mut lt = table();
        lt.acquire(TxnId(1), vec![id(1)], OwnerKind::LocalAbortable);
        lt.acquire(TxnId(2), vec![id(1)], OwnerKind::LocalAbortable);
        let fx = lt.release(TxnId(2), false);
        assert_eq!(fx, ReleaseEffects::default());
        assert_eq!(lt.waiter_count(), 0);
        let fx = lt.release(TxnId(1), true);
        assert!(fx.aborted.is_empty(), "withdrawn waiter not aborted again");
    }

    #[test]
    fn atomic_acquisition_prevents_deadlock() {
        // Classic deadlock shape: T1 wants {1,2}, T2 wants {2,1}. With
        // atomic acquisition one of them gets both, the other waits.
        let mut lt = table();
        assert_eq!(
            lt.acquire(TxnId(1), vec![id(1), id(2)], OwnerKind::LocalAbortable),
            Acquire::Granted
        );
        assert_eq!(
            lt.acquire(TxnId(2), vec![id(2), id(1)], OwnerKind::LocalAbortable),
            Acquire::Queued
        );
        let fx = lt.release(TxnId(1), false);
        assert_eq!(fx.granted, vec![TxnId(2)]);
    }

    /// Queued requests a full scan would grant right now: every tuple free
    /// and wanted by no earlier waiter.
    fn grantable_waiters(lt: &LockTable) -> Vec<TxnId> {
        let mut reserved: Vec<TupleId> = Vec::new();
        let mut out = Vec::new();
        for w in lt.waiters.values() {
            if w.set.iter().all(|t| !lt.held.contains_key(t) && !reserved.contains(t)) {
                out.push(w.txn);
            }
            reserved.extend(w.set.iter().copied());
        }
        out
    }

    /// Drives `lt` through a contended pseudo-random stream of 4 000
    /// acquisitions and releases over 10 tuples, calling `check` with the
    /// step number and the transactions holding or queued after every
    /// step. Returns those still live and the numbers of grants and aborts.
    fn contended_stream(
        lt: &mut LockTable,
        mut check: impl FnMut(&LockTable, u64, &[TxnId]),
    ) -> (Vec<TxnId>, usize, usize) {
        let mut live: Vec<TxnId> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let (mut grants, mut aborts) = (0, 0);
        for k in 1..=4000u64 {
            if live.is_empty() || (live.len() < 16 && rand(2) == 0) {
                let mut set: Vec<TupleId> = (0..1 + rand(4)).map(|_| id(1 + rand(10))).collect();
                set.sort_unstable();
                set.dedup();
                let kind = if rand(4) == 0 { OwnerKind::Remote } else { OwnerKind::LocalAbortable };
                match lt.acquire(TxnId(k), set, kind) {
                    Acquire::Granted | Acquire::Queued => live.push(TxnId(k)),
                    Acquire::Preempt(_) => {}
                }
            } else {
                let txn = live.swap_remove(rand(live.len() as u64) as usize);
                let fx = lt.release(txn, rand(2) == 0);
                grants += fx.granted.len();
                aborts += fx.aborted.len();
                live.retain(|t| !fx.aborted.contains(t));
            }
            check(lt, k, &live);
        }
        (live, grants, aborts)
    }

    #[test]
    fn one_regrant_pass_is_complete() {
        // The argument `release` rests on: after any operation no queued
        // request is grantable, so a grant never makes a second waiter
        // grantable and nothing needs a second pass. Checked by a full scan
        // after every step of a contended pseudo-random stream.
        for policy in [CcPolicy::MultiVersion, CcPolicy::Conservative2pl] {
            let mut lt = LockTable::new(policy);
            let (_, grants, aborts) = contended_stream(&mut lt, |lt, k, live| {
                assert_eq!(grantable_waiters(lt), vec![], "step {k}");
                assert_eq!(lt.holder_count() + lt.waiter_count(), live.len());
            });
            assert!(grants > 100, "the stream exercises re-granting: {grants}");
            assert_eq!(aborts > 100, policy == CcPolicy::MultiVersion);
        }
    }

    #[test]
    fn no_queue_storage_outlives_its_waiters() {
        for policy in [CcPolicy::MultiVersion, CcPolicy::Conservative2pl] {
            let mut lt = LockTable::new(policy);
            let mut most_spilled = 0;
            let (mut live, _, _) = contended_stream(&mut lt, |lt, _, _| {
                most_spilled = most_spilled.max(lt.spilled.len() - lt.free.len());
            });
            assert!(most_spilled > 1, "the stream spills queues: {most_spilled}");
            while let Some(txn) = live.pop() {
                let fx = lt.release(txn, true);
                live.retain(|t| !fx.aborted.contains(t));
            }
            assert_eq!((lt.holder_count(), lt.waiter_count()), (0, 0));
            assert!(lt.queues.is_empty(), "a wait queue outlived its waiters");
            assert_eq!(lt.free.len(), lt.spilled.len(), "a spilled slot is still live");
            assert!(lt.spilled.iter().all(VecDeque::is_empty));
        }
    }

    #[test]
    #[should_panic(expected = "row-level writes only")]
    fn table_level_write_panics() {
        let mut lt = table();
        let set = vec![id(1), TupleId::table_level(TableId(1))];
        lt.acquire(TxnId(1), set, OwnerKind::LocalAbortable);
    }

    /// Queue entries visited by four operations next to `unrelated` queued
    /// requests on other tuples: an acquire/commit pair on a disjoint set of
    /// 8, the withdrawal of a waiter of 3 tuples, the commit of a holder of
    /// 2 tuples that aborts 3 waiters (7 tuples between them) and lets a
    /// remote one through, and the abort of a holder of 2 that grants 1.
    fn visits_beside(unrelated: u64) -> [u64; 4] {
        let mut lt = table();
        for k in 0..unrelated {
            lt.acquire(TxnId(2 * k), vec![id(1000 + k)], OwnerKind::LocalAbortable);
            let w = lt.acquire(TxnId(2 * k + 1), vec![id(1000 + k)], OwnerKind::LocalAbortable);
            assert_eq!(w, Acquire::Queued);
        }
        let t = |n: u64| TxnId(1_000_000 + n);
        let local = OwnerKind::LocalAbortable;
        // Visits spent since `mark`, which is moved up to now.
        let spent = |lt: &LockTable, mark: &mut u64| {
            let since = lt.visits.get() - *mark;
            *mark = lt.visits.get();
            since
        };
        let mut mark = lt.visits.get();

        let set: Vec<TupleId> = (1..=8).map(id).collect();
        assert_eq!(lt.acquire(t(0), set, local), Acquire::Granted);
        assert_eq!(lt.release(t(0), true), ReleaseEffects::default());
        let pair = spent(&lt, &mut mark);

        lt.acquire(t(1), vec![id(1), id(2)], local);
        lt.pin(t(1));
        lt.acquire(t(2), vec![id(1), id(3), id(4)], local);
        lt.acquire(t(3), vec![id(1), id(5)], local);
        lt.acquire(t(4), vec![id(2), id(6)], local);
        lt.acquire(t(5), vec![id(2), id(3)], OwnerKind::Remote);
        lt.acquire(t(6), vec![id(5), id(6), id(7)], local);
        assert_eq!(lt.waiter_count() as u64, unrelated + 5);
        spent(&lt, &mut mark);

        assert_eq!(lt.release(t(6), false), ReleaseEffects::default());
        let withdrawal = spent(&lt, &mut mark);

        let fx = lt.release(t(1), true);
        assert_eq!(fx.aborted, vec![t(2), t(3), t(4)]);
        assert_eq!(fx.granted, vec![t(5)]);
        let commit = spent(&lt, &mut mark);

        lt.acquire(t(7), vec![id(3)], local);
        spent(&lt, &mut mark);
        assert_eq!(lt.release(t(5), false).granted, vec![t(7)]);
        let abort = spent(&lt, &mut mark);

        assert_eq!(lt.waiter_count() as u64, unrelated);
        [pair, withdrawal, commit, abort]
    }

    #[test]
    fn work_is_independent_of_unrelated_waiters() {
        let few = visits_beside(10);
        assert_eq!(visits_beside(10_000), few, "10 000 unrelated waiters cost no extra visit");
        // O(|set| + tuples of the affected waiters), small constants: the
        // disjoint pair touches 8 tuples, the withdrawal 3, the aborting
        // commit 2 + 7 + 2, the granting abort 2 + 1.
        let [pair, withdrawal, commit, abort] = few;
        assert!(pair <= 2 * 8, "{pair}");
        assert!(withdrawal <= 3 * 3, "{withdrawal}");
        assert!(commit <= 4 * 11, "{commit}");
        assert!(abort <= 4 * 3, "{abort}");
    }
}
