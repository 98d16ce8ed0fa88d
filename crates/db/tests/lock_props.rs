//! Property tests of the lock table: under arbitrary interleavings of
//! acquisitions and releases, the core invariants of the multi-version
//! policy hold — exclusivity, atomicity, no lost waiters, no deadlock — and
//! the table, with its per-tuple wait queues, answers every call exactly
//! like the scan-based one it replaced ([`reference::ScanLockTable`]).

use dbsm_cert::{TableId, TupleId};
use dbsm_db::{Acquire, CcPolicy, LockTable, OwnerKind, TxnId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The lock table as it was before per-tuple wait queues: one FIFO of
/// waiters that `acquire` scans in full, a committing `release` drains and
/// rebuilds, and `regrant` re-walks until nothing moves. Quadratic in queue
/// depth and obviously right — the model the table is held to.
mod reference {
    use dbsm_cert::TupleId;
    use dbsm_db::{Acquire, CcPolicy, OwnerKind, ReleaseEffects, TxnId};
    use std::collections::{BTreeMap, VecDeque};

    struct Holder {
        set: Vec<TupleId>,
        kind: OwnerKind,
    }

    struct Waiter {
        txn: TxnId,
        set: Vec<TupleId>,
        kind: OwnerKind,
    }

    pub struct ScanLockTable {
        policy: CcPolicy,
        held: BTreeMap<TupleId, TxnId>,
        holders: BTreeMap<TxnId, Holder>,
        waiters: VecDeque<Waiter>,
    }

    impl ScanLockTable {
        pub fn new(policy: CcPolicy) -> Self {
            ScanLockTable {
                policy,
                held: BTreeMap::new(),
                holders: BTreeMap::new(),
                waiters: VecDeque::new(),
            }
        }

        pub fn holder_count(&self) -> usize {
            self.holders.len()
        }

        pub fn waiter_count(&self) -> usize {
            self.waiters.len()
        }

        pub fn is_holder(&self, txn: TxnId) -> bool {
            self.holders.contains_key(&txn)
        }

        pub fn acquire(&mut self, txn: TxnId, set: Vec<TupleId>, kind: OwnerKind) -> Acquire {
            assert!(!self.holders.contains_key(&txn), "{txn:?} already holds locks");
            let mut conflicts: Vec<TxnId> = Vec::new();
            for t in &set {
                if let Some(h) = self.held.get(t) {
                    if !conflicts.contains(h) {
                        conflicts.push(*h);
                    }
                }
            }
            let blocked_by_queue =
                self.waiters.iter().any(|w| w.set.iter().any(|t| set.contains(t)));
            if conflicts.is_empty() && !blocked_by_queue {
                for t in &set {
                    self.held.insert(*t, txn);
                }
                self.holders.insert(txn, Holder { set, kind });
                return Acquire::Granted;
            }
            if kind == OwnerKind::Remote {
                let abortable: Vec<TxnId> = conflicts
                    .iter()
                    .copied()
                    .filter(|c| self.holders[c].kind == OwnerKind::LocalAbortable)
                    .collect();
                if !abortable.is_empty() {
                    return Acquire::Preempt(abortable);
                }
            }
            self.waiters.push_back(Waiter { txn, set, kind });
            Acquire::Queued
        }

        pub fn pin(&mut self, txn: TxnId) {
            if let Some(h) = self.holders.get_mut(&txn) {
                if h.kind == OwnerKind::LocalAbortable {
                    h.kind = OwnerKind::LocalPinned;
                }
            }
        }

        pub fn release(&mut self, txn: TxnId, committed: bool) -> ReleaseEffects {
            let mut effects = ReleaseEffects::default();
            let released_set = match self.holders.remove(&txn) {
                Some(h) => {
                    for t in &h.set {
                        self.held.remove(t);
                    }
                    h.set
                }
                None => {
                    self.waiters.retain(|w| w.txn != txn);
                    Vec::new()
                }
            };
            if committed && self.policy == CcPolicy::MultiVersion && !released_set.is_empty() {
                let mut keep = VecDeque::with_capacity(self.waiters.len());
                for w in self.waiters.drain(..) {
                    let hit = w.set.iter().any(|t| released_set.contains(t));
                    if hit && w.kind != OwnerKind::Remote {
                        effects.aborted.push(w.txn);
                    } else {
                        keep.push_back(w);
                    }
                }
                self.waiters = keep;
            }
            self.regrant(&mut effects);
            effects
        }

        fn regrant(&mut self, effects: &mut ReleaseEffects) {
            let mut progressed = true;
            while progressed {
                progressed = false;
                let mut idx = 0;
                let mut reserved: Vec<TupleId> = Vec::new();
                while idx < self.waiters.len() {
                    let w = &self.waiters[idx];
                    let free = w.set.iter().all(|t| !self.held.contains_key(t))
                        && w.set.iter().all(|t| !reserved.contains(t));
                    if free {
                        let w = self.waiters.remove(idx).expect("index in range");
                        for t in &w.set {
                            self.held.insert(*t, w.txn);
                        }
                        effects.granted.push(w.txn);
                        self.holders.insert(w.txn, Holder { set: w.set, kind: w.kind });
                        progressed = true;
                    } else {
                        reserved.extend(w.set.iter().copied());
                        idx += 1;
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Acquire `n_locks` from a small key space for a fresh transaction.
    Acquire { keys: Vec<u8>, remote: bool },
    /// Release the k-th oldest active transaction (commit or abort).
    Release { idx: u8, commit: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![arb_acquire(12, 5), arb_release()]
}

/// An acquisition of 1 to `max_set - 1` keys below `keys`.
fn arb_acquire(keys: u8, max_set: usize) -> impl Strategy<Value = Op> {
    (prop::collection::vec(0..keys, 1..max_set), any::<bool>())
        .prop_map(|(keys, remote)| Op::Acquire { keys, remote })
}

fn arb_release() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<bool>()).prop_map(|(idx, commit)| Op::Release { idx, commit })
}

/// The model test's stream: [`Op`]s (its releases pick among holders *and*
/// waiters) plus pins of the k-th oldest active transaction.
#[derive(Debug, Clone)]
enum ModelOp {
    Op(Op),
    Pin { idx: u8 },
}

fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    // One pin for every three acquisitions or releases (the vendored
    // `prop_oneof!` has no weights).
    let op = || arb_op().prop_map(ModelOp::Op);
    prop_oneof![op(), op(), op(), arb_pin()]
}

fn arb_pin() -> impl Strategy<Value = ModelOp> {
    any::<u8>().prop_map(|idx| ModelOp::Pin { idx })
}

/// The hot-key stream: three acquisitions of 1–3 of only 3 keys for every
/// release and every pin, so a few queues grow deep and drain again.
fn arb_hot_key_op() -> impl Strategy<Value = ModelOp> {
    let acquire = || arb_acquire(3, 4).prop_map(ModelOp::Op);
    prop_oneof![acquire(), acquire(), acquire(), arb_release().prop_map(ModelOp::Op), arb_pin()]
}

fn tid(k: u8) -> TupleId {
    TupleId::new(TableId(1), u64::from(k) + 1)
}

/// Drives the table and [`reference::ScanLockTable`] under `policy` with
/// one stream of `ops`, asserting after every call that both answer alike.
/// Releases pick among holders *and* waiters, and a preempting remote
/// acquisition runs the engine's abort-the-victims-and-retry loop.
fn check_against_reference(ops: Vec<ModelOp>, policy: CcPolicy) {
    let mut lt = LockTable::new(policy);
    let mut model = reference::ScanLockTable::new(policy);
    // Every transaction holding or queued, oldest first.
    let mut live: Vec<TxnId> = Vec::new();
    let mut next = 1u64;
    for op in ops {
        match op {
            ModelOp::Op(Op::Acquire { mut keys, remote }) => {
                keys.sort_unstable();
                keys.dedup();
                let txn = TxnId(next);
                next += 1;
                let set: Vec<TupleId> = keys.iter().map(|k| tid(*k)).collect();
                let kind = if remote { OwnerKind::Remote } else { OwnerKind::LocalAbortable };
                loop {
                    let got = lt.acquire(txn, set.clone(), kind);
                    assert_eq!(&got, &model.acquire(txn, set.clone(), kind));
                    let Acquire::Preempt(victims) = got else {
                        live.push(txn);
                        break;
                    };
                    assert!(!victims.is_empty(), "a preemption names its victims");
                    for v in victims {
                        let fx = lt.release(v, false);
                        assert_eq!(&fx, &model.release(v, false));
                        live.retain(|t| *t != v && !fx.aborted.contains(t));
                    }
                }
            }
            ModelOp::Op(Op::Release { idx, commit }) => {
                if live.is_empty() {
                    continue;
                }
                let txn = live.remove(idx as usize % live.len());
                let fx = lt.release(txn, commit);
                assert_eq!(&fx, &model.release(txn, commit));
                for g in &fx.granted {
                    assert!(lt.is_holder(*g) && model.is_holder(*g));
                }
                live.retain(|t| !fx.aborted.contains(t));
            }
            ModelOp::Pin { idx } => {
                if live.is_empty() {
                    continue;
                }
                let txn = live[idx as usize % live.len()];
                lt.pin(txn);
                model.pin(txn);
            }
        }
        assert_eq!(lt.holder_count(), model.holder_count());
        assert_eq!(lt.waiter_count(), model.waiter_count());
        assert_eq!(lt.holder_count() + lt.waiter_count(), live.len());
    }
    // Drain in arrival order: every grant along the way must agree too.
    while !live.is_empty() {
        let txn = live.remove(0);
        let fx = lt.release(txn, true);
        assert_eq!(&fx, &model.release(txn, true));
        live.retain(|t| !fx.aborted.contains(t));
    }
    assert_eq!((lt.holder_count(), lt.waiter_count()), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn lock_table_invariants_hold(ops in prop::collection::vec(arb_op(), 1..80)) {
        let mut lt = LockTable::new(CcPolicy::MultiVersion);
        let mut next = 1u64;
        // Transactions we believe hold locks, with their sets.
        let mut holders: BTreeMap<TxnId, Vec<u8>> = BTreeMap::new();
        // Transactions queued (waiting).
        let mut waiting: BTreeMap<TxnId, Vec<u8>> = BTreeMap::new();
        let mut order: Vec<TxnId> = Vec::new();

        for op in ops {
            match op {
                Op::Acquire { mut keys, remote } => {
                    keys.sort_unstable();
                    keys.dedup();
                    let txn = TxnId(next);
                    next += 1;
                    let set: Vec<TupleId> = keys.iter().map(|k| tid(*k)).collect();
                    let kind = if remote { OwnerKind::Remote } else { OwnerKind::LocalAbortable };
                    match lt.acquire(txn, set, kind) {
                        Acquire::Granted => {
                            // Exclusivity: no current holder shares a key.
                            for (other, oset) in &holders {
                                prop_assert!(
                                    !oset.iter().any(|k| keys.contains(k)),
                                    "{txn:?} granted over {other:?}"
                                );
                            }
                            holders.insert(txn, keys);
                            order.push(txn);
                        }
                        Acquire::Queued => {
                            waiting.insert(txn, keys);
                            order.push(txn);
                        }
                        Acquire::Preempt(victims) => {
                            prop_assert!(remote, "only remotes preempt");
                            // Abort victims and retry, exactly like the
                            // engine: granted waiters may surface as fresh
                            // conflicts, so this loops — but each round
                            // aborts at least one local, so it terminates.
                            let mut pending = victims;
                            let mut rounds = 0;
                            loop {
                                rounds += 1;
                                prop_assert!(rounds < 100, "preempt loop diverged");
                                for v in &pending {
                                    prop_assert!(holders.remove(v).is_some(), "victim {v:?} held");
                                    let fx = lt.release(*v, false);
                                    for g in fx.granted {
                                        let set = waiting.remove(&g).expect("waiter granted");
                                        holders.insert(g, set);
                                    }
                                    for a in fx.aborted {
                                        prop_assert!(waiting.remove(&a).is_some());
                                    }
                                }
                                let set: Vec<TupleId> = keys.iter().map(|k| tid(*k)).collect();
                                match lt.acquire(txn, set, kind) {
                                    Acquire::Granted => {
                                        holders.insert(txn, keys);
                                        break;
                                    }
                                    Acquire::Queued => {
                                        waiting.insert(txn, keys);
                                        break;
                                    }
                                    Acquire::Preempt(v) => pending = v,
                                }
                            }
                            order.push(txn);
                        }
                    }
                }
                Op::Release { idx, commit } => {
                    let active: Vec<TxnId> =
                        order.iter().filter(|t| holders.contains_key(t)).copied().collect();
                    if active.is_empty() {
                        continue;
                    }
                    let txn = active[idx as usize % active.len()];
                    holders.remove(&txn);
                    let fx = lt.release(txn, commit);
                    for g in fx.granted {
                        let set = waiting.remove(&g).expect("granted waiter was waiting");
                        // Exclusivity at grant time.
                        for (other, oset) in &holders {
                            prop_assert!(
                                !oset.iter().any(|k| set.contains(k)),
                                "grant {g:?} over {other:?}"
                            );
                        }
                        holders.insert(g, set);
                    }
                    for a in fx.aborted {
                        prop_assert!(waiting.remove(&a).is_some(), "aborted waiter unknown");
                    }
                }
            }
            // Table-view consistency.
            prop_assert_eq!(lt.holder_count(), holders.len());
            prop_assert_eq!(lt.waiter_count(), waiting.len());
        }

        // Drain: releasing everything must leave nothing waiting (no lost
        // wakeups, no deadlock — atomic acquisition guarantees progress).
        let mut guard = 0;
        while lt.holder_count() > 0 {
            let t = *holders.keys().next().expect("non-empty");
            holders.remove(&t);
            let fx = lt.release(t, false);
            for g in fx.granted {
                let set = waiting.remove(&g).expect("waiter");
                holders.insert(g, set);
            }
            for a in fx.aborted {
                waiting.remove(&a);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert_eq!(lt.waiter_count(), 0, "no waiter left behind");
        prop_assert!(waiting.is_empty());
    }

    #[test]
    fn conservative_2pl_never_aborts_waiters(keysets in prop::collection::vec(
        prop::collection::vec(0u8..6, 1..4), 2..20)
    ) {
        let mut lt = LockTable::new(CcPolicy::Conservative2pl);
        let mut active: BTreeSet<TxnId> = BTreeSet::new();
        for (i, mut keys) in keysets.into_iter().enumerate() {
            keys.sort_unstable();
            keys.dedup();
            let txn = TxnId(i as u64 + 1);
            let set: Vec<TupleId> = keys.iter().map(|k| tid(*k)).collect();
            match lt.acquire(txn, set, OwnerKind::LocalAbortable) {
                Acquire::Granted | Acquire::Queued => {
                    active.insert(txn);
                }
                Acquire::Preempt(_) => prop_assert!(false, "locals never preempt"),
            }
        }
        // Release everything as commits: under 2PL nobody aborts.
        let mut done: BTreeSet<TxnId> = BTreeSet::new();
        let mut guard = 0;
        while done.len() < active.len() {
            let holder = active.iter().find(|t| lt.is_holder(**t) && !done.contains(t)).copied();
            let Some(t) = holder else { break };
            let fx = lt.release(t, true);
            prop_assert!(fx.aborted.is_empty(), "2PL aborted a waiter");
            done.insert(t);
            guard += 1;
            prop_assert!(guard < 1000);
        }
    }
    /// Model-based equivalence: the table and the scan-based reference,
    /// driven by one random stream — local and remote acquisitions over 12
    /// keys (so queues form), pins, commit/abort releases of holders,
    /// withdrawals of queued transactions, and the engine's preempt → abort
    /// victims → re-acquire loop — give identical `Acquire` results,
    /// identical `ReleaseEffects` including their order, and equal
    /// holder/waiter counts after every call, under both policies.
    #[test]
    fn indexed_table_matches_scan_reference(
        ops in prop::collection::vec(arb_model_op(), 1..120),
        two_pl in any::<bool>(),
    ) {
        let policy = if two_pl { CcPolicy::Conservative2pl } else { CcPolicy::MultiVersion };
        check_against_reference(ops, policy);
    }

    /// The same equivalence over only 3 keys, weighted toward acquisitions:
    /// queues grow past 8 waiters and shrink back to one, so a queue moves
    /// between one inline waiter and a spilled queue many times, waiters
    /// withdraw from the middle of a queue, and commits abort a queue's
    /// local waiters while its remote ones stay queued.
    #[test]
    fn hot_key_queues_match_scan_reference(
        ops in prop::collection::vec(arb_hot_key_op(), 1..200),
    ) {
        for policy in [CcPolicy::MultiVersion, CcPolicy::Conservative2pl] {
            check_against_reference(ops.clone(), policy);
        }
    }
}
