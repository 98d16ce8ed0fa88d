//! The database server model (§3.1): a scheduler over CPU and storage
//! resources plus the concurrency-control policy, executing transactions as
//! sequences of *fetch → process → write-back* operations with the
//! distributed termination protocol in between.
//!
//! The engine is deliberately agnostic of *how* termination is decided: on
//! reaching the commit point it raises `on_commit_request`, and the
//! replication layer (or a pass-through for stand-alone use) answers with
//! [`DbEngine::resolve`]. Remote (already certified) transactions enter
//! through [`DbEngine::apply_remote`].

use crate::lock::{Acquire, CcPolicy, LockTable, OwnerKind, TxnId};
use crate::storage::{Storage, StorageConfig};
use dbsm_cert::{FxHashMap, RwSet, TupleId};
use dbsm_sim::{CpuBank, Sim};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// A transaction ready for execution: its access sets and resource demands
/// (the paper models transactions as operation sequences whose costs come
/// from profiling a real database server, §4.1).
#[derive(Debug, Clone)]
pub struct TransactionSpec {
    /// Tuples fetched.
    pub read_set: RwSet,
    /// Tuples written.
    pub write_set: RwSet,
    /// Total size of written values in bytes.
    pub write_bytes: u32,
    /// CPU time consumed by processing (profiled; includes commit CPU).
    pub cpu: Duration,
    /// The transaction rolls back by user request at the end (TPC-C new
    /// order includes 1 % deliberate rollbacks).
    pub user_abort: bool,
    /// Read-only transaction: acquires no locks, is not multicast.
    pub read_only: bool,
    /// Read-only *and* exempt from read validation (TPC-C allows stock
    /// level to read relaxed-isolation data).
    pub relaxed: bool,
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Deliberate rollback generated by the workload.
    User,
    /// Write-write conflict: the lock it waited on was committed.
    WwConflict,
    /// Preempted by a remotely certified transaction.
    RemotePreempt,
    /// Failed certification (read-set intersected a concurrent commit).
    Certification,
}

/// Final outcome of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed; durable and visible.
    Committed,
    /// Aborted for the given reason.
    Aborted(AbortReason),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitLocks,
    Fetch,
    Process,
    Certify,
    WriteBack,
    RemoteWait,
    RemoteWrite,
}

type DoneHook = Box<dyn FnOnce(TxnId, Outcome)>;
type CommitRequestHook = Box<dyn FnOnce(TxnId, &TransactionSpec)>;
type AppliedHook = Box<dyn FnOnce()>;

struct Txn {
    /// As submitted, except that `write_set` is empty: the engine keeps the
    /// written tuples once, in `writes`.
    spec: TransactionSpec,
    /// The write-set, shared with the lock table while it holds or queues
    /// this transaction.
    writes: Arc<[TupleId]>,
    phase: Phase,
    on_commit_request: Option<CommitRequestHook>,
    on_done: Option<DoneHook>,
    on_applied: Option<AppliedHook>,
}

struct Inner {
    locks: LockTable,
    /// Live transactions, only looked up by id and never iterated.
    txns: FxHashMap<TxnId, Txn>,
    /// Ids are never reused, so a resource callback that finds its id gone
    /// (or in another phase) knows the transaction ended meanwhile.
    next_txn: u64,
}

/// One site's database engine.
#[derive(Clone)]
pub struct DbEngine {
    cpu: CpuBank,
    storage: Storage,
    inner: Rc<RefCell<Inner>>,
}

/// Deferred continuations produced while the state is borrowed.
enum Step {
    Finish(TxnId, Outcome),
    StartFetch(TxnId),
    StartRemoteWrite(TxnId),
    RaiseCommitRequest(TxnId),
}

impl DbEngine {
    /// Creates an engine using the site's CPU bank and a fresh storage
    /// device with `storage_config`.
    pub fn new(
        sim: &Sim,
        cpu: &CpuBank,
        storage_config: StorageConfig,
        policy: CcPolicy,
        seed: u64,
    ) -> Self {
        DbEngine {
            cpu: cpu.clone(),
            storage: Storage::new(sim, storage_config, seed),
            inner: Rc::new(RefCell::new(Inner {
                locks: LockTable::new(policy),
                txns: FxHashMap::default(),
                next_txn: 1,
            })),
        }
    }

    /// The engine's storage device (for utilisation reporting).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Transactions currently inside the engine.
    pub fn active_txns(&self) -> usize {
        self.inner.borrow().txns.len()
    }

    /// Starts a local transaction. `on_commit_request` fires when the
    /// transaction reaches its commit point (hand-off to the termination
    /// protocol); `on_done` fires exactly once with the final outcome.
    pub fn begin_local(
        &self,
        mut spec: TransactionSpec,
        on_commit_request: impl FnOnce(TxnId, &TransactionSpec) + 'static,
        on_done: impl FnOnce(TxnId, Outcome) + 'static,
    ) -> TxnId {
        let (id, acquire) = {
            let mut inner = self.inner.borrow_mut();
            let id = TxnId(inner.next_txn);
            inner.next_txn += 1;
            let writes: Arc<[TupleId]> = std::mem::take(&mut spec.write_set).ids().into();
            let lock_set = if spec.read_only { Arc::from([]) } else { Arc::clone(&writes) };
            inner.txns.insert(
                id,
                Txn {
                    spec,
                    writes,
                    phase: Phase::WaitLocks,
                    on_commit_request: Some(Box::new(on_commit_request)),
                    on_done: Some(Box::new(on_done)),
                    on_applied: None,
                },
            );
            let acquire = inner.locks.acquire(id, lock_set, OwnerKind::LocalAbortable);
            (id, acquire)
        };
        match acquire {
            Acquire::Granted => self.start_fetch(id),
            Acquire::Queued => {}
            Acquire::Preempt(_) => unreachable!("local transactions never preempt"),
        }
        id
    }

    /// Applies a remotely certified write-set: acquires locks (preempting
    /// abortable local holders), performs the storage writes and releases.
    /// `on_applied` fires when the writes are durable.
    pub fn apply_remote(
        &self,
        write_set: RwSet,
        write_bytes: u32,
        on_applied: impl FnOnce() + 'static,
    ) -> TxnId {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = TxnId(inner.next_txn);
            inner.next_txn += 1;
            inner.txns.insert(
                id,
                Txn {
                    spec: TransactionSpec {
                        read_set: RwSet::new(),
                        write_set: RwSet::new(),
                        write_bytes,
                        cpu: Duration::ZERO,
                        user_abort: false,
                        read_only: false,
                        relaxed: false,
                    },
                    writes: write_set.ids().into(),
                    phase: Phase::RemoteWait,
                    on_commit_request: None,
                    on_done: None,
                    on_applied: Some(Box::new(on_applied)),
                },
            );
            id
        };
        self.try_acquire_remote(id);
        id
    }

    fn try_acquire_remote(&self, id: TxnId) {
        loop {
            let acquire = {
                let mut inner = self.inner.borrow_mut();
                let Some(t) = inner.txns.get(&id) else { return };
                let set = Arc::clone(&t.writes);
                inner.locks.acquire(id, set, OwnerKind::Remote)
            };
            match acquire {
                Acquire::Granted => {
                    self.run_steps(vec![Step::StartRemoteWrite(id)]);
                    return;
                }
                Acquire::Queued => return,
                Acquire::Preempt(victims) => {
                    // "Local transactions holding the same locks are
                    // preempted and aborted right away."
                    for v in victims {
                        self.abort_active(v, AbortReason::RemotePreempt);
                    }
                    // Loop: re-attempt the acquisition.
                }
            }
        }
    }

    /// Answers a pending commit request: `commit = true` proceeds to
    /// write-back, `false` aborts with [`AbortReason::Certification`].
    pub fn resolve(&self, id: TxnId, commit: bool) {
        let valid = {
            let inner = self.inner.borrow();
            inner.txns.get(&id).map(|t| t.phase) == Some(Phase::Certify)
        };
        if !valid {
            return; // transaction already gone (e.g. site-local race)
        }
        if commit {
            let sectors = {
                let mut inner = self.inner.borrow_mut();
                let t = inner.txns.get_mut(&id).expect("checked above");
                t.phase = Phase::WriteBack;
                t.writes.len() as u32
            };
            let this = self.clone();
            self.storage.write(sectors, move || this.write_done(id));
        } else {
            let mut steps = Vec::new();
            self.release_and_collect(
                id,
                false,
                Outcome::Aborted(AbortReason::Certification),
                &mut steps,
            );
            self.run_steps(steps);
        }
    }

    // ----- internal pipeline --------------------------------------------

    fn start_fetch(&self, id: TxnId) {
        let sectors = {
            let mut inner = self.inner.borrow_mut();
            let Some(t) = inner.txns.get_mut(&id) else { return };
            t.phase = Phase::Fetch;
            t.spec.read_set.len() as u32
        };
        let this = self.clone();
        self.storage.read(sectors, move || this.fetch_done(id));
    }

    fn fetch_done(&self, id: TxnId) {
        let cpu_time = {
            let mut inner = self.inner.borrow_mut();
            let Some(t) = inner.txns.get_mut(&id) else { return };
            if t.phase != Phase::Fetch {
                return; // aborted meanwhile
            }
            t.phase = Phase::Process;
            t.spec.cpu
        };
        let this = self.clone();
        self.cpu.submit_sim(cpu_time, move || this.process_done(id));
    }

    fn process_done(&self, id: TxnId) {
        let mut steps = Vec::new();
        let user_abort = match self.inner.borrow().txns.get(&id) {
            Some(t) if t.phase == Phase::Process => t.spec.user_abort,
            _ => return,
        };
        if user_abort {
            self.release_and_collect(id, false, Outcome::Aborted(AbortReason::User), &mut steps);
        } else {
            let mut inner = self.inner.borrow_mut();
            let t = inner.txns.get_mut(&id).expect("present above");
            t.phase = Phase::Certify;
            // Past the commit point: remote preemption must wait, not abort.
            inner.locks.pin(id);
            drop(inner);
            steps.push(Step::RaiseCommitRequest(id));
        }
        self.run_steps(steps);
    }

    /// A local write-back or a remote apply is durable.
    fn write_done(&self, id: TxnId) {
        let mut steps = Vec::new();
        self.release_and_collect(id, true, Outcome::Committed, &mut steps);
        self.run_steps(steps);
    }

    /// Aborts a local transaction that currently holds locks or resources
    /// (used by remote preemption).
    fn abort_active(&self, id: TxnId, reason: AbortReason) {
        let mut steps = Vec::new();
        self.release_and_collect(id, false, Outcome::Aborted(reason), &mut steps);
        self.run_steps(steps);
    }

    /// Releases `id`'s locks, records its outcome, and queues follow-up
    /// steps for waiters granted or aborted by the policy.
    fn release_and_collect(
        &self,
        id: TxnId,
        committed: bool,
        outcome: Outcome,
        steps: &mut Vec<Step>,
    ) {
        let fx = {
            let mut inner = self.inner.borrow_mut();
            if !inner.txns.contains_key(&id) {
                return;
            }
            inner.locks.release(id, committed)
        };
        steps.push(Step::Finish(id, outcome));
        for w in fx.aborted {
            steps.push(Step::Finish(w, Outcome::Aborted(AbortReason::WwConflict)));
        }
        for g in fx.granted {
            let phase = self.inner.borrow().txns.get(&g).map(|t| t.phase);
            match phase {
                Some(Phase::WaitLocks) => steps.push(Step::StartFetch(g)),
                Some(Phase::RemoteWait) => steps.push(Step::StartRemoteWrite(g)),
                _ => {}
            }
        }
    }

    fn run_steps(&self, steps: Vec<Step>) {
        for step in steps {
            match step {
                Step::Finish(id, outcome) => self.finish(id, outcome),
                Step::StartFetch(id) => self.start_fetch(id),
                Step::StartRemoteWrite(id) => {
                    let sectors = {
                        let mut inner = self.inner.borrow_mut();
                        let Some(t) = inner.txns.get_mut(&id) else { continue };
                        t.phase = Phase::RemoteWrite;
                        t.writes.len() as u32
                    };
                    let this = self.clone();
                    self.storage.write(sectors, move || this.write_done(id));
                }
                Step::RaiseCommitRequest(id) => {
                    let (hook, spec) = {
                        let mut inner = self.inner.borrow_mut();
                        let Some(t) = inner.txns.get_mut(&id) else { continue };
                        let mut spec = t.spec.clone();
                        spec.write_set = RwSet::from_sorted(t.writes.to_vec());
                        (t.on_commit_request.take(), spec)
                    };
                    if let Some(h) = hook {
                        h(id, &spec);
                    }
                }
            }
        }
    }

    fn finish(&self, id: TxnId, outcome: Outcome) {
        let (done, applied) = {
            let mut inner = self.inner.borrow_mut();
            let Some(t) = inner.txns.remove(&id) else { return };
            (t.on_done, t.on_applied)
        };
        if let Some(h) = done {
            h(id, outcome);
        }
        if let Some(h) = applied {
            h();
        }
    }
}

impl std::fmt::Debug for DbEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("DbEngine").field("active", &inner.txns.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsm_cert::TableId;
    use dbsm_sim::{ProfilerMode, SimTime};

    fn id(r: u64) -> TupleId {
        TupleId::new(TableId(1), r)
    }

    fn spec(reads: &[u64], writes: &[u64], cpu_ms: u64) -> TransactionSpec {
        TransactionSpec {
            read_set: reads.iter().map(|r| id(*r)).collect(),
            write_set: writes.iter().map(|r| id(*r)).collect(),
            write_bytes: 100,
            cpu: Duration::from_millis(cpu_ms),
            user_abort: false,
            read_only: false,
            relaxed: false,
        }
    }

    fn engine() -> (Sim, DbEngine) {
        let sim = Sim::new();
        let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
        let cfg =
            StorageConfig { latency: Duration::from_millis(1), concurrency: 2, cache_hit: 1.0 };
        let eng = DbEngine::new(&sim, &cpu, cfg, CcPolicy::MultiVersion, 7);
        (sim, eng)
    }

    /// Auto-commits at the commit request, like a centralized server.
    fn autocommit(eng: &DbEngine) -> impl Fn(TxnId, &TransactionSpec) + 'static {
        let e = eng.clone();
        move |txn, _spec| e.resolve(txn, true)
    }

    #[test]
    fn simple_transaction_commits() {
        let (sim, eng) = engine();
        let out: Rc<RefCell<Option<Outcome>>> = Rc::default();
        let o = out.clone();
        let e = eng.clone();
        eng.begin_local(
            spec(&[1, 2], &[3], 5),
            move |t, _| e.resolve(t, true),
            move |_, outcome| *o.borrow_mut() = Some(outcome),
        );
        sim.run();
        assert_eq!(*out.borrow(), Some(Outcome::Committed));
        // 5ms CPU + 1 write sector (1ms); reads free (100% cache).
        assert_eq!(sim.now(), SimTime::from_millis(6));
        assert_eq!(eng.active_txns(), 0);
    }

    #[test]
    fn commit_request_sees_the_spec_as_submitted() {
        // The engine keeps the write-set apart from the spec (shared with
        // the lock table); the termination protocol must not notice.
        let (sim, eng) = engine();
        let submitted = spec(&[1, 2], &[3, 4], 5);
        let seen: Rc<RefCell<Option<TransactionSpec>>> = Rc::default();
        let s = seen.clone();
        let e = eng.clone();
        eng.begin_local(
            submitted.clone(),
            move |t, spec| {
                *s.borrow_mut() = Some(spec.clone());
                e.resolve(t, true)
            },
            |_, _| {},
        );
        sim.run();
        let seen = seen.borrow_mut().take().expect("commit request raised");
        assert_eq!(seen.write_set, submitted.write_set);
        assert_eq!(seen.read_set, submitted.read_set);
        // 5ms CPU + 2 write sectors on 2 channels (1ms).
        assert_eq!(sim.now(), SimTime::from_millis(6));
    }

    #[test]
    fn user_abort_rolls_back_without_write() {
        let (sim, eng) = engine();
        let out: Rc<RefCell<Option<Outcome>>> = Rc::default();
        let o = out.clone();
        let mut s = spec(&[1], &[2], 3);
        s.user_abort = true;
        eng.begin_local(
            s,
            |_, _| panic!("user aborts never reach the commit request"),
            move |_, outcome| *o.borrow_mut() = Some(outcome),
        );
        sim.run();
        assert_eq!(*out.borrow(), Some(Outcome::Aborted(AbortReason::User)));
        assert_eq!(sim.now(), SimTime::from_millis(3), "no write-back happened");
    }

    #[test]
    fn waiter_aborts_when_holder_commits() {
        let (sim, eng) = engine();
        let outs: Rc<RefCell<Vec<(u64, Outcome)>>> = Rc::default();
        for k in 0..2u64 {
            let o = outs.clone();
            eng.begin_local(spec(&[], &[7], 5), autocommit(&eng), move |_, outcome| {
                o.borrow_mut().push((k, outcome))
            });
        }
        sim.run();
        let got = outs.borrow().clone();
        assert_eq!(got[0], (0, Outcome::Committed));
        assert_eq!(got[1], (1, Outcome::Aborted(AbortReason::WwConflict)));
    }

    #[test]
    fn waiter_proceeds_when_holder_user_aborts() {
        let (sim, eng) = engine();
        let outs: Rc<RefCell<Vec<Outcome>>> = Rc::default();
        let mut first = spec(&[], &[7], 5);
        first.user_abort = true;
        let o = outs.clone();
        eng.begin_local(first, |_, _| unreachable!(), move |_, out| o.borrow_mut().push(out));
        let o = outs.clone();
        eng.begin_local(spec(&[], &[7], 5), autocommit(&eng), move |_, out| {
            o.borrow_mut().push(out)
        });
        sim.run();
        let got = outs.borrow().clone();
        assert_eq!(got[0], Outcome::Aborted(AbortReason::User));
        assert_eq!(got[1], Outcome::Committed);
    }

    #[test]
    fn read_only_takes_no_locks() {
        let (sim, eng) = engine();
        let outs: Rc<RefCell<Vec<Outcome>>> = Rc::default();
        let mut ro = spec(&[7], &[], 2);
        ro.read_only = true;
        let o = outs.clone();
        eng.begin_local(ro, autocommit(&eng), move |_, out| o.borrow_mut().push(out));
        let o = outs.clone();
        eng.begin_local(spec(&[], &[7], 2), autocommit(&eng), move |_, out| {
            o.borrow_mut().push(out)
        });
        sim.run();
        assert_eq!(outs.borrow().len(), 2);
        assert!(outs.borrow().iter().all(|o| *o == Outcome::Committed));
    }

    #[test]
    fn remote_apply_preempts_local_holder() {
        let (sim, eng) = engine();
        let outs: Rc<RefCell<Vec<Outcome>>> = Rc::default();
        let o = outs.clone();
        // Local transaction holds lock 7 while processing for 50ms.
        eng.begin_local(spec(&[], &[7], 50), autocommit(&eng), move |_, out| {
            o.borrow_mut().push(out)
        });
        // After 5ms a remote certified write-set arrives for the same tuple.
        let e = eng.clone();
        let applied: Rc<RefCell<Option<SimTime>>> = Rc::default();
        let a = applied.clone();
        let s2 = sim.clone();
        sim.schedule_at(SimTime::from_millis(5), move || {
            let ws: RwSet = [id(7)].into_iter().collect();
            let a = a.clone();
            let s3 = s2.clone();
            e.apply_remote(ws, 64, move || *a.borrow_mut() = Some(s3.now()));
        });
        sim.run();
        assert_eq!(*outs.borrow(), vec![Outcome::Aborted(AbortReason::RemotePreempt)]);
        // Remote applied promptly (5ms + 1ms write), not after 50ms.
        assert_eq!(*applied.borrow(), Some(SimTime::from_millis(6)));
        assert_eq!(eng.active_txns(), 0);
    }

    #[test]
    fn remote_waits_for_pinned_local() {
        let (sim, eng) = engine();
        let resolved: Rc<RefCell<Option<TxnId>>> = Rc::default();
        let r = resolved.clone();
        let outs: Rc<RefCell<Vec<Outcome>>> = Rc::default();
        let o = outs.clone();
        // Local transaction reaches certification and stays there (we delay
        // the resolve to simulate in-flight certification).
        eng.begin_local(
            spec(&[], &[7], 5),
            move |t, _| *r.borrow_mut() = Some(t),
            move |_, out| o.borrow_mut().push(out),
        );
        let e = eng.clone();
        let applied: Rc<RefCell<Option<SimTime>>> = Rc::default();
        let a = applied.clone();
        let s2 = sim.clone();
        sim.schedule_at(SimTime::from_millis(6), move || {
            let ws: RwSet = [id(7)].into_iter().collect();
            let a = a.clone();
            let s3 = s2.clone();
            e.apply_remote(ws, 64, move || *a.borrow_mut() = Some(s3.now()));
        });
        // The pending local commit resolves at t=20ms.
        let e = eng.clone();
        let r2 = resolved.clone();
        sim.schedule_at(SimTime::from_millis(20), move || {
            let t = r2.borrow().expect("commit request was raised");
            e.resolve(t, true);
        });
        sim.run();
        assert_eq!(*outs.borrow(), vec![Outcome::Committed], "pinned local not preempted");
        let applied_at = applied.borrow().expect("remote applied");
        assert!(applied_at > SimTime::from_millis(20), "remote waited: {applied_at}");
    }

    #[test]
    fn certification_abort_reports_reason() {
        let (sim, eng) = engine();
        let out: Rc<RefCell<Option<Outcome>>> = Rc::default();
        let o = out.clone();
        let e = eng.clone();
        eng.begin_local(
            spec(&[1], &[2], 2),
            move |t, _| e.resolve(t, false),
            move |_, outcome| *o.borrow_mut() = Some(outcome),
        );
        sim.run();
        assert_eq!(*out.borrow(), Some(Outcome::Aborted(AbortReason::Certification)));
    }

    #[test]
    fn throughput_respects_cpu_serialization() {
        let (sim, eng) = engine();
        let done: Rc<RefCell<u32>> = Rc::default();
        for k in 0..4u64 {
            let d = done.clone();
            eng.begin_local(spec(&[], &[100 + k], 10), autocommit(&eng), move |_, _| {
                *d.borrow_mut() += 1
            });
        }
        sim.run();
        assert_eq!(*done.borrow(), 4);
        // 4 x 10ms CPU serialized on one CPU, writes overlap.
        assert!(sim.now() >= SimTime::from_millis(40), "now {}", sim.now());
    }
}
