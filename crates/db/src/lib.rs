//! # dbsm-db — the database server model (§3.1)
//!
//! A coarse-grained but faithful model of one replica's database engine:
//! transactions run as *fetch → process → write-back* pipelines over shared
//! resources — a [`CpuBank`](dbsm_sim::CpuBank) (where protocol real jobs
//! preempt transaction processing) and a [`Storage`] device with latency,
//! bounded concurrency and a cache-hit model — under a PostgreSQL-style
//! multi-version locking policy: fetches ignore locks, writes take exclusive
//! locks atomically, waiters abort when their holder commits, and remotely
//! certified write-sets preempt local holders.
//!
//! Termination is delegated: [`DbEngine`] raises a commit request at the
//! commit point and the replication layer answers with [`DbEngine::resolve`]
//! — which is how the same engine serves both the centralized baseline and
//! the DBSM-replicated configurations of the paper's §5.
//!
//! # Examples
//!
//! ```
//! use dbsm_db::{CcPolicy, DbEngine, StorageConfig, TransactionSpec};
//! use dbsm_sim::{CpuBank, ProfilerMode, Sim};
//! use dbsm_cert::{RwSet, TableId, TupleId};
//! use std::time::Duration;
//!
//! let sim = Sim::new();
//! let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
//! let eng = DbEngine::new(&sim, &cpu, StorageConfig::raid5_fibre(), CcPolicy::MultiVersion, 1);
//! let spec = TransactionSpec {
//!     read_set: RwSet::new(),
//!     write_set: [TupleId::new(TableId(1), 9)].into_iter().collect(),
//!     write_bytes: 64,
//!     cpu: Duration::from_millis(2),
//!     user_abort: false,
//!     read_only: false,
//!     relaxed: false,
//! };
//! let e2 = eng.clone();
//! eng.begin_local(spec, move |t, _| e2.resolve(t, true), |_, out| {
//!     assert_eq!(out, dbsm_db::Outcome::Committed);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

mod engine;
mod lock;
mod storage;

pub use engine::{AbortReason, DbEngine, Outcome, TransactionSpec};
pub use lock::{Acquire, CcPolicy, LockTable, OwnerKind, ReleaseEffects, TxnId};
pub use storage::{Storage, StorageConfig};
