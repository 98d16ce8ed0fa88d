//! # dbsm-fault — fault injection and the off-line safety check (§5.3)
//!
//! Declarative [`FaultPlan`]s covering the paper's fault catalogue — clock
//! drift, scheduling latency, random loss, bursty loss, and crashes — plus
//! the scenario families beyond it: **partitions with merges**
//! ([`FaultSpec::Partition`]), **duplicate delivery**
//! ([`FaultSpec::DuplicateDelivery`]), **correlated loss bursts**
//! ([`FaultSpec::CorrelatedBurst`]) and **restarts with snapshot +
//! delta-log rejoin** ([`FaultSpec::Restart`]), with the
//! [`FaultPlan::flapping_partition`] and [`FaultPlan::kill_and_replace`]
//! chaos combinators composing them. [`check_logs`] is the off-line
//! consistency checker asserting the DBSM safety condition: all operational
//! sites commit exactly the same sequence of transactions (crashed or
//! halted sites hold a prefix); [`check_logs_rejoined`] extends it to
//! rejoined sites, whose logs must *chain through* every transfer cut
//! ([`RejoinCut`]) they took.
//!
//! Plans are *applied* by the experiment runner in `dbsm-core`: loss models
//! install on the simulated network's receive path, drift and scheduling
//! latency perturb the protocol bridges, crashes silence a site at a given
//! instant, partitions split the network into isolated segments until they
//! heal, duplication redelivers received packets, and correlated bursts
//! share one blackout schedule across sites. [`FaultPlan::validate`]
//! rejects malformed plans (overlapping or empty partition groups,
//! out-of-range probabilities, unknown sites) before a run starts.
//!
//! # Examples
//!
//! Build, validate, and check a plan's outcome:
//!
//! ```
//! use dbsm_fault::{check_logs, FaultPlan, FaultSpec, Target};
//! use dbsm_sim::SimTime;
//! use std::time::Duration;
//!
//! // A partition that splits {0,1} from {2} at 10s and merges at 12s,
//! // with 5% random loss on top (loss-family specs stack: both inject).
//! let plan = FaultPlan::partition(
//!     vec![vec![0, 1], vec![2]],
//!     SimTime::from_secs(10),
//!     SimTime::from_secs(12),
//! )
//! .with(FaultSpec::RandomLoss { target: Target::All, p: 0.05 });
//! plan.validate(3)?;
//! assert!(plan.has_partition());
//!
//! // Duplicate delivery and correlated bursts validate the same way.
//! FaultPlan::duplicate_delivery(0.1, 3).validate(3)?;
//! FaultPlan::correlated_burst(vec![0, 1, 2], Duration::from_millis(10), 0.2).validate(3)?;
//! # Ok::<(), dbsm_fault::PlanError>(())
//! ```
//!
//! ```
//! use dbsm_fault::{check_logs, Divergence};
//!
//! // Two operational sites committed the same sequence, a third (halted by
//! // a partition) holds a prefix: safe.
//! let full = vec![(0u16, 1u64), (1, 1), (0, 2)];
//! let prefix = vec![(0u16, 1u64), (1, 1)];
//! check_logs(&[full.clone(), full, prefix], &[false, false, true])?;
//! # Ok::<(), Divergence>(())
//! ```

#![warn(missing_docs)]

mod plan;
mod safety;

pub use plan::{FaultPlan, FaultSpec, PlanError, Target};
pub use safety::{check_logs, check_logs_rejoined, CommitLog, Divergence, RejoinCut};
