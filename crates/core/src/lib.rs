//! # dbsm-core — the replicated database testbed (the paper's contribution)
//!
//! Assembles everything: the discrete-event kernel and CSRT (`dbsm-sim`),
//! the simulated network (`dbsm-net`), the *real* certification and group
//! communication prototypes (`dbsm-cert`, `dbsm-gcs`), the database server
//! model (`dbsm-db`), and the TPC-C traffic generator (`dbsm-tpcc`) — into
//! the replicated database model of the paper's Fig. 2, with fault
//! injection (`dbsm-fault`), global observation, and an experiment runner
//! that reproduces every table and figure of §4–§5.
//!
//! # Examples
//!
//! A small 3-site replicated run:
//!
//! ```
//! use dbsm_core::{run_experiment, ExperimentConfig};
//!
//! let cfg = ExperimentConfig::replicated(3, 30).with_target(50);
//! let metrics = run_experiment(cfg);
//! assert!(metrics.committed() > 0);
//! // DBSM safety: all sites committed the same sequence.
//! dbsm_fault::check_logs(&metrics.commit_logs, &[false, false, false]).unwrap();
//! ```

#![warn(missing_docs)]

mod cluster;
mod experiment;
mod metrics;
mod placement;
mod replica;
pub mod report;
pub mod validate;

pub use cluster::{run_experiment, Cluster};
pub use dbsm_cert::CertBackendKind;
pub use dbsm_fault::{FaultPlan, FaultSpec, PlanError};
pub use dbsm_gcs::AnnBatchPolicy;
pub use experiment::{CertCostModel, CommitPath, ConfigError, ExperimentConfig};
pub use metrics::{
    AnnWorkTotals, CertWorkTotals, ClassStats, FaultWorkTotals, ReplacementWorkTotals, RunMetrics,
    SiteUsage, VoteWireTotals,
};
pub use placement::{PlacementError, PlacementMap};
