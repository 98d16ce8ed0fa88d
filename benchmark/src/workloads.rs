//! The five workloads. Each is a closed loop: TPC-C emulated clients with a
//! mean think time of 10 s, each sending its next request only after the
//! previous one completed, so a slower system receives less load.

use dbsm_core::{CommitPath, ExperimentConfig, FaultPlan, FaultSpec};
use dbsm_sim::{derive_seed_indexed, SimTime};
use std::time::Duration;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    /// Independent inputs one run measures: trial `k` runs the workload on
    /// the `k`-th seed derived from `--seed`, and the run reports medians
    /// over the trials. Fixed, so a seed's simulated results do not depend on
    /// how fast the host is.
    pub trials: usize,
    /// Simulated-time cap (`max_sim`), about twice the time the target takes
    /// today: room to drain what is in flight at the target, and headroom
    /// before a slower protocol fails the "target reached" check.
    pub horizon: Duration,
    config: fn() -> ExperimentConfig,
}

impl Workload {
    /// The configuration of trial `trial` under `seed` (trial 0 runs on
    /// `seed` itself); `smoke` divides the transaction target by ten.
    pub fn config(&self, seed: u64, trial: usize, smoke: bool) -> ExperimentConfig {
        let seed = match trial {
            0 => seed,
            k => derive_seed_indexed(seed, "benchmark-trial", k as u64),
        };
        let mut cfg = (self.config)().with_seed(seed);
        if smoke {
            cfg.target_txns /= 10;
        }
        cfg.max_sim = self.horizon;
        cfg
    }
}

fn paper_3site_2k() -> ExperimentConfig {
    ExperimentConfig::replicated(3, 2000).with_target(30_000)
}

fn partial_shape(sites: usize, clients: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::replicated(sites, clients).with_replication_factor(2);
    cfg.history_window = 1 << 17;
    cfg.cpus_per_site = 3;
    cfg
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-3site-2k",
        why: "The paper's Fig. 5 replicated point, healthy: gcs, net and sim carry the host time; baseline for loss-3site-2k.",
        trials: 5,
        horizon: Duration::from_secs(330),
        config: paper_3site_2k,
    },
    Workload {
        name: "loss-3site-2k",
        why: "Same load under 5% random loss (Fig. 7 / Table 2): NAK, retransmission, stability stalls; splits gcs fast path from repair path.",
        trials: 5,
        horizon: Duration::from_secs(330),
        config: || paper_3site_2k().with_faults(FaultPlan::random_loss(0.05)),
    },
    Workload {
        name: "central-3cpu-7k",
        why: "Single node, 7000 clients: no gcs, no net, few events; the db lock manager under a deep wait queue does nearly all the work.",
        trials: 5,
        horizon: Duration::from_secs(75),
        config: || ExperimentConfig::centralized(3, 7000).with_target(6_000),
    },
    Workload {
        name: "partial-12site-12k",
        why: "Scale-out shape: 12 sites, rf 2, pipelined, wire votes; highest event rate, so sim scheduler and net fan-out; healthy reference for churn.",
        trials: 5,
        horizon: Duration::from_secs(40),
        config: || partial_shape(12, 12_000).with_commit_path(CommitPath::Pipelined).with_target(10_000),
    },
    Workload {
        name: "churn-6site-3k",
        why: "Two adjacent crashes at rf 2: view change, adopter election, state transfer, vote re-collection, client parking; the recovery path.",
        trials: 10,
        horizon: Duration::from_secs(50),
        config: || {
            partial_shape(6, 3000).with_target(7_000).with_faults(
                FaultPlan::crash(0, SimTime::from_secs(3))
                    .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(5) }),
            )
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
