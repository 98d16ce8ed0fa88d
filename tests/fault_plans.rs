//! Random fault-plan safety: arbitrary mixes of the new scenario families —
//! partition/merge, duplicate delivery, correlated bursts — stacked on the
//! classic random loss, across arbitrary seeds, must leave the per-site
//! commit logs free of divergence. This is the acceptance property of the
//! scenario-diversity work: `check_logs` is the oracle, the plan space is
//! the adversary.

use dbsm_testbed::core::{run_experiment, ExperimentConfig};
use dbsm_testbed::fault::{check_logs, FaultPlan, FaultSpec};
use dbsm_testbed::sim::SimTime;
use proptest::prelude::*;
use std::time::Duration;

const SITES: usize = 3;

/// The eight ways to split three sites into 2–3 non-empty disjoint groups
/// (plus partial splits that isolate the unlisted site).
const GROUPINGS: [&[&[u16]]; 5] = [
    &[&[0, 1], &[2]],
    &[&[0], &[1, 2]],
    &[&[0, 2], &[1]],
    &[&[0], &[1], &[2]],
    &[&[0], &[1]], // site 2 unlisted: isolated from everyone
];

fn arb_partition() -> impl Strategy<Value = FaultSpec> {
    (0usize..GROUPINGS.len(), 1_000u64..12_000, 100u64..5_000).prop_map(|(which, at_ms, dur_ms)| {
        FaultSpec::Partition {
            groups: GROUPINGS[which].iter().map(|g| g.to_vec()).collect(),
            at: SimTime::from_millis(at_ms),
            heal_at: SimTime::from_millis(at_ms + dur_ms),
        }
    })
}

fn arb_duplicate() -> impl Strategy<Value = FaultSpec> {
    (1u32..30, 1u32..4).prop_map(|(p_pct, max_copies)| FaultSpec::DuplicateDelivery {
        p: f64::from(p_pct) / 100.0,
        max_copies: max_copies as u8,
    })
}

fn arb_burst() -> impl Strategy<Value = FaultSpec> {
    (0u32..8, 1u64..20, 5u32..25).prop_map(|(mask, win_ms, p_pct)| {
        let sites: Vec<u16> = (0u16..SITES as u16).filter(|s| mask & (1 << s) != 0).collect();
        FaultSpec::CorrelatedBurst {
            sites: if sites.is_empty() { (0..SITES as u16).collect() } else { sites },
            window: Duration::from_millis(win_ms),
            p: f64::from(p_pct) / 100.0,
        }
    })
}

/// A random plan drawing 0–1 specs from each new family plus optional
/// classic random loss (picked per-family so every combination arises).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop::collection::vec(arb_partition(), 0..2),
        prop::collection::vec(arb_duplicate(), 0..2),
        prop::collection::vec(arb_burst(), 0..2),
        0u32..5,
    )
        .prop_map(|(parts, dups, bursts, loss_pct)| {
            let mut plan = FaultPlan::none();
            for s in parts.into_iter().chain(dups).chain(bursts) {
                plan = plan.with(s);
            }
            if loss_pct > 0 {
                for s in FaultPlan::random_loss(f64::from(loss_pct) / 100.0).specs {
                    plan = plan.with(s);
                }
            }
            plan
        })
}

/// True if every partition in the plan leaves a 2-site segment: that
/// segment is a primary component of a 3-site view, so the group must stay
/// live and keep committing.
fn keeps_a_primary(plan: &FaultPlan) -> bool {
    plan.specs.iter().all(|s| match s {
        FaultSpec::Partition { groups, .. } => groups.iter().any(|g| g.len() >= 2),
        _ => true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn random_fault_plans_never_diverge(plan in arb_plan(), seed in any::<u64>()) {
        plan.validate(SITES).expect("generated plans are well-formed");
        let mut cfg = ExperimentConfig::replicated(SITES, 24)
            .with_target(150)
            .with_seed(seed)
            .with_faults(plan.clone());
        // Dense load so plenty of traffic crosses every fault window, and a
        // bounded horizon so no-primary outcomes (all sites halted) end the
        // run promptly.
        cfg.think_mean = Duration::from_secs(1);
        cfg.max_sim = Duration::from_secs(120);
        let m = run_experiment(cfg);
        let crashed: Vec<bool> =
            (0..SITES as u16).map(|s| m.crashed_sites.contains(&s)).collect();
        if let Err(d) = check_logs(&m.commit_logs, &crashed) {
            panic!("divergence under plan {plan:?} seed {seed}: {d}");
        }
        if keeps_a_primary(&plan) {
            prop_assert!(
                m.committed() > 0,
                "a primary component survived every partition yet nothing committed: {plan:?}"
            );
        }
    }
}

/// A crash/restart pair for one site: the crash must precede the restart,
/// which [`FaultPlan::validate`] enforces and the generator guarantees.
fn arb_crash_restart() -> impl Strategy<Value = Vec<FaultSpec>> {
    (0u16..SITES as u16, 1_500u64..8_000, 500u64..6_000).prop_map(|(site, at_ms, down_ms)| {
        vec![
            FaultSpec::Crash { site, at: SimTime::from_millis(at_ms) },
            FaultSpec::Restart { site, at: SimTime::from_millis(at_ms + down_ms) },
        ]
    })
}

/// A random interleaving of crash/partition/heal/restart: 0–2 partition
/// windows (each with its heal) stacked around one crash-then-restart pair,
/// so the rejoin races view changes, primary-component reconfigurations and
/// its own downed network in every combination the generator reaches.
fn arb_restart_plan() -> impl Strategy<Value = FaultPlan> {
    (prop::collection::vec(arb_partition(), 0..3), arb_crash_restart()).prop_map(
        |(parts, crash_restart)| {
            let mut plan = FaultPlan::none();
            for s in parts.into_iter().chain(crash_restart) {
                plan = plan.with(s);
            }
            plan
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn random_restart_interleavings_are_safe_and_deterministic(
        plan in arb_restart_plan(),
        seed in any::<u64>(),
    ) {
        use dbsm_testbed::fault::check_logs_rejoined;
        plan.validate(SITES).expect("generated plans are well-formed");
        let cfg = || {
            let mut cfg = ExperimentConfig::replicated(SITES, 24)
                .with_target(150)
                .with_seed(seed)
                .with_faults(plan.clone());
            cfg.think_mean = Duration::from_secs(1);
            cfg.max_sim = Duration::from_secs(120);
            cfg
        };
        let m = run_experiment(cfg());
        // Safety: every log — operational, halted, or rejoined — sits on
        // one chain, with rejoined sites chaining through their cuts.
        let crashed: Vec<bool> =
            (0..SITES as u16).map(|s| m.crashed_sites.contains(&s)).collect();
        if let Err(d) = check_logs_rejoined(&m.commit_logs, &crashed, &m.rejoins) {
            panic!("divergence under plan {plan:?} seed {seed}: {d}");
        }
        // Determinism: the same seed reproduces the run bit for bit,
        // recovery machinery included.
        let m2 = run_experiment(cfg());
        prop_assert_eq!(&m.commit_logs, &m2.commit_logs, "commit logs must be bit-identical");
        prop_assert_eq!(&m.rejoins, &m2.rejoins, "rejoin records must be bit-identical");
        prop_assert_eq!(m.recovery_work, m2.recovery_work);
        prop_assert_eq!(m.committed(), m2.committed());
        prop_assert_eq!(m.crashed_sites, m2.crashed_sites);
    }
}

#[test]
fn experiment_validation_rejects_a_non_positive_clock_drift() {
    use dbsm_testbed::core::{ConfigError, PlanError};
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let cfg =
            ExperimentConfig::replicated(SITES, 24).with_faults(FaultPlan::clock_drift(1, rate));
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Fault(PlanError::NotPositive { what: "clock drift rate" })),
            "rate {rate}"
        );
    }
    let ok = ExperimentConfig::replicated(SITES, 24).with_faults(FaultPlan::clock_drift(1, 1.05));
    assert_eq!(ok.validate(), Ok(()));
}
