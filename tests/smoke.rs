//! CI smoke test: a small 3-replica experiment run twice with the same RNG
//! seed must produce *identical* metrics — not just the same commit order,
//! but the same latency samples, resource usage and network traffic. This
//! guards the simulation's reproducibility promise (the paper's methodology
//! depends on re-runnable experiments) against nondeterminism creeping in
//! through hash-map iteration, uninitialized state or wall-clock leakage.

use dbsm_testbed::core::{
    run_experiment, AnnBatchPolicy, CertBackendKind, Cluster, CommitPath, ExperimentConfig,
    FaultPlan, FaultSpec, RunMetrics,
};
use dbsm_testbed::sim::SimTime;
use std::time::Duration;

fn small_run_with(seed: u64, backend: CertBackendKind) -> RunMetrics {
    run_experiment(
        ExperimentConfig::replicated(3, 20)
            .with_target(60)
            .with_seed(seed)
            .with_cert_backend(backend),
    )
}

// The Linear pin is deliberate: the paper-faithful scan stays exercised
// even though the experiment default flipped to Indexed.
fn small_run(seed: u64) -> RunMetrics {
    small_run_with(seed, CertBackendKind::Linear)
}

/// Every externally observable metric of two same-seed runs must match.
fn assert_identical(a: &RunMetrics, b: &RunMetrics) {
    assert_eq!(a.committed(), b.committed(), "committed count");
    assert_eq!(a.aborted(), b.aborted(), "aborted count");
    assert_eq!(a.elapsed, b.elapsed, "virtual elapsed time");
    assert_eq!(a.network_tx_bytes, b.network_tx_bytes, "network traffic");
    assert_eq!(a.commit_logs, b.commit_logs, "per-site commit sequences");
    assert_eq!(a.crashed_sites, b.crashed_sites, "crash record");
    assert_eq!(a.per_class.len(), b.per_class.len());
    for (ca, cb) in a.per_class.iter().zip(&b.per_class) {
        assert_eq!(ca.submitted, cb.submitted, "per-class submitted");
        assert_eq!(ca.committed, cb.committed, "per-class committed");
        assert_eq!(ca.aborted_user, cb.aborted_user, "per-class user aborts");
        assert_eq!(ca.aborted_ww, cb.aborted_ww, "per-class ww aborts");
        assert_eq!(ca.aborted_remote, cb.aborted_remote, "per-class remote aborts");
        assert_eq!(ca.aborted_cert, cb.aborted_cert, "per-class cert aborts");
        assert_eq!(
            ca.latencies_ms.values(),
            cb.latencies_ms.values(),
            "per-class latency samples, in recording order"
        );
    }
    assert_eq!(
        a.cert_latencies_ms.values(),
        b.cert_latencies_ms.values(),
        "certification latency samples, in recording order"
    );
    assert_eq!(a.cert_work, b.cert_work, "certification work ledger");
    assert_eq!(a.ann_work, b.ann_work, "announcement work ledger");
    // Same-seed runs must be exactly deterministic: compare bit patterns,
    // not within a tolerance — a tolerance would let tiny nondeterminism
    // (e.g. float summation order) slip through.
    for (ua, ub) in a.site_usage.iter().zip(&b.site_usage) {
        assert_eq!(ua.cpu_total.to_bits(), ub.cpu_total.to_bits(), "cpu_total");
        assert_eq!(ua.cpu_real.to_bits(), ub.cpu_real.to_bits(), "cpu_real");
        assert_eq!(ua.disk.to_bits(), ub.disk.to_bits(), "disk");
    }
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = small_run(1234);
    let b = small_run(1234);
    assert!(a.committed() > 0, "smoke run commits work");
    assert_identical(&a, &b);
}

#[test]
fn same_seed_runs_are_bit_identical_with_indexed_backend() {
    // The reproducibility promise holds for every certification backend:
    // the indexed write history must be just as deterministic as the linear
    // scan, and its three replicas must commit the identical sequence.
    let a = small_run_with(1234, CertBackendKind::Indexed);
    let b = small_run_with(1234, CertBackendKind::Indexed);
    assert!(a.committed() > 0, "smoke run commits work");
    assert_identical(&a, &b);
    dbsm_testbed::fault::check_logs(&a.commit_logs, &[false; 3]).expect("identical sequences");
    // The backend's work ledger is the indexed one: probes, not scans.
    assert!(a.cert_work.probes > 0, "indexed backend reports probe work");
    assert_eq!(a.cert_work.comparisons, 0, "indexed backend performs no merge comparisons");
}

#[test]
fn default_backend_is_indexed_and_bit_reproducible() {
    // The default certification backend flipped from Linear to Indexed; a
    // config that never names a backend must get the index and stay exactly
    // as deterministic as before.
    let default_cfg = || ExperimentConfig::replicated(3, 20).with_target(60).with_seed(1234);
    assert_eq!(default_cfg().cert_backend, CertBackendKind::Indexed);
    let a = run_experiment(default_cfg());
    let b = run_experiment(default_cfg());
    assert!(a.committed() > 0, "smoke run commits work");
    assert_identical(&a, &b);
    assert!(a.cert_work.probes > 0, "the default run certifies through the index");
    assert_eq!(a.cert_work.comparisons, 0, "no linear scans under the default");
}

#[test]
fn both_backends_run_the_workload_safely() {
    // End-to-end cross-backend sanity: the two backends are priced
    // differently (comparisons vs probes), so event timing — and hence the
    // interleaving each sequencer happens to order — may legitimately
    // differ between the two runs, and their committed streams are not
    // comparable transaction-by-transaction. Decision-level bit-identity on
    // the *same* totally ordered stream is enforced elsewhere: the
    // `cert_backends_produce_identical_outcome_streams` proptest and the
    // dbsm_cert equivalence tests. What this test pins down is that each
    // backend drives the full replicated experiment safely (all sites agree
    // within a run) and that the work ledger reflects the backend that ran.
    let lin = small_run_with(77, CertBackendKind::Linear);
    let idx = small_run_with(77, CertBackendKind::Indexed);
    dbsm_testbed::fault::check_logs(&lin.commit_logs, &[false; 3]).expect("linear safety");
    dbsm_testbed::fault::check_logs(&idx.commit_logs, &[false; 3]).expect("indexed safety");
    assert!(lin.committed() > 0 && idx.committed() > 0);
    assert!(lin.cert_work.certifications > 0 && lin.cert_work.probes == 0);
    assert!(idx.cert_work.probes > 0 && idx.cert_work.comparisons == 0);
}

#[test]
fn adaptive_ann_batching_is_reproducible_with_a_live_ledger() {
    // The adaptive announcement policy must be exactly as deterministic as
    // the rest of the stack — its backlog-sized flush windows and MTU-slack
    // piggybacking depend only on simulated state — and its work ledger must
    // actually record announcement traffic. Checked across two seeds so the
    // ledger is pinned bit-reproducibly at two distinct operating points.
    for seed in [1234u64, 4321] {
        let run = || {
            run_experiment(
                ExperimentConfig::replicated(3, 20)
                    .with_target(60)
                    .with_seed(seed)
                    .with_ann_policy(AnnBatchPolicy::adaptive_lan()),
            )
        };
        let a = run();
        let b = run();
        assert!(a.committed() > 0, "seed {seed}: smoke run commits work");
        assert_identical(&a, &b);
        dbsm_testbed::fault::check_logs(&a.commit_logs, &[false; 3]).expect("identical sequences");
        assert!(a.ann_work.announcements > 0, "seed {seed}: ledger records announcements");
        assert_eq!(
            a.ann_work.assigns_total(),
            b.ann_work.assigns_total(),
            "seed {seed}: assignment totals reproduce"
        );
    }
}

#[test]
fn crash_restart_runs_repeat_exactly() {
    // A rejoin aborts the first incarnation's in-flight requests, and each
    // abort re-arms a client through the shared workload RNG: the abort
    // order — and with it the whole run — must follow from the seed.
    let run = || {
        let mut cfg = ExperimentConfig::replicated(3, 2000)
            .with_target(4_000)
            .with_seed(42)
            .with_faults(FaultPlan::crash_restart(2, SimTime::from_secs(3), SimTime::from_secs(4)));
        cfg.max_sim = Duration::from_secs(60);
        let cluster = Cluster::build(cfg);
        let handle = cluster.clone();
        let m = cluster.run();
        (handle.sim().events_executed(), m)
    };
    let (events_a, a) = run();
    let (events_b, b) = run();
    assert_eq!(a.rejoins.len(), 1, "the restarted site rejoined");
    assert_eq!(events_a, events_b, "events executed");
    assert_identical(&a, &b);
}

#[test]
fn different_seeds_diverge() {
    let a = small_run(1234);
    let b = small_run(4321);
    // With different seeds the runs must not be identical — otherwise the
    // seed is not actually wired through the stochastic components.
    assert_ne!(a.commit_logs, b.commit_logs, "seed must steer the workload");
}

/// FNV-1a over every site's commit log, length-prefixed per site so a
/// transaction moving between logs changes the digest.
fn commit_digest(logs: &[Vec<(u16, u64)>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for log in logs {
        eat(&(log.len() as u64).to_le_bytes());
        for &(origin, txn) in log {
            eat(&origin.to_le_bytes());
            eat(&txn.to_le_bytes());
        }
    }
    h
}

/// Runs `cfg` to its cap and returns `(events executed, commit digest,
/// metrics)`.
fn fingerprint(cfg: ExperimentConfig) -> (u64, u64, RunMetrics) {
    let cluster = Cluster::build(cfg);
    let handle = cluster.clone();
    let m = cluster.run();
    (handle.sim().events_executed(), commit_digest(&m.commit_logs), m)
}

#[test]
fn golden_cluster_digest() {
    // Pins the whole cluster's behaviour, not just its repeatability: the
    // events executed and the commit logs of three small runs, one per
    // replication mode, must match recorded constants. A refactor leaves
    // them alone; a deliberate behaviour change re-records them.
    //
    // A short history window makes the certifiers' gc cadence trim for
    // real within the run.
    let mut central = ExperimentConfig::centralized(1, 200).with_target(1_200).with_seed(42);
    central.history_window = 256;
    central.max_sim = Duration::from_secs(60);
    let (events, digest, m) = fingerprint(central);
    assert!(m.committed() > 0);
    assert_eq!((events, digest), (24_436, 0x3f95f3e4631e7084), "1-site centralized");

    let mut full = ExperimentConfig::replicated(3, 200).with_target(1_200).with_seed(42);
    full.history_window = 256;
    full.max_sim = Duration::from_secs(60);
    let (events, digest, m) = fingerprint(full);
    dbsm_testbed::fault::check_logs(&m.commit_logs, &[false; 3]).expect("full replication");
    assert_eq!(
        (events, digest),
        (223_768, 0x3b0053dd09690fc1),
        "3-site full replication, synchronous"
    );

    // Sites 0 and 1 are warehouse 0's whole replica set at rf 2: crashing
    // both strands it, so a survivor adopts it and re-collects its open
    // vote rounds.
    let mut churn = ExperimentConfig::replicated(6, 1200)
        .with_replication_factor(2)
        .with_commit_path(CommitPath::Pipelined)
        .with_target(1_500)
        .with_seed(42)
        .with_faults(
            FaultPlan::crash(0, SimTime::from_secs(3))
                .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(5) }),
        );
    churn.history_window = 1 << 17;
    churn.max_sim = Duration::from_secs(30);
    let (events, digest, m) = fingerprint(churn);
    assert!(m.replacement_work.rehomed_spans > 0, "a stranded span re-homed");
    assert!(m.replacement_work.vote_rounds_recollected > 0, "vote rounds re-collected");
    assert_eq!(
        (events, digest),
        (274_340, 0xe3ef86dae12fc838),
        "6-site rf-2 partial, pipelined, pair crash"
    );
}
