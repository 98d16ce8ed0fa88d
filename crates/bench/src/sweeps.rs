//! The experiments, as data: [`catalogue`] lists every point of the paper's
//! evaluation grid (`paper/`) and of every sweep over the design choices
//! `docs/EXPERIMENTS.md` lists (`ablation_*/`), and [`run`] is the one loop
//! that simulates the selected points — each exactly once — prints their
//! summary lines and merges the row points into `BENCH_paper.json` and
//! `BENCH_cert.json` (see [`crate::cert_json`]). `benches/ablation.rs` is
//! its command line. The result of a point is its printed system-level
//! ledger, not the host time of simulating it (`benchmark/` records that);
//! adding a point to a sweep is one more line in the table.

use crate::cert_json::{merge_and_write, CertBenchRow, PaperRow, Row};
use crate::paper;
use dbsm_core::{
    run_experiment, AnnBatchPolicy, CertBackendKind, CommitPath, ExperimentConfig, RunMetrics,
};
use dbsm_db::CcPolicy;
use dbsm_fault::{check_logs, Divergence, FaultPlan, FaultSpec};
use dbsm_gcs::GcsConfig;
use dbsm_sim::SimTime;
use std::time::{Duration, Instant};

/// One experiment of one sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// The sweep it belongs to (`paper` or `ablation_*`).
    pub group: &'static str,
    /// Its id within the sweep; filters match against `group/id`.
    pub id: String,
    /// The experiment to simulate.
    pub cfg: ExperimentConfig,
    /// Which artifact row it lands in, for the points that land in one.
    pub row: Option<RowLabel>,
}

/// The part of a row point's key its configuration does not carry.
#[derive(Debug, Clone)]
pub enum RowLabel {
    /// A `BENCH_cert.json` row: backend label.
    Cert(String),
    /// A `BENCH_paper.json` row: fault-load label ([`paper::LOADS`]).
    Paper(&'static str),
}

impl Point {
    /// The point's `BENCH_cert.json` row for the metrics of its run, if it
    /// lands there.
    fn cert_row(&self, m: &RunMetrics) -> Option<CertBenchRow> {
        match &self.row {
            Some(RowLabel::Cert(label)) => Some(CertBenchRow::from_metrics(label, &self.cfg, m)),
            _ => None,
        }
    }

    /// The point's `BENCH_paper.json` row, likewise.
    fn paper_row(&self, m: &RunMetrics) -> Option<PaperRow> {
        match &self.row {
            Some(RowLabel::Paper(faults)) => Some(PaperRow::from_metrics(faults, &self.cfg, m)),
            _ => None,
        }
    }

    /// The paper's safety condition on the run of a row point: a paper row
    /// needs every site's log identical (§5.3). The cert sweeps crash
    /// sites, so a cert row needs every log to be a prefix of the longest,
    /// which a live site that ends a commit short still meets.
    fn safety(&self, m: &RunMetrics) -> Result<(), Divergence> {
        let prefix = match &self.row {
            None => return Ok(()),
            Some(RowLabel::Paper(_)) => false,
            Some(RowLabel::Cert(_)) => true,
        };
        check_logs(&m.commit_logs, &vec![prefix; self.cfg.sites])
    }
}

/// The paper-scale operating point: 2000 clients over 3 sites.
fn paper_scale(target: u64) -> ExperimentConfig {
    ExperimentConfig::replicated(3, 2000).with_target(target)
}

/// The scale-out shape shared by the pipeline, partial-replication,
/// wire-vote and re-placement sweeps, so their rows are comparable with
/// each other (the full-replication rows with the pipeline sweep's
/// synchronous baseline, the `churn0` rows with the no-fault partial rows).
fn scale_out(sites: usize, clients: usize) -> ExperimentConfig {
    // 600 transactions (the backend sweep's budget) would sample only the
    // open-loop ramp, where mean latency is an artifact of which clients
    // happen to finish first. One full population turnover puts the window
    // in steady state, where the closed-loop law (latency =
    // clients/throughput - think time) makes a throughput gain visible as
    // a latency gain.
    let mut cfg = ExperimentConfig::replicated(sites, clients).with_target(20_000);
    // At these client counts tens of thousands of requests are in flight: a
    // request's snapshot must not be garbage-collected before its delivery,
    // or certification reports (correct but useless) truncation. Every
    // point gets the same window; it is part of the config hash.
    cfg.history_window = 1 << 17;
    // The paper's mid CPU configuration: on 1 CPU these client counts sit
    // far past the saturation knee, where mean latency measures backlog
    // collapse rather than the commit path. 3 CPUs put 20k clients near the
    // knee (where the delivery-loop stall matters) and leave 50k as the
    // overload point.
    cfg.cpus_per_site = 3;
    cfg
}

/// Every point of every sweep, in run order.
pub fn catalogue() -> Vec<Point> {
    let mut points = Vec::new();
    let mut add_point = |group, id: String, cfg, row| points.push(Point { group, id, cfg, row });

    // The paper's own evaluation (§5) at the paper's scale: Fig. 5, Fig. 6
    // and Table 1 are views of one grid — five configurations at nine
    // client counts, 10 000 transactions each (enough to carry the 1-CPU
    // server past its saturation knee) — and Fig. 7 / Table 2 add the
    // 3-site system under two 5 % loss plans. The fault-free runs of those
    // are grid points already.
    for (_, sites, cpus) in paper::SERIES {
        for clients in paper::CLIENTS {
            let (id, cfg) = match sites {
                1 => (format!("cpu_{cpus}"), ExperimentConfig::centralized(cpus, clients)),
                _ => (format!("sites_{sites}"), ExperimentConfig::replicated(sites, clients)),
            };
            let id = format!("{id}_clients_{clients}");
            add_point(
                "paper",
                id,
                cfg.with_target(10_000),
                Some(RowLabel::Paper(paper::LOADS[0].0)),
            );
        }
    }
    for clients in paper::LOSSY_CLIENTS {
        for ((label, ..), plan) in paper::LOADS[1..]
            .iter()
            .zip([FaultPlan::random_loss(0.05), FaultPlan::bursty_loss(0.05, 5)])
        {
            let cfg =
                ExperimentConfig::replicated(3, clients).with_target(10_000).with_faults(plan);
            let id = format!("sites_3_clients_{clients}_{label}");
            add_point("paper", id, cfg, Some(RowLabel::Paper(label)));
        }
    }

    let mut add = |group, id: String, cfg, row: Option<&str>| {
        add_point(group, id, cfg, row.map(|label| RowLabel::Cert(label.to_string())));
    };
    let small = || ExperimentConfig::replicated(3, 60).with_target(300);
    let paths = [CommitPath::Synchronous, CommitPath::Pipelined];

    // Locking policy: multi-version vs conservative 2PL, centralized.
    for (name, policy) in
        [("multiversion", CcPolicy::MultiVersion), ("conservative_2pl", CcPolicy::Conservative2pl)]
    {
        let mut cfg = ExperimentConfig::centralized(1, 60).with_target(300);
        cfg.policy = policy;
        add("ablation_locking", name.to_string(), cfg, None);
    }

    // Sequencer buffer share (the §5.3 mitigation) under 5% loss.
    for (name, boost) in [("fair_share", 1.0), ("boosted_sequencer", 4.0)] {
        let mut gcs = GcsConfig::lan(3);
        gcs.sequencer_share_boost = boost;
        let mut cfg = small().with_faults(FaultPlan::random_loss(0.05));
        cfg.gcs = Some(gcs);
        add("ablation_sequencer_share", name.to_string(), cfg, None);
    }

    // The §5.3 sweep at the paper-scale operating point: each announcement
    // policy crossed with packet-loss rates. Loss stalls stability and backs
    // the sequencer's send queue up, which is exactly when per-message
    // announcements amplify the collapse — and when the adaptive policy
    // widens its window and piggybacks. The comparison is tpm, latency and
    // the summary line's announcements-vs-piggybacks `ann=` section.
    for (name, policy) in [
        ("immediate", AnnBatchPolicy::Immediate),
        ("batched_2ms", AnnBatchPolicy::Fixed(Duration::from_millis(2))),
        ("adaptive", AnnBatchPolicy::adaptive_lan()),
    ] {
        for loss_pct in [0u32, 1, 5] {
            let mut cfg = paper_scale(600).with_ann_policy(policy);
            if loss_pct > 0 {
                cfg = cfg.with_faults(FaultPlan::random_loss(loss_pct as f64 / 100.0));
            }
            let id = format!("clients_2000_{name}_loss_{loss_pct}pct");
            add("ablation_ann_batching", id, cfg, None);
        }
    }

    // Uniform delivery: optimistic vs uniform latency.
    for (name, uniform) in [("optimistic", false), ("uniform", true)] {
        let mut gcs = GcsConfig::lan(3);
        gcs.uniform_delivery = uniform;
        let mut cfg = small();
        cfg.gcs = Some(gcs);
        add("ablation_uniform_delivery", name.to_string(), cfg, None);
    }

    // Prices every fault-scenario family at the paper-scale operating
    // point: what does each family cost in throughput and latency, and what
    // does the fault machinery itself do (view installs, duplicate
    // absorption, partition drops)? Note the partition rows run with
    // uniform (safe) delivery — the runner forces it for partition plans.
    let split = |heal_ms| {
        let (from, to) = (SimTime::from_secs(1), SimTime::from_millis(heal_ms));
        FaultPlan::partition(vec![vec![0, 1], vec![2]], from, to)
    };
    for (name, plan) in [
        ("none", FaultPlan::none()),
        ("random_loss_5pct", FaultPlan::random_loss(0.05)),
        ("bursty_loss_5pct", FaultPlan::bursty_loss(0.05, 5)),
        ("clock_drift_1.05", FaultPlan::clock_drift(1, 1.05)),
        ("crash_at_1s", FaultPlan::crash(2, SimTime::from_secs(1))),
        ("partition_2s", split(3_000)),
        ("partition_300ms", split(1_300)),
        ("duplicates_10pct_x2", FaultPlan::duplicate_delivery(0.10, 2)),
        (
            "correlated_burst_10pct",
            FaultPlan::correlated_burst(vec![0, 1, 2], Duration::from_millis(10), 0.10),
        ),
    ] {
        let cfg = paper_scale(600).with_faults(plan);
        add("ablation_fault_plans", format!("clients_2000_{name}"), cfg, None);
    }

    // Prices the rejoin machinery at the paper-scale operating point: crash
    // rate (how many sites are killed and replaced, staggered so a majority
    // always survives) crossed with the restart delay (how long a dead site
    // stays down, which sets the delta log it must replay on top of the
    // snapshot). The summary lines carry the `rec=` recovery ledger. Each
    // run simulates enough load to outlast the last restart plus its state
    // transfer. The kills are staggered 10s apart: under this load a join
    // grant takes a few seconds to find an order-clean point, and killing
    // the next site before the previous grant lands would strand the
    // survivor in a minority.
    let recovery = |plan| {
        let mut cfg = paper_scale(3_000).with_faults(plan);
        cfg.max_sim = Duration::from_secs(120);
        cfg
    };
    let (first_kill, stagger) = (SimTime::from_secs(1), Duration::from_secs(10));
    for kills in [1usize, 2] {
        for (delay, down) in [("1s", Duration::from_secs(1)), ("3s", Duration::from_secs(3))] {
            let cfg = recovery(FaultPlan::kill_and_replace(kills, first_kill, stagger, down));
            add("ablation_recovery", format!("clients_2000_kill{kills}_down{delay}"), cfg, None);
        }
    }
    // The double-restart point: one site flaps twice (crash, 10s down, back,
    // 10s up, crash again). Each incarnation must come back through its own
    // snapshot + delta-log transfer, and the chain checker's multi-cut rule
    // is what prices it — two rejoins, two transfer cuts.
    let cfg = recovery(FaultPlan::flapping_crash(2, first_kill, stagger, 2));
    add("ablation_recovery", "clients_2000_flap2_period10s".to_string(), cfg, None);

    // The certification ablation from the paper's 2000 clients up to 10000:
    // more clients keep a wider conflict window open, which is where the
    // linear scan's O(window) cost and the index's O(request) probes
    // diverge. Decisions are bit-identical across backends; tpm/latency and
    // the scan-vs-probe work ledger are the comparison.
    for clients in [2000usize, 5000, 10000] {
        for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
            let cfg =
                ExperimentConfig::replicated(3, clients).with_target(600).with_cert_backend(kind);
            let id = format!("clients_{clients}_{}", kind.name());
            add("ablation_cert_backend", id, cfg, Some(kind.name()));
        }
    }

    // The pipeline sweep: synchronous vs pipelined commit path. This is
    // where the delivery loop itself is the wall — how much of the
    // certification stall does the tentative-delivery overlap actually
    // remove, and does the speculative FIFO queue?
    for clients in [20000usize, 50000] {
        for path in paths {
            let cfg = scale_out(3, clients).with_commit_path(path);
            let id = format!("clients_{clients}_indexed_{}", path.name());
            add("ablation_cert_pipeline", id, cfg, Some("indexed"));
        }
    }

    // The partial-replication question: at a fixed total data set (clients,
    // hence warehouses, held constant), what does dropping the replication
    // factor from full to k buy per site? Each site then indexes only the
    // warehouses it replicates (~k/N of the rows), certifies against that
    // span, and pays a vote round only for the cross-span minority — so
    // per-site critical-path certification work should shrink ∝ k/N while
    // aggregate throughput grows with the site count.
    for sites in [3usize, 6, 9, 12] {
        // `factor >= sites` builds no placement: that point is the
        // full-replication baseline the partial rows compare to (rf 3 at 3
        // sites IS full replication, hence the dedup).
        let mut factors = vec![2, 3, sites];
        factors.dedup();
        for factor in factors {
            let label = if factor >= sites { "full".to_string() } else { factor.to_string() };
            let cfg = scale_out(sites, 12_000).with_replication_factor(factor);
            let id = format!("sites_{sites}_rf_{label}");
            add("ablation_partial_replication", id, cfg, Some("indexed"));
        }
    }

    // The decentralized-vote question: with certification verdicts multicast
    // as wire-level votes (piggybacked on outgoing data frames where MTU
    // slack allows) instead of modeled as a fixed RTT, what does the vote
    // round actually cost — and how much of it does the pipelined path hide
    // by pre-computing votes at tentative delivery, overlapping the vote
    // round with the ordering round? Both commit paths at every genuinely
    // partial point; the synchronous ones repeat the partial-replication
    // sweep's experiments under the same row key.
    for sites in [3usize, 6, 9, 12] {
        for factor in [2usize, 3].into_iter().filter(|f| *f < sites) {
            for path in paths {
                let cfg =
                    scale_out(sites, 12_000).with_replication_factor(factor).with_commit_path(path);
                let id = format!("sites_{sites}_rf_{factor}_{}", path.name());
                add("ablation_vote_wire", id, cfg, Some("indexed"));
            }
        }
    }

    // Re-placement under churn at 6 sites. Zero crashes is the baseline; one
    // crash (site 5) removes one replica of its spans but strands nothing —
    // clients re-route to the surviving replica; two crashes take the
    // ADJACENT pair {0, 1}, which under round-robin placement at rf 2
    // removes BOTH replicas of the spans homed on the pair, forcing the
    // survivors to elect adopters and re-home those spans through state
    // transfer. At rf 3 the same pair crash leaves a third replica alive, so
    // its rows price pure degradation with no re-homing — the rf axis
    // separates the two effects. Rows carry synthetic backend labels
    // `churn{n}` so they never collide with the partial-replication sweep's
    // rows at the same (sites, rf) point.
    for factor in [2usize, 3] {
        for crashes in [0usize, 1, 2] {
            let plan = match crashes {
                0 => FaultPlan::none(),
                1 => FaultPlan::crash(5, SimTime::from_secs(3)),
                _ => FaultPlan::crash(0, SimTime::from_secs(3))
                    .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(5) }),
            };
            let cfg = scale_out(6, 12_000).with_replication_factor(factor).with_faults(plan);
            let id = format!("rf_{factor}_crash_{crashes}");
            add("ablation_replacement", id, cfg, Some(&format!("churn{crashes}")));
        }
    }

    // The five end-to-end benchmark workloads at its smoke scale (a tenth of
    // each transaction target) and under its horizons. They land in no
    // artifact: the tests pin what each run simulates, so a change that
    // should move no simulated number proves it in `cargo test`.
    // `benchmark/src/workloads.rs` keeps the benchmark's own copy.
    let partial_shape = |sites, clients| {
        let mut cfg = ExperimentConfig::replicated(sites, clients).with_replication_factor(2);
        cfg.history_window = 1 << 17;
        cfg.cpus_per_site = 3;
        cfg
    };
    let pair_crash = FaultPlan::crash(0, SimTime::from_secs(3))
        .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(5) });
    for (name, mut cfg, horizon_s) in [
        ("paper-3site-2k", paper_scale(30_000), 330),
        ("loss-3site-2k", paper_scale(30_000).with_faults(FaultPlan::random_loss(0.05)), 330),
        ("central-3cpu-7k", ExperimentConfig::centralized(3, 7000).with_target(6_000), 75),
        (
            "partial-12site-12k",
            partial_shape(12, 12_000).with_commit_path(CommitPath::Pipelined).with_target(10_000),
            40,
        ),
        ("churn-6site-3k", partial_shape(6, 3000).with_target(7_000).with_faults(pair_crash), 50),
    ] {
        cfg.target_txns /= 10;
        cfg.max_sim = Duration::from_secs(horizon_s);
        add("workload", name.to_string(), cfg, None);
    }
    points
}

/// One row per key per invocation, the later point winning — what separate
/// merges of the sweeps would leave behind.
fn keep_latest<R: Row>(rows: &mut Vec<R>, row: R) {
    rows.retain(|r| r.key() != row.key());
    rows.push(row);
}

/// Merges into the across-PR artifact: rows this invocation re-ran (even
/// under narrowing filters) replace their old versions, rows it didn't run
/// are preserved, and a config-hash mismatch (schema bump, changed
/// seed/sites/target) fails loudly instead of mixing incomparable sweeps.
/// An invocation that ran no row point of `R` does not touch its file.
fn merge<R: Row>(rows: &[R]) -> std::io::Result<()> {
    if !rows.is_empty() {
        let path = merge_and_write(rows)?;
        println!("merged {} fresh rows into {}", rows.len(), path.display());
    }
    Ok(())
}

/// Simulates every point whose `group/id` contains one of `filters` (all
/// points when there are none), once each, printing its summary line and
/// the host time it took, then merges the row points into their artifacts.
///
/// # Errors
///
/// Whatever [`merge_and_write`] returns — notably a config-hash mismatch
/// against an artifact on disk.
pub fn run(filters: &[String]) -> std::io::Result<()> {
    let (mut cert_rows, mut paper_rows) = (Vec::new(), Vec::new());
    for p in catalogue() {
        let name = format!("{}/{}", p.group, p.id);
        if !filters.is_empty() && !filters.iter().any(|f| name.contains(f.as_str())) {
            continue;
        }
        let started = Instant::now();
        let m = run_experiment(p.cfg.clone());
        println!("    {}", dbsm_core::report::summary_line(&p.id, &m));
        println!("{name:<50} simulated in {:.2?}", started.elapsed());
        // A vote round stalled past its re-collect cap would park its
        // clients forever and commits would collapse well below the
        // no-crash baseline's ~15k — a genuine hang, not churn-degraded
        // throughput.
        assert!(
            p.group != "ablation_replacement" || m.committed() >= 5_000,
            "{name}: run stalled at {} commits",
            m.committed()
        );
        // A number from a run whose replicas diverged is not a result: the
        // paper's safety condition gates every row.
        if let Err(e) = p.safety(&m) {
            panic!("{name}: replicas committed different sequences: {e:?}");
        }
        if let Some(row) = p.cert_row(&m) {
            keep_latest(&mut cert_rows, row);
        }
        if let Some(row) = p.paper_row(&m) {
            keep_latest(&mut paper_rows, row);
        }
    }
    merge(&cert_rows)?;
    merge(&paper_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert_json::parse_document;
    use dbsm_core::Cluster;
    use std::collections::BTreeSet;

    fn names() -> Vec<String> {
        catalogue().iter().map(|p| format!("{}/{}", p.group, p.id)).collect()
    }

    #[test]
    fn catalogue_has_uniquely_named_points_in_contiguous_groups() {
        let names = names();
        assert_eq!(names.len(), 124);
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), 124, "duplicate group/id");
        let mut groups: Vec<&str> = catalogue().iter().map(|p| p.group).collect();
        groups.dedup();
        assert_eq!(groups.len(), 13, "groups are contiguous: {groups:?}");
    }

    /// The `(key, config_hash)` of every row point of one artifact, as its
    /// configuration alone determines them, against the committed document.
    /// Nothing is simulated: a sweep edited without re-sweeping (or an
    /// artifact regenerated from a different table) fails here.
    fn row_points_are_the_artifact<R: Row>(
        artifact: &str,
        row_of: fn(&Point, &RunMetrics) -> Option<R>,
        (points, rows): (usize, usize),
    ) {
        let identity = |r: &R| (r.key(), r.fingerprint().to_string());
        let committed = parse_document::<R>(artifact).expect("artifact");
        let committed: BTreeSet<_> = committed.iter().map(identity).collect();
        let unrun = RunMetrics::new(0);
        let row_points: Vec<R> = catalogue().iter().filter_map(|p| row_of(p, &unrun)).collect();
        assert_eq!((row_points.len(), committed.len()), (points, rows), "{}", R::FILE);
        assert!(
            row_points.iter().map(identity).collect::<BTreeSet<_>>() == committed,
            "{}",
            R::FILE
        );
    }

    #[test]
    fn row_points_are_exactly_the_committed_artifact() {
        let cert = include_str!("../../../BENCH_cert.json");
        row_points_are_the_artifact(cert, Point::cert_row, (41, 34));
        let paper = include_str!("../../../BENCH_paper.json");
        row_points_are_the_artifact(paper, Point::paper_row, (49, 49));
    }

    #[test]
    fn row_points_gate_their_runs_on_the_safety_condition() {
        let point = |row| Point {
            group: "g",
            id: "i".to_string(),
            cfg: ExperimentConfig::replicated(3, 30),
            row,
        };
        let (cert, paper) =
            (point(Some(RowLabel::Cert("indexed".into()))), point(Some(RowLabel::Paper("none"))));
        let mut m = RunMetrics::new(3);
        // Site 1 ends one commit short.
        m.commit_logs = vec![vec![(0, 1), (1, 1)], vec![(0, 1)], vec![(0, 1), (1, 1)]];
        assert_eq!(cert.safety(&m), Ok(()), "a cert row takes a prefix");
        assert!(paper.safety(&m).is_err(), "a paper row needs identical logs");
        // Site 1 commits what no other site did.
        m.commit_logs[1] = vec![(1, 1)];
        assert!(cert.safety(&m).is_err(), "a cert row needs one chain");
        assert!(paper.safety(&m).is_err());
        assert_eq!(point(None).safety(&m), Ok(()), "a point landing no row is not gated");
    }

    #[test]
    fn every_documented_filter_selects_a_point() {
        let names = names();
        let docs = [
            include_str!("../../../docs/EXPERIMENTS.md"),
            include_str!("../../../README.md"),
            include_str!("../../../.github/workflows/ci.yml"),
        ];
        let is_token_char = |c: char| c.is_ascii_alphanumeric() || "_/.".contains(c);
        for (prefix, at_least) in [("ablation_", 30), ("paper/", 5)] {
            let mut tokens = 0;
            for doc in docs {
                for (at, _) in doc.match_indices(prefix) {
                    // `paper/` must start a word: "…the paper/…" is prose.
                    if doc[..at].ends_with(is_token_char) {
                        continue;
                    }
                    let token: &str =
                        doc[at..].split(|c| !is_token_char(c)).next().expect("non-empty");
                    let token = token.trim_end_matches('.');
                    assert!(names.iter().any(|n| n.contains(token)), "{token} selects no point");
                    tokens += 1;
                }
            }
            assert!(tokens >= at_least, "the documents name {prefix} ({tokens} mentions found)");
        }
    }

    /// FNV-1a over every site's commit log, each length, origin and
    /// sequence number as eight little-endian bytes: the benchmark's
    /// `commit_digest` of one trial.
    fn commit_digest(logs: &[Vec<(u16, u64)>]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for log in logs {
            mix(log.len() as u64);
            for &(site, seq) in log {
                mix(u64::from(site));
                mix(seq);
            }
        }
        h
    }

    /// What pins a run: events executed, commit digest, simulated ns
    /// elapsed, transactions committed and aborted.
    type Identity = (u64, u64, u64, u64, u64);

    /// Runs the `workload/` point `name` at seeds 42 and 7 and compares
    /// each run's [`Identity`] with its pin.
    ///
    /// The configs are the five of `benchmark/src/workloads.rs`, which keeps
    /// a second copy of them until the benchmark looks its workloads up in
    /// the catalogue. A change that should move no simulated number leaves
    /// every pin alone; a deliberate behaviour change re-records them.
    fn workload_identity(name: &str, pins: [(u64, Identity); 2]) {
        let point = catalogue()
            .into_iter()
            .find(|p| p.group == "workload" && p.id == name)
            .expect("a workload point");
        for (seed, pin) in pins {
            let cluster = Cluster::build(point.cfg.clone().with_seed(seed));
            let handle = cluster.clone();
            let m = cluster.run();
            let got = (
                handle.sim().events_executed(),
                commit_digest(&m.commit_logs),
                m.elapsed.as_nanos(),
                m.committed(),
                m.aborted(),
            );
            assert_eq!(
                got, pin,
                "{name}, seed {seed}: (events, digest, elapsed ns, committed, aborted)"
            );
        }
    }

    #[test]
    fn workload_paper_3site_2k_is_pinned() {
        workload_identity(
            "paper-3site-2k",
            [
                (42, (866_275, 0xac9a06714079478d, 16_699_065_674, 2_639, 560)),
                (7, (866_063, 0xaa361b8d51e9d51e, 16_952_709_605, 2_552, 579)),
            ],
        );
    }

    #[test]
    fn workload_loss_3site_2k_is_pinned() {
        workload_identity(
            "loss-3site-2k",
            [
                (42, (869_257, 0x438381cdc13eb98d, 16_740_300_121, 2_682, 461)),
                (7, (863_168, 0x9e4e1b9e1f91c98b, 16_901_442_017, 2_602, 589)),
            ],
        );
    }

    #[test]
    fn workload_central_3cpu_7k_is_pinned() {
        workload_identity(
            "central-3cpu-7k",
            [
                (42, (28_398, 0x1d7be598148ca5ed, 2_768_440_786, 1_261, 503)),
                (7, (28_733, 0xd4da8170263dabba, 2_800_705_331, 1_289, 519)),
            ],
        );
    }

    #[test]
    fn workload_partial_12site_12k_is_pinned() {
        workload_identity(
            "partial-12site-12k",
            [
                (42, (777_082, 0x7662192b2fe47b15, 990_348_284, 1_144, 40)),
                (7, (773_037, 0xa88f1748cb23ff15, 995_531_887, 1_113, 31)),
            ],
        );
    }

    #[test]
    fn workload_churn_6site_3k_is_pinned() {
        workload_identity(
            "churn-6site-3k",
            [
                (42, (236_419, 0x0552f42055ef5a2d, 2_389_748_764, 704, 9)),
                (7, (234_351, 0x0b430589004c612d, 2_435_072_827, 700, 9)),
            ],
        );
    }
}
