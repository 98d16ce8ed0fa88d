//! Experiment configuration: every knob the paper's §5 varies.

use dbsm_cert::{CertBackendKind, CertWork};
use dbsm_db::{CcPolicy, StorageConfig};
use dbsm_fault::{FaultPlan, PlanError};
use dbsm_gcs::{AnnBatchPolicy, GcsConfig, MAX_NODES};
use std::fmt;
use std::time::Duration;

/// How a site orders certification relative to total-order delivery.
///
/// The synchronous path is the seed behaviour: every delivered request
/// certifies inline, so the delivery loop stalls for the full conflict
/// check. The pipelined path overlaps certification with the broadcast
/// (Emerson & Ezhilchelvan's optimistic-delivery pipeline): requests
/// certify *speculatively* on tentative (pre-total-order) delivery, queue
/// their probe work on the site's speculative-certification FIFO, and the
/// total-order delivery merely confirms — or rolls back — the speculation.
/// Decisions are bit-identical either way; what moves is where the latency
/// lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitPath {
    /// Certify inline at total-order delivery (seed behaviour).
    #[default]
    Synchronous,
    /// Certify speculatively at tentative delivery; confirm in total order.
    Pipelined,
}

impl CommitPath {
    /// Stable lowercase name (used in bench rows and report labels).
    pub fn name(self) -> &'static str {
        match self {
            CommitPath::Synchronous => "sync",
            CommitPath::Pipelined => "pipelined",
        }
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of replicas (1 = centralized baseline).
    pub sites: usize,
    /// CPUs per site (the paper's centralized baselines use 1, 3 and 6).
    pub cpus_per_site: usize,
    /// Emulated clients, split equally across sites.
    pub clients: usize,
    /// Stop after this many completed transactions (the paper runs 10 000).
    pub target_txns: u64,
    /// Hard cap on simulated time.
    pub max_sim: Duration,
    /// Master seed for every stochastic component.
    pub seed: u64,
    /// Mean think time between client requests.
    pub think_mean: Duration,
    /// Storage configuration per site.
    pub storage: StorageConfig,
    /// Concurrency-control policy.
    pub policy: CcPolicy,
    /// Group-communication configuration; `None` uses
    /// [`GcsConfig::lan`] for the configured number of sites.
    pub gcs: Option<GcsConfig>,
    /// Faults to inject (§5.3).
    pub faults: FaultPlan,
    /// Validate read-only transactions against recently committed
    /// write-sets (on, as in the prototype; stock-level is always exempt).
    pub certify_read_only: bool,
    /// Per-table read-set size beyond which certification upgrades to a
    /// table-level entry (§3.3).
    pub table_lock_threshold: usize,
    /// Committed write-sets retained by the certifier before garbage
    /// collection.
    pub history_window: u64,
    /// Which certification backend every site runs: the indexed write
    /// history (default) or the paper-faithful linear scan. Both reach
    /// bit-identical decisions; they differ only in certification cost.
    pub cert_backend: CertBackendKind,
    /// Whether certification runs synchronously at delivery or overlapped
    /// with the total-order broadcast (see [`CommitPath`]).
    pub commit_path: CommitPath,
    /// Relative CPU speed (the CSRT's processor-speed scaling, §2.3);
    /// both simulated processing and real-code costs scale by it. Must be
    /// finite and positive.
    pub cpu_speed: f64,
    /// Overrides the segment's one-way latency (wide-area what-if runs);
    /// `None` keeps the 50 µs LAN default.
    pub wan_latency: Option<Duration>,
    /// Partial replication: how many of the `sites` replicas store each
    /// warehouse, placed round-robin by
    /// [`PlacementMap`](crate::PlacementMap) over the configured site count.
    /// `None` — or a factor of at least `sites` — runs classic full
    /// replication; a genuine k-of-N factor routes clients to owner sites,
    /// restricts each site's certification to its span, and commits
    /// cross-span transactions through a vote round.
    pub replication_factor: Option<usize>,
}

impl ExperimentConfig {
    /// A centralized (1-site) baseline with `cpus` processors.
    pub fn centralized(cpus: usize, clients: usize) -> Self {
        ExperimentConfig {
            sites: 1,
            cpus_per_site: cpus,
            clients,
            target_txns: 10_000,
            max_sim: Duration::from_secs(600),
            seed: 42,
            think_mean: Duration::from_secs(10),
            storage: StorageConfig::raid5_fibre(),
            policy: CcPolicy::MultiVersion,
            gcs: None,
            faults: FaultPlan::none(),
            certify_read_only: true,
            table_lock_threshold: 256,
            history_window: 4096,
            cert_backend: CertBackendKind::Indexed,
            commit_path: CommitPath::Synchronous,
            cpu_speed: 1.0,
            wan_latency: None,
            replication_factor: None,
        }
    }

    /// A replicated configuration with `sites` single-CPU replicas
    /// (the paper's 3-site and 6-site setups).
    pub fn replicated(sites: usize, clients: usize) -> Self {
        ExperimentConfig { sites, cpus_per_site: 1, ..ExperimentConfig::centralized(1, clients) }
    }

    /// Caps the run length (useful for fast tests and examples).
    pub fn with_target(mut self, txns: u64) -> Self {
        self.target_txns = txns;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the certification backend.
    pub fn with_cert_backend(mut self, backend: CertBackendKind) -> Self {
        self.cert_backend = backend;
        self
    }

    /// Selects the commit path (synchronous or pipelined certification).
    pub fn with_commit_path(mut self, path: CommitPath) -> Self {
        self.commit_path = path;
        self
    }

    /// Replicates each warehouse on `k` of the sites, round-robin. A `k`
    /// of at least the site count is full replication, which runs the
    /// classic unrestricted path.
    pub fn with_replication_factor(mut self, k: usize) -> Self {
        self.replication_factor = Some(k);
        self
    }

    /// The factor of a run that genuinely replicates partially: set,
    /// nonzero, and below the site count.
    pub(crate) fn partial_factor(&self) -> Option<usize> {
        self.replication_factor.filter(|&k| k > 0 && k < self.sites)
    }

    /// Selects the sequencer announcement batching policy, materializing the
    /// default GCS configuration if none was set explicitly. Only the policy
    /// is stored: the flags [`ExperimentConfig::gcs_config`] derives from
    /// the faults and the commit path stay derived, whatever the call order.
    pub fn with_ann_policy(mut self, policy: AnnBatchPolicy) -> Self {
        let mut gcs = self.gcs.take().unwrap_or_else(|| GcsConfig::lan(self.sites));
        gcs.ann_policy = policy;
        self.gcs = Some(gcs);
        self
    }

    /// The effective GCS configuration: `gcs`, or [`GcsConfig::lan`], with
    /// the group size set to the site count.
    ///
    /// Plans containing a [`dbsm_fault::FaultSpec::Partition`] always run
    /// with **uniform (safe) delivery**, overriding
    /// [`GcsConfig::uniform_delivery`]: optimistic delivery speculates on
    /// orderings that only a minority may have seen, and across a
    /// primary-component change the next sequencer can legitimately re-make
    /// them — a minority site that already acted on the old ordering would
    /// have committed a divergent history. Uniform delivery (content *and*
    /// ordering stable before delivery) closes that window; the membership
    /// machinery's primary-component rule handles the rest.
    ///
    /// Plans containing a [`dbsm_fault::FaultSpec::Restart`] run uniform for
    /// the same reason: the rejoin chain check requires a halted site's
    /// commits to be a strict prefix of the survivors' log, and only uniform
    /// delivery guarantees a site crashed mid-protocol never delivered an
    /// ordering the primary component later re-made.
    pub fn gcs_config(&self) -> GcsConfig {
        let mut gcs = self.gcs.clone().unwrap_or_else(|| GcsConfig::lan(self.sites));
        gcs.n_nodes = self.sites;
        if self.faults.has_partition() || self.faults.has_restart() {
            gcs.uniform_delivery = true;
        }
        // The pipelined commit path certifies on tentative delivery, so the
        // stack must hand messages up as soon as the reliable layer
        // completes them (confirmation still waits for the total order).
        if self.commit_path == CommitPath::Pipelined {
            gcs.tentative_delivery = true;
        }
        gcs
    }

    /// Checks the configuration: the site, client and CPU counts (a group
    /// addresses at most [`MAX_NODES`] sites), the CPU speed, the fault
    /// plan against the site count, settings a run would silently ignore
    /// (faults or the pipelined commit path on a one-site run, which has no
    /// group; the linear backend under partial replication, whose span
    /// replicas are always indexed), the replication factor, and — under
    /// partial replication — the fault plan via
    /// [`FaultPlan::validate_coverage`]: only fault schedules leaving some
    /// instant with *zero live sites cluster-wide* are rejected, since a
    /// span stranded by the loss of its whole replica set re-homes to an
    /// elected survivor instead of becoming unroutable. Both commit paths
    /// combine with partial replication: the pipelined path precomputes each
    /// site's wire vote at tentative delivery so the vote round overlaps the
    /// ordering round.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_NODES).contains(&self.sites) {
            return Err(ConfigError::Sites(self.sites));
        }
        if self.clients == 0 {
            return Err(ConfigError::NoClients);
        }
        if self.cpus_per_site == 0 {
            return Err(ConfigError::NoCpus);
        }
        if !(self.cpu_speed.is_finite() && self.cpu_speed > 0.0) {
            return Err(ConfigError::CpuSpeed(self.cpu_speed));
        }
        self.faults.validate(self.sites)?;
        if self.sites == 1 && !self.faults.is_empty() {
            return Err(ConfigError::FaultsWithoutGroup);
        }
        if self.sites == 1 && self.commit_path == CommitPath::Pipelined {
            return Err(ConfigError::PipelinedWithoutGroup);
        }
        if self.replication_factor == Some(0) {
            return Err(ConfigError::ZeroReplication);
        }
        if self.partial_factor().is_some() {
            if self.cert_backend == CertBackendKind::Linear {
                return Err(ConfigError::LinearSpans);
            }
            self.faults.validate_coverage(self.sites)?;
        }
        Ok(())
    }
}

/// Why an [`ExperimentConfig`] was rejected by
/// [`ExperimentConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The fault plan is malformed, or downs every site of a partially
    /// replicated run at once ([`FaultPlan::validate_coverage`]).
    Fault(PlanError),
    /// `sites` is zero, or more than a group addresses ([`MAX_NODES`]).
    Sites(usize),
    /// `clients` is zero: no transaction would ever be submitted.
    NoClients,
    /// `cpus_per_site` is zero: no site could run anything.
    NoCpus,
    /// A one-site run has a fault plan: it has no group and no traffic, so
    /// no fault would reach it.
    FaultsWithoutGroup,
    /// A one-site run asks for the pipelined commit path: with no group
    /// there is no tentative delivery, and the site certifies
    /// synchronously.
    PipelinedWithoutGroup,
    /// Partial replication asks for the linear backend: span replicas are
    /// always indexed.
    LinearSpans,
    /// The replication factor is zero: no site would store anything.
    ZeroReplication,
    /// `cpu_speed` is zero, negative, NaN or infinite: every charged cost
    /// would saturate or vanish.
    CpuSpeed(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Fault(e) => write!(f, "{e}"),
            ConfigError::Sites(n) => write!(f, "sites must be 1 to {MAX_NODES}, not {n}"),
            ConfigError::NoClients => write!(f, "a run needs at least one client"),
            ConfigError::NoCpus => write!(f, "a site needs at least one CPU"),
            ConfigError::FaultsWithoutGroup => write!(f, "a one-site run takes no faults"),
            ConfigError::PipelinedWithoutGroup => write!(f, "a one-site run has no pipelined path"),
            ConfigError::LinearSpans => write!(f, "span replicas are indexed, never linear"),
            ConfigError::ZeroReplication => {
                write!(f, "partial replication needs a replication factor of at least 1")
            }
            ConfigError::CpuSpeed(s) => write!(f, "cpu_speed must be finite and positive, not {s}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<PlanError> for ConfigError {
    fn from(e: PlanError) -> Self {
        ConfigError::Fault(e)
    }
}

/// The certification real code's cost table under synthetic profiling (the
/// wall-clock mode measures instead). Calibrated so protocol CPU lands in the
/// paper's ≈1–2 % band (Fig. 7c). Every run charges these values.
pub const CERT_COSTS: CertCostModel = CertCostModel {
    marshal_fixed: Duration::from_micros(15),
    marshal_per_byte_ns: 2.0,
    certify_fixed: Duration::from_micros(20),
    per_comparison_ns: 60.0,
    per_probe_ns: 90.0,
    merge_ns: 25.0,
    confirm_fixed: Duration::from_micros(2),
    speculate_fixed: Duration::from_micros(10),
    vote_rtt: Duration::from_micros(120),
    snapshot_bytes_per_warehouse: 2 << 20,
    delta_bytes_per_entry: 768,
    transfer_bytes_per_sec: 12.5e6,
};

/// CPU cost parameters for the certification real code; [`CERT_COSTS`]
/// holds the calibrated values.
///
/// Every backend is priced from the same [`CertWork`] record: the linear
/// scan reports merge `comparisons`, the indexed backend reports index
/// `probes`, and each dimension carries its own per-unit cost — a hash probe
/// plus binary search is dearer than one merge step, but the indexed backend
/// performs O(request) of them instead of O(window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertCostModel {
    /// Fixed cost of building + marshalling a request.
    pub marshal_fixed: Duration,
    /// Marshalling cost per byte, nanoseconds.
    pub marshal_per_byte_ns: f64,
    /// Fixed cost of unmarshalling + certifying.
    pub certify_fixed: Duration,
    /// Cost per ordered-merge comparison step (linear backend).
    pub per_comparison_ns: f64,
    /// Cost per index probe — hash lookup plus interval binary search
    /// (indexed backend).
    pub per_probe_ns: f64,
    /// Cost of folding a speculative probe's verdict into the request's
    /// outcome once the probe is served (pipelined commit path). The
    /// verdict is one word (the earliest conflicting sequence number, if
    /// any), so this is a cache-line read plus a min fold.
    pub merge_ns: f64,
    /// Fixed cost of confirming a speculation at total-order delivery
    /// (pipelined commit path): a hash-map lookup and a basis comparison —
    /// much cheaper than `certify_fixed`, which covers unmarshalling and
    /// request setup already paid at tentative delivery.
    pub confirm_fixed: Duration,
    /// Fixed cost of dispatching a speculative certification at tentative
    /// delivery (pipelined commit path): unmarshal the payload and queue the
    /// probe on the site's speculative FIFO. Cheaper than `certify_fixed`
    /// because the speculative pass runs outside the certifier's serial
    /// section — no total-order bookkeeping, no history mutation.
    pub speculate_fixed: Duration,
    /// Latency of the verdict exchange for *read-only* cross-span
    /// validations under partial replication: a read-only transaction is
    /// never broadcast, so its cross-span check cannot ride the wire-vote
    /// machinery and instead waits out one modelled LAN round trip (probe
    /// out, verdicts back). Update transactions pay real wire-vote latency
    /// instead ([`dbsm_gcs::Gcs::cast_vote`]); span-local reads pay
    /// nothing.
    pub vote_rtt: Duration,
    /// Snapshot size per warehouse for rejoin state transfer: a restarted
    /// site receives this many bytes per warehouse it replicates (every
    /// warehouse under full replication, only its spans' warehouses under
    /// partial placement).
    pub snapshot_bytes_per_warehouse: u64,
    /// Delta-log bytes per committed entry between the rejoiner's pre-crash
    /// commit point and the transfer cut (marshalled write-set plus framing).
    pub delta_bytes_per_entry: u64,
    /// Effective state-transfer bandwidth in bytes per second — the donor
    /// streams the snapshot and delta log alongside regular traffic, so this
    /// sits below raw link speed.
    pub transfer_bytes_per_sec: f64,
}

impl CertCostModel {
    /// Cost of marshalling `bytes`.
    pub fn marshal(&self, bytes: usize) -> Duration {
        self.marshal_fixed + Duration::from_nanos((self.marshal_per_byte_ns * bytes as f64) as u64)
    }

    /// Wall-clock time to stream `bytes` of rejoin state transfer at the
    /// configured bandwidth.
    pub fn transfer_delay(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.transfer_bytes_per_sec)
    }

    /// The data-dependent part of one certification that performed `work`:
    /// the merge comparisons and index probes it actually executed. This is
    /// the *stall* a certification inflicts on whatever loop runs it inline.
    pub fn certify_data(&self, work: CertWork) -> Duration {
        Duration::from_nanos((self.per_comparison_ns * work.comparisons as f64) as u64)
            + self.probe_service(work.probes)
    }

    /// Cost of one synchronous certification that performed `work`: the
    /// fixed unmarshal/setup cost plus [`CertCostModel::certify_data`].
    pub fn certify(&self, work: CertWork) -> Duration {
        self.certify_fixed + self.certify_data(work)
    }

    /// Cost of confirming a speculation at total-order delivery: the fixed
    /// lookup plus whatever delta re-probe `work` the confirmation actually
    /// performed (zero for a speculation hit).
    pub fn confirm(&self, work: CertWork) -> Duration {
        self.confirm_fixed + self.certify_data(work)
    }

    /// Service time of `probes` index probes — the work a speculative
    /// certification enqueues on its site's FIFO.
    pub fn probe_service(&self, probes: usize) -> Duration {
        Duration::from_nanos((self.per_probe_ns * probes as f64) as u64)
    }

    /// Cost of folding one speculative verdict into its outcome.
    pub fn merge(&self) -> Duration {
        Duration::from_nanos(self.merge_ns as u64)
    }

    /// Total conflict-check nanoseconds a run's [`CertWorkTotals`]
    /// represent — the data-dependent work its certifiers performed. The
    /// fixed per-request unmarshal cost is identical across backends and is
    /// deliberately excluded: this view exists to compare backends, and a
    /// constant both sides pay would only dilute the comparison.
    ///
    /// [`CertWorkTotals`]: crate::CertWorkTotals
    pub fn total_work_ns(&self, t: &crate::CertWorkTotals) -> f64 {
        self.per_comparison_ns * t.comparisons as f64 + self.per_probe_ns * t.probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_have_paper_defaults() {
        let c = ExperimentConfig::centralized(3, 500);
        assert_eq!(c.sites, 1);
        assert_eq!(c.cpus_per_site, 3);
        assert_eq!(c.target_txns, 10_000);
        let r = ExperimentConfig::replicated(6, 2000);
        assert_eq!(r.sites, 6);
        assert_eq!(r.cpus_per_site, 1);
        assert_eq!(r.gcs_config().n_nodes, 6);
        // A user-set GCS config sized for another site count is resized.
        let mut r = r;
        r.gcs = Some(GcsConfig::lan(3));
        assert_eq!(r.gcs_config().n_nodes, 6);
    }

    #[test]
    fn cost_model_scales() {
        let m = CERT_COSTS;
        assert!(m.marshal(1000) > m.marshal(10));
        let comparisons = |n| CertWork { comparisons: n, ..CertWork::default() };
        let probes = |n| CertWork { probes: n, ..CertWork::default() };
        assert!(m.certify(comparisons(500)) > m.certify(comparisons(0)));
        assert!(m.certify(probes(500)) > m.certify(probes(0)));
        // A handful of probes is far cheaper than a long scan: the honest
        // pricing that makes the indexed backend pay off under load.
        assert!(m.certify(probes(24)) < m.certify(comparisons(1000)));
    }

    #[test]
    fn ann_policy_selector_materializes_gcs_config() {
        let c = ExperimentConfig::replicated(3, 30);
        assert_eq!(c.gcs_config().ann_policy, AnnBatchPolicy::Immediate, "paper-faithful default");
        let c = c.with_ann_policy(AnnBatchPolicy::adaptive_lan());
        assert_eq!(c.gcs_config().ann_policy, AnnBatchPolicy::adaptive_lan());
        assert_eq!(c.gcs_config().n_nodes, 3, "materialized config keeps the site count");
    }

    #[test]
    fn ann_policy_leaves_the_derived_flags_derived_in_either_order() {
        use dbsm_sim::SimTime;
        let split = || {
            FaultPlan::partition(
                vec![vec![0, 1], vec![2]],
                SimTime::from_secs(5),
                SimTime::from_secs(6),
            )
        };
        let policy = AnnBatchPolicy::adaptive_lan();
        let base = || ExperimentConfig::replicated(3, 30);
        // Uniform delivery follows the faults in force, not those at the call.
        let before = base().with_faults(split()).with_ann_policy(policy);
        let after = base().with_ann_policy(policy).with_faults(split());
        for c in [&before, &after] {
            assert!(c.gcs_config().uniform_delivery);
            assert_eq!(c.gcs_config().ann_policy, policy);
        }
        let healed = before.with_faults(FaultPlan::none());
        assert!(!healed.gcs_config().uniform_delivery, "dropping the partition drops uniform");
        assert!(!after.with_faults(FaultPlan::none()).gcs_config().uniform_delivery);
        // Tentative delivery follows the commit path the same way.
        let before = base().with_commit_path(CommitPath::Pipelined).with_ann_policy(policy);
        let after = base().with_ann_policy(policy).with_commit_path(CommitPath::Pipelined);
        for c in [&before, &after] {
            assert!(c.gcs_config().tentative_delivery);
        }
        let sync = before.with_commit_path(CommitPath::Synchronous);
        assert!(!sync.gcs_config().tentative_delivery, "the synchronous path needs none");
        assert!(!after.with_commit_path(CommitPath::Synchronous).gcs_config().tentative_delivery);
    }

    #[test]
    fn partition_plans_force_uniform_delivery() {
        use dbsm_sim::SimTime;
        let plan = FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(5),
            SimTime::from_secs(6),
        );
        let c = ExperimentConfig::replicated(3, 30);
        assert!(!c.gcs_config().uniform_delivery, "optimistic by default");
        let c = c.with_faults(plan);
        assert!(c.gcs_config().uniform_delivery, "partition plans run uniform");
        assert!(c.validate().is_ok());
        // Even an explicitly optimistic GCS config is overridden.
        let mut c = c;
        c.gcs = Some(GcsConfig::lan(3));
        assert!(c.gcs_config().uniform_delivery);
    }

    #[test]
    fn restart_plans_force_uniform_delivery() {
        use dbsm_sim::SimTime;
        let plan = FaultPlan::crash_restart(2, SimTime::from_secs(5), SimTime::from_secs(8));
        let c = ExperimentConfig::replicated(3, 30);
        assert!(!c.gcs_config().uniform_delivery, "optimistic by default");
        let c = c.with_faults(plan);
        assert!(c.gcs_config().uniform_delivery, "restart plans run uniform");
        assert!(c.validate().is_ok());
        // Even an explicitly optimistic GCS config is overridden.
        let mut c = c;
        c.gcs = Some(GcsConfig::lan(3));
        assert!(c.gcs_config().uniform_delivery);
    }

    #[test]
    fn transfer_delay_prices_bytes_at_the_configured_bandwidth() {
        let m = CERT_COSTS;
        // 12.5 MB at 12.5 MB/s = 1 s.
        assert_eq!(m.transfer_delay(12_500_000), Duration::from_secs(1));
        assert_eq!(m.transfer_delay(0), Duration::ZERO);
        // A 3-warehouse snapshot plus a 100-entry delta log.
        let bytes = 3 * m.snapshot_bytes_per_warehouse + 100 * m.delta_bytes_per_entry;
        let d = m.transfer_delay(bytes);
        assert!(d > Duration::from_millis(400) && d < Duration::from_secs(2), "{d:?}");
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        use dbsm_sim::SimTime;
        let bad = FaultPlan::partition(
            vec![vec![0, 1], vec![1, 2]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(ExperimentConfig::replicated(3, 30).with_faults(bad).validate().is_err());
    }

    #[test]
    fn validate_rejects_counts_the_cluster_cannot_build() {
        let base = ExperimentConfig::replicated(3, 60);
        let cases = [
            (ExperimentConfig { sites: 0, ..base.clone() }, ConfigError::Sites(0)),
            (ExperimentConfig { sites: MAX_NODES + 1, ..base.clone() }, ConfigError::Sites(65)),
            (ExperimentConfig { clients: 0, ..base.clone() }, ConfigError::NoClients),
            (ExperimentConfig { cpus_per_site: 0, ..base.clone() }, ConfigError::NoCpus),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        let widest = ExperimentConfig { sites: MAX_NODES, ..base };
        assert_eq!(widest.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_non_positive_cpu_speed() {
        let with_speed =
            |s| ExperimentConfig { cpu_speed: s, ..ExperimentConfig::replicated(3, 60) };
        for s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(with_speed(s).validate(), Err(ConfigError::CpuSpeed(_))),
                "cpu_speed {s} accepted"
            );
        }
        assert_eq!(with_speed(2.0).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_faults_on_a_one_site_run() {
        let crash = FaultPlan::crash(0, dbsm_sim::SimTime::from_secs(1));
        let central = ExperimentConfig::centralized(1, 60);
        for plan in [FaultPlan::random_loss(0.05), crash] {
            let cfg = central.clone().with_faults(plan);
            assert_eq!(cfg.validate(), Err(ConfigError::FaultsWithoutGroup));
        }
        assert_eq!(central.validate(), Ok(()));
        let replicated = ExperimentConfig::replicated(2, 60);
        assert_eq!(replicated.with_faults(FaultPlan::random_loss(0.05)).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_the_pipelined_path_on_a_one_site_run() {
        let central = ExperimentConfig::centralized(3, 60).with_commit_path(CommitPath::Pipelined);
        assert_eq!(central.validate(), Err(ConfigError::PipelinedWithoutGroup));
        let replicated =
            ExperimentConfig::replicated(2, 60).with_commit_path(CommitPath::Pipelined);
        assert_eq!(replicated.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_the_linear_backend_under_partial_replication() {
        let linear = |k| {
            ExperimentConfig::replicated(6, 60)
                .with_replication_factor(k)
                .with_cert_backend(CertBackendKind::Linear)
        };
        assert_eq!(linear(2).validate(), Err(ConfigError::LinearSpans));
        // A factor of at least the site count is full replication, which
        // runs the configured backend.
        assert_eq!(linear(6).validate(), Ok(()));
    }

    #[test]
    fn replication_factor_builder_materializes_a_placement() {
        use crate::replica::Partial;
        let c = ExperimentConfig::replicated(6, 60).with_replication_factor(2);
        assert_eq!((c.replication_factor, c.partial_factor()), (Some(2), Some(2)));
        assert!(Partial::for_run(&c).is_some(), "a k-of-N run builds its ring");
        assert!(c.validate().is_ok());
        // k >= sites degenerates to the classic full-replication path.
        for k in [6, 9] {
            let full = ExperimentConfig::replicated(6, 60).with_replication_factor(k);
            assert_eq!(full.partial_factor(), None);
            assert!(Partial::for_run(&full).is_none() && full.validate().is_ok());
        }
        // The ring spans the run's own site count, whenever that is set.
        let mut grown = ExperimentConfig::replicated(3, 60).with_replication_factor(2);
        grown.sites = 6;
        assert!(grown.validate().is_ok());
        assert!(Partial::for_run(&grown).is_some());
        let mut shrunk = ExperimentConfig::replicated(6, 60).with_replication_factor(2);
        shrunk.sites = 2;
        assert!(Partial::for_run(&shrunk).is_none(), "rf 2 of 2 sites is full replication");
    }

    #[test]
    fn validate_accepts_pipelined_partial_replication() {
        // The wire-vote machinery precomputes votes on tentative delivery,
        // so the pipelined path and partial replication now compose.
        let c = ExperimentConfig::replicated(6, 60)
            .with_replication_factor(2)
            .with_commit_path(CommitPath::Pipelined);
        assert!(c.validate().is_ok());
        // A full map on the pipelined path stays legal too.
        let full = ExperimentConfig::replicated(6, 60)
            .with_replication_factor(6)
            .with_commit_path(CommitPath::Pipelined);
        assert!(full.validate().is_ok());
    }

    #[test]
    fn validate_rejects_placements_stranded_by_faults() {
        use dbsm_sim::SimTime;
        // 60 clients -> 6 warehouses round-robin over 6 sites at rf=2:
        // warehouse span w lives on sites {w, w+1 mod 6}. A majority
        // partition {0,1,2,3} strands spans 4 and 5 entirely on {4,5} —
        // legal (the primary component re-homes them).
        let plan = FaultPlan::partition(
            vec![vec![0, 1, 2, 3], vec![4, 5]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let stranded = ExperimentConfig::replicated(6, 60)
            .with_replication_factor(2)
            .with_faults(plan.clone());
        assert!(stranded.validate().is_ok(), "stranded spans re-home");
        // Crashing every site is unservable.
        let outage = (0..6).fold(FaultPlan::none(), |p, s| {
            p.with(dbsm_fault::FaultSpec::Crash { site: s, at: SimTime::from_secs(1) })
        });
        let dead =
            ExperimentConfig::replicated(6, 60).with_replication_factor(2).with_faults(outage);
        let err = dead.validate().unwrap_err();
        assert!(err.to_string().contains("zero live replicas"), "{err}");
        // Full replication shrugs off the stranding partition.
        assert!(ExperimentConfig::replicated(6, 60).with_faults(plan).validate().is_ok());
        // And a zero factor is caught, with or without faults.
        let zero = ExperimentConfig::replicated(6, 60).with_replication_factor(0);
        assert_eq!(zero.validate(), Err(ConfigError::ZeroReplication));
        assert!(ConfigError::ZeroReplication.to_string().contains("at least 1"));
    }

    #[test]
    fn pipelined_commit_path_enables_tentative_delivery() {
        let c = ExperimentConfig::replicated(3, 30);
        assert_eq!(c.commit_path, CommitPath::Synchronous, "seed behaviour is synchronous");
        assert!(!c.gcs_config().tentative_delivery);
        let c = c.with_commit_path(CommitPath::Pipelined);
        assert!(c.gcs_config().tentative_delivery, "pipelined runs need tentative upcalls");
        // Even an explicitly configured GCS gets the flag.
        let mut c = c;
        c.gcs = Some(GcsConfig::lan(3));
        assert!(c.gcs_config().tentative_delivery);
        assert_eq!(CommitPath::Synchronous.name(), "sync");
        assert_eq!(CommitPath::Pipelined.name(), "pipelined");
    }

    #[test]
    fn confirm_prices_only_the_delta_window() {
        let m = CERT_COSTS;
        // A speculation hit confirms for the fixed lookup alone.
        assert_eq!(m.confirm(CertWork::default()), m.confirm_fixed);
        assert!(m.confirm(CertWork::default()) < m.certify(CertWork::default()));
        // A revalidation pays the fixed lookup plus its delta probes, and
        // the data-dependent part is identical to the synchronous price.
        let delta = CertWork { probes: 7, ..CertWork::default() };
        assert_eq!(m.confirm(delta), m.confirm_fixed + m.certify_data(delta));
        assert_eq!(m.certify(delta), m.certify_fixed + m.certify_data(delta));
        // Speculative service composes the same probe pricing.
        assert_eq!(m.probe_service(7), m.certify_data(delta));
        assert_eq!(m.merge(), Duration::from_nanos(25));
        // The pipelined fixed costs must undercut the synchronous dispatch,
        // or overlapping buys nothing: speculate skips the serial section,
        // confirm skips the already-paid unmarshal.
        assert!(m.speculate_fixed + m.confirm_fixed < m.certify_fixed);
    }

    #[test]
    fn backend_selector_defaults_to_indexed() {
        // Flipped from Linear after re-validating the deterministic smoke
        // test and paper-scale ablations under the index. The
        // paper-faithful scan stays selectable.
        let c = ExperimentConfig::centralized(1, 10);
        assert_eq!(c.cert_backend, CertBackendKind::Indexed);
        let c = c.with_cert_backend(CertBackendKind::Linear);
        assert_eq!(c.cert_backend, CertBackendKind::Linear);
    }
}
