//! The replicated database model (§3, Fig. 2): sites assembled from the
//! simulated database engine, the *real* certification and group
//! communication prototypes, TPC-C clients, and the simulated network —
//! all under the centralized simulation runtime.

use crate::experiment::{CertCostModel, CommitPath, ExperimentConfig};
use crate::metrics::{RejoinRecord, RunMetrics, SiteUsage};
use crate::placement::PlacementMap;
use dbsm_cert::{
    marshal, merge_votes, unmarshal, CertBackend, CertRequest, IndexedCertifier,
    Outcome as CertOutcome, RwSet, SiteId, SpanCertifier, SpanPlacement,
};
use dbsm_db::{DbEngine, Outcome, TransactionSpec, TxnId};
use dbsm_fault::FaultSpec;
use dbsm_gcs::{GcsConfig, NodeId, SimBridge, Upcall, View};
use dbsm_net::{
    Addr, BurstyLoss, GroupId, HostId, Network, NetworkBuilder, Port, RandomLoss, SegmentConfig,
    WindowedBurst,
};
use dbsm_sim::{
    derive_seed, derive_seed_indexed, CpuBank, ProfilerMode, RealContext, Sim, SimTime,
};
use dbsm_tpcc::{TpccConfig, TpccGen, TxnClass};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::time::Duration;

struct PendingCert {
    db_txn: TxnId,
    sent_at: SimTime,
}

/// One collected wire verdict: `(voter site, conflicting sequence number
/// if that voter's span saw a conflict)`.
type SiteVote = (u16, Option<u64>);

/// One delivered-but-undecided update transaction in a site's
/// partial-replication FIFO. Deliveries follow the total order, so the
/// FIFO *is* this site's copy of the global sequence: entries are decided
/// and popped strictly in order, each once its wire votes cover every
/// read-set span (or once another site's first decision lands in the
/// shared `decided` map).
struct FifoEntry {
    req: CertRequest,
    delivered_at: SimTime,
    /// Collected `(voter site, conflict)` verdicts, first vote per voter
    /// wins (wire retransmissions re-deliver identical votes).
    votes: Vec<SiteVote>,
    /// Whether this site has already cast (or decided it never will cast)
    /// its own vote for the entry.
    cast: bool,
    /// The entry's write-set restricted to this site's span, precomputed at
    /// delivery: a *later* entry may not vote while an earlier undecided
    /// entry's local writes intersect its read-set — the earlier outcome
    /// could change the probe.
    local_writes: RwSet,
    /// Serial (see `SiteState::fifo_popped`) of the earlier entry last found
    /// to block this one's vote. While that entry is still queued the
    /// pairwise rescan is skipped: neither its `local_writes` nor this
    /// entry's read-set changed. Cleared wherever `local_writes` is
    /// recomputed or the entry is copied into another site's FIFO.
    blocked_by: Option<u64>,
    /// How many times this entry's vote round was re-collected because a
    /// span it touches re-homed mid-round. Capped at [`RECOLLECT_CAP`].
    recollects: u8,
}

/// The per-entry retry cap on vote re-collection: an entry whose round is
/// re-collected more than this many times (one per adoption of a span it
/// touches, while undecided) indicates churn faster than transfers can
/// complete — the run is considered stalled and debug builds assert.
const RECOLLECT_CAP: u8 = 8;

struct SiteState {
    certifier: Box<dyn CertBackend>,
    /// Under partial replication: the span-restricted certifier that does
    /// this site's real conflict-check work — it indexes only the
    /// warehouses the [`PlacementMap`] assigns here. `None` (full
    /// replication) routes everything through `certifier`.
    span: Option<SpanCertifier>,
    /// When this site's speculative-certification FIFO drains (pipelined
    /// commit path): see [`queue_speculation`].
    spec_free_at: SimTime,
    /// When each speculation's verdict is ready, keyed by
    /// `(origin site, txn)` — consulted at total-order confirmation.
    spec_ready: BTreeMap<(u16, u64), SimTime>,
    /// Partial replication: delivered updates awaiting a decision, in total
    /// order (empty under full replication, where delivery decides).
    fifo: VecDeque<FifoEntry>,
    /// Entries popped off `fifo` so far: the entry at index `i` has serial
    /// `fifo_popped + i`, and a serial below `fifo_popped` has left the queue.
    fifo_popped: u64,
    /// Wire votes that arrived before their transaction's delivery, keyed
    /// by `(origin site, txn)` — votes travel on their own (piggybacked)
    /// channel and may beat the data frame's total-order slot.
    vote_stash: BTreeMap<(u16, u64), Vec<SiteVote>>,
    /// Rejoin bookkeeping: keys decided *before* this site's adopted
    /// snapshot was cut. Their deliveries are skipped outright — the
    /// snapshot already contains them — while later deliveries run the
    /// normal FIFO. Empty unless the site rejoined.
    skip_keys: BTreeSet<(u16, u64)>,
    txn_seq: u64,
    /// This site's multicast requests awaiting their decision, by txn. A
    /// rejoin aborts the first incarnation's leftovers in key order — each
    /// abort re-arms a client through the shared workload RNG, so the order
    /// must come from the seed.
    pending: BTreeMap<u64, PendingCert>,
    crashed: bool,
    commits_since_gc: u64,
    /// Reference-chain entries this site's own rejoins skipped over: its
    /// commit log's position on the group's reference chain is
    /// `commit_logs.len() + ref_gap`. Zero until the site rejoins.
    ref_gap: usize,
}

impl SiteState {
    /// Highest committed sequence number of whichever certifier is active.
    fn last_committed(&self) -> u64 {
        match &self.span {
            Some(s) => s.last_committed(),
            None => self.certifier.last_committed(),
        }
    }

    /// Advances the gc cadence after one commit, trimming the active
    /// certifier's history down to `window` entries every 512 commits.
    fn gc_tick(&mut self, window: u64) {
        self.commits_since_gc += 1;
        if self.commits_since_gc < 512 {
            return;
        }
        self.commits_since_gc = 0;
        let stable = self.last_committed().saturating_sub(window);
        match &mut self.span {
            Some(s) => s.gc(stable),
            None => self.certifier.gc(stable),
        }
    }
}

/// A merged certification verdict under partial replication, shared by
/// every site's delivery of the same message.
#[derive(Clone, Copy)]
struct Decision {
    outcome: CertOutcome,
}

/// Cluster-level partial-replication state. Decisions are made by the
/// sites themselves: each covering span owner certifies its slice and
/// multicasts a wire-level vote ([`dbsm_gcs::Gcs::cast_vote`]); whichever
/// site first collects a covering vote set decides by
/// [`dbsm_cert::merge_votes`] and publishes the verdict here. The
/// `oracle` is a full-replication certifier driven once per message at
/// that first decision (first decisions follow the total order, so the
/// oracle certifies in sequence): it cross-checks — `debug_assert` — that
/// the merged wire verdict equals the global one, and provides the full
/// history rejoining sites rebuild their span certifiers from. The
/// `decided` map stands in for the origin's decision dissemination: later
/// sites popping the same entry read the published verdict instead of
/// waiting out a redundant vote collection.
struct PartialState {
    oracle: IndexedCertifier,
    /// Verdicts keyed by `(origin site, txn)` — bounded by the run's
    /// transaction count, never pruned within a run.
    decided: BTreeMap<(u16, u64), Decision>,
    commits_since_gc: u64,
}

/// A staged rejoin state transfer: the donor's committed state cloned at
/// the grant's order-clean point ([`Upcall::ServeJoin`]), held until the
/// joiner's stack reports [`Upcall::Rejoined`] and adopts it. `cut` is the
/// donor's commit-log length at the clone instant — the reference-log
/// position the snapshot + delta log catches the joiner up to.
struct TransferPacket {
    certifier: Box<dyn CertBackend>,
    /// Under partial placement: the joiner's span certifier, rebuilt from
    /// the oracle's full history restricted to the joiner's spans — the
    /// joiner re-requests only its spans' rows.
    span: Option<SpanCertifier>,
    cut: usize,
    snapshot_bytes: u64,
    /// Partial placement: the donor's delivered-but-undecided FIFO entries,
    /// votes included, so the joiner can pick up the open vote rounds (its
    /// own `cast` flags reset — it votes for itself after the transfer).
    fifo: Vec<FifoEntry>,
    /// Keys decided before the snapshot cut: the joiner skips their
    /// deliveries outright, the snapshot already reflects them.
    decided: BTreeSet<(u16, u64)>,
}

struct Shared {
    metrics: RunMetrics,
    completed: u64,
    target: u64,
    stopped: bool,
    sites: Vec<SiteState>,
    partial: Option<PartialState>,
    /// Staged state transfers, keyed by the rejoining site.
    transfers: BTreeMap<u16, TransferPacket>,
    /// When each restarting site came back up (for time-to-useful).
    restart_at: BTreeMap<u16, SimTime>,
    /// Clients whose site was down when they tried to fire, with their
    /// parking instant — drained when the site finishes rejoining or when a
    /// re-placement completes (the overlay may now route them elsewhere).
    parked_clients: Vec<Vec<(usize, SimTime)>>,
    /// The dynamic placement overlay: spans re-homed onto an elected
    /// survivor after their whole replica set died. Effective ownership is
    /// the static [`PlacementMap`] *plus* this map; adoption is permanent
    /// for the run (a restarted original replica simply re-adds an owner —
    /// [`merge_votes`] over extra covering votes stays exact).
    rehomed: BTreeMap<u64, u16>,
    /// Spans mid-transfer: elected at the view change, serving resumes at
    /// [`Cluster::finish_replacement`]. A later view change that kills the
    /// elected adopter re-elects (the entry is overwritten), and the stale
    /// completion skips the span.
    replacing: BTreeMap<u64, u16>,
    /// The highest view id already swept for stranded spans — the
    /// [`Upcall::ViewChange`] fires once per surviving site, and the first
    /// to handle it performs the (deterministic) election for everyone.
    last_reconfig_view: u64,
    /// Wire votes superseded by a re-collection: votes from `(voter)` for
    /// `(origin, txn)` with a sequence number below the stored threshold
    /// were cast before the voter adopted a span the entry touches, and are
    /// dropped on (late) arrival — the post-adoption re-cast replaces them.
    stale_votes: BTreeMap<(u16, u16, u64), u64>,
}

struct SiteHandles {
    cpu: CpuBank,
    engine: DbEngine,
    bridge: Option<SimBridge>,
    host: HostId,
}

/// Timing of one speculation accepted by [`queue_speculation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpecTiming {
    /// When the verdict is ready for total-order confirmation.
    ready_at: SimTime,
    /// Time spent waiting behind earlier speculations.
    queued: Duration,
    /// Probe service time.
    service: Duration,
    /// Verdict folding time, after service.
    merge: Duration,
}

/// Queues a speculative probe of `probes` index probes on a site's
/// speculative-certification FIFO, which drains at `*free_at`. Speculations
/// are served one at a time in arrival order with known service times, so
/// the whole queue collapses into that one clock: the probe starts at
/// `max(now, free_at)`, occupies the FIFO for its service time, and its
/// verdict is ready one merge later. A speculation that probed nothing
/// never enters the FIFO and is ready at once.
fn queue_speculation(
    free_at: &mut SimTime,
    now: SimTime,
    probes: usize,
    costs: &CertCostModel,
) -> SpecTiming {
    if probes == 0 {
        return SpecTiming { ready_at: now, ..SpecTiming::default() };
    }
    let start = (*free_at).max(now);
    let service = costs.probe_service(probes);
    *free_at = start + service;
    let merge = costs.merge();
    SpecTiming {
        ready_at: *free_at + merge,
        queued: start.saturating_duration_since(now),
        service,
        merge,
    }
}

/// The assembled system under test: `sites` replicas on a simulated LAN,
/// TPC-C clients attached round-robin, and the experiment's fault plan.
///
/// Construct with [`Cluster::build`], run with [`Cluster::run`].
pub struct Cluster {
    sim: Sim,
    net: Network,
    gen: Rc<RefCell<TpccGen>>,
    sites: Rc<Vec<SiteHandles>>,
    shared: Rc<RefCell<Shared>>,
    cfg: Rc<ExperimentConfig>,
    costs: CertCostModel,
}

impl Clone for Cluster {
    fn clone(&self) -> Self {
        Cluster {
            sim: self.sim.clone(),
            net: self.net.clone(),
            gen: self.gen.clone(),
            sites: self.sites.clone(),
            shared: self.shared.clone(),
            cfg: self.cfg.clone(),
            costs: self.costs,
        }
    }
}

impl Cluster {
    /// Builds the full model for `cfg`: network, sites, protocol stacks and
    /// fault injection hooks. Clients start after [`Cluster::run`].
    pub fn build(cfg: ExperimentConfig) -> Self {
        assert!(cfg.sites >= 1, "at least one site");
        assert!(cfg.clients >= 1, "at least one client");
        if let Err(e) = cfg.validate() {
            panic!("invalid experiment config: {e}");
        }
        // Genuine partial replication is active when a non-degenerate
        // placement map is configured on a multi-site run.
        let partial_map: Option<PlacementMap> =
            cfg.placement.filter(|p| !p.is_full() && cfg.sites > 1);
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(cfg.clients);
        let sim = Sim::new();
        let mut nb = NetworkBuilder::new(&sim);
        let mut seg = SegmentConfig::fast_ethernet();
        if let Some(lat) = cfg.wan_latency {
            seg.latency = lat;
            seg.tx_buffer = seg.tx_buffer.max(lat * 4);
        }
        let lan = nb.lan(seg);
        let hosts: Vec<HostId> = (0..cfg.sites).map(|_| nb.host(lan)).collect();
        let net = nb.build();

        let gcs_cfg: GcsConfig = cfg.gcs_config();
        let port = Port(7000);
        let group = GroupId(1);
        let peers: Vec<Addr> = hosts.iter().map(|h| Addr::new(*h, port)).collect();

        let mut site_handles = Vec::new();
        let mut site_states = Vec::new();
        for (i, host) in hosts.iter().enumerate() {
            let cpu = CpuBank::new(
                &sim,
                cfg.cpus_per_site,
                ProfilerMode::Synthetic { speed: cfg.cpu_speed },
            );
            let engine = DbEngine::new(
                &sim,
                &cpu,
                cfg.storage,
                cfg.policy,
                derive_seed_indexed(cfg.seed, "storage", i as u64),
            );
            let bridge = if cfg.sites > 1 {
                Some(SimBridge::new(
                    NodeId(i as u16),
                    gcs_cfg.clone(),
                    &net,
                    &cpu,
                    peers[i],
                    peers.clone(),
                    group,
                ))
            } else {
                None
            };
            site_handles.push(SiteHandles { cpu, engine, bridge, host: *host });
            let certifier = cfg.cert_backend.new_backend();
            // Each site's span certifier indexes only the warehouses the
            // placement assigns it — the span key is the TPC-C home
            // warehouse, with warehouse-less tuples (the shared item
            // catalogue, history) global to every site.
            let span = partial_map.map(|p| {
                SpanCertifier::with_span(
                    dbsm_tpcc::schema::home_warehouse_shard_key,
                    p.spans_of(i, warehouses),
                )
            });
            site_states.push(SiteState {
                certifier,
                span,
                spec_free_at: SimTime::ZERO,
                spec_ready: BTreeMap::new(),
                fifo: VecDeque::new(),
                fifo_popped: 0,
                vote_stash: BTreeMap::new(),
                skip_keys: BTreeSet::new(),
                txn_seq: 0,
                pending: BTreeMap::new(),
                crashed: false,
                commits_since_gc: 0,
                ref_gap: 0,
            });
        }

        let mut tpcc_cfg = TpccConfig::new(cfg.clients);
        tpcc_cfg.think_mean = cfg.think_mean;
        tpcc_cfg.seed = derive_seed(cfg.seed, "tpcc");
        let gen = Rc::new(RefCell::new(TpccGen::new(tpcc_cfg)));

        let shared = Rc::new(RefCell::new(Shared {
            metrics: RunMetrics::new(cfg.sites),
            completed: 0,
            target: cfg.target_txns,
            stopped: false,
            sites: site_states,
            partial: partial_map.map(|_| PartialState {
                oracle: IndexedCertifier::new(),
                decided: BTreeMap::new(),
                commits_since_gc: 0,
            }),
            transfers: BTreeMap::new(),
            restart_at: BTreeMap::new(),
            parked_clients: vec![Vec::new(); cfg.sites],
            rehomed: BTreeMap::new(),
            replacing: BTreeMap::new(),
            last_reconfig_view: 0,
            stale_votes: BTreeMap::new(),
        }));

        let cluster = Cluster {
            sim,
            net,
            gen,
            sites: Rc::new(site_handles),
            shared,
            cfg: Rc::new(cfg),
            costs: CertCostModel::default(),
        };
        cluster.wire_bridges();
        cluster.apply_faults();
        cluster
    }

    /// The underlying simulation (e.g. for scheduling extra probes).
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Protocol metrics of one site's group-communication stack.
    pub fn gcs_metrics(&self, site: usize) -> Option<dbsm_gcs::GcsMetrics> {
        self.sites[site].bridge.as_ref().map(|b| b.metrics())
    }

    fn wire_bridges(&self) {
        for (i, s) in self.sites.iter().enumerate() {
            let Some(bridge) = &s.bridge else { continue };
            let this = self.clone();
            bridge.set_handler(Box::new(move |ctx, upcall| match upcall {
                Upcall::Tentative { payload, .. } => {
                    // Pipelined commit path: certify speculatively the moment
                    // the reliable layer completes the message, queueing the
                    // probe work on the site's speculative FIFO so it
                    // overlaps the total-order broadcast.
                    if this.cfg.commit_path != CommitPath::Pipelined {
                        return;
                    }
                    let Ok(req) = unmarshal(payload) else { return };
                    if let Some(p) = this.partial_map() {
                        // Partial replication speculates on the span
                        // certifier, and only at sites that will actually
                        // vote — the speculation is the vote's probe,
                        // precomputed so the vote round overlaps the
                        // ordering round.
                        let votes = {
                            let sh = this.shared.borrow();
                            this.casts_vote(p, &sh.rehomed, i, &req)
                        };
                        if !votes {
                            return;
                        }
                    }
                    // Real code: unmarshal + dispatch of the speculative
                    // probe — outside the certifier's serial section, so
                    // cheaper than a synchronous certification entry.
                    ctx.charge(this.costs.speculate_fixed);
                    let now = ctx.now();
                    let mut sh = this.shared.borrow_mut();
                    let sh = &mut *sh;
                    let st = &mut sh.sites[i];
                    let work = match &mut st.span {
                        Some(span) if this.partial_map().is_some() => span.speculate(&req),
                        _ => st.certifier.speculate(&req),
                    };
                    let t = queue_speculation(&mut st.spec_free_at, now, work.probes, &this.costs);
                    sh.metrics.cert_work.record_spec_probe(work);
                    sh.metrics.cert_work.record_queueing(t.queued, t.service, t.merge);
                    st.spec_ready.insert((req.site.0, req.txn), t.ready_at);
                }
                Upcall::Deliver { payload, .. } => {
                    let Ok(req) = unmarshal(payload) else { return };
                    if this.partial_map().is_some() {
                        // Partial replication (either commit path): enqueue
                        // on the delivery FIFO, then cast/collect wire votes
                        // until the head decides.
                        this.partial_enqueue(i, req, ctx.now());
                        this.advance_partial(i, ctx);
                        return;
                    }
                    match this.cfg.commit_path {
                        CommitPath::Synchronous => {
                            // Real code: unmarshal + certify, charging its CPU
                            // cost — the full conflict check stalls the
                            // delivery loop.
                            let (outcome, work) = {
                                let mut sh = this.shared.borrow_mut();
                                let res = sh.sites[i]
                                    .certifier
                                    .certify(&req)
                                    .expect("history window exceeded");
                                sh.metrics.cert_work.record(res.1);
                                sh.metrics.cert_work.stall_ns +=
                                    this.costs.certify_data(res.1).as_nanos() as u64;
                                res
                            };
                            ctx.charge(this.costs.certify(work));
                            let this2 = this.clone();
                            // Re-enter the simulated domain at start + Δ (Fig. 1b).
                            ctx.schedule(Duration::ZERO, move || {
                                this2.deliver_decision(i, req, outcome);
                            });
                        }
                        CommitPath::Pipelined => {
                            // Confirm against the speculation. The certifier
                            // mutation, commit log and gc cadence must happen
                            // here, in the global sequence — tentative order
                            // differs per site — while the engine-side
                            // decision waits for the speculative FIFO to
                            // finish the probe work.
                            let (outcome, work, pending, ready_at) = {
                                let mut sh = this.shared.borrow_mut();
                                let sh = &mut *sh;
                                let st = &mut sh.sites[i];
                                let (outcome, work, res) =
                                    st.certifier.confirm(&req).expect("history window exceeded");
                                let ready_at = st.spec_ready.remove(&(req.site.0, req.txn));
                                sh.metrics.cert_work.record(work);
                                sh.metrics.cert_work.record_spec(res);
                                sh.metrics.cert_work.stall_ns +=
                                    this.costs.certify_data(work).as_nanos() as u64;
                                let pending = this.decision_bookkeeping(sh, i, &req, outcome);
                                (outcome, work, pending, ready_at)
                            };
                            ctx.charge(this.costs.confirm(work));
                            let delay = ready_at
                                .map_or(Duration::ZERO, |t| t.saturating_duration_since(ctx.now()));
                            let this2 = this.clone();
                            ctx.schedule(delay, move || {
                                this2.apply_decision(i, req, outcome, pending);
                            });
                        }
                    }
                }
                Upcall::Vote { voter, vote } => {
                    // A wire-level certification vote (possibly our own,
                    // looped back). Route it to the delivery FIFO entry it
                    // belongs to, stash it if it beat the delivery, drop it
                    // if the transaction is already decided — then try to
                    // advance the FIFO.
                    if this.partial_map().is_none() {
                        return;
                    }
                    let key = (vote.origin, vote.txn);
                    {
                        let mut sh = this.shared.borrow_mut();
                        let sh = &mut *sh;
                        // A vote cast before its voter adopted a span the
                        // entry touches never probed that span: drop it on
                        // arrival — the post-adoption re-cast (a higher
                        // sequence number on the voter's stream) replaces it.
                        if sh
                            .stale_votes
                            .get(&(voter.0, vote.origin, vote.txn))
                            .is_some_and(|&min| vote.seq < min)
                        {
                            return;
                        }
                        let st = &mut sh.sites[i];
                        if let Some(entry) =
                            st.fifo.iter_mut().find(|e| (e.req.site.0, e.req.txn) == key)
                        {
                            if !entry.votes.iter().any(|&(v, _)| v == voter.0) {
                                entry.votes.push((voter.0, vote.conflict));
                            }
                        } else if !st.skip_keys.contains(&key)
                            && !sh
                                .partial
                                .as_ref()
                                .expect("partial state")
                                .decided
                                .contains_key(&key)
                        {
                            let votes = st.vote_stash.entry(key).or_default();
                            if !votes.iter().any(|&(v, _)| v == voter.0) {
                                votes.push((voter.0, vote.conflict));
                            }
                        }
                    }
                    this.advance_partial(i, ctx);
                }
                Upcall::ViewChange(view) => {
                    // Re-placement trigger: if the installed view removed a
                    // span's last live owner, elect a survivor to adopt it.
                    // Every surviving site receives the same view and would
                    // compute the same election; the first handler performs
                    // it for everyone (deduped by view id).
                    if this.partial_map().is_some() {
                        let this2 = this.clone();
                        ctx.schedule(Duration::ZERO, move || this2.rehome_stranded(view));
                    }
                }
                Upcall::Excluded => {
                    let this2 = this.clone();
                    ctx.schedule(Duration::ZERO, move || this2.crash_site(i));
                }
                Upcall::ServeJoin { joiner } => {
                    // Donor half of the rejoin: clone the committed state at
                    // this order-clean instant — the exact point the granted
                    // order base names — and charge the marshalling of the
                    // snapshot onto this site's CPU.
                    let bytes = this.stage_transfer(i, joiner.0);
                    ctx.charge(this.costs.marshal(bytes as usize));
                }
                Upcall::Rejoined => {
                    // Receiving half: the stack is live in the new view;
                    // install the staged state before acting on deliveries.
                    let this2 = this.clone();
                    ctx.schedule(Duration::ZERO, move || this2.adopt_transfer(i));
                }
            }));
            bridge.start();
        }
    }

    fn apply_faults(&self) {
        // Loss-family specs *stack* (Network::add_loss): a plan combining
        // e.g. a correlated burst with background random loss injects both,
        // each advancing its own schedule on every arrival.
        for (spec_idx, spec) in self.cfg.faults.specs.iter().enumerate() {
            match spec {
                FaultSpec::RandomLoss { target, p } => {
                    for (i, s) in self.sites.iter().enumerate() {
                        if target.includes(i as u16) {
                            let seed = derive_seed_indexed(
                                self.cfg.seed,
                                "loss",
                                i as u64 + 17 * spec_idx as u64,
                            );
                            self.net.add_loss(s.host, Box::new(RandomLoss::new(*p, seed)));
                        }
                    }
                }
                FaultSpec::BurstyLoss { target, fraction, mean_burst } => {
                    for (i, s) in self.sites.iter().enumerate() {
                        if target.includes(i as u16) {
                            let seed = derive_seed_indexed(
                                self.cfg.seed,
                                "burst",
                                i as u64 + 17 * spec_idx as u64,
                            );
                            self.net.add_loss(
                                s.host,
                                Box::new(BurstyLoss::new(*fraction, *mean_burst, seed)),
                            );
                        }
                    }
                }
                FaultSpec::ClockDrift { target, rate } => {
                    for (i, s) in self.sites.iter().enumerate() {
                        if target.includes(i as u16) {
                            if let Some(b) = &s.bridge {
                                b.set_clock_drift(*rate);
                            }
                        }
                    }
                }
                FaultSpec::SchedLatency { target, max } => {
                    for (i, s) in self.sites.iter().enumerate() {
                        if target.includes(i as u16) {
                            if let Some(b) = &s.bridge {
                                b.set_sched_latency(
                                    *max,
                                    derive_seed_indexed(self.cfg.seed, "sched", i as u64),
                                );
                            }
                        }
                    }
                }
                FaultSpec::Crash { site, at } => {
                    let this = self.clone();
                    let site = *site as usize;
                    self.sim.schedule_at(*at, move || this.crash_site(site));
                }
                FaultSpec::Restart { site, at } => {
                    let this = self.clone();
                    let site = *site as usize;
                    self.sim.schedule_at(*at, move || this.restart_site(site));
                }
                FaultSpec::Partition { groups, at, heal_at } => {
                    // Split and heal ride the simulation scheduler so the
                    // membership machinery sees a real network event, not a
                    // configuration change.
                    let host_groups: Vec<Vec<HostId>> = groups
                        .iter()
                        .map(|g| g.iter().map(|s| self.sites[*s as usize].host).collect())
                        .collect();
                    let net = self.net.clone();
                    self.sim.schedule_at(*at, move || net.set_partition(&host_groups));
                    let net = self.net.clone();
                    self.sim.schedule_at(*heal_at, move || net.clear_partition());
                }
                FaultSpec::DuplicateDelivery { p, max_copies } => {
                    for (i, s) in self.sites.iter().enumerate() {
                        let seed = derive_seed_indexed(
                            self.cfg.seed,
                            "dup",
                            i as u64 + 17 * spec_idx as u64,
                        );
                        self.net.set_duplication(s.host, *p, *max_copies, seed);
                    }
                }
                FaultSpec::CorrelatedBurst { sites, window, p } => {
                    // One seed for the whole spec: every listed site gets the
                    // identical blackout schedule — that is the correlation.
                    let seed = derive_seed_indexed(self.cfg.seed, "cburst", spec_idx as u64);
                    for site in sites {
                        let host = self.sites[*site as usize].host;
                        self.net.add_loss(host, Box::new(WindowedBurst::new(*window, *p, seed)));
                    }
                }
            }
        }
    }

    fn crash_site(&self, site: usize) {
        {
            let mut sh = self.shared.borrow_mut();
            if sh.sites[site].crashed {
                return;
            }
            sh.sites[site].crashed = true;
            if !sh.metrics.crashed_sites.contains(&(site as u16)) {
                sh.metrics.crashed_sites.push(site as u16);
            }
        }
        if let Some(b) = &self.sites[site].bridge {
            b.kill();
        } else {
            self.net.set_host_down(self.sites[site].host, true);
        }
    }

    // ----- site recovery (snapshot + delta-log rejoin) -------------------

    /// Brings a crashed/halted site back up: the fresh protocol incarnation
    /// announces itself to the live primary component and the join protocol
    /// takes it from there — grant, state transfer, view install. A no-op
    /// if the site is not down.
    fn restart_site(&self, site: usize) {
        {
            let mut sh = self.shared.borrow_mut();
            if !sh.sites[site].crashed {
                return;
            }
            sh.restart_at.insert(site as u16, self.sim.now());
        }
        if let Some(b) = &self.sites[site].bridge {
            b.revive();
        } else {
            // A single-site run has no group to rejoin: its committed state
            // survived locally, so coming back up is immediate.
            self.net.set_host_down(self.sites[site].host, false);
            let kept = self.shared.borrow().metrics.commit_logs[site].len();
            self.finish_rejoin(site, kept, kept);
        }
    }

    /// Donor half of the rejoin ([`Upcall::ServeJoin`]): clones this site's
    /// committed certification state at the grant's order-clean point and
    /// stages it for the joiner, pricing the snapshot in bytes. Under
    /// partial placement the packet instead carries the joiner's span
    /// certifier rebuilt from the oracle history — only its spans' rows.
    /// Returns the bytes staged (for the donor's marshalling charge).
    fn stage_transfer(&self, donor: usize, joiner: u16) -> u64 {
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(self.cfg.clients);
        let mut sh = self.shared.borrow_mut();
        let sh = &mut *sh;
        let certifier = sh.sites[donor].certifier.clone_box();
        let (span, owned, cut, fifo, decided) = match self.partial_map() {
            Some(p) => {
                let spans = p.spans_of(joiner as usize, warehouses);
                let owned = spans.len() as u64;
                let place = SpanPlacement::new(dbsm_tpcc::schema::home_warehouse_shard_key, spans);
                let partial = sh.partial.as_ref().expect("partial state");
                let span = partial.oracle.reproject(place);
                // Decisions decouple from deliveries here: the snapshot is
                // the oracle's state, so the cut is the oracle's commit
                // count — the decided prefix of the total order, which may
                // run ahead of the donor's own popped prefix.
                let cut = partial.oracle.last_committed() as usize;
                // Open vote rounds ride along: the donor's
                // delivered-but-undecided entries with the votes collected
                // so far. The joiner re-votes for itself (`cast` reset) and
                // indexes them by *its* span.
                let fifo: Vec<FifoEntry> = sh.sites[donor]
                    .fifo
                    .iter()
                    .filter(|e| !partial.decided.contains_key(&(e.req.site.0, e.req.txn)))
                    .map(|e| FifoEntry {
                        req: e.req.clone(),
                        delivered_at: e.delivered_at,
                        votes: e.votes.clone(),
                        cast: false,
                        local_writes: span.local_subset(&e.req.write_set),
                        blocked_by: None,
                        recollects: e.recollects,
                    })
                    .collect();
                let decided: BTreeSet<(u16, u64)> = partial.decided.keys().copied().collect();
                (Some(span), owned, cut, fifo, decided)
            }
            None => {
                // The cut is a *reference-chain* position: a donor that
                // itself rejoined earlier has a transfer gap in its local
                // log, so its length alone would understate where the
                // chain stands.
                let cut = sh.metrics.commit_logs[donor].len() + sh.sites[donor].ref_gap;
                (None, warehouses as u64, cut, Vec::new(), BTreeSet::new())
            }
        };
        let snapshot_bytes = owned * self.costs.snapshot_bytes_per_warehouse;
        sh.metrics.recovery_work.snapshots_served += 1;
        sh.metrics.recovery_work.snapshot_bytes += snapshot_bytes;
        sh.transfers
            .insert(joiner, TransferPacket { certifier, span, cut, snapshot_bytes, fifo, decided });
        snapshot_bytes
    }

    /// Receiving half of the rejoin ([`Upcall::Rejoined`]): installs the
    /// staged snapshot, aborts the first incarnation's in-flight
    /// transactions, prices the delta log from the site's pre-crash commit
    /// point to the transfer cut, and schedules [`Cluster::finish_rejoin`]
    /// after the transfer's streaming delay. Deliveries arriving meanwhile
    /// certify against the adopted state — the delta log plays in real
    /// time; only client service waits for the transfer to finish.
    fn adopt_transfer(&self, site: usize) {
        let (kept, cut, total_bytes, orphans) = {
            let mut sh = self.shared.borrow_mut();
            let sh = &mut *sh;
            let Some(packet) = sh.transfers.remove(&(site as u16)) else { return };
            let kept = sh.metrics.commit_logs[site].len();
            let st = &mut sh.sites[site];
            // The delta log spans from this site's pre-crash reference
            // position (local length plus any earlier transfer gap) to the
            // cut; the new gap replaces the old one, since the cut already
            // accounts for everything skipped so far.
            let replayed = packet.cut.saturating_sub(kept + st.ref_gap) as u64;
            let delta_bytes = replayed * self.costs.delta_bytes_per_entry;
            st.ref_gap = packet.cut.saturating_sub(kept);
            st.certifier = packet.certifier;
            st.spec_free_at = SimTime::ZERO;
            if packet.span.is_some() {
                st.span = packet.span;
                // The seeded FIFO replaces the first incarnation's: the
                // donor's open vote rounds continue from the snapshot.
                // Wire votes that raced ahead of the adoption survive in
                // the stash — merge them into the seeded entries (first
                // vote per voter wins), drop the ones the snapshot already
                // decided, keep the rest for future deliveries.
                st.fifo = packet.fifo.into();
                st.skip_keys = packet.decided;
                let stash = std::mem::take(&mut st.vote_stash);
                for (key, votes) in stash {
                    if st.skip_keys.contains(&key) {
                        continue;
                    }
                    match st.fifo.iter_mut().find(|e| (e.req.site.0, e.req.txn) == key) {
                        Some(entry) => {
                            for (v, c) in votes {
                                if !entry.votes.iter().any(|&(w, _)| w == v) {
                                    entry.votes.push((v, c));
                                }
                            }
                        }
                        None => {
                            st.vote_stash.insert(key, votes);
                        }
                    }
                }
            }
            st.spec_ready.clear();
            st.commits_since_gc = 0;
            let orphans: Vec<TxnId> =
                std::mem::take(&mut st.pending).into_values().map(|p| p.db_txn).collect();
            sh.metrics.recovery_work.delta_bytes += delta_bytes;
            sh.metrics.recovery_work.replayed_entries += replayed;
            // The chain record goes in *now*: from this instant the site's
            // log continues the reference from `cut`, even if the run stops
            // before the streaming transfer finishes (`ttu` stays zero
            // until [`Cluster::finish_rejoin`] fills it in).
            sh.metrics.rejoins.push(RejoinRecord {
                site: site as u16,
                kept,
                cut: packet.cut,
                ttu: SimTime::ZERO,
            });
            (kept, packet.cut, packet.snapshot_bytes + delta_bytes, orphans)
        };
        // Requests multicast by the first incarnation whose decision never
        // came back: abort them so their clients resume.
        for db_txn in orphans {
            self.sites[site].engine.resolve(db_txn, false);
        }
        let this = self.clone();
        self.sim.schedule_in(self.costs.transfer_delay(total_bytes), move || {
            this.finish_rejoin(site, kept, cut);
        });
    }

    /// The rejoined site becomes useful: cleared from the crashed set,
    /// time-to-useful recorded, parked clients released.
    fn finish_rejoin(&self, site: usize, kept: usize, cut: usize) {
        let parked = {
            let mut sh = self.shared.borrow_mut();
            let sh = &mut *sh;
            sh.sites[site].crashed = false;
            sh.metrics.crashed_sites.retain(|&s| s != site as u16);
            let ttu = sh
                .restart_at
                .remove(&(site as u16))
                .map_or(Duration::ZERO, |t| self.sim.now().saturating_duration_since(t));
            sh.metrics.recovery_work.rejoins += 1;
            sh.metrics.recovery_work.ttu_ns_total += ttu.as_nanos() as u64;
            let ttu = SimTime::from_nanos(ttu.as_nanos() as u64);
            // Fill in the record pushed at adoption; the bridge-less
            // single-site path skips adoption and records here.
            match sh.metrics.rejoins.iter_mut().rev().find(|r| r.site == site as u16) {
                Some(r) => r.ttu = ttu,
                None => sh.metrics.rejoins.push(RejoinRecord { site: site as u16, kept, cut, ttu }),
            }
            let parked = std::mem::take(&mut sh.parked_clients[site]);
            let now = self.sim.now();
            for &(_, at) in &parked {
                sh.metrics.replacement_work.parked_ns +=
                    now.saturating_duration_since(at).as_nanos() as u64;
            }
            parked
        };
        for (client, _) in parked {
            self.schedule_client(client);
        }
        // A rejoined voter resumes voting *now*, not at the next delivery:
        // the seeded FIFO may already hold entries waiting on its vote.
        if self.partial_map().is_some() {
            let this = self.clone();
            self.sites[site].cpu.submit_real(Box::new(move |ctx| this.advance_partial(site, ctx)));
        }
    }

    // ----- replica re-placement under churn -------------------------------

    /// Sweeps the installed `view` for stranded spans — warehouses whose
    /// every effective owner (static replicas plus any current or
    /// in-flight adopter) fell out of the view — and elects a surviving
    /// adopter per span by rendezvous hash
    /// ([`PlacementMap::rendezvous_owner`]). The election is a pure
    /// function of `(span, view)`, so every survivor computes the same
    /// assignment with no coordination round; the first site to handle the
    /// view change performs it for all (deduped by view id). Each adopter's
    /// transfer is priced like a rejoin snapshot of the adopted warehouses
    /// and completes at [`Cluster::finish_replacement`]; until then the
    /// span is unservable and its clients park.
    fn rehome_stranded(&self, view: View) {
        let Some(p) = self.partial_map() else { return };
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(self.cfg.clients) as u64;
        let groups: Vec<(usize, Vec<u64>)> = {
            let mut sh = self.shared.borrow_mut();
            if sh.last_reconfig_view >= view.id {
                return;
            }
            sh.last_reconfig_view = view.id;
            let live: Vec<usize> = view.members.iter().map(|n| n.0 as usize).collect();
            if live.is_empty() {
                return;
            }
            let is_live = |s: u16| view.members.contains(NodeId(s));
            let mut by_adopter: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for span in 0..warehouses {
                if p.replicas(span).iter().any(|&r| is_live(r as u16))
                    || sh.rehomed.get(&span).copied().is_some_and(is_live)
                    || sh.replacing.get(&span).copied().is_some_and(is_live)
                {
                    continue;
                }
                let Some(owner) = PlacementMap::rendezvous_owner(span, &live) else { continue };
                sh.replacing.insert(span, owner as u16);
                by_adopter.entry(owner).or_default().push(span);
            }
            by_adopter.into_iter().collect()
        };
        for (adopter, spans) in groups {
            let bytes = spans.len() as u64 * self.costs.snapshot_bytes_per_warehouse;
            let delay = self.costs.marshal(bytes as usize) + self.costs.transfer_delay(bytes);
            let started = self.sim.now();
            let this = self.clone();
            self.sim.schedule_in(delay, move || this.finish_replacement(adopter, spans, started));
        }
    }

    /// Completes a re-placement: the adopter's span certifier is rebuilt
    /// over its old spans plus the adopted ones from the oracle's full
    /// history (the PR 8 reproject machinery, donor-less — the shared
    /// oracle stands in for decision dissemination), open vote rounds
    /// touching the adopted spans are re-collected against the new owner,
    /// and every client parked at a dead site is released to re-route
    /// through the overlay. Runs as real work on the adopter's CPU.
    fn finish_replacement(&self, adopter: usize, spans: Vec<u64>, started: SimTime) {
        let this = self.clone();
        self.sites[adopter].cpu.submit_real(Box::new(move |ctx| {
            {
                let sh = this.shared.borrow();
                // The adopter died mid-transfer (its exclusion re-elected),
                // or a later view change moved every span elsewhere.
                if sh.sites[adopter].crashed
                    || !spans.iter().any(|s| sh.replacing.get(s) == Some(&(adopter as u16)))
                {
                    return;
                }
            }
            // Quiesce first: pop every globally decided entry off the
            // adopter's FIFO, so the reprojected certifier (which reflects
            // the oracle's decided frontier) lands exactly at the adopter's
            // position — re-applying a decided entry would corrupt it.
            this.advance_partial(adopter, ctx);
            let now = ctx.now();
            let parked = {
                let mut sh = this.shared.borrow_mut();
                let sh = &mut *sh;
                let spans: Vec<u64> = spans
                    .iter()
                    .copied()
                    .filter(|s| sh.replacing.get(s) == Some(&(adopter as u16)))
                    .collect();
                for &s in &spans {
                    sh.replacing.remove(&s);
                    sh.rehomed.insert(s, adopter as u16);
                }
                let key_of = dbsm_tpcc::schema::home_warehouse_shard_key;
                let mut owned: Vec<u64> = sh.sites[adopter]
                    .span
                    .as_ref()
                    .expect("partial site has a span certifier")
                    .owned_spans()
                    .to_vec();
                owned.extend(spans.iter().copied());
                let place = SpanPlacement::new(key_of, owned);
                let new_span = sh.partial.as_ref().expect("partial state").oracle.reproject(place);
                let adopted: BTreeSet<u64> = spans.iter().copied().collect();
                // Vote re-collection: the adopter's pre-adoption votes never
                // probed the adopted spans, so for every undecided entry
                // touching one, strip them (here and, below, everywhere
                // else) and reset the cast flag — the next advance re-votes
                // with the reprojected certifier, and the new wire vote is
                // accepted because the old one is gone. The quiesce left
                // only undecided entries, so local_writes can be recomputed
                // wholesale under the new span.
                let mut rekey: Vec<(u16, u64)> = Vec::new();
                {
                    let st = &mut sh.sites[adopter];
                    st.span = Some(new_span);
                    let SiteState { span, fifo, .. } = st;
                    let span = span.as_ref().expect("just installed");
                    let touches = |req: &CertRequest| {
                        let hit = |id| key_of(id).is_some_and(|s: u64| adopted.contains(&s));
                        req.read_set.ids().iter().any(|&id| id.is_table_level() || hit(id))
                            || req.write_set.ids().iter().any(|&id| hit(id))
                    };
                    for e in fifo.iter_mut() {
                        e.local_writes = span.local_subset(&e.req.write_set);
                        e.blocked_by = None;
                        if touches(&e.req) {
                            e.cast = false;
                            e.votes.retain(|&(v, _)| v != adopter as u16);
                            e.recollects += 1;
                            debug_assert!(
                                e.recollects <= RECOLLECT_CAP,
                                "vote round re-collected past its retry cap"
                            );
                            rekey.push((e.req.site.0, e.req.txn));
                        }
                    }
                }
                // Late-arriving pre-adoption votes must not refill the slot:
                // anything below the adopter's next stream sequence is stale
                // for the re-collected keys.
                let threshold =
                    this.sites[adopter].bridge.as_ref().expect("replicated site").vote_seq();
                for &(origin, txn) in &rekey {
                    sh.stale_votes.insert((adopter as u16, origin, txn), threshold);
                }
                for (j, st) in sh.sites.iter_mut().enumerate() {
                    if j == adopter {
                        continue;
                    }
                    for e in st.fifo.iter_mut() {
                        if rekey.contains(&(e.req.site.0, e.req.txn)) {
                            e.votes.retain(|&(v, _)| v != adopter as u16);
                        }
                    }
                    for (k, votes) in st.vote_stash.iter_mut() {
                        if rekey.contains(k) {
                            votes.retain(|&(v, _)| v != adopter as u16);
                        }
                    }
                }
                let repl = &mut sh.metrics.replacement_work;
                repl.replacements += 1;
                repl.rehomed_spans += spans.len() as u64;
                repl.transfer_bytes += spans.len() as u64 * this.costs.snapshot_bytes_per_warehouse;
                repl.time_to_serving_ns_total +=
                    now.saturating_duration_since(started).as_nanos() as u64 * spans.len() as u64;
                repl.vote_rounds_recollected += rekey.len() as u64;
                // Release everyone parked at a dead site: the overlay now
                // serves the adopted spans, so their clients re-route here
                // (others re-park, their wait still on the ledger).
                let mut parked: Vec<(usize, SimTime)> = Vec::new();
                for j in 0..sh.parked_clients.len() {
                    if sh.sites[j].crashed {
                        parked.append(&mut sh.parked_clients[j]);
                    }
                }
                for &(_, at) in &parked {
                    sh.metrics.replacement_work.parked_ns +=
                        now.saturating_duration_since(at).as_nanos() as u64;
                }
                parked
            };
            for (client, _) in parked {
                this.schedule_client(client);
            }
            // Re-cast the re-collected votes (and any deferred ones the new
            // coverage unblocks) right away.
            this.advance_partial(adopter, ctx);
        }));
    }

    /// Runs the experiment: starts the clients, advances the simulation
    /// until the transaction target or the time cap is reached, and collects
    /// the metrics.
    pub fn run(self) -> RunMetrics {
        let n_clients = self.cfg.clients;
        for client in 0..n_clients {
            self.schedule_client(client);
        }
        self.sim.run_until(SimTime::ZERO + self.cfg.max_sim);
        self.collect()
    }

    /// Closes the measured interval at `at`: records its length and every
    /// resource's use over exactly `[0, at]`. Called at the instant the
    /// transaction target is reached — the simulation keeps draining
    /// (in-flight commits, heartbeats, gossip) until `max_sim`, and that
    /// idle tail belongs in neither the numerators nor the denominator.
    fn record_usage(&self, metrics: &mut RunMetrics, at: SimTime) {
        metrics.elapsed = at;
        let denom = at.as_secs_f64() * self.cfg.cpus_per_site as f64;
        for (i, s) in self.sites.iter().enumerate() {
            let usage = s.cpu.usage();
            metrics.site_usage[i] = SiteUsage {
                cpu_total: if denom > 0.0 { usage.busy_total().as_secs_f64() / denom } else { 0.0 },
                cpu_real: if denom > 0.0 { usage.busy_real.as_secs_f64() / denom } else { 0.0 },
                disk: s.engine.storage().utilization(at),
            };
        }
        metrics.network_tx_bytes = self.net.stats().total_tx_bytes();
    }

    fn collect(self) -> RunMetrics {
        let (mut metrics, stopped) = {
            let mut sh = self.shared.borrow_mut();
            (std::mem::replace(&mut sh.metrics, RunMetrics::new(0)), sh.stopped)
        };
        if !stopped {
            // The time cap hit before the target: the interval is the run.
            self.record_usage(&mut metrics, self.sim.now());
        }
        for s in self.sites.iter() {
            if let Some(b) = &s.bridge {
                let m = b.metrics();
                metrics.ann_work.record_site(&m);
                metrics.fault_work.record_site(&m);
                metrics.vote_wire.record_site(&m);
            }
        }
        let net_stats = self.net.stats();
        metrics.fault_work.dup_injected = net_stats.duplicates_injected();
        metrics.fault_work.partition_drops = net_stats.drops(dbsm_net::DropCause::Partition);
        metrics
    }

    // ----- client loop ---------------------------------------------------

    /// The active partial-replication placement, if any: a configured,
    /// non-degenerate map on a multi-site run.
    fn partial_map(&self) -> Option<&PlacementMap> {
        self.cfg.placement.as_ref().filter(|p| !p.is_full() && self.cfg.sites > 1)
    }

    /// Warehouse-aware routing: under partial replication a client attaches
    /// to a site that replicates its home warehouse (spread over that
    /// warehouse's replica set plus its adopter, if the span re-homed),
    /// preferring live owners — a crashed replica's clients spread over the
    /// survivors instead of parking. Only when *every* owner is down (span
    /// stranded, transfer in flight) does the client park at a dead owner,
    /// to be released when the re-placement completes. Full replication
    /// keeps the classic round-robin. Recomputed at every fire, so the
    /// overlay re-routes parked clients automatically.
    fn site_of(&self, client: usize) -> usize {
        if let Some(p) = self.partial_map() {
            // TPC-C home warehouses are 1-based; placement spans 0-based.
            let span = self.gen.borrow().home_warehouse(client) - 1;
            let mut owners = p.replicas(span);
            let sh = self.shared.borrow();
            if let Some(&adopter) = sh.rehomed.get(&span) {
                if !owners.contains(&(adopter as usize)) {
                    owners.push(adopter as usize);
                }
            }
            let live: Vec<usize> =
                owners.iter().copied().filter(|&s| !sh.sites[s].crashed).collect();
            let pool = if live.is_empty() { &owners } else { &live };
            return pool[client % pool.len()];
        }
        client % self.cfg.sites
    }

    fn schedule_client(&self, client: usize) {
        let think = self.gen.borrow_mut().think_time();
        let this = self.clone();
        self.sim.schedule_in(think, move || this.client_fire(client));
    }

    fn client_fire(&self, client: usize) {
        let site = self.site_of(client);
        {
            let mut sh = self.shared.borrow_mut();
            if sh.stopped {
                return;
            }
            if sh.sites[site].crashed {
                // Park until the site rejoins or a re-placement re-routes
                // the span; a permanently crashed site with no adopter
                // keeps its clients parked for the rest of the run.
                sh.parked_clients[site].push((client, self.sim.now()));
                return;
            }
        }
        let req = self.gen.borrow_mut().next_request(client);
        let class = req.class;
        self.shared.borrow_mut().metrics.class_mut(class).submitted += 1;
        let start_seq = self.shared.borrow().sites[site].last_committed();
        let submit_at = self.sim.now();
        let this_cr = self.clone();
        let this_done = self.clone();
        self.sites[site].engine.begin_local(
            req.spec,
            move |db_txn, spec| {
                this_cr.commit_request(site, db_txn, spec.clone(), start_seq);
            },
            move |_db_txn, outcome| {
                this_done.client_done(client, class, submit_at, outcome);
            },
        );
    }

    fn client_done(&self, client: usize, class: TxnClass, submit_at: SimTime, outcome: Outcome) {
        let now = self.sim.now();
        {
            let mut sh = self.shared.borrow_mut();
            let stats = sh.metrics.class_mut(class);
            match outcome {
                Outcome::Committed => {
                    stats.committed += 1;
                    stats
                        .latencies_ms
                        .record(now.saturating_duration_since(submit_at).as_secs_f64() * 1e3);
                }
                Outcome::Aborted(reason) => stats.record_abort(reason),
            }
            sh.completed += 1;
            if sh.completed >= sh.target && !sh.stopped {
                sh.stopped = true;
                self.record_usage(&mut sh.metrics, now);
            }
            if sh.stopped {
                return;
            }
        }
        self.schedule_client(client);
    }

    // ----- the distributed termination protocol (§3.3) -------------------

    fn commit_request(&self, site: usize, db_txn: TxnId, spec: TransactionSpec, start_seq: u64) {
        let engine = self.sites[site].engine.clone();
        if spec.relaxed || (spec.read_only && !self.cfg.certify_read_only) {
            engine.resolve(db_txn, true);
            return;
        }
        if spec.read_only {
            // Local validation of the read-set against concurrent commits,
            // as real code on the site's CPU. Under partial replication a
            // fully span-local read-set resolves from the site's own span
            // certifier; a cross-span read additionally merges the remote
            // owners' verdicts and pays the vote round trip.
            let this = self.clone();
            self.sites[site].cpu.submit_real(Box::new(move |ctx| {
                let (ok, work, vote_delay) = {
                    let mut sh = this.shared.borrow_mut();
                    let sh = &mut *sh;
                    let st = &mut sh.sites[site];
                    if let Some(span) = &st.span {
                        let (local_ok, work) = span.certify_read_only(&spec.read_set, start_seq);
                        let (covered, total) = span.coverage(&spec.read_set);
                        sh.metrics.cert_work.record(work);
                        sh.metrics.cert_work.record_span(covered as u64, total as u64);
                        if covered == total {
                            (local_ok, work, Duration::ZERO)
                        } else {
                            let partial = sh.partial.as_ref().expect("partial state");
                            let (remote_ok, _) =
                                partial.oracle.certify_read_only(&spec.read_set, start_seq);
                            sh.metrics.cert_work.vote_rounds += 1;
                            sh.metrics.cert_work.cross_span_txns += 1;
                            (local_ok && remote_ok, work, this.costs.vote_rtt)
                        }
                    } else {
                        let (ok, work) = st.certifier.certify_read_only(&spec.read_set, start_seq);
                        sh.metrics.cert_work.record(work);
                        (ok, work, Duration::ZERO)
                    }
                };
                ctx.charge(this.costs.certify(work));
                let engine = engine.clone();
                ctx.schedule(vote_delay, move || engine.resolve(db_txn, ok));
            }));
            return;
        }
        // Update transaction: gather, marshal and atomically multicast.
        let (seq, mut read_set) = {
            let mut sh = self.shared.borrow_mut();
            let st = &mut sh.sites[site];
            st.txn_seq += 1;
            st.pending.insert(st.txn_seq, PendingCert { db_txn, sent_at: self.sim.now() });
            (st.txn_seq, spec.read_set.clone())
        };
        read_set.upgrade_large_tables(self.cfg.table_lock_threshold);
        let req = CertRequest {
            site: SiteId(site as u16),
            txn: seq,
            start_seq,
            read_set,
            write_set: spec.write_set.clone(),
            write_bytes: spec.write_bytes,
        };
        let this = self.clone();
        self.sites[site].cpu.submit_real(Box::new(move |ctx| {
            let wire = marshal(&req);
            ctx.charge(this.costs.marshal(wire.len()));
            if this.cfg.sites == 1 {
                // Centralized termination: the same real code path, with
                // trivially local total order.
                let req = unmarshal(wire).expect("own marshalling is sound");
                let (outcome, work) = {
                    let mut sh = this.shared.borrow_mut();
                    let res =
                        sh.sites[site].certifier.certify(&req).expect("history window exceeded");
                    sh.metrics.cert_work.record(res.1);
                    sh.metrics.cert_work.stall_ns +=
                        this.costs.certify_data(res.1).as_nanos() as u64;
                    res
                };
                ctx.charge(this.costs.certify(work));
                let this2 = this.clone();
                ctx.schedule(Duration::ZERO, move || this2.deliver_decision(site, req, outcome));
            } else {
                let bridge = this.sites[site].bridge.as_ref().expect("replicated site");
                bridge.broadcast_in(ctx, wire);
            }
        }));
    }

    /// True when `site` casts a wire vote on `req`: it owns at least one
    /// read- or write-set span — statically, or as the current adopter of a
    /// re-homed span (`rehomed` overlay). Table-level (wildcard) reads
    /// probe every span, so every site's slice of the table contributes to
    /// the verdict and everyone votes; a transaction touching no span at
    /// all (global tuples only) is also voted by everyone — any single vote
    /// covers it, and the origin may be down.
    fn casts_vote(
        &self,
        p: &PlacementMap,
        rehomed: &BTreeMap<u64, u16>,
        site: usize,
        req: &CertRequest,
    ) -> bool {
        if req.read_set.ids().iter().any(|id| id.is_table_level()) {
            return true;
        }
        let mut any_span = false;
        for &id in req.read_set.ids().iter().chain(req.write_set.ids()) {
            if let Some(span) = dbsm_tpcc::schema::home_warehouse_shard_key(id) {
                any_span = true;
                if p.owns(site, span) || rehomed.get(&span) == Some(&(site as u16)) {
                    return true;
                }
            }
        }
        !any_span
    }

    /// True when `entry`'s collected votes decide it: every read-set tuple
    /// is covered by a voter that indexes it. A row with a home warehouse
    /// needs a vote from one of that span's owners; a span-less row is
    /// indexed by every replica, so any vote covers it; a table-level
    /// (wildcard) read probes every span and needs the voters to jointly
    /// own all of them. Write-set tuples need no witness — conflicts are
    /// detected by the *reading* side against committed writes.
    ///
    /// A re-homed span is covered by its *static* owners' votes (cast
    /// before they died, with state valid at cast time) or its current
    /// adopter's — a superseded adopter's votes stop counting the moment a
    /// successor takes over, and the successor's re-cast covers instead.
    fn votes_cover(
        &self,
        p: &PlacementMap,
        rehomed: &BTreeMap<u64, u16>,
        warehouses: u64,
        entry: &FifoEntry,
    ) -> bool {
        let reads = entry.req.read_set.ids();
        if reads.is_empty() {
            return true;
        }
        if entry.votes.is_empty() {
            return false;
        }
        let owned = |span: u64| {
            entry
                .votes
                .iter()
                .any(|&(v, _)| p.owns(v as usize, span) || rehomed.get(&span) == Some(&v))
        };
        reads.iter().all(|&id| {
            if id.is_table_level() {
                (0..warehouses).all(owned)
            } else {
                match dbsm_tpcc::schema::home_warehouse_shard_key(id) {
                    Some(span) => owned(span),
                    None => true,
                }
            }
        })
    }

    /// Enqueues a delivered update transaction on `site`'s
    /// partial-replication FIFO (both commit paths), folding in any wire
    /// votes that arrived ahead of the delivery. Skips transactions the
    /// site's adopted rejoin snapshot already covers.
    fn partial_enqueue(&self, site: usize, req: CertRequest, now: SimTime) {
        let mut sh = self.shared.borrow_mut();
        let sh = &mut *sh;
        let st = &mut sh.sites[site];
        let key = (req.site.0, req.txn);
        if st.skip_keys.contains(&key) {
            return;
        }
        let span = st.span.as_ref().expect("partial site has a span certifier");
        let (covered, total) = {
            let (rc, rt) = span.coverage(&req.read_set);
            let (wc, wt) = span.coverage(&req.write_set);
            (rc + wc, rt + wt)
        };
        sh.metrics.cert_work.record_span(covered as u64, total as u64);
        let local_writes = span.local_subset(&req.write_set);
        let votes = st.vote_stash.remove(&key).unwrap_or_default();
        st.fifo.push_back(FifoEntry {
            req,
            delivered_at: now,
            votes,
            cast: false,
            local_writes,
            blocked_by: None,
            recollects: 0,
        });
    }

    /// Advances `site`'s partial-replication FIFO as far as it will go:
    /// first decides and pops entries off the head (a head decides when its
    /// votes cover the read-set, or when another site's published verdict
    /// is available), then casts this site's wire votes for entries whose
    /// turn has come — popping may unblock deferred votes, and freshly
    /// cast votes return as loopback [`Upcall::Vote`]s which re-enter here.
    fn advance_partial(&self, site: usize, ctx: &mut RealContext<'_>) {
        let Some(p) = self.partial_map() else { return };
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(self.cfg.clients) as u64;
        let now = ctx.now();

        // Phase 1: decide + pop. Collected under one borrow, applied after.
        let mut popped: Vec<(CertRequest, CertOutcome, Option<PendingCert>, Option<SimTime>)> =
            Vec::new();
        {
            let mut sh = self.shared.borrow_mut();
            let sh = &mut *sh;
            while let Some(head) = sh.sites[site].fifo.front() {
                let key = (head.req.site.0, head.req.txn);
                let published =
                    sh.partial.as_ref().expect("partial state").decided.get(&key).copied();
                let outcome = match published {
                    Some(d) => d.outcome,
                    None if self.votes_cover(p, &sh.rehomed, warehouses, head) => {
                        match merge_votes(head.votes.iter().map(|&(_, c)| c)) {
                            Some(conflict_seq) => CertOutcome::Abort { conflict_seq },
                            None => CertOutcome::Commit(sh.sites[site].last_committed() + 1),
                        }
                    }
                    None => break,
                };
                let entry = sh.sites[site].fifo.pop_front().expect("head just inspected");
                sh.sites[site].fifo_popped += 1;
                if published.is_none() {
                    // First decision cluster-wide: cross-check the merged
                    // wire verdict against the full-replication oracle and
                    // publish it for the other sites' pops.
                    let partial = sh.partial.as_mut().expect("partial state");
                    let (oracle_outcome, _) =
                        partial.oracle.certify(&entry.req).expect("history window exceeded");
                    debug_assert_eq!(
                        oracle_outcome, outcome,
                        "merged wire votes diverged from the certification oracle"
                    );
                    let _ = oracle_outcome;
                    if outcome.is_commit() {
                        partial.commits_since_gc += 1;
                        if partial.commits_since_gc >= 512 {
                            partial.commits_since_gc = 0;
                            let last = partial.oracle.last_committed();
                            partial.oracle.gc(last.saturating_sub(self.cfg.history_window));
                        }
                    }
                    let voters = self.voters_for(&sh.rehomed, &entry.req);
                    sh.metrics.cert_work.vote_rounds += voters;
                    sh.metrics.cert_work.cross_span_txns += u64::from(voters > 0);
                    partial.decided.insert(key, Decision { outcome });
                }
                let pending = self.decision_bookkeeping(sh, site, &entry.req, outcome);
                sh.sites[site]
                    .span
                    .as_mut()
                    .expect("partial site has a span certifier")
                    .apply(&entry.req, outcome);
                if entry.req.site.0 as usize == site {
                    sh.metrics.vote_wire.decided += 1;
                    sh.metrics.vote_wire.wait_ns +=
                        now.saturating_duration_since(entry.delivered_at).as_nanos() as u64;
                }
                let ready_at = sh.sites[site].spec_ready.remove(&key);
                popped.push((entry.req, outcome, pending, ready_at));
            }
        }
        for (req, outcome, pending, ready_at) in popped {
            // Pipelined deliveries wait out the speculative probe's FIFO;
            // synchronous ones have no speculation and apply now.
            let delay = ready_at.map_or(Duration::ZERO, |t| t.saturating_duration_since(now));
            let this = self.clone();
            ctx.schedule(delay, move || this.apply_decision(site, req, outcome, pending));
        }

        // Phase 2: cast votes whose turn has come. An entry votes once no
        // earlier undecided entry's local writes can still change its
        // probe; a blocked entry does not block later ones.
        let mut casts: Vec<(u16, u64, Option<u64>)> = Vec::new();
        {
            let mut sh = self.shared.borrow_mut();
            let sh = &mut *sh;
            let rehomed = &sh.rehomed;
            let SiteState { span, fifo, fifo_popped, crashed, .. } = &mut sh.sites[site];
            if *crashed {
                return;
            }
            let span = span.as_mut().expect("partial site has a span certifier");
            let mut charge = Duration::ZERO;
            for k in 0..fifo.len() {
                if fifo[k].cast {
                    continue;
                }
                if !self.casts_vote(p, rehomed, site, &fifo[k].req) {
                    fifo[k].cast = true;
                    continue;
                }
                if fifo[k].blocked_by.is_some_and(|b| b >= *fifo_popped) {
                    continue;
                }
                let blocker =
                    (0..k).find(|&j| fifo[j].local_writes.intersects(&fifo[k].req.read_set));
                fifo[k].blocked_by = blocker.map(|j| *fifo_popped + j as u64);
                if blocker.is_some() {
                    continue;
                }
                // Real code: the span-restricted conflict probe over only
                // the locally indexed warehouses — this is where partial
                // replication shrinks per-site certification work to ~k/N.
                let req = fifo[k].req.clone();
                let (conflict, work) = match self.cfg.commit_path {
                    CommitPath::Pipelined => {
                        let (conflict, work, res) =
                            span.confirm_vote(&req).expect("history window exceeded");
                        sh.metrics.cert_work.record_spec(res);
                        charge += self.costs.confirm(work);
                        (conflict, work)
                    }
                    CommitPath::Synchronous => {
                        let (conflict, work) = span.vote(&req).expect("history window exceeded");
                        charge += self.costs.certify(work);
                        (conflict, work)
                    }
                };
                sh.metrics.cert_work.record(work);
                sh.metrics.cert_work.stall_ns += self.costs.certify_data(work).as_nanos() as u64;
                fifo[k].cast = true;
                casts.push((req.site.0, req.txn, conflict));
            }
            if charge > Duration::ZERO {
                ctx.charge(charge);
            }
        }
        if !casts.is_empty() {
            let bridge = self.sites[site].bridge.as_ref().expect("replicated site");
            for (origin, txn, conflict) in casts {
                bridge.cast_vote(origin, txn, conflict);
            }
        }
    }

    /// How many remote span owners must vote on `req`: the distinct primary
    /// replicas of read/write-set warehouses the origin site does not own
    /// (the adopter stands in as primary for a re-homed span). Zero means
    /// the transaction is local to the origin's span and commits without a
    /// vote round.
    fn voters_for(&self, rehomed: &BTreeMap<u64, u16>, req: &CertRequest) -> u64 {
        let Some(p) = self.partial_map() else { return 0 };
        let origin = req.site.0 as usize;
        let mut voters: Vec<usize> = Vec::new();
        for &id in req.read_set.ids().iter().chain(req.write_set.ids()) {
            let Some(span) = dbsm_tpcc::schema::home_warehouse_shard_key(id) else {
                continue;
            };
            if p.owns(origin, span) || rehomed.get(&span) == Some(&(origin as u16)) {
                continue;
            }
            let primary = match rehomed.get(&span) {
                Some(&a) => a as usize,
                None => p.replicas(span)[0],
            };
            if !voters.contains(&primary) {
                voters.push(primary);
            }
        }
        voters.len() as u64
    }

    /// Applies a certification decision at `site` (already totally ordered).
    fn deliver_decision(&self, site: usize, req: CertRequest, outcome: CertOutcome) {
        let pending = {
            let mut sh = self.shared.borrow_mut();
            self.decision_bookkeeping(&mut sh, site, &req, outcome)
        };
        self.apply_decision(site, req, outcome, pending);
    }

    /// The order-sensitive half of a delivery: gc cadence, pending lookup
    /// and the per-site commit log. Must run in the global sequence — the
    /// pipelined path calls it at total-order confirmation even though the
    /// engine-side decision may still be waiting on the speculative FIFO.
    fn decision_bookkeeping(
        &self,
        sh: &mut Shared,
        site: usize,
        req: &CertRequest,
        outcome: CertOutcome,
    ) -> Option<PendingCert> {
        let origin = req.site.0 as usize == site;
        let st = &mut sh.sites[site];
        if outcome.is_commit() {
            st.gc_tick(self.cfg.history_window);
        }
        let pending = if origin { st.pending.remove(&req.txn) } else { None };
        if outcome.is_commit() {
            sh.metrics.commit_logs[site].push((req.site.0, req.txn));
        }
        pending
    }

    /// The engine-side half of a delivery: resolve the origin's transaction
    /// or apply the remote write-set. Order-insensitive — the certifier and
    /// commit log already recorded the decision.
    fn apply_decision(
        &self,
        site: usize,
        req: CertRequest,
        outcome: CertOutcome,
        pending: Option<PendingCert>,
    ) {
        let origin = req.site.0 as usize == site;
        let engine = &self.sites[site].engine;
        match (origin, outcome.is_commit()) {
            (true, commit) => {
                if let Some(p) = pending {
                    let lat = self.sim.now().saturating_duration_since(p.sent_at);
                    self.shared
                        .borrow_mut()
                        .metrics
                        .cert_latencies_ms
                        .record(lat.as_secs_f64() * 1e3);
                    engine.resolve(p.db_txn, commit);
                }
            }
            (false, true) => {
                // Under partial replication a site stores (and pays for)
                // only the write-set rows in its own span; a remote commit
                // touching none of them costs nothing here.
                let local = {
                    let sh = self.shared.borrow();
                    sh.sites[site].span.as_ref().map(|span| span.local_subset(&req.write_set))
                };
                match local {
                    Some(ws) => {
                        if !ws.is_empty() {
                            let bytes = (u64::from(req.write_bytes) * ws.len() as u64
                                / req.write_set.len().max(1) as u64)
                                as u32;
                            engine.apply_remote(ws, bytes.max(1), || {});
                        }
                    }
                    None => {
                        engine.apply_remote(req.write_set.clone(), req.write_bytes, || {});
                    }
                }
            }
            (false, false) => {}
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("sites", &self.sites.len())
            .field("clients", &self.cfg.clients)
            .finish()
    }
}

/// Builds and runs one experiment, returning its metrics.
pub fn run_experiment(cfg: ExperimentConfig) -> RunMetrics {
    Cluster::build(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculations_queue_first_in_first_out() {
        let costs = CertCostModel::default();
        let at = SimTime::from_micros;
        let (service, merge) = (costs.probe_service(100), costs.merge());
        let mut free_at = SimTime::ZERO;
        // The first speculation finds the FIFO idle: no wait.
        let a = queue_speculation(&mut free_at, at(100), 100, &costs);
        let ready_at = at(100) + service + merge;
        assert_eq!(a, SpecTiming { ready_at, queued: Duration::ZERO, service, merge });
        // A second one submitted during the first one's service queues
        // behind it.
        let b = queue_speculation(&mut free_at, at(101), 100, &costs);
        assert_eq!(b.queued, at(100) + service - at(101));
        assert_eq!(b.ready_at, at(100) + service + service + merge);
        // One submitted after the queue drained waits zero.
        let c = queue_speculation(&mut free_at, at(1_000), 100, &costs);
        assert_eq!((c.queued, c.ready_at), (Duration::ZERO, at(1_000) + service + merge));
        // A speculation that probed nothing is ready at once, with no merge,
        // and leaves the FIFO untouched.
        let before = free_at;
        let d = queue_speculation(&mut free_at, at(1_001), 0, &costs);
        assert_eq!(d, SpecTiming { ready_at: at(1_001), ..SpecTiming::default() });
        assert_eq!(free_at, before);
    }
}
