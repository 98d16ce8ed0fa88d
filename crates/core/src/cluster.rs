//! The replicated database model (§3, Fig. 2): sites assembled from the
//! simulated database engine, the *real* certification and group
//! communication prototypes, TPC-C clients, and the simulated network —
//! all under the centralized simulation runtime.
//!
//! This module wires the events: group-communication upcalls, the client
//! loop, fault injection, rejoin and re-placement, each scheduled on the
//! simulation or charged to a site's CPU. What a site's certifier holds,
//! and how a delivery becomes a decision in either replication mode, lives
//! in [`crate::replica`]. [`Cluster`] is a one-pointer handle that every
//! scheduled closure captures.

use crate::experiment::{CertCostModel, CommitPath, ExperimentConfig};
use crate::metrics::{RejoinRecord, RunMetrics, SiteUsage};
use crate::replica::{
    queue_speculation, Partial, PendingCert, Replication, SiteState, Staged, TransferPacket,
};
use dbsm_cert::{marshal, unmarshal, CertRequest, Outcome as CertOutcome, SiteId};
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
use std::rc::Rc;
use std::time::Duration;

struct Shared {
    metrics: RunMetrics,
    completed: u64,
    stopped: bool,
    sites: Vec<SiteState>,
    /// The replication mode, with every site's certifier.
    replication: Replication,
}

impl Shared {
    /// [`SiteState::record_decision`] on `site`'s own certifier and log.
    fn record_decision(
        &mut self,
        site: usize,
        window: u64,
        req: &CertRequest,
        outcome: CertOutcome,
    ) -> Option<PendingCert> {
        let Shared { metrics, sites, replication, .. } = self;
        let log = &mut metrics.commit_logs[site];
        sites[site].record_decision(site, replication.certifier(site), log, window, req, outcome)
    }

    /// The partial-replication state, if this run partially replicates.
    fn partial(&mut self) -> Option<&mut Partial> {
        match &mut self.replication {
            Replication::Partial(p) => Some(p.as_mut()),
            Replication::Full(_) => None,
        }
    }
}

struct SiteHandles {
    cpu: CpuBank,
    engine: DbEngine,
    bridge: Option<SimBridge>,
    host: HostId,
}

/// The assembled system under test: `sites` replicas on a simulated LAN,
/// TPC-C clients attached round-robin, and the experiment's fault plan.
///
/// Construct with [`Cluster::build`], run with [`Cluster::run`]. A clone
/// is another handle on the same cluster.
#[derive(Clone)]
pub struct Cluster(Rc<Inner>);

/// Everything a [`Cluster`] handle points at. Scheduled closures capture
/// an `Rc` of it, so its event methods take `self: &Rc<Self>`.
struct Inner {
    sim: Sim,
    net: Network,
    gen: RefCell<TpccGen>,
    sites: Vec<SiteHandles>,
    shared: RefCell<Shared>,
    cfg: ExperimentConfig,
    costs: CertCostModel,
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

        let mut sites = Vec::new();
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
            let bridge = (cfg.sites > 1).then(|| {
                SimBridge::new(
                    NodeId(i as u16),
                    gcs_cfg.clone(),
                    &net,
                    &cpu,
                    peers[i],
                    peers.clone(),
                    group,
                )
            });
            sites.push(SiteHandles { cpu, engine, bridge, host: *host });
        }

        let mut tpcc_cfg = TpccConfig::new(cfg.clients);
        tpcc_cfg.think_mean = cfg.think_mean;
        tpcc_cfg.seed = derive_seed(cfg.seed, "tpcc");

        let shared = Shared {
            metrics: RunMetrics::new(cfg.sites),
            completed: 0,
            stopped: false,
            sites: (0..cfg.sites).map(|_| SiteState::default()).collect(),
            replication: Replication::new(&cfg),
        };
        let inner = Rc::new(Inner {
            sim,
            net,
            gen: RefCell::new(TpccGen::new(tpcc_cfg)),
            sites,
            shared: RefCell::new(shared),
            cfg,
            costs: CertCostModel::default(),
        });
        inner.wire_bridges();
        inner.apply_faults();
        Cluster(inner)
    }

    /// The underlying simulation (e.g. for scheduling extra probes).
    pub fn sim(&self) -> &Sim {
        &self.0.sim
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.0.net
    }

    /// Protocol metrics of one site's group-communication stack.
    pub fn gcs_metrics(&self, site: usize) -> Option<dbsm_gcs::GcsMetrics> {
        self.0.sites[site].bridge.as_ref().map(|b| b.metrics())
    }

    /// Runs the experiment: starts the clients, advances the simulation
    /// until the transaction target or the time cap is reached, and collects
    /// the metrics.
    pub fn run(self) -> RunMetrics {
        let inner = &self.0;
        for client in 0..inner.cfg.clients {
            inner.schedule_client(client);
        }
        inner.sim.run_until(SimTime::ZERO + inner.cfg.max_sim);
        inner.collect()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("sites", &self.0.sites.len())
            .field("clients", &self.0.cfg.clients)
            .finish()
    }
}

/// Builds and runs one experiment, returning its metrics.
pub fn run_experiment(cfg: ExperimentConfig) -> RunMetrics {
    Cluster::build(cfg).run()
}

impl Inner {
    fn wire_bridges(self: &Rc<Self>) {
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
                    let mut sh = this.shared.borrow_mut();
                    let sh = &mut *sh;
                    // Partial replication speculates on the span certifier,
                    // and only at sites that will actually vote — the
                    // speculation is the vote's probe, precomputed so the
                    // vote round overlaps the ordering round.
                    if sh.partial().is_some_and(|p| !p.ownership.casts_vote(i, &req)) {
                        return;
                    }
                    // Real code: unmarshal + dispatch of the speculative
                    // probe — outside the certifier's serial section, so
                    // cheaper than a synchronous certification entry.
                    ctx.charge(this.costs.speculate_fixed);
                    let now = ctx.now();
                    let work = sh.replication.certifier(i).speculate(&req);
                    let st = &mut sh.sites[i];
                    let t = queue_speculation(&mut st.spec_free_at, now, work.probes, &this.costs);
                    sh.metrics.cert_work.record_spec_probe(work);
                    sh.metrics.cert_work.record_queueing(t.queued, t.service, t.merge);
                    st.spec_ready.insert((req.site.0, req.txn), t.ready_at);
                }
                Upcall::Deliver { payload, .. } => {
                    let Ok(req) = unmarshal(payload) else { return };
                    let mut sh = this.shared.borrow_mut();
                    let Shared { metrics, replication, .. } = &mut *sh;
                    if let Replication::Partial(p) = replication {
                        // Partial replication (either commit path): enqueue
                        // on the delivery FIFO, then cast/collect wire votes
                        // until the head decides.
                        p.enqueue(i, req, ctx.now(), &mut metrics.cert_work);
                        drop(sh);
                        this.advance_partial(i, ctx);
                        return;
                    }
                    drop(sh);
                    match this.cfg.commit_path {
                        CommitPath::Synchronous => this.certify_in_order(i, req, ctx),
                        CommitPath::Pipelined => this.confirm_in_order(i, req, ctx),
                    }
                }
                Upcall::Vote { voter, vote } => {
                    // A wire-level certification vote (possibly our own,
                    // looped back): file it, then try to advance the FIFO.
                    let mut sh = this.shared.borrow_mut();
                    if sh.partial().is_some_and(|p| p.receive_vote(i, voter.0, &vote)) {
                        drop(sh);
                        this.advance_partial(i, ctx);
                    }
                }
                Upcall::ViewChange(view) => {
                    // Re-placement trigger: if the installed view removed a
                    // span's last live owner, elect a survivor to adopt it.
                    if this.shared.borrow_mut().partial().is_some() {
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

    /// The sites `target` selects, by index.
    fn targeted<'a>(
        &'a self,
        target: &'a dbsm_fault::Target,
    ) -> impl Iterator<Item = (usize, &'a SiteHandles)> + 'a {
        self.sites.iter().enumerate().filter(|(i, _)| target.includes(*i as u16))
    }

    fn apply_faults(self: &Rc<Self>) {
        // Loss-family specs *stack* (Network::add_loss): a plan combining
        // e.g. a correlated burst with background random loss injects both,
        // each advancing its own schedule on every arrival.
        for (spec_idx, spec) in self.cfg.faults.specs.iter().enumerate() {
            let salt = |i: usize| i as u64 + 17 * spec_idx as u64;
            match spec {
                FaultSpec::RandomLoss { target, p } => {
                    for (i, s) in self.targeted(target) {
                        let seed = derive_seed_indexed(self.cfg.seed, "loss", salt(i));
                        self.net.add_loss(s.host, Box::new(RandomLoss::new(*p, seed)));
                    }
                }
                FaultSpec::BurstyLoss { target, fraction, mean_burst } => {
                    for (i, s) in self.targeted(target) {
                        let seed = derive_seed_indexed(self.cfg.seed, "burst", salt(i));
                        let loss = BurstyLoss::new(*fraction, *mean_burst, seed);
                        self.net.add_loss(s.host, Box::new(loss));
                    }
                }
                FaultSpec::ClockDrift { target, rate } => {
                    for b in self.targeted(target).filter_map(|(_, s)| s.bridge.as_ref()) {
                        b.set_clock_drift(*rate);
                    }
                }
                FaultSpec::SchedLatency { target, max } => {
                    for (i, s) in self.targeted(target) {
                        if let Some(b) = &s.bridge {
                            b.set_sched_latency(
                                *max,
                                derive_seed_indexed(self.cfg.seed, "sched", i as u64),
                            );
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
                        let seed = derive_seed_indexed(self.cfg.seed, "dup", salt(i));
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
    fn restart_site(self: &Rc<Self>, site: usize) {
        {
            let mut sh = self.shared.borrow_mut();
            if !sh.sites[site].crashed {
                return;
            }
            sh.sites[site].restarted_at = Some(self.sim.now());
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
    /// replica rebuilt from the oracle history — only its spans' rows.
    /// Returns the bytes staged (for the donor's marshalling charge).
    fn stage_transfer(&self, donor: usize, joiner: u16) -> u64 {
        let mut sh = self.shared.borrow_mut();
        let sh = &mut *sh;
        let (state, owned, cut) = match &sh.replication {
            Replication::Partial(p) => {
                let (replica, owned, cut) = p.stage(donor, joiner as usize);
                (Staged::Partial(Box::new(replica)), owned, cut)
            }
            Replication::Full(certs) => {
                // The cut is a *reference-chain* position: a donor that
                // itself rejoined earlier has a transfer gap in its local
                // log, so its length alone would understate where the
                // chain stands.
                let cut = sh.metrics.commit_logs[donor].len() + sh.sites[donor].ref_gap;
                let warehouses = dbsm_tpcc::schema::warehouses_for_clients(self.cfg.clients);
                (Staged::Full(certs[donor].clone_box()), warehouses, cut)
            }
        };
        let snapshot_bytes = owned * self.costs.snapshot_bytes_per_warehouse;
        sh.metrics.recovery_work.snapshots_served += 1;
        sh.metrics.recovery_work.snapshot_bytes += snapshot_bytes;
        sh.sites[joiner as usize].incoming = Some(TransferPacket { state, cut, snapshot_bytes });
        snapshot_bytes
    }

    /// Receiving half of the rejoin ([`Upcall::Rejoined`]): installs the
    /// staged snapshot, aborts the first incarnation's in-flight
    /// transactions, prices the delta log from the site's pre-crash commit
    /// point to the transfer cut, and schedules [`Inner::finish_rejoin`]
    /// after the transfer's streaming delay. Deliveries arriving meanwhile
    /// certify against the adopted state — the delta log plays in real
    /// time; only client service waits for the transfer to finish.
    fn adopt_transfer(self: &Rc<Self>, site: usize) {
        let (kept, cut, total_bytes, orphans) = {
            let mut sh = self.shared.borrow_mut();
            let sh = &mut *sh;
            let Some(packet) = sh.sites[site].incoming.take() else { return };
            let kept = sh.metrics.commit_logs[site].len();
            sh.replication.install(site, packet.state);
            let st = &mut sh.sites[site];
            // The delta log spans from this site's pre-crash reference
            // position (local length plus any earlier transfer gap) to the
            // cut; the new gap replaces the old one, since the cut already
            // accounts for everything skipped so far.
            let replayed = packet.cut.saturating_sub(kept + st.ref_gap) as u64;
            let delta_bytes = replayed * self.costs.delta_bytes_per_entry;
            st.ref_gap = packet.cut.saturating_sub(kept);
            st.spec_free_at = SimTime::ZERO;
            st.spec_ready.clear();
            st.commits_since_gc = 0;
            let orphans: Vec<TxnId> =
                std::mem::take(&mut st.pending).into_values().map(|p| p.db_txn).collect();
            sh.metrics.recovery_work.delta_bytes += delta_bytes;
            sh.metrics.recovery_work.replayed_entries += replayed;
            // The chain record goes in *now*: from this instant the site's
            // log continues the reference from `cut`, even if the run stops
            // before the streaming transfer finishes (`ttu` stays zero
            // until [`Inner::finish_rejoin`] fills it in).
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
    fn finish_rejoin(self: &Rc<Self>, site: usize, kept: usize, cut: usize) {
        let parked = {
            let mut sh = self.shared.borrow_mut();
            let sh = &mut *sh;
            sh.sites[site].crashed = false;
            sh.metrics.crashed_sites.retain(|&s| s != site as u16);
            let ttu = sh.sites[site]
                .restarted_at
                .take()
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
            let parked = std::mem::take(&mut sh.sites[site].parked);
            record_parked(&mut sh.metrics, &parked, self.sim.now());
            parked
        };
        for (client, _) in parked {
            self.schedule_client(client);
        }
        // A rejoined voter resumes voting *now*, not at the next delivery:
        // the seeded FIFO may already hold entries waiting on its vote.
        if self.shared.borrow_mut().partial().is_some() {
            let this = self.clone();
            self.sites[site].cpu.submit_real(Box::new(move |ctx| this.advance_partial(site, ctx)));
        }
    }

    // ----- replica re-placement under churn -------------------------------

    /// Elects adopters for the spans `view` stranded
    /// ([`Partial::elect_adopters`]). Each adopter's transfer is priced
    /// like a rejoin snapshot of the adopted warehouses and completes at
    /// [`Inner::finish_replacement`]; until then the span is unservable and
    /// its clients park.
    fn rehome_stranded(self: &Rc<Self>, view: View) {
        let mut sh = self.shared.borrow_mut();
        let groups = sh.partial().map_or_else(Vec::new, |p| p.elect_adopters(&view));
        drop(sh);
        for (adopter, spans) in groups {
            let bytes = spans.len() as u64 * self.costs.snapshot_bytes_per_warehouse;
            let delay = self.costs.marshal(bytes as usize) + self.costs.transfer_delay(bytes);
            let started = self.sim.now();
            let this = self.clone();
            self.sim.schedule_in(delay, move || this.finish_replacement(adopter, spans, started));
        }
    }

    /// Completes a re-placement as real work on the adopter's CPU: the
    /// adopter takes over the spans ([`Partial::adopt`]) and re-casts the
    /// re-collected votes, and every client parked at a dead site is
    /// released to re-route through the overlay.
    fn finish_replacement(self: &Rc<Self>, adopter: usize, spans: Vec<u64>, started: SimTime) {
        let this = self.clone();
        self.sites[adopter].cpu.submit_real(Box::new(move |ctx| {
            {
                let mut sh = this.shared.borrow_mut();
                if sh.sites[adopter].crashed
                    || !sh.partial().is_some_and(|p| p.adopting(adopter, &spans))
                {
                    return;
                }
            }
            // Quiesce first: pop every globally decided entry off the
            // adopter's FIFO, so the rebuilt certifier lands exactly at the
            // adopter's position.
            this.advance_partial(adopter, ctx);
            let now = ctx.now();
            let vote_seq = this.sites[adopter].bridge.as_ref().expect("replicated site").vote_seq();
            let parked = {
                let mut sh = this.shared.borrow_mut();
                let Some((adopted, recollected)) =
                    sh.partial().map(|p| p.adopt(adopter, &spans, vote_seq))
                else {
                    return;
                };
                let repl = &mut sh.metrics.replacement_work;
                repl.replacements += 1;
                repl.rehomed_spans += adopted;
                repl.transfer_bytes += adopted * this.costs.snapshot_bytes_per_warehouse;
                repl.time_to_serving_ns_total +=
                    now.saturating_duration_since(started).as_nanos() as u64 * adopted;
                repl.vote_rounds_recollected += recollected;
                let sh = &mut *sh;
                // Release everyone parked at a dead site: the overlay now
                // serves the adopted spans, so their clients re-route here
                // (others re-park, their wait still on the ledger).
                let mut parked: Vec<(usize, SimTime)> = Vec::new();
                for st in sh.sites.iter_mut().filter(|st| st.crashed) {
                    parked.append(&mut st.parked);
                }
                record_parked(&mut sh.metrics, &parked, now);
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

    fn collect(&self) -> RunMetrics {
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

    /// Warehouse-aware routing: under partial replication a client attaches
    /// to a site that owns its home warehouse (spread over the span's
    /// owners, its adopter included), preferring live owners — a crashed
    /// replica's clients spread over the survivors instead of parking. Only
    /// when *every* owner is down (span stranded, transfer in flight) does
    /// the client park at a dead owner, to be released when the
    /// re-placement completes. Full replication keeps the classic
    /// round-robin. Recomputed at every fire, so the overlay re-routes
    /// parked clients automatically.
    fn site_of(&self, client: usize) -> usize {
        let sh = self.shared.borrow();
        let Replication::Partial(p) = &sh.replication else { return client % self.cfg.sites };
        // TPC-C home warehouses are 1-based; placement spans 0-based.
        let owners = p.ownership.owners(self.gen.borrow().home_warehouse(client) - 1);
        let live: Vec<usize> = owners.iter().copied().filter(|&s| !sh.sites[s].crashed).collect();
        let pool = if live.is_empty() { &owners } else { &live };
        pool[client % pool.len()]
    }

    fn schedule_client(self: &Rc<Self>, client: usize) {
        let think = self.gen.borrow_mut().think_time();
        let this = self.clone();
        self.sim.schedule_in(think, move || this.client_fire(client));
    }

    fn client_fire(self: &Rc<Self>, client: usize) {
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
                sh.sites[site].parked.push((client, self.sim.now()));
                return;
            }
        }
        let req = self.gen.borrow_mut().next_request(client);
        let class = req.class;
        self.shared.borrow_mut().metrics.class_mut(class).submitted += 1;
        let start_seq = self.shared.borrow_mut().replication.certifier(site).last_committed();
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

    fn client_done(
        self: &Rc<Self>,
        client: usize,
        class: TxnClass,
        submit_at: SimTime,
        outcome: Outcome,
    ) {
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
            if sh.completed >= self.cfg.target_txns && !sh.stopped {
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

    fn commit_request(
        self: &Rc<Self>,
        site: usize,
        db_txn: TxnId,
        spec: TransactionSpec,
        start_seq: u64,
    ) {
        let engine = self.sites[site].engine.clone();
        if spec.relaxed || (spec.read_only && !self.cfg.certify_read_only) {
            engine.resolve(db_txn, true);
            return;
        }
        if spec.read_only {
            // Local validation of the read-set against concurrent commits,
            // as real code on the site's CPU; a cross-span read under
            // partial replication also pays the vote round trip.
            let this = self.clone();
            self.sites[site].cpu.submit_real(Box::new(move |ctx| {
                let (ok, work, crossed) = {
                    let mut sh = this.shared.borrow_mut();
                    let Shared { metrics, replication, .. } = &mut *sh;
                    let work_ledger = &mut metrics.cert_work;
                    match replication {
                        Replication::Full(certs) => {
                            let (ok, work) =
                                certs[site].certify_read_only(&spec.read_set, start_seq);
                            work_ledger.record(work);
                            (ok, work, false)
                        }
                        Replication::Partial(p) => {
                            p.certify_read_only(site, &spec.read_set, start_seq, work_ledger)
                        }
                    }
                };
                ctx.charge(this.costs.certify(work));
                let vote_delay = if crossed { this.costs.vote_rtt } else { Duration::ZERO };
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
            match &this.sites[site].bridge {
                Some(bridge) => bridge.broadcast_in(ctx, wire),
                // Centralized termination: the same real code path, with
                // trivially local total order.
                None => {
                    let req = unmarshal(wire).expect("own marshalling is sound");
                    this.certify_in_order(site, req, ctx);
                }
            }
        }));
    }

    /// Certifies `req` on a full replica in delivery order — the
    /// synchronous commit path and the centralized one. Real code: the
    /// full conflict check stalls the delivery loop, charging its CPU
    /// cost, and the decision re-enters the simulated domain at start + Δ
    /// (Fig. 1b).
    fn certify_in_order(self: &Rc<Self>, site: usize, req: CertRequest, ctx: &mut RealContext<'_>) {
        let (outcome, work) = {
            let mut sh = self.shared.borrow_mut();
            let res =
                sh.replication.certifier(site).certify(&req).expect("history window exceeded");
            sh.metrics.cert_work.record(res.1);
            sh.metrics.cert_work.stall_ns += self.costs.certify_data(res.1).as_nanos() as u64;
            res
        };
        ctx.charge(self.costs.certify(work));
        let this = self.clone();
        ctx.schedule(Duration::ZERO, move || this.deliver_decision(site, req, outcome));
    }

    /// Confirms `req` on a full replica at total-order delivery against
    /// its speculation (pipelined commit path). The certifier mutation,
    /// commit log and gc cadence happen here, in the global sequence —
    /// tentative order differs per site — while the engine-side decision
    /// waits for the speculative FIFO to finish the probe work.
    fn confirm_in_order(self: &Rc<Self>, site: usize, req: CertRequest, ctx: &mut RealContext<'_>) {
        let (outcome, work, pending, ready_at) = {
            let mut sh = self.shared.borrow_mut();
            let (outcome, work, res) =
                sh.replication.certifier(site).confirm(&req).expect("history window exceeded");
            let ready_at = sh.sites[site].spec_ready.remove(&(req.site.0, req.txn));
            sh.metrics.cert_work.record(work);
            sh.metrics.cert_work.record_spec(res);
            sh.metrics.cert_work.stall_ns += self.costs.certify_data(work).as_nanos() as u64;
            let pending = sh.record_decision(site, self.cfg.history_window, &req, outcome);
            (outcome, work, pending, ready_at)
        };
        ctx.charge(self.costs.confirm(work));
        let delay = ready_at.map_or(Duration::ZERO, |t| t.saturating_duration_since(ctx.now()));
        let this = self.clone();
        ctx.schedule(delay, move || this.apply_decision(site, req, outcome, pending));
    }

    /// Advances `site`'s partial-replication FIFO as far as it will go:
    /// first decides and pops entries off the head, then casts this site's
    /// wire votes for entries whose turn has come — popping may unblock
    /// deferred votes, and freshly cast votes return as loopback
    /// [`Upcall::Vote`]s which re-enter here. A no-op under full
    /// replication.
    fn advance_partial(self: &Rc<Self>, site: usize, ctx: &mut RealContext<'_>) {
        let now = ctx.now();
        let (popped, casts, charge) = {
            let mut sh = self.shared.borrow_mut();
            let Shared { metrics, sites, replication: Replication::Partial(p), .. } = &mut *sh
            else {
                return;
            };
            let st = &mut sites[site];
            let popped = p.pop_decided(site, st, metrics, self.cfg.history_window, now);
            // A crashed site decides what others published but casts nothing.
            let (casts, charge) = if st.crashed {
                Default::default()
            } else {
                p.cast_votes(site, self.cfg.commit_path, &self.costs, &mut metrics.cert_work)
            };
            (popped, casts, charge)
        };
        for (req, outcome, pending, ready_at) in popped {
            // Pipelined deliveries wait out the speculative probe's FIFO;
            // synchronous ones have no speculation and apply now.
            let delay = ready_at.map_or(Duration::ZERO, |t| t.saturating_duration_since(now));
            let this = self.clone();
            ctx.schedule(delay, move || this.apply_decision(site, req, outcome, pending));
        }
        if charge > Duration::ZERO {
            ctx.charge(charge);
        }
        for (origin, txn, conflict) in casts {
            self.sites[site]
                .bridge
                .as_ref()
                .expect("replicated site")
                .cast_vote(origin, txn, conflict);
        }
    }

    /// Applies a certification decision at `site` (already totally ordered).
    fn deliver_decision(&self, site: usize, req: CertRequest, outcome: CertOutcome) {
        let pending =
            self.shared.borrow_mut().record_decision(site, self.cfg.history_window, &req, outcome);
        self.apply_decision(site, req, outcome, pending);
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
                let stored = match self.shared.borrow_mut().partial() {
                    Some(p) => p.stored_writes(site, &req),
                    None => Some((req.write_set.clone(), req.write_bytes)),
                };
                if let Some((ws, bytes)) = stored {
                    engine.apply_remote(ws, bytes, || {});
                }
            }
            (false, false) => {}
        }
    }
}

/// Adds the parking time of released `parked` clients, up to `now`, to
/// the ledger.
fn record_parked(metrics: &mut RunMetrics, parked: &[(usize, SimTime)], now: SimTime) {
    for &(_, at) in parked {
        metrics.replacement_work.parked_ns += now.saturating_duration_since(at).as_nanos() as u64;
    }
}
