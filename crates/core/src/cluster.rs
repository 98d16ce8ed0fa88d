//! The replicated database model (§3, Fig. 2): sites assembled from the
//! simulated database engine, the *real* certification and group
//! communication prototypes, TPC-C clients, and the simulated network —
//! all under the centralized simulation runtime.
//!
//! This module only wires things together: group-communication upcalls,
//! the client loop, fault injection, rejoin and re-placement, each
//! scheduled on the simulation or charged to a site's CPU. How a delivery,
//! a wire vote or a read-only validation becomes a decision is the site's
//! [`Replica`]'s business ([`crate::replica`]); it reaches the simulation
//! through [`SiteRt`], the [`SiteRuntime`] over a real job's context and
//! the site's GCS bridge. [`Cluster`] is a one-pointer handle. Scheduled
//! closures hold it weakly, and dropping the last handle discards whatever
//! the run left queued, so nothing outlives the cluster.

use crate::experiment::{ExperimentConfig, CERT_COSTS};
use crate::metrics::{RunMetrics, SiteUsage};
use crate::replica::{Decision, Partial, Replica, Settled, SiteRuntime, TransferPacket};
use dbsm_cert::{marshal, unmarshal, CertRequest, SiteId};
use dbsm_db::{DbEngine, Outcome, TransactionSpec, TxnId};
use dbsm_fault::{FaultSpec, RejoinCut};
use dbsm_gcs::{GcsConfig, NodeId, SimBridge, Upcall, View};
use dbsm_net::{
    Addr, BurstyLoss, GroupId, HostId, Network, NetworkBuilder, Port, RandomLoss, SegmentConfig,
    WindowedBurst,
};
use dbsm_sim::{
    derive_seed, derive_seed_indexed, CpuBank, ProfilerMode, RealContext, Sim, SimTime,
};
use dbsm_tpcc::{schema::warehouses_for_clients, TpccConfig, TpccGen, TxnClass};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

struct SiteHandles {
    cpu: CpuBank,
    engine: DbEngine,
    bridge: Option<SimBridge>,
    host: HostId,
}

impl SiteHandles {
    /// The site's GCS stack. Only a one-site run has none, and it casts no
    /// votes and takes no faults ([`ExperimentConfig::validate`]).
    fn bridge(&self) -> &SimBridge {
        self.bridge.as_ref().expect("replicated site")
    }
}

/// The assembled system under test: `sites` replicas on a simulated LAN,
/// TPC-C clients attached round-robin, and the experiment's fault plan.
///
/// Construct with [`Cluster::build`], run with [`Cluster::run`]. A clone
/// is another handle on the same cluster.
#[derive(Clone)]
pub struct Cluster(Rc<Inner>);

/// Everything a [`Cluster`] handle points at. Its event methods take
/// `self: &Rc<Self>` to build the weak closures they schedule.
struct Inner {
    sim: Sim,
    net: Network,
    gen: RefCell<TpccGen>,
    sites: Vec<SiteHandles>,
    /// Every site's replica, by site index.
    replicas: RefCell<Vec<Replica>>,
    /// What the replicas' vote rounds share, under partial replication.
    partial: Option<RefCell<Partial>>,
    metrics: RefCell<RunMetrics>,
    /// Set when the transaction target is reached: clients stop firing.
    stopped: Cell<bool>,
    cfg: ExperimentConfig,
}

impl Cluster {
    /// Builds the full model for `cfg`: network, sites, protocol stacks and
    /// fault injection hooks. Clients start after [`Cluster::run`].
    pub fn build(cfg: ExperimentConfig) -> Self {
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

        let partial = Partial::for_run(&cfg);
        let replicas = (0..cfg.sites).map(|i| Replica::new(i, &cfg, partial.as_ref()));
        let inner = Rc::new(Inner {
            sim,
            net,
            gen: RefCell::new(TpccGen::new(tpcc_cfg)),
            sites,
            replicas: RefCell::new(replicas.collect()),
            partial: partial.map(RefCell::new),
            metrics: RefCell::new(RunMetrics::new(cfg.sites)),
            stopped: Cell::new(false),
            cfg,
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

impl Drop for Inner {
    /// Actions and jobs still queued hold the simulation, the CPUs, the
    /// engines and the bridges in cycles: drop them unrun, so that the
    /// cluster's memory goes with it.
    fn drop(&mut self) {
        self.sim.discard_pending();
        for s in &self.sites {
            s.cpu.discard_queued();
        }
    }
}

/// The [`SiteRuntime`] of a site's replica inside a real job: the job's
/// clock and CPU charge, the simulation's event queue, and the site's GCS
/// bridge.
struct SiteRt<'a, 'b> {
    ctx: &'a mut RealContext<'b>,
    cluster: &'a Rc<Inner>,
    site: usize,
    /// Votes cast, multicast once the replica is released: a cast may run
    /// the vote job at once on an idle CPU, and its loopback vote re-enters
    /// the replica.
    casts: Vec<(u16, u64, Option<u64>)>,
}

impl SiteRuntime for SiteRt<'_, '_> {
    fn now(&mut self) -> SimTime {
        self.ctx.now()
    }

    fn charge(&mut self, cost: Duration) {
        self.ctx.charge(cost);
    }

    fn schedule(&mut self, delay: Duration, decision: Decision) {
        let site = self.site;
        self.ctx.schedule(delay, self.cluster.action(move |this| this.settle(site, decision)));
    }

    fn cast_vote(&mut self, origin: u16, txn: u64, conflict: Option<u64>) {
        self.casts.push((origin, txn, conflict));
    }
}

impl Inner {
    /// `f` on this cluster when the action runs, if the cluster is still
    /// alive. Every closure the cluster hands to the simulation, a CPU, an
    /// engine or a bridge holds it this way — weakly — so that no queue
    /// keeps a dropped cluster alive.
    fn action(self: &Rc<Self>, f: impl FnOnce(&Rc<Self>) + 'static) -> impl FnOnce() + 'static {
        let weak = Rc::downgrade(self);
        move || {
            if let Some(this) = weak.upgrade() {
                f(&this);
            }
        }
    }

    /// Queues `f` as real work on `site`'s CPU, holding the cluster like
    /// [`Inner::action`].
    fn submit(
        self: &Rc<Self>,
        site: usize,
        f: impl FnOnce(&Rc<Self>, &mut RealContext<'_>) + 'static,
    ) {
        let weak = Rc::downgrade(self);
        self.sites[site].cpu.submit_real(Box::new(move |ctx| {
            if let Some(this) = weak.upgrade() {
                f(&this, ctx);
            }
        }));
    }

    /// Runs `f` on `site`'s replica inside a real job, with the shared
    /// vote-round state and the site's runtime over `ctx`; then multicasts
    /// the votes it cast.
    fn with_replica(
        self: &Rc<Self>,
        site: usize,
        ctx: &mut RealContext<'_>,
        f: impl FnOnce(&mut Replica, Option<&mut Partial>, &mut dyn SiteRuntime),
    ) {
        let mut rt = SiteRt { ctx, cluster: self, site, casts: Vec::new() };
        let mut partial = self.partial.as_ref().map(RefCell::borrow_mut);
        f(&mut self.replicas.borrow_mut()[site], partial.as_deref_mut(), &mut rt);
        drop(partial);
        for (origin, txn, conflict) in rt.casts {
            self.sites[site].bridge().cast_vote(origin, txn, conflict);
        }
    }

    fn wire_bridges(self: &Rc<Self>) {
        for (i, s) in self.sites.iter().enumerate() {
            let Some(bridge) = &s.bridge else { continue };
            let weak = Rc::downgrade(self);
            bridge.set_handler(Box::new(move |ctx, upcall| {
                if let Some(this) = weak.upgrade() {
                    this.upcall(i, ctx, upcall);
                }
            }));
            bridge.start();
        }
    }

    /// Dispatches one of `site`'s GCS upcalls, inside the protocol's real
    /// job: deliveries and votes go to the site's replica, membership
    /// events to rejoin and re-placement.
    fn upcall(self: &Rc<Self>, site: usize, ctx: &mut RealContext<'_>, upcall: Upcall) {
        match upcall {
            Upcall::Tentative { payload, .. } => {
                let Ok(req) = unmarshal(payload) else { return };
                self.with_replica(site, ctx, |r, p, rt| r.tentative(&req, p.as_deref(), rt));
            }
            Upcall::Deliver { payload, .. } => {
                let Ok(req) = unmarshal(payload) else { return };
                self.with_replica(site, ctx, |r, p, rt| r.deliver(req, p, rt));
            }
            Upcall::Vote { voter, vote } => {
                // A wire-level certification vote (possibly our own, looped
                // back): file it, then try to advance the FIFO.
                self.with_replica(site, ctx, |r, p, rt| r.receive_vote(p, voter.0, &vote, rt));
            }
            Upcall::ViewChange(view) => {
                // Re-placement trigger: if the installed view removed a
                // span's last live owner, elect a survivor to adopt it.
                if self.partial.is_some() {
                    ctx.schedule(Duration::ZERO, self.action(move |this| this.rehome(view)));
                }
            }
            Upcall::Excluded => {
                ctx.schedule(Duration::ZERO, self.action(move |this| this.crash_site(site)));
            }
            Upcall::ServeJoin { joiner } => {
                // Donor half of the rejoin: clone the committed state at
                // this order-clean instant — the exact point the granted
                // order base names — and charge the marshalling of the
                // snapshot onto this site's CPU.
                let bytes = self.stage_transfer(site, joiner.0 as usize);
                ctx.charge(CERT_COSTS.marshal(bytes as usize));
            }
            Upcall::Rejoined => {
                // Receiving half: the stack is live in the new view;
                // install the staged state before acting on deliveries.
                ctx.schedule(Duration::ZERO, self.action(move |this| this.adopt_transfer(site)));
            }
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
                    for (_, s) in self.targeted(target) {
                        s.bridge().set_clock_drift(*rate);
                    }
                }
                FaultSpec::SchedLatency { target, max } => {
                    for (i, s) in self.targeted(target) {
                        let seed = derive_seed_indexed(self.cfg.seed, "sched", i as u64);
                        s.bridge().set_sched_latency(*max, seed);
                    }
                }
                &FaultSpec::Crash { site, at } => {
                    self.sim.schedule_at(at, self.action(move |this| this.crash_site(site.into())));
                }
                &FaultSpec::Restart { site, at } => {
                    self.sim
                        .schedule_at(at, self.action(move |this| this.restart_site(site.into())));
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
        if std::mem::replace(&mut self.replicas.borrow_mut()[site].st.crashed, true) {
            return;
        }
        self.sites[site].bridge().kill();
    }

    // ----- site recovery (snapshot + delta-log rejoin) -------------------

    /// Brings a crashed/halted site back up: the fresh protocol incarnation
    /// announces itself to the live primary component and the join protocol
    /// takes it from there — grant, state transfer, view install. A no-op
    /// if the site is not down.
    fn restart_site(self: &Rc<Self>, site: usize) {
        let mut reps = self.replicas.borrow_mut();
        if !reps[site].st.crashed {
            return;
        }
        reps[site].st.restarted_at = Some(self.sim.now());
        drop(reps);
        self.sites[site].bridge().revive();
    }

    /// Donor half of the rejoin ([`Upcall::ServeJoin`]): clones this site's
    /// committed certification state at the grant's order-clean point and
    /// stages it for the joiner, pricing the snapshot in bytes. Under
    /// partial placement the packet instead carries the joiner's span
    /// replica rebuilt from the oracle history — only its spans' rows.
    /// Returns the bytes staged (for the donor's marshalling charge).
    fn stage_transfer(&self, donor: usize, joiner: usize) -> u64 {
        let mut reps = self.replicas.borrow_mut();
        let (state, owned, cut) = match &self.partial {
            Some(p) => p.borrow().stage(&reps[donor], joiner),
            None => reps[donor].snapshot(warehouses_for_clients(self.cfg.clients)),
        };
        let snapshot_bytes = owned * CERT_COSTS.snapshot_bytes_per_warehouse;
        let mut m = self.metrics.borrow_mut();
        m.recovery_work.snapshots_served += 1;
        m.recovery_work.snapshot_bytes += snapshot_bytes;
        reps[joiner].st.incoming = Some(TransferPacket { state, cut, snapshot_bytes });
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
        let Some(packet) = self.replicas.borrow_mut()[site].st.incoming.take() else { return };
        let (cut, snapshot_bytes) = (packet.cut, packet.snapshot_bytes);
        let (kept, replayed, orphans) = self.replicas.borrow_mut()[site].install(packet);
        let delta_bytes = replayed * CERT_COSTS.delta_bytes_per_entry;
        {
            let mut m = self.metrics.borrow_mut();
            m.recovery_work.delta_bytes += delta_bytes;
            m.recovery_work.replayed_entries += replayed;
            // The chain record goes in *now*: from this instant the site's
            // log continues the reference from `cut`, even if the run stops
            // before the streaming transfer finishes.
            m.rejoins[site].push(RejoinCut { kept, cut });
        }
        // Requests multicast by the first incarnation whose decision never
        // came back: abort them so their clients resume.
        for db_txn in orphans {
            self.sites[site].engine.resolve(db_txn, false);
        }
        let delay = CERT_COSTS.transfer_delay(snapshot_bytes + delta_bytes);
        self.sim.schedule_in(delay, self.action(move |this| this.finish_rejoin(site)));
    }

    /// The rejoined site becomes useful: marked live again,
    /// time-to-useful recorded, parked clients released.
    fn finish_rejoin(self: &Rc<Self>, site: usize) {
        let now = self.sim.now();
        let parked = {
            let mut reps = self.replicas.borrow_mut();
            let st = &mut reps[site].st;
            st.crashed = false;
            let ttu =
                st.restarted_at.take().map_or(Duration::ZERO, |t| now.saturating_duration_since(t));
            let m = &mut *self.metrics.borrow_mut();
            m.recovery_work.rejoins += 1;
            m.recovery_work.ttu_ns_total += ttu.as_nanos() as u64;
            assert!(!m.rejoins[site].is_empty(), "a rejoin is recorded at adoption");
            let parked = std::mem::take(&mut st.parked);
            record_parked(m, &parked, now);
            parked
        };
        for (client, _) in parked {
            self.schedule_client(client);
        }
        // A rejoined voter resumes voting *now*, not at the next delivery:
        // the seeded FIFO may already hold entries waiting on its vote.
        if self.partial.is_some() {
            self.submit(site, move |this, ctx| {
                this.with_replica(site, ctx, |r, p, rt| r.advance(p, rt))
            });
        }
    }

    // ----- replica re-placement under churn -------------------------------

    /// Elects adopters for the spans `view` stranded
    /// ([`Partial::elect_adopters`]). Each adopter's transfer is priced
    /// like a rejoin snapshot of the adopted warehouses and completes at
    /// [`Inner::finish_replacement`]; until then the span is unservable and
    /// its clients park.
    fn rehome(self: &Rc<Self>, view: View) {
        let Some(p) = &self.partial else { return };
        let groups = p.borrow_mut().elect_adopters(&view);
        for (adopter, spans) in groups {
            let bytes = spans.len() as u64 * CERT_COSTS.snapshot_bytes_per_warehouse;
            let delay = CERT_COSTS.marshal(bytes as usize) + CERT_COSTS.transfer_delay(bytes);
            let started = self.sim.now();
            let done = self.action(move |this| this.finish_replacement(adopter, spans, started));
            self.sim.schedule_in(delay, done);
        }
    }

    /// Completes a re-placement as real work on the adopter's CPU: the
    /// adopter takes over the spans ([`Partial::adopt`]) and re-casts the
    /// re-collected votes, and every client parked at a dead site is
    /// released to re-route through the overlay.
    fn finish_replacement(self: &Rc<Self>, adopter: usize, spans: Vec<u64>, started: SimTime) {
        self.submit(adopter, move |this, ctx| {
            let Some(p) = &this.partial else { return };
            if this.replicas.borrow()[adopter].st.crashed || !p.borrow().adopting(adopter, &spans) {
                return;
            }
            // Quiesce first: pop every globally decided entry off the
            // adopter's FIFO, so the rebuilt certifier lands exactly at the
            // adopter's position.
            this.with_replica(adopter, ctx, |r, p, rt| r.advance(p, rt));
            let now = ctx.now();
            let vote_seq = this.sites[adopter].bridge().vote_seq();
            let parked = {
                let mut reps = this.replicas.borrow_mut();
                let (adopted, recollected) =
                    p.borrow_mut().adopt(&mut reps, adopter, &spans, vote_seq);
                let m = &mut *this.metrics.borrow_mut();
                let repl = &mut m.replacement_work;
                repl.replacements += 1;
                repl.rehomed_spans += adopted;
                repl.transfer_bytes += adopted * CERT_COSTS.snapshot_bytes_per_warehouse;
                repl.time_to_serving_ns_total +=
                    now.saturating_duration_since(started).as_nanos() as u64 * adopted;
                repl.vote_rounds_recollected += recollected;
                // Release everyone parked at a dead site: the overlay now
                // serves the adopted spans, so their clients re-route here
                // (others re-park, their wait still on the ledger).
                let crashed = reps.iter_mut().filter(|r| r.st.crashed);
                let parked: Vec<_> =
                    crashed.flat_map(|r| std::mem::take(&mut r.st.parked)).collect();
                record_parked(m, &parked, now);
                parked
            };
            for (client, _) in parked {
                this.schedule_client(client);
            }
            // Re-cast the re-collected votes (and any deferred ones the new
            // coverage unblocks) right away.
            this.with_replica(adopter, ctx, |r, p, rt| r.advance(p, rt));
        });
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

    /// The run's metrics: the cluster's ledger, every replica's ledger
    /// moved or summed in, and the stacks' and the network's counters.
    fn collect(&self) -> RunMetrics {
        let mut metrics = std::mem::take(&mut *self.metrics.borrow_mut());
        if !self.stopped.get() {
            // The time cap hit before the target: the interval is the run.
            self.record_usage(&mut metrics, self.sim.now());
        }
        for (i, r) in self.replicas.borrow_mut().iter_mut().enumerate() {
            if r.st.crashed {
                metrics.crashed_sites.push(i as u16);
            }
            let ledger = r.take_ledger();
            metrics.commit_logs[i] = ledger.log;
            metrics.cert_work.absorb(&ledger.work);
            metrics.vote_wire.decided += ledger.votes.decided;
            metrics.vote_wire.wait_ns += ledger.votes.wait_ns;
        }
        metrics.gcs =
            self.sites.iter().filter_map(|s| s.bridge.as_ref()).map(|b| b.metrics()).collect();
        metrics.fault_work.view_installs = metrics.gcs_sum(|g| g.view_changes);
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
        let Some(p) = &self.partial else { return client % self.cfg.sites };
        // TPC-C home warehouses are 1-based; placement spans 0-based.
        let owners = p.borrow().ownership.owners(self.gen.borrow().home_warehouse(client) - 1);
        let reps = self.replicas.borrow();
        let live: Vec<usize> = owners.iter().copied().filter(|&s| !reps[s].st.crashed).collect();
        let pool = if live.is_empty() { &owners } else { &live };
        pool[client % pool.len()]
    }

    fn schedule_client(self: &Rc<Self>, client: usize) {
        let think = self.gen.borrow_mut().think_time();
        self.sim.schedule_in(think, self.action(move |this| this.client_fire(client)));
    }

    fn client_fire(self: &Rc<Self>, client: usize) {
        let site = self.site_of(client);
        if self.stopped.get() {
            return;
        }
        let mut reps = self.replicas.borrow_mut();
        if reps[site].st.crashed {
            // Park until the site rejoins or a re-placement re-routes the
            // span; a permanently crashed site with no adopter keeps its
            // clients parked for the rest of the run.
            reps[site].st.parked.push((client, self.sim.now()));
            return;
        }
        drop(reps);
        let req = self.gen.borrow_mut().next_request(client);
        let class = req.class;
        self.metrics.borrow_mut().class_mut(class).submitted += 1;
        let start_seq = self.replicas.borrow_mut()[site].last_committed();
        let submit_at = self.sim.now();
        let (this_cr, this_done) = (Rc::downgrade(self), Rc::downgrade(self));
        self.sites[site].engine.begin_local(
            req.spec,
            move |db_txn, spec| {
                if let Some(this) = this_cr.upgrade() {
                    this.commit_request(site, db_txn, spec.clone(), start_seq);
                }
            },
            move |_db_txn, outcome| {
                if let Some(this) = this_done.upgrade() {
                    this.client_done(client, class, submit_at, outcome);
                }
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
            let mut m = self.metrics.borrow_mut();
            let stats = m.class_mut(class);
            match outcome {
                Outcome::Committed => {
                    stats.committed += 1;
                    stats
                        .latencies_ms
                        .record(now.saturating_duration_since(submit_at).as_secs_f64() * 1e3);
                }
                Outcome::Aborted(reason) => stats.record_abort(reason),
            }
            if m.committed() + m.aborted() >= self.cfg.target_txns && !self.stopped.get() {
                self.stopped.set(true);
                self.record_usage(&mut m, now);
            }
            if self.stopped.get() {
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
        if spec.relaxed || (spec.read_only && !self.cfg.certify_read_only) {
            self.sites[site].engine.resolve(db_txn, true);
            return;
        }
        if spec.read_only {
            // Local validation of the read-set against concurrent commits,
            // as real code on the site's CPU.
            self.submit(site, move |this, ctx| {
                this.with_replica(site, ctx, |r, p, rt| {
                    r.validate_read_only(db_txn, &spec.read_set, start_seq, p.as_deref(), rt);
                });
            });
            return;
        }
        // Update transaction: gather, marshal and atomically multicast.
        let seq = self.replicas.borrow_mut()[site].open(db_txn, self.sim.now());
        let mut read_set = spec.read_set.clone();
        read_set.upgrade_large_tables(self.cfg.table_lock_threshold);
        let req = CertRequest {
            site: SiteId(site as u16),
            txn: seq,
            start_seq,
            read_set,
            write_set: spec.write_set.clone(),
            write_bytes: spec.write_bytes,
        };
        self.submit(site, move |this, ctx| {
            let wire = marshal(&req);
            ctx.charge(CERT_COSTS.marshal(wire.len()));
            match &this.sites[site].bridge {
                Some(bridge) => bridge.broadcast_in(ctx, wire),
                // Centralized termination: the same real code path, with
                // trivially local total order.
                None => {
                    let req = unmarshal(wire).expect("own marshalling is sound");
                    this.with_replica(site, ctx, |r, _, rt| r.certify_in_order(req, rt));
                }
            }
        });
    }

    /// Settles a fired [`Decision`] at `site` ([`Replica::settle`]) and
    /// carries it out on the engine: resolve a local transaction, recording
    /// its certification latency, or apply a committed remote write-set.
    fn settle(&self, site: usize, decision: Decision) {
        let Some(settled) = self.replicas.borrow_mut()[site].settle(decision) else { return };
        let engine = &self.sites[site].engine;
        match settled {
            Settled::Resolve(db_txn, commit, sent_at) => {
                if let Some(sent_at) = sent_at {
                    let lat = self.sim.now().saturating_duration_since(sent_at);
                    self.metrics.borrow_mut().cert_latencies_ms.record(lat.as_secs_f64() * 1e3);
                }
                engine.resolve(db_txn, commit);
            }
            Settled::Apply(ws, bytes) => {
                engine.apply_remote(ws, bytes, || {});
            }
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
