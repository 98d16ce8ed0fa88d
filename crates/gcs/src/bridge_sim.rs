//! Bridge from the protocol abstraction to the centralized simulation
//! runtime (§2.3): the [`Gcs`] state machine runs as *real jobs* on a
//! simulated CPU, its packets travel the simulated network, its timers are
//! simulation events, and every send/receive charges the four CSRT overhead
//! parameters (§4.1).

use crate::config::{GcsConfig, OVERHEAD};
use crate::runtime::{ProtocolRuntime, TimerId, TimerKind};
use crate::seq_ring::SeqRing;
use crate::stack::Gcs;
use crate::types::{GcsMetrics, NodeId, Upcall};
use bytes::Bytes;
use dbsm_net::{Addr, Dest, GroupId, Network};
use dbsm_sim::{CpuBank, EventId, RealContext};
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

/// Handler invoked (inside the protocol's real job, so it can charge CPU)
/// for every upcall the stack produces.
pub type UpcallHandler = Box<dyn FnMut(&mut RealContext<'_>, Upcall)>;

struct Maps {
    next_timer: u64,
    /// Armed timers by id; ids count up, so a ring indexes them.
    timers: SeqRing<EventId>,
    handler: Option<UpcallHandler>,
    /// Empty buffer swapped with the stack's upcall queue on every entry
    /// point, so handing upcalls over allocates nothing.
    upcalls: VecDeque<Upcall>,
    /// Set on crash injection: all activity ceases.
    dead: bool,
    /// Clock-drift fault (§5.3): scheduled events are postponed by this
    /// factor and measured durations scaled down by it. 1.0 = no fault.
    drift: f64,
    /// Scheduling-latency fault (§5.3): random extra delay added to events
    /// scheduled in the future.
    sched_latency: Option<(Duration, rand::rngs::SmallRng)>,
}

struct Shared {
    gcs: RefCell<Gcs>,
    /// Kept for [`SimBridge::revive`]: a restart builds a fresh
    /// [`Gcs::rejoin`] instance from the original configuration.
    cfg: GcsConfig,
    maps: RefCell<Maps>,
    net: Network,
    cpu: CpuBank,
    me: NodeId,
    addr: Addr,
    peers: Vec<Addr>,
    group: GroupId,
}

/// The simulation-side implementation of the protocol abstraction layer.
///
/// Construction wires a [`Gcs`] instance to a host of a simulated
/// [`Network`] and a [`CpuBank`]; [`SimBridge::start`] kicks the protocol
/// off. Clones share the same node.
#[derive(Clone)]
pub struct SimBridge {
    shared: Rc<Shared>,
}

struct SimRt<'a, 'b> {
    ctx: &'a mut RealContext<'b>,
    shared: &'a Rc<Shared>,
}

impl ProtocolRuntime for SimRt<'_, '_> {
    fn now_nanos(&mut self) -> u64 {
        self.ctx.now().as_nanos()
    }

    fn set_timer(&mut self, delay: Duration, kind: TimerKind) -> TimerId {
        let (id, delay) = {
            let mut maps = self.shared.maps.borrow_mut();
            let id = maps.next_timer;
            maps.next_timer += 1;
            // Fault injection: postpone by the drift rate, add random
            // scheduling latency.
            let mut d = dbsm_sim::scale_duration(delay, maps.drift);
            if let Some((max, rng)) = maps.sched_latency.as_mut() {
                let extra = rng.gen_range(0.0..1.0) * max.as_secs_f64();
                d += Duration::from_secs_f64(extra);
            }
            (id, d)
        };
        let bridge = SimBridge { shared: self.shared.clone() };
        let ev = self.ctx.schedule(delay, move || bridge.fire_timer(id, kind));
        self.shared.maps.borrow_mut().timers.insert(id, ev);
        TimerId(id)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        if let Some(ev) = self.shared.maps.borrow_mut().timers.remove(id.0) {
            self.ctx.cancel(ev);
        }
    }

    fn unicast(&mut self, to: NodeId, payload: Bytes) {
        self.ctx.charge(OVERHEAD.send_cost(payload.len()));
        let from = self.shared.addr;
        let dest = Dest::Unicast(self.shared.peers[to.0 as usize]);
        let net = self.shared.net.clone();
        // The packet leaves the host at the current point *inside* the job
        // (start + Δ₁), per Fig. 1(b).
        self.ctx.schedule(Duration::ZERO, move || net.send(from, dest, payload));
    }

    fn multicast(&mut self, payload: Bytes) {
        self.ctx.charge(OVERHEAD.send_cost(payload.len()));
        let from = self.shared.addr;
        let dest = Dest::Multicast(self.shared.group, self.shared.addr.port);
        let net = self.shared.net.clone();
        self.ctx.schedule(Duration::ZERO, move || net.send(from, dest, payload));
    }

    fn charge(&mut self, cost: Duration) {
        let drift = self.shared.maps.borrow().drift;
        self.ctx.charge(dbsm_sim::scale_duration(cost, 1.0 / drift));
    }
}

impl SimBridge {
    /// Creates a bridge for group member `me`, bound to `addr` on the
    /// simulated network, running protocol jobs on `cpu`. `peers[i]` is the
    /// address of node `i`; the bridge joins `group` for multicast.
    ///
    /// # Panics
    ///
    /// Panics if binding `addr` fails (configuration error).
    pub fn new(
        me: NodeId,
        cfg: GcsConfig,
        net: &Network,
        cpu: &CpuBank,
        addr: Addr,
        peers: Vec<Addr>,
        group: GroupId,
    ) -> Self {
        let shared = Rc::new(Shared {
            gcs: RefCell::new(Gcs::new(me, cfg.clone())),
            cfg,
            maps: RefCell::new(Maps {
                next_timer: 0,
                timers: SeqRing::default(),
                handler: None,
                upcalls: VecDeque::new(),
                dead: false,
                drift: 1.0,
                sched_latency: None,
            }),
            net: net.clone(),
            cpu: cpu.clone(),
            me,
            addr,
            peers,
            group,
        });
        net.join_group(addr.host, group);
        let weak = Rc::downgrade(&shared);
        net.bind(addr, move |dg| {
            if let Some(shared) = weak.upgrade() {
                SimBridge { shared }.on_datagram(dg.payload);
            }
        })
        .expect("bridge address must be free");
        SimBridge { shared }
    }

    /// Registers the upcall handler (deliveries, view changes).
    pub fn set_handler(&self, handler: UpcallHandler) {
        self.shared.maps.borrow_mut().handler = Some(handler);
    }

    /// The node this bridge serves.
    pub fn node(&self) -> NodeId {
        self.shared.me
    }

    /// Starts the protocol (arms timers, reports the initial view).
    pub fn start(&self) {
        let this = self.clone();
        self.shared.cpu.submit_real(Box::new(move |ctx| {
            this.with_gcs(ctx, |gcs, rt| gcs.on_start(rt));
        }));
    }

    /// Atomically multicasts an application payload, submitting the protocol
    /// work as a real job.
    pub fn broadcast(&self, payload: Bytes) {
        let this = self.clone();
        self.shared.cpu.submit_real(Box::new(move |ctx| {
            this.with_gcs(ctx, |gcs, rt| gcs.broadcast(rt, payload));
        }));
    }

    /// Like [`broadcast`](SimBridge::broadcast) but from code already running
    /// inside a real job (shares its CPU accounting).
    pub fn broadcast_in(&self, ctx: &mut RealContext<'_>, payload: Bytes) {
        self.with_gcs(ctx, |gcs, rt| gcs.broadcast(rt, payload));
    }

    /// Casts a certification vote (see [`Gcs::cast_vote`]), submitting the
    /// protocol work as a real job. Safe to call from inside an upcall
    /// handler: the job runs after the handler returns, so the loopback
    /// `Upcall::Vote` is dispatched instead of being silently dropped by the
    /// re-entrancy guard in `with_gcs`.
    pub fn cast_vote(&self, origin: u16, txn: u64, conflict: Option<u64>) {
        let this = self.clone();
        self.shared.cpu.submit_real(Box::new(move |ctx| {
            this.with_gcs(ctx, |gcs, rt| gcs.cast_vote(rt, origin, txn, conflict));
        }));
    }

    /// Protocol metrics snapshot.
    pub fn metrics(&self) -> GcsMetrics {
        self.shared.gcs.borrow().metrics()
    }

    /// The next sequence number this node's vote stream will assign (see
    /// [`Gcs::vote_seq`]). Votes already cast sit strictly below it — the
    /// re-collection machinery uses this as the staleness threshold when a
    /// view change forces a vote round to be re-collected against a new
    /// span owner.
    pub fn vote_seq(&self) -> u64 {
        self.shared.gcs.borrow().vote_seq()
    }

    /// Current view.
    pub fn view(&self) -> crate::types::View {
        self.shared.gcs.borrow().view()
    }

    /// Clock-drift fault injection (§5.3): future events are postponed by
    /// `rate` and measured durations scaled down by it.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    pub fn set_clock_drift(&self, rate: f64) {
        assert!(rate > 0.0, "drift rate must be positive");
        self.shared.maps.borrow_mut().drift = rate;
    }

    /// Scheduling-latency fault injection (§5.3): adds a uniform random
    /// delay in `[0, max)` to every event scheduled in the future.
    pub fn set_sched_latency(&self, max: Duration, seed: u64) {
        self.shared.maps.borrow_mut().sched_latency =
            Some((max, rand::rngs::SmallRng::seed_from_u64(seed)));
    }

    /// Crash injection: silences the node instantly (no packets, no timers).
    pub fn kill(&self) {
        self.shared.maps.borrow_mut().dead = true;
        self.shared.net.set_host_down(self.shared.addr.host, true);
    }

    /// Restart injection: brings a [killed](SimBridge::kill) node back as a
    /// *fresh* protocol incarnation that rejoins the group via
    /// [`Gcs::rejoin`] — announces itself, receives a grant, and resumes in
    /// the next view. All pre-crash volatile state is gone; timer ids from
    /// the previous incarnation are invalidated (their events fire into the
    /// void). No-op unless the node is dead.
    pub fn revive(&self) {
        {
            let mut maps = self.shared.maps.borrow_mut();
            if !maps.dead {
                return;
            }
            maps.dead = false;
            // Orphan every pre-crash timer: `fire_timer` skips ids absent
            // from the map. `next_timer` keeps counting, so new timers
            // never collide with orphaned ids.
            maps.timers.clear();
        }
        self.shared.net.set_host_down(self.shared.addr.host, false);
        *self.shared.gcs.borrow_mut() = Gcs::rejoin(self.shared.me, self.shared.cfg.clone());
        let this = self.clone();
        self.shared.cpu.submit_real(Box::new(move |ctx| {
            this.with_gcs(ctx, |gcs, rt| gcs.on_start(rt));
        }));
    }

    fn on_datagram(&self, payload: Bytes) {
        if self.shared.maps.borrow().dead {
            return;
        }
        let this = self.clone();
        self.shared.cpu.submit_real(Box::new(move |ctx| {
            // Receive overhead: the CSRT's fixed + per-byte parameters.
            ctx.charge(OVERHEAD.recv_cost(payload.len()));
            this.with_gcs(ctx, |gcs, rt| gcs.on_packet(rt, payload));
        }));
    }

    fn fire_timer(&self, id: u64, kind: TimerKind) {
        if self.shared.maps.borrow().dead {
            return;
        }
        // A missing id means the timer belongs to a pre-restart incarnation
        // (orphaned by `revive`) — drop it.
        if self.shared.maps.borrow_mut().timers.remove(id).is_none() {
            return;
        }
        let this = self.clone();
        self.shared.cpu.submit_real(Box::new(move |ctx| {
            this.with_gcs(ctx, |gcs, rt| gcs.on_timer(rt, kind));
        }));
    }

    fn with_gcs(
        &self,
        ctx: &mut RealContext<'_>,
        f: impl FnOnce(&mut Gcs, &mut dyn ProtocolRuntime),
    ) {
        if self.shared.maps.borrow().dead {
            return;
        }
        let mut upcalls = std::mem::take(&mut self.shared.maps.borrow_mut().upcalls);
        {
            let mut gcs = self.shared.gcs.borrow_mut();
            let mut rt = SimRt { ctx, shared: &self.shared };
            f(&mut gcs, &mut rt);
            gcs.swap_upcalls(&mut upcalls);
        }
        if !upcalls.is_empty() {
            // Dispatch with the handler temporarily taken out, so handlers
            // can re-enter the bridge (e.g. broadcast from a delivery).
            let mut handler = self.shared.maps.borrow_mut().handler.take();
            if let Some(h) = handler.as_mut() {
                for u in upcalls.drain(..) {
                    h(ctx, u);
                }
            }
            upcalls.clear(); // no handler: nobody to hand them to
            let mut maps = self.shared.maps.borrow_mut();
            if maps.handler.is_none() {
                maps.handler = handler;
            }
        }
        self.shared.maps.borrow_mut().upcalls = upcalls;
    }
}

impl std::fmt::Debug for SimBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBridge").field("node", &self.shared.me).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsm_net::{NetworkBuilder, Port, SegmentConfig};
    use dbsm_sim::{ProfilerMode, Sim};

    /// Per-node log of `(sender, payload)` deliveries.
    type DeliveryLog = Rc<RefCell<Vec<Vec<(NodeId, Bytes)>>>>;

    /// Builds an n-node group over a simulated LAN; returns upcall logs.
    fn build(n: usize, cfg: GcsConfig) -> (Sim, Vec<SimBridge>, DeliveryLog, Network) {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let hosts: Vec<_> = (0..n).map(|_| b.host(lan)).collect();
        let net = b.build();
        let port = Port(7000);
        let peers: Vec<Addr> = hosts.iter().map(|h| Addr::new(*h, port)).collect();
        let group = GroupId(1);
        let delivered: DeliveryLog = Rc::new(RefCell::new(vec![Vec::new(); n]));
        let mut bridges = Vec::new();
        for i in 0..n {
            let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
            let bridge = SimBridge::new(
                NodeId(i as u16),
                cfg.clone(),
                &net,
                &cpu,
                peers[i],
                peers.clone(),
                group,
            );
            let log = delivered.clone();
            bridge.set_handler(Box::new(move |_ctx, up| {
                if let Upcall::Deliver { origin, payload, .. } = up {
                    log.borrow_mut()[i].push((origin, payload));
                }
            }));
            bridge.start();
            bridges.push(bridge);
        }
        (sim, bridges, delivered, net)
    }

    #[test]
    fn end_to_end_total_order_over_simulated_lan() {
        let (sim, bridges, delivered, _net) = build(3, GcsConfig::lan(3));
        for i in 0..6u64 {
            let b = bridges[(i % 3) as usize].clone();
            sim.schedule_at(dbsm_sim::SimTime::from_millis(i), move || {
                b.broadcast(Bytes::from(i.to_le_bytes().to_vec()));
            });
        }
        sim.run_until(dbsm_sim::SimTime::from_secs(2));
        let logs = delivered.borrow();
        assert_eq!(logs[0].len(), 6);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
    }

    #[test]
    fn protocol_work_charges_the_simulated_cpu() {
        let (sim, bridges, _delivered, _net) = build(2, GcsConfig::lan(2));
        bridges[0].broadcast(Bytes::from_static(b"x"));
        sim.run_until(dbsm_sim::SimTime::from_millis(500));
        let m = bridges[0].metrics();
        assert_eq!(m.app_sent, 1);
        assert_eq!(m.delivered, 1);
    }

    #[test]
    fn kill_silences_a_node_and_survivors_reconfigure() {
        let (sim, bridges, delivered, _net) = build(3, GcsConfig::lan(3));
        bridges[2].broadcast(Bytes::from_static(b"pre"));
        sim.run_until(dbsm_sim::SimTime::from_millis(200));
        bridges[2].kill();
        sim.run_until(dbsm_sim::SimTime::from_secs(3));
        assert_eq!(bridges[0].view().members.len(), 2, "view {:?}", bridges[0].view());
        {
            let logs = delivered.borrow();
            assert_eq!(logs[0], logs[1]);
            assert_eq!(logs[0].len(), 1);
        }
        bridges[0].broadcast(Bytes::from_static(b"post"));
        sim.run_until(dbsm_sim::SimTime::from_secs(4));
        let logs = delivered.borrow();
        assert_eq!(logs[0].len(), 2);
        assert_eq!(logs[0], logs[1]);
    }

    #[test]
    fn kill_then_revive_rejoins_and_delivers_new_messages() {
        let (sim, bridges, delivered, _net) = build(3, GcsConfig::lan(3));
        bridges[2].broadcast(Bytes::from_static(b"pre"));
        sim.run_until(dbsm_sim::SimTime::from_millis(200));
        bridges[2].kill();
        sim.run_until(dbsm_sim::SimTime::from_secs(3));
        assert_eq!(bridges[0].view().members.len(), 2, "crash removes the node");

        bridges[2].revive();
        sim.run_until(dbsm_sim::SimTime::from_secs(6));
        for b in &bridges {
            assert_eq!(b.view().members.len(), 3, "node {:?}: {:?}", b.node(), b.view());
        }
        assert_eq!(bridges[0].view(), bridges[2].view(), "rejoiner adopted the granted view");

        bridges[0].broadcast(Bytes::from_static(b"post"));
        sim.run_until(dbsm_sim::SimTime::from_secs(7));
        let logs = delivered.borrow();
        assert_eq!(logs[0].len(), 2);
        assert_eq!(logs[0], logs[1]);
        // "pre" was delivered by the first incarnation before the crash;
        // the fresh incarnation adds only post-rejoin traffic (catching up
        // on anything missed while dead is the application-level state
        // transfer's job).
        assert_eq!(
            logs[2].iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(),
            vec![Bytes::from_static(b"pre"), Bytes::from_static(b"post")]
        );
    }

    #[test]
    fn delivery_under_receive_loss() {
        let (sim, bridges, delivered, net) = build(3, GcsConfig::lan(3));
        net.add_loss(dbsm_net::HostId(1), Box::new(dbsm_net::RandomLoss::new(0.05, 42)));
        for i in 0..30u64 {
            let b = bridges[(i % 3) as usize].clone();
            sim.schedule_at(dbsm_sim::SimTime::from_millis(i * 5), move || {
                b.broadcast(Bytes::from(i.to_le_bytes().to_vec()));
            });
        }
        sim.run_until(dbsm_sim::SimTime::from_secs(5));
        let logs = delivered.borrow();
        assert_eq!(logs[0].len(), 30);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
    }
}
