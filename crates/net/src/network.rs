//! The network state machine: the LAN, hosts, sockets, transmission and
//! delivery. This plays the role SSFNet plays in the paper (§2.1): a
//! configurable model of NICs, links and protocol endpoints, with drops
//! counted per cause in [`TrafficStats`].
//!
//! ## Transmission model
//!
//! The network is one shared LAN channel with every host attached to it, as
//! the paper's testbed was one switched LAN (§4.1). A transmission occupies
//! the channel for `wire_bytes × 8 / bandwidth`, transmissions queue FIFO
//! (modelled by a `busy_until` watermark), and delivery happens one
//! propagation latency after serialization completes. If the backlog behind
//! the watermark exceeds the configured buffer (expressed in time), the
//! packet is dropped — drop-tail queueing. A unicast arrival is one event;
//! so is a multicast arrival, which delivers to every group member in
//! host-id order, with the receivers chosen at send time. That is the
//! instant and order separate per-receiver events would run in, as their
//! sequence numbers would be consecutive: whatever a receiver schedules for
//! the arrival instant runs after the last receiver. Loss and duplication
//! draw per receiver, and each duplicate copy is an event of its own.
//! Frames above the MTU are dropped and counted: the paper found SSFNet did
//! *not* enforce the Ethernet MTU for UDP and had to restrict packet sizes;
//! we enforce it so misconfigured protocols fail loudly in the same way the
//! real system would.

use crate::addr::{Addr, GroupId, HostId, Port};
use crate::loss::LossModel;
use crate::monitor::{DropCause, TrafficStats};
use crate::packet::{wire_bytes, Datagram, Dest};
use bytes::Bytes;
use dbsm_sim::{Sim, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Configuration of the LAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentConfig {
    /// Link bandwidth in bits per second (e.g. `100_000_000` for Fast
    /// Ethernet, the paper's test network).
    pub bandwidth_bps: f64,
    /// One-way propagation + switching latency.
    pub latency: Duration,
    /// Maximum frame size (payload + headers) in bytes.
    pub mtu: usize,
    /// Maximum transmit backlog, expressed as channel time; packets that
    /// would queue beyond this are dropped (drop-tail).
    pub tx_buffer: Duration,
}

impl SegmentConfig {
    /// A 100 Mbps switched Ethernet LAN with 50 µs latency and 1500-byte MTU
    /// — the paper's test environment (§4.1).
    pub fn fast_ethernet() -> Self {
        SegmentConfig {
            bandwidth_bps: 100_000_000.0,
            latency: Duration::from_micros(50),
            mtu: 1500,
            tx_buffer: Duration::from_millis(20),
        }
    }

    fn serialization(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

type Handler = Rc<RefCell<dyn FnMut(Datagram)>>;

/// Receive-side duplicate-delivery fault: each arriving packet is
/// redelivered (1..=`max_copies` extra copies) with probability `p`.
struct DupModel {
    p: f64,
    max_copies: u8,
    rng: SmallRng,
}

struct HostState {
    down: bool,
    /// Stacked receive-side loss models: a packet is dropped if *any* of
    /// them says so. Every model sees every arrival (no short-circuit), so
    /// stateful schedules advance identically whether or not another model
    /// already dropped the packet.
    losses: Vec<Box<dyn LossModel>>,
    dup: Option<DupModel>,
    /// Bound sockets and joined groups: a handful per host, so a linear
    /// search beats hashing.
    sockets: Vec<(Port, Handler)>,
    groups: Vec<GroupId>,
}

struct NetState {
    lan: SegmentConfig,
    /// Channel watermark: transmissions queue FIFO behind it.
    busy_until: SimTime,
    hosts: Vec<HostState>,
    stats: TrafficStats,
    /// Active partition, indexed by host id: the host's partition group, or
    /// `None` for a host listed in no group. Hosts in no group (or in
    /// different groups) cannot reach each other. `None` = healed.
    partition: Option<Vec<Option<u32>>>,
}

/// Error binding a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// The port already has a socket bound on this host.
    PortInUse(Port),
    /// Unknown host id.
    NoSuchHost(HostId),
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::PortInUse(p) => write!(f, "port {} already bound", p.0),
            BindError::NoSuchHost(h) => write!(f, "no such host {h}"),
        }
    }
}

impl std::error::Error for BindError {}

/// Handle to the simulated network. Clones share state.
///
/// Constructed through [`NetworkBuilder`](crate::NetworkBuilder).
#[derive(Clone)]
pub struct Network {
    sim: Sim,
    state: Rc<RefCell<NetState>>,
}

impl Network {
    pub(crate) fn from_parts(sim: Sim, lan: SegmentConfig, n_hosts: usize) -> Self {
        let hosts = (0..n_hosts)
            .map(|_| HostState {
                down: false,
                losses: Vec::new(),
                dup: None,
                sockets: Vec::new(),
                groups: Vec::new(),
            })
            .collect();
        let state = NetState {
            lan,
            busy_until: SimTime::ZERO,
            hosts,
            stats: TrafficStats::new(n_hosts),
            partition: None,
        };
        Network { sim, state: Rc::new(RefCell::new(state)) }
    }

    /// The simulation this network is attached to.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.state.borrow().hosts.len()
    }

    /// Binds a receive handler at `addr`. The handler runs at delivery time;
    /// it may send packets and schedule events.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::PortInUse`] if the port is taken, or
    /// [`BindError::NoSuchHost`] for an unknown host.
    pub fn bind(
        &self,
        addr: Addr,
        handler: impl FnMut(Datagram) + 'static,
    ) -> Result<(), BindError> {
        let mut st = self.state.borrow_mut();
        let host =
            st.hosts.get_mut(addr.host.0 as usize).ok_or(BindError::NoSuchHost(addr.host))?;
        if host.sockets.iter().any(|(p, _)| *p == addr.port) {
            return Err(BindError::PortInUse(addr.port));
        }
        host.sockets.push((addr.port, Rc::new(RefCell::new(handler))));
        Ok(())
    }

    /// Joins `host` to a multicast group.
    pub fn join_group(&self, host: HostId, group: GroupId) {
        let groups = &mut self.state.borrow_mut().hosts[host.0 as usize].groups;
        if !groups.contains(&group) {
            groups.push(group);
        }
    }

    /// Installs a receive-side loss model on a host (fault injection),
    /// stacked on any installed before: a packet is dropped if *any*
    /// installed model drops it, and every model observes every arrival
    /// (stateful burst schedules advance regardless of the other models'
    /// verdicts). This is how composed fault plans — e.g. random loss on top
    /// of a correlated burst — coexist on one site.
    pub fn add_loss(&self, host: HostId, model: Box<dyn LossModel>) {
        self.state.borrow_mut().hosts[host.0 as usize].losses.push(model);
    }

    /// Installs the duplicate-delivery fault on a host: each packet arriving
    /// at `host` is redelivered — 1..=`max_copies` extra copies, spaced
    /// 50 µs apart — with probability `p`. Copies traverse the receive path
    /// like any packet (the loss model applies to each independently), so
    /// the protocol above must absorb them.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `max_copies` is zero.
    pub fn set_duplication(&self, host: HostId, p: f64, max_copies: u8, seed: u64) {
        assert!((0.0..=1.0).contains(&p), "duplication probability out of range: {p}");
        assert!(max_copies >= 1, "max_copies must be at least 1");
        self.state.borrow_mut().hosts[host.0 as usize].dup =
            Some(DupModel { p, max_copies, rng: SmallRng::seed_from_u64(seed) });
    }

    /// Splits the network into isolated partition groups: two hosts can
    /// exchange packets only if they are in the same group. Hosts listed in
    /// no group are isolated from everyone. Packets still in flight across a
    /// new partition boundary are dropped at delivery time, modelling the
    /// switch cutting over. Replaces any earlier partition.
    pub fn set_partition(&self, groups: &[Vec<HostId>]) {
        let mut map = vec![None; self.n_hosts()];
        for (gi, group) in groups.iter().enumerate() {
            for h in group {
                let prev = map[usize::from(h.0)].replace(gi as u32);
                assert!(prev.is_none(), "host {h} listed in two partition groups");
            }
        }
        self.state.borrow_mut().partition = Some(map);
    }

    /// Heals an active partition: all hosts can reach each other again.
    pub fn clear_partition(&self) {
        self.state.borrow_mut().partition = None;
    }

    /// True if an active partition separates `a` from `b`.
    fn split(st: &NetState, a: HostId, b: HostId) -> bool {
        match &st.partition {
            None => false,
            Some(map) => {
                let group = |h: HostId| map[usize::from(h.0)];
                match (group(a), group(b)) {
                    (Some(ga), Some(gb)) => ga != gb,
                    // An unlisted host sits in no group: unreachable.
                    _ => true,
                }
            }
        }
    }

    /// Marks a host up or down. A down host neither sends nor receives.
    pub fn set_host_down(&self, host: HostId, down: bool) {
        self.state.borrow_mut().hosts[host.0 as usize].down = down;
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.state.borrow().stats.clone()
    }

    /// Sends `payload` from `from` to `dest`. Losses, MTU violations and
    /// queue overflows are recorded in [`stats`](Network::stats) rather than
    /// reported to the caller — exactly the feedback a UDP sender gets.
    ///
    /// # Panics
    ///
    /// Panics if either end names a host the builder did not create.
    pub fn send(&self, from: Addr, dest: Dest, payload: Bytes) {
        let now = self.sim.now();
        let wire = wire_bytes(payload.len());
        let mut st = self.state.borrow_mut();
        if let Dest::Unicast(to) = dest {
            assert!(usize::from(to.host.0) < st.hosts.len(), "unicast to unknown host {}", to.host);
        }
        if st.hosts[from.host.0 as usize].down {
            st.stats.on_drop(DropCause::HostDown);
            return;
        }
        let lan = st.lan;
        let backlog = st.busy_until.saturating_duration_since(now);
        let start = st.busy_until.max(now);
        let finish = start + lan.serialization(wire);
        let arrive = finish + lan.latency;
        if wire > lan.mtu {
            st.stats.on_drop(DropCause::Mtu);
            return;
        }
        if backlog > lan.tx_buffer {
            st.stats.on_drop(DropCause::TxOverflow);
            return;
        }
        st.busy_until = finish;
        st.stats.on_tx(from.host.0 as usize, wire);
        // Schedule the arrival still under the borrow: the sim's queue is a
        // cell of its own, and nothing runs until later.
        let this = self.clone();
        match dest {
            Dest::Unicast(to) => {
                self.sim.schedule_at(arrive, move || {
                    this.deliver(from, to, None, payload, wire, false)
                });
            }
            Dest::Multicast(group, port) => {
                // Receivers are chosen now, at send time, in host-id order.
                let mut receivers: Vec<HostId> = (0..st.hosts.len() as u16)
                    .map(HostId)
                    .filter(|&h| h != from.host && st.hosts[h.0 as usize].groups.contains(&group))
                    .collect();
                if let Some(last) = receivers.pop() {
                    self.sim.schedule_at(arrive, move || {
                        let deliver = |h: HostId, payload: Bytes| {
                            this.deliver(
                                from,
                                Addr::new(h, port),
                                Some(group),
                                payload,
                                wire,
                                false,
                            )
                        };
                        for h in receivers {
                            deliver(h, payload.clone());
                        }
                        deliver(last, payload);
                    });
                }
            }
        }
    }

    fn deliver(
        &self,
        from: Addr,
        to: Addr,
        group: Option<GroupId>,
        payload: Bytes,
        wire: usize,
        dup: bool,
    ) {
        let now = self.sim.now();
        let (handler, copies): (Option<Handler>, u32) = {
            let mut st = self.state.borrow_mut();
            if Self::split(&st, from.host, to.host) {
                st.stats.on_drop(DropCause::Partition);
                return;
            }
            let host = &mut st.hosts[to.host.0 as usize];
            if host.down {
                st.stats.on_drop(DropCause::HostDown);
                return;
            }
            // Duplicate draw happens *before* the loss model and only for
            // originals: the network redelivers regardless of whether this
            // copy is then lost, but copies do not multiply further.
            let draw = |d: &mut DupModel| {
                if d.rng.gen_bool(d.p) {
                    u32::from(d.rng.gen_range(1..=d.max_copies))
                } else {
                    0
                }
            };
            let copies = if dup { 0 } else { host.dup.as_mut().map_or(0, draw) };
            if copies > 0 {
                st.stats.on_dup(u64::from(copies));
            }
            let host = &mut st.hosts[to.host.0 as usize];
            let mut lost = false;
            for model in &mut host.losses {
                // No short-circuit: every model sees every packet.
                lost |= model.should_drop(now, wire);
            }
            if lost {
                st.stats.on_drop(DropCause::LossModel);
                (None, copies)
            } else {
                match host.sockets.iter().find(|(p, _)| *p == to.port) {
                    Some((_, h)) => (Some(h.clone()), copies),
                    None => {
                        st.stats.on_drop(DropCause::NoSocket);
                        (None, copies)
                    }
                }
            }
        };
        for c in 1..=copies {
            let this = self.clone();
            let payload = payload.clone();
            self.sim.schedule_in(Duration::from_micros(50 * u64::from(c)), move || {
                this.deliver(from, to, group, payload, wire, true)
            });
        }
        if let Some(h) = handler {
            let dg = Datagram { from, to, group, payload };
            (h.borrow_mut())(dg);
        }
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Network").field("hosts", &st.hosts.len()).field("lan", &st.lan).finish()
    }
}
