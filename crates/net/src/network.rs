//! The network state machine: segments, hosts, sockets, transmission and
//! delivery. This plays the role SSFNet plays in the paper (§2.1): a
//! configurable model of NICs, links and protocol endpoints, with event
//! logging.
//!
//! ## Transmission model
//!
//! Each segment is a shared channel (classic Ethernet bus or a full-duplex
//! point-to-point pair). A transmission occupies the channel for
//! `wire_bytes × 8 / bandwidth`, transmissions queue FIFO (modelled by a
//! `busy_until` watermark), and delivery happens one propagation latency
//! after serialization completes. If the backlog behind the watermark
//! exceeds the configured buffer (expressed in time), the packet is dropped —
//! drop-tail queueing. Frames above the MTU are dropped and counted: the
//! paper found SSFNet did *not* enforce the Ethernet MTU for UDP and had to
//! restrict packet sizes; we enforce it so misconfigured protocols fail
//! loudly in the same way the real system would.

use crate::addr::{Addr, GroupId, HostId, Port};
use crate::loss::LossModel;
use crate::monitor::{DropCause, TrafficStats};
use crate::packet::{wire_bytes, Datagram, Dest};
use bytes::Bytes;
use dbsm_sim::{Sim, SimTime, Trace, TraceKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

/// Configuration of one network segment.
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

    /// A wide-area point-to-point link: configurable rate and delay, larger
    /// buffer (routers buffer more than NICs).
    pub fn wan(bandwidth_bps: f64, latency: Duration) -> Self {
        SegmentConfig { bandwidth_bps, latency, mtu: 1500, tx_buffer: Duration::from_millis(100) }
    }

    fn serialization(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

/// Kind of segment: a shared multicast-capable LAN or a point-to-point link.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SegmentKind {
    /// Shared bus: one channel, multicast delivers to all attached hosts.
    Lan { members: Vec<HostId> },
    /// Full-duplex pair: one channel per direction, no multicast.
    P2p { a: HostId, b: HostId },
}

struct Segment {
    config: SegmentConfig,
    kind: SegmentKind,
    /// Channel watermark(s): LAN uses `busy[0]`; P2P uses one per direction
    /// (index 0 = a→b, 1 = b→a).
    busy_until: [SimTime; 2],
}

impl Segment {
    fn channel_index(&self, from: HostId) -> usize {
        match &self.kind {
            SegmentKind::Lan { .. } => 0,
            SegmentKind::P2p { a, .. } => usize::from(from != *a),
        }
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
    /// Bound sockets and joined groups are only ever looked up by key —
    /// delivery fans out over the segment's hosts in id order — so hash
    /// containers are safe here.
    #[allow(clippy::disallowed_types)]
    sockets: std::collections::HashMap<Port, Handler>,
    #[allow(clippy::disallowed_types)]
    groups: std::collections::HashSet<GroupId>,
    /// Segments this host is attached to, in attachment order.
    segments: Vec<usize>,
}

struct NetState {
    segments: Vec<Segment>,
    hosts: Vec<HostState>,
    stats: TrafficStats,
    /// Active partition: host id → segment group. Hosts absent from the map
    /// (or in different groups) cannot reach each other. `None` = healed.
    /// Looked up by host id only, never iterated.
    #[allow(clippy::disallowed_types)]
    partition: Option<std::collections::HashMap<u16, u32>>,
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
    trace: Trace,
}

impl Network {
    pub(crate) fn from_parts(
        sim: Sim,
        segments: Vec<(SegmentConfig, Vec<HostId>, bool)>,
        n_hosts: usize,
        trace: Trace,
    ) -> Self {
        let mut hosts: Vec<HostState> = (0..n_hosts)
            .map(|_| HostState {
                down: false,
                losses: Vec::new(),
                dup: None,
                sockets: Default::default(),
                groups: Default::default(),
                segments: Vec::new(),
            })
            .collect();
        let mut segs = Vec::new();
        for (idx, (config, members, p2p)) in segments.into_iter().enumerate() {
            for h in &members {
                hosts[h.0 as usize].segments.push(idx);
            }
            let kind = if p2p {
                assert_eq!(members.len(), 2, "point-to-point link needs exactly two hosts");
                SegmentKind::P2p { a: members[0], b: members[1] }
            } else {
                SegmentKind::Lan { members }
            };
            segs.push(Segment { config, kind, busy_until: [SimTime::ZERO; 2] });
        }
        let state =
            NetState { segments: segs, hosts, stats: TrafficStats::new(n_hosts), partition: None };
        Network { sim, state: Rc::new(RefCell::new(state)), trace }
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
        if host.sockets.contains_key(&addr.port) {
            return Err(BindError::PortInUse(addr.port));
        }
        host.sockets.insert(addr.port, Rc::new(RefCell::new(handler)));
        Ok(())
    }

    /// Removes the socket at `addr`, if any.
    pub fn unbind(&self, addr: Addr) {
        let mut st = self.state.borrow_mut();
        if let Some(h) = st.hosts.get_mut(addr.host.0 as usize) {
            h.sockets.remove(&addr.port);
        }
    }

    /// Joins `host` to a multicast group.
    pub fn join_group(&self, host: HostId, group: GroupId) {
        self.state.borrow_mut().hosts[host.0 as usize].groups.insert(group);
    }

    /// Removes `host` from a multicast group.
    pub fn leave_group(&self, host: HostId, group: GroupId) {
        self.state.borrow_mut().hosts[host.0 as usize].groups.remove(&group);
    }

    /// Installs a receive-side loss model on a host (fault injection),
    /// replacing any previously installed models. Use
    /// [`Network::add_loss`] to stack models instead.
    pub fn set_loss(&self, host: HostId, model: Box<dyn LossModel>) {
        self.state.borrow_mut().hosts[host.0 as usize].losses = vec![model];
    }

    /// Stacks an additional receive-side loss model on a host: a packet is
    /// dropped if *any* installed model drops it, and every model observes
    /// every arrival (stateful burst schedules advance regardless of the
    /// other models' verdicts). This is how composed fault plans — e.g.
    /// random loss on top of a correlated burst — coexist on one site.
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

    /// Splits the network into isolated partition segments: two hosts can
    /// exchange packets only if they are in the same group. Hosts listed in
    /// no group are isolated from everyone. Packets still in flight across a
    /// new partition boundary are dropped at delivery time, modelling the
    /// switch cutting over. Replaces any earlier partition.
    pub fn set_partition(&self, groups: &[Vec<HostId>]) {
        #[allow(clippy::disallowed_types)] // keyed-only, see `NetState::partition`
        let mut map = std::collections::HashMap::new();
        for (gi, group) in groups.iter().enumerate() {
            for h in group {
                let prev = map.insert(h.0, gi as u32);
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
    pub fn is_partitioned(&self, a: HostId, b: HostId) -> bool {
        Self::split(&self.state.borrow(), a, b)
    }

    fn split(st: &NetState, a: HostId, b: HostId) -> bool {
        match &st.partition {
            None => false,
            Some(map) => match (map.get(&a.0), map.get(&b.0)) {
                (Some(ga), Some(gb)) => ga != gb,
                // An unlisted host sits in no segment: unreachable.
                _ => true,
            },
        }
    }

    /// Marks a host up or down. A down host neither sends nor receives.
    pub fn set_host_down(&self, host: HostId, down: bool) {
        self.state.borrow_mut().hosts[host.0 as usize].down = down;
    }

    /// True if the host is marked down.
    pub fn is_host_down(&self, host: HostId) -> bool {
        self.state.borrow().hosts[host.0 as usize].down
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.state.borrow().stats.clone()
    }

    /// Sends `payload` from `from` to `dest`. Losses, MTU violations and
    /// queue overflows are recorded in [`stats`](Network::stats) rather than
    /// reported to the caller — exactly the feedback a UDP sender gets.
    pub fn send(&self, from: Addr, dest: Dest, payload: Bytes) {
        let now = self.sim.now();
        let wire = wire_bytes(payload.len());
        // Phase 1: admission + serialization under the borrow.
        let deliveries: Vec<(Addr, Option<GroupId>, SimTime)> = {
            let mut st = self.state.borrow_mut();
            if st.hosts[from.host.0 as usize].down {
                st.stats.on_drop(DropCause::HostDown);
                return;
            }
            let seg_idx = match self.route(&st, from.host, &dest) {
                Some(i) => i,
                None => {
                    st.stats.on_drop(DropCause::NoRoute);
                    self.trace.record_with(now, TraceKind::PacketDropped, || {
                        format!("{from}->{dest:?}: no route")
                    });
                    return;
                }
            };
            let seg = &st.segments[seg_idx];
            let mtu = seg.config.mtu;
            let ch = seg.channel_index(from.host);
            let backlog = seg.busy_until[ch].saturating_duration_since(now);
            let tx_buffer = seg.config.tx_buffer;
            let start = seg.busy_until[ch].max(now);
            let finish = start + seg.config.serialization(wire);
            let arrive = finish + seg.config.latency;
            if wire > mtu {
                st.stats.on_drop(DropCause::Mtu);
                self.trace.record_with(now, TraceKind::PacketDropped, || {
                    format!("{from}->{dest:?}: frame {wire}B exceeds MTU {mtu}")
                });
                return;
            }
            if backlog > tx_buffer {
                st.stats.on_drop(DropCause::TxOverflow);
                self.trace.record_with(now, TraceKind::PacketDropped, || {
                    format!("{from}->{dest:?}: tx overflow ({backlog:?} backlog)")
                });
                return;
            }
            st.segments[seg_idx].busy_until[ch] = finish;
            st.stats.on_tx(from.host.0 as usize, wire);
            self.trace.record_with(now, TraceKind::PacketSent, || {
                format!("{from}->{dest:?} {wire}B arrive={arrive}")
            });
            // Resolve receiver set.
            match dest {
                Dest::Unicast(to) => vec![(to, None, arrive)],
                Dest::Multicast(group, port) => {
                    let members: Vec<HostId> = match &st.segments[seg_idx].kind {
                        SegmentKind::Lan { members } => members.clone(),
                        SegmentKind::P2p { a, b } => vec![*a, *b],
                    };
                    members
                        .into_iter()
                        .filter(|h| *h != from.host)
                        .filter(|h| st.hosts[h.0 as usize].groups.contains(&group))
                        .map(|h| (Addr::new(h, port), Some(group), arrive))
                        .collect()
                }
            }
        };
        // Phase 2: schedule deliveries (outside the borrow).
        for (to, group, arrive) in deliveries {
            let this = self.clone();
            let payload = payload.clone();
            self.sim
                .schedule_at(arrive, move || this.deliver(from, to, group, payload, wire, false));
        }
    }

    /// Picks the segment shared by `from` and the destination.
    fn route(&self, st: &NetState, from: HostId, dest: &Dest) -> Option<usize> {
        let from_segs = &st.hosts[from.0 as usize].segments;
        match dest {
            Dest::Unicast(to) => {
                let to_segs = &st.hosts.get(to.host.0 as usize)?.segments;
                from_segs.iter().find(|s| to_segs.contains(s)).copied()
            }
            // Multicast goes out on the first LAN the sender is attached to.
            Dest::Multicast(..) => from_segs
                .iter()
                .find(|s| matches!(st.segments[**s].kind, SegmentKind::Lan { .. }))
                .copied(),
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
                self.trace.record_with(now, TraceKind::PacketDropped, || {
                    format!("{from}->{to}: partition")
                });
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
                self.trace.record_with(now, TraceKind::PacketDropped, || {
                    format!("{from}->{to}: loss model")
                });
                (None, copies)
            } else {
                match host.sockets.get(&to.port) {
                    Some(h) => {
                        let h = h.clone();
                        st.stats.on_rx(to.host.0 as usize, wire);
                        self.trace.record_with(now, TraceKind::PacketDelivered, || {
                            format!("{from}->{to} {wire}B{}", if dup { " (dup)" } else { "" })
                        });
                        (Some(h), copies)
                    }
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
        f.debug_struct("Network")
            .field("hosts", &st.hosts.len())
            .field("segments", &st.segments.len())
            .finish()
    }
}
