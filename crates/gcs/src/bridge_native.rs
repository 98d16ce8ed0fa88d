//! Bridge from the protocol abstraction to the native platform (§2.3): the
//! same [`Gcs`] code over `std::net::UdpSocket` and real time — the paper's
//! second implementation of the abstraction layer ("a bridge to the native
//! Java API", here the Rust standard library).
//!
//! The bridge is single-threaded: the caller drives it with
//! [`NativeBridge::step`] / [`NativeBridge::run_for`], which poll the socket
//! with a timeout derived from the earliest pending timer. Multicast is
//! realized as unicast fan-out so the bridge also works where IP multicast
//! is unavailable (loopback test rigs, most WANs) — the fallback the paper's
//! protocol prescribes for wide-area operation.

use crate::config::GcsConfig;
use crate::runtime::{ProtocolRuntime, TimerId, TimerKind};
use crate::stack::Gcs;
use crate::types::{GcsMetrics, NodeId, Upcall};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Native deployment description.
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// This node's id.
    pub me: NodeId,
    /// Socket addresses of every node, indexed by node id.
    pub peers: Vec<SocketAddr>,
    /// Protocol configuration.
    pub gcs: GcsConfig,
}

/// The native implementation of the protocol abstraction layer.
pub struct NativeBridge {
    gcs: Gcs,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    epoch: Instant,
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Timers set and neither fired nor cancelled: a popped timer fires only
    /// if it is still here.
    live: BTreeMap<u64, TimerKind>,
    next_timer: u64,
    upcalls: Vec<Upcall>,
    buf: Vec<u8>,
}

struct NativeRt<'a> {
    socket: &'a UdpSocket,
    peers: &'a [SocketAddr],
    me: NodeId,
    epoch: Instant,
    timers: &'a mut BinaryHeap<Reverse<(Instant, u64)>>,
    live: &'a mut BTreeMap<u64, TimerKind>,
    next_timer: &'a mut u64,
}

impl ProtocolRuntime for NativeRt<'_> {
    fn now_nanos(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn set_timer(&mut self, delay: Duration, kind: TimerKind) -> TimerId {
        let id = *self.next_timer;
        *self.next_timer += 1;
        let at = Instant::now() + delay;
        self.timers.push(Reverse((at, id)));
        self.live.insert(id, kind);
        TimerId(id)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.live.remove(&id.0);
    }

    fn unicast(&mut self, to: NodeId, payload: Bytes) {
        // UDP semantics: errors (e.g. peer not yet bound) are dropped
        // packets, exactly what the reliability layer exists to mask.
        let _ = self.socket.send_to(&payload, self.peers[to.0 as usize]);
    }

    fn multicast(&mut self, payload: Bytes) {
        for (i, addr) in self.peers.iter().enumerate() {
            if i != self.me.0 as usize {
                let _ = self.socket.send_to(&payload, addr);
            }
        }
    }

    fn charge(&mut self, _cost: Duration) {
        // Real cycles are spent here; nothing to account.
    }
}

impl NativeBridge {
    /// Binds the node's socket and starts the protocol.
    ///
    /// # Errors
    ///
    /// Returns any socket-creation error.
    pub fn new(config: NativeConfig) -> io::Result<Self> {
        let me = config.me;
        let socket = UdpSocket::bind(config.peers[me.0 as usize])?;
        socket.set_nonblocking(false)?;
        let mut bridge = NativeBridge {
            gcs: Gcs::new(me, config.gcs),
            socket,
            peers: config.peers,
            epoch: Instant::now(),
            timers: BinaryHeap::new(),
            live: BTreeMap::new(),
            next_timer: 0,
            upcalls: Vec::new(),
            buf: vec![0u8; 65536],
        };
        bridge.with_gcs(|g, rt| g.on_start(rt));
        Ok(bridge)
    }

    /// The node this bridge serves.
    pub fn node(&self) -> NodeId {
        self.gcs.node()
    }

    /// Protocol metrics snapshot.
    pub fn metrics(&self) -> GcsMetrics {
        self.gcs.metrics()
    }

    /// Atomically multicasts an application payload.
    pub fn broadcast(&mut self, payload: Bytes) {
        self.with_gcs(|g, rt| g.broadcast(rt, payload));
    }

    /// Removes and returns upcalls accumulated since the last call.
    pub fn drain_upcalls(&mut self) -> Vec<Upcall> {
        std::mem::take(&mut self.upcalls)
    }

    fn with_gcs(&mut self, f: impl FnOnce(&mut Gcs, &mut dyn ProtocolRuntime)) {
        {
            let mut rt = NativeRt {
                socket: &self.socket,
                peers: &self.peers,
                me: self.gcs.node(),
                epoch: self.epoch,
                timers: &mut self.timers,
                live: &mut self.live,
                next_timer: &mut self.next_timer,
            };
            f(&mut self.gcs, &mut rt);
        }
        self.upcalls.extend(self.gcs.drain_upcalls());
    }

    /// Fires due timers and waits up to `max_wait` for one packet.
    /// Returns `true` if any protocol activity happened.
    pub fn step(&mut self, max_wait: Duration) -> io::Result<bool> {
        let mut activity = false;
        // Fire all due timers.
        let now = Instant::now();
        loop {
            match self.timers.peek() {
                Some(Reverse((at, _))) if *at <= now => {
                    let Reverse((_, id)) = self.timers.pop().expect("peeked");
                    let Some(kind) = self.live.remove(&id) else { continue }; // cancelled
                    self.with_gcs(|g, rt| g.on_timer(rt, kind));
                    activity = true;
                }
                _ => break,
            }
        }
        // Wait for a packet until the next timer or max_wait.
        let deadline = self
            .timers
            .peek()
            .map(|Reverse((at, _))| *at)
            .unwrap_or_else(|| now + max_wait)
            .min(now + max_wait);
        let wait = deadline.saturating_duration_since(Instant::now());
        self.socket.set_read_timeout(Some(wait.max(Duration::from_micros(100))))?;
        match self.socket.recv_from(&mut self.buf) {
            Ok((n, _from)) => {
                let raw = Bytes::copy_from_slice(&self.buf[..n]);
                self.with_gcs(|g, rt| g.on_packet(rt, raw));
                activity = true;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
        Ok(activity)
    }

    /// Drives the bridge for `d` of wall-clock time.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from [`step`](NativeBridge::step).
    pub fn run_for(&mut self, d: Duration) -> io::Result<()> {
        let end = Instant::now() + d;
        while Instant::now() < end {
            let left = end.saturating_duration_since(Instant::now());
            self.step(left.min(Duration::from_millis(10)))?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for NativeBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeBridge").field("node", &self.gcs.node()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local_config(n: usize, base_port: u16) -> Vec<NativeConfig> {
        let peers: Vec<SocketAddr> = (0..n)
            .map(|i| format!("127.0.0.1:{}", base_port + i as u16).parse().expect("addr"))
            .collect();
        (0..n)
            .map(|i| NativeConfig {
                me: NodeId(i as u16),
                peers: peers.clone(),
                gcs: GcsConfig::lan(n),
            })
            .collect()
    }

    #[test]
    fn native_bridges_reach_total_order_on_loopback() {
        let configs = local_config(2, 42700);
        let mut a = NativeBridge::new(configs[0].clone()).expect("bind a");
        let mut b = NativeBridge::new(configs[1].clone()).expect("bind b");
        a.broadcast(Bytes::from_static(b"m1"));
        b.broadcast(Bytes::from_static(b"m2"));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut da = Vec::new();
        let mut db = Vec::new();
        while Instant::now() < deadline && (da.len() < 2 || db.len() < 2) {
            let _ = a.step(Duration::from_millis(5));
            let _ = b.step(Duration::from_millis(5));
            da.extend(a.drain_upcalls().into_iter().filter_map(|u| match u {
                Upcall::Deliver { origin, payload, .. } => Some((origin, payload)),
                _ => None,
            }));
            db.extend(b.drain_upcalls().into_iter().filter_map(|u| match u {
                Upcall::Deliver { origin, payload, .. } => Some((origin, payload)),
                _ => None,
            }));
        }
        assert_eq!(da.len(), 2, "node a delivered");
        assert_eq!(da, db, "same total order on real sockets");
        for bridge in [&a, &b] {
            // Bookkeeping covers the timers still queued, not every one set.
            assert!(bridge.live.len() <= bridge.timers.len());
        }
    }
}
