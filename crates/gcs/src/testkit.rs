//! A miniature deterministic harness for driving [`crate::Gcs`]
//! instances in unit and property tests, independent of the full simulation
//! stack. Packets and timers are processed in `(time, insertion)` order;
//! per-link drop functions inject loss; nodes can be crashed.
//!
//! This is *not* the paper's testbed (that is `dbsm-core` + `dbsm-sim`); it
//! exists so the protocol logic can be exercised in isolation.

use crate::config::GcsConfig;
use crate::runtime::{ProtocolRuntime, TimerId, TimerKind};
use crate::stack::Gcs;
use crate::types::{NodeId, Upcall};
use bytes::Bytes;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::rc::Rc;
use std::time::Duration;

enum Event {
    Packet { to: NodeId, raw: Bytes },
    Timer { node: NodeId, kind: TimerKind, id: TimerId },
}

/// A queued event, ordered by `(at, ord)` alone: the event rides in the
/// heap entry, so its storage goes when it is popped.
struct Queued {
    at: u64,
    ord: u64,
    ev: Event,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.ord) == (other.at, other.ord)
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.ord).cmp(&(other.at, other.ord))
    }
}

/// Per-link loss decision: `drop_fn(from, to, bytes) -> drop?`.
type DropFn = Box<dyn FnMut(NodeId, NodeId, &Bytes) -> bool>;

struct Shared {
    now: u64,
    next_ord: u64,
    next_timer: u64,
    queue: BinaryHeap<Reverse<Queued>>,
    /// Timers set and neither fired nor cancelled: a popped timer fires only
    /// if it is still here.
    live_timers: BTreeSet<u64>,
    /// drop_fn(from, to, bytes) -> drop?
    drop_fn: DropFn,
    latency_ns: u64,
    crashed: BTreeSet<u16>,
}

impl Shared {
    fn push(&mut self, at: u64, ev: Event) {
        let ord = self.next_ord;
        self.next_ord += 1;
        self.queue.push(Reverse(Queued { at, ord, ev }));
    }
}

/// Deterministic in-memory test network for `n` [`Gcs`] nodes.
pub struct TestNet {
    shared: Rc<RefCell<Shared>>,
    /// The protocol instances under test.
    pub nodes: Vec<Rc<RefCell<Gcs>>>,
    /// Upcalls collected per node, in order.
    pub upcalls: Vec<Vec<Upcall>>,
}

struct TestRuntime {
    node: NodeId,
    n: usize,
    shared: Rc<RefCell<Shared>>,
}

impl ProtocolRuntime for TestRuntime {
    fn now_nanos(&mut self) -> u64 {
        self.shared.borrow().now
    }

    fn set_timer(&mut self, delay: Duration, kind: TimerKind) -> TimerId {
        let mut sh = self.shared.borrow_mut();
        let id = TimerId(sh.next_timer);
        sh.next_timer += 1;
        sh.live_timers.insert(id.0);
        let at = sh.now + delay.as_nanos() as u64;
        sh.push(at, Event::Timer { node: self.node, kind, id });
        id
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.shared.borrow_mut().live_timers.remove(&id.0);
    }

    fn unicast(&mut self, to: NodeId, payload: Bytes) {
        let mut sh = self.shared.borrow_mut();
        if sh.crashed.contains(&self.node.0) {
            return;
        }
        let drop = (sh.drop_fn)(self.node, to, &payload);
        if drop || sh.crashed.contains(&to.0) {
            return;
        }
        let at = sh.now + sh.latency_ns;
        sh.push(at, Event::Packet { to, raw: payload });
    }

    fn multicast(&mut self, payload: Bytes) {
        for j in 0..self.n {
            let to = NodeId(j as u16);
            if to != self.node {
                self.unicast(to, payload.clone());
            }
        }
    }

    fn charge(&mut self, _cost: Duration) {}
}

impl TestNet {
    /// Creates `n` nodes with the given config and starts them.
    pub fn new(cfg: GcsConfig) -> Self {
        let n = cfg.n_nodes;
        let shared = Rc::new(RefCell::new(Shared {
            now: 0,
            next_ord: 0,
            next_timer: 0,
            queue: BinaryHeap::new(),
            live_timers: BTreeSet::new(),
            drop_fn: Box::new(|_, _, _| false),
            latency_ns: 100_000, // 100us
            crashed: BTreeSet::new(),
        }));
        let nodes: Vec<Rc<RefCell<Gcs>>> = (0..n)
            .map(|i| Rc::new(RefCell::new(Gcs::new(NodeId(i as u16), cfg.clone()))))
            .collect();
        let mut net = TestNet { shared, nodes, upcalls: vec![Vec::new(); n] };
        for i in 0..n {
            net.with_node(NodeId(i as u16), |g, rt| g.on_start(rt));
        }
        net
    }

    /// Installs a deterministic drop function `(from, to, bytes) -> drop?`.
    pub fn set_drop_fn(&mut self, f: impl FnMut(NodeId, NodeId, &Bytes) -> bool + 'static) {
        self.shared.borrow_mut().drop_fn = Box::new(f);
    }

    /// Crashes a node: it stops sending, receiving and processing timers.
    pub fn crash(&mut self, node: NodeId) {
        self.shared.borrow_mut().crashed.insert(node.0);
    }

    /// Restarts a crashed node as a fresh [`Gcs::rejoin`] instance with
    /// `cfg`; the old instance's timers are discarded.
    pub fn restart(&mut self, node: NodeId, cfg: GcsConfig) {
        {
            let mut sh = self.shared.borrow_mut();
            sh.crashed.remove(&node.0);
            sh.queue.retain(|q| !matches!(q.0.ev, Event::Timer { node: n, .. } if n == node));
        }
        self.nodes[usize::from(node.0)] = Rc::new(RefCell::new(Gcs::rejoin(node, cfg)));
        self.with_node(node, |g, rt| g.on_start(rt));
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.shared.borrow().now
    }

    fn with_node(&mut self, node: NodeId, f: impl FnOnce(&mut Gcs, &mut TestRuntime)) {
        let n = self.nodes.len();
        let g = self.nodes[node.0 as usize].clone();
        let mut rt = TestRuntime { node, n, shared: self.shared.clone() };
        let mut g = g.borrow_mut();
        f(&mut g, &mut rt);
        self.upcalls[node.0 as usize].extend(g.drain_upcalls());
    }

    /// Broadcasts an application payload from `node`.
    pub fn broadcast(&mut self, node: NodeId, payload: Bytes) {
        if self.shared.borrow().crashed.contains(&node.0) {
            return;
        }
        self.with_node(node, |g, rt| g.broadcast(rt, payload));
    }

    /// Casts a certification vote from `node` (see [`Gcs::cast_vote`]).
    pub fn cast_vote(&mut self, node: NodeId, origin: u16, txn: u64, conflict: Option<u64>) {
        if self.shared.borrow().crashed.contains(&node.0) {
            return;
        }
        self.with_node(node, |g, rt| g.cast_vote(rt, origin, txn, conflict));
    }

    /// Runs until the event queue is empty or `until_ns` is reached.
    pub fn run_until(&mut self, until_ns: u64) {
        loop {
            let next = {
                let mut sh = self.shared.borrow_mut();
                let at = match sh.queue.peek() {
                    None => return,
                    Some(Reverse(q)) => q.at,
                };
                if at > until_ns {
                    // The event stays queued for later windows.
                    sh.now = until_ns;
                    return;
                }
                sh.now = at;
                sh.queue.pop().expect("peeked").0.ev
            };
            match next {
                Event::Packet { to, raw } => {
                    if self.shared.borrow().crashed.contains(&to.0) {
                        continue;
                    }
                    self.with_node(to, |g, rt| g.on_packet(rt, raw));
                }
                Event::Timer { node, kind, id } => {
                    {
                        let mut sh = self.shared.borrow_mut();
                        if !sh.live_timers.remove(&id.0) || sh.crashed.contains(&node.0) {
                            continue;
                        }
                    }
                    self.with_node(node, |g, rt| g.on_timer(rt, kind));
                }
            }
        }
    }

    /// Runs for `d` more of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let until = self.now() + d.as_nanos() as u64;
        self.run_until(until);
    }

    /// The totally ordered `(origin, payload)` deliveries observed at `node`.
    pub fn deliveries(&self, node: NodeId) -> Vec<(NodeId, Bytes)> {
        self.deliveries_seq(node).into_iter().map(|(o, _, p)| (o, p)).collect()
    }

    /// Like [`TestNet::deliveries`] but including the assigned global
    /// sequence number: `(origin, global_seq, payload)`.
    pub fn deliveries_seq(&self, node: NodeId) -> Vec<(NodeId, u64, Bytes)> {
        self.upcalls[node.0 as usize]
            .iter()
            .filter_map(|u| match u {
                Upcall::Deliver { origin, global_seq, payload } => {
                    Some((*origin, *global_seq, payload.clone()))
                }
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Debug for TestNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestNet").field("nodes", &self.nodes.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processed_events_free_their_storage() {
        let mut net = TestNet::new(GcsConfig::lan(3));
        for i in 0..200u64 {
            net.broadcast(NodeId((i % 3) as u16), Bytes::from(i.to_le_bytes().to_vec()));
            net.run_for(Duration::from_millis(5));
        }
        net.run_for(Duration::from_millis(200));
        assert_eq!(net.deliveries(NodeId(0)).len(), 200);
        let sh = net.shared.borrow();
        assert!(sh.next_ord > 2_000, "packets and timers queued: {}", sh.next_ord);
        // Only the armed timers and in-flight packets remain stored.
        assert!(sh.queue.len() < 64, "{} events still stored", sh.queue.len());
    }
}
