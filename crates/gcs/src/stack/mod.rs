//! The group-communication stack (§3.4): view-synchronous reliable multicast
//! with window-based receiver-initiated recovery, scalable stability
//! detection, rate+window flow control, membership with flush/consensus view
//! changes under a primary-component rule, and fixed-sequencer total order.
//!
//! [`Gcs`] is a single-threaded state machine driven through
//! [`ProtocolRuntime`]; it is the *real code* the testbed exists to test.
//! It composes the `reliable` and `order` layers, owns membership
//! (`membership`), and sends everything through one outbox ([`Out`]).
//! Design choices called out by the paper are implemented faithfully, in
//! particular the ones behind its §5.3 findings:
//!
//! * each process owns only a *share* of the total buffer space;
//! * sequencer announcements travel through the same reliable layer and
//!   therefore consume the sequencer's share;
//! * stability (and hence garbage collection) advances only over the
//!   *contiguous* prefix received by *all* operational processes.
//!
//! Membership follows the **primary-component** rule: only a strict
//! majority of the current view may install the next one. A node that loses
//! contact with a majority (the small side of a partition, an isolated
//! sequencer) halts via [`Upcall::Excluded`] rather than forming a rump
//! view — the split-brain alternative would commit divergent histories. In
//! uniform-delivery mode the delivery gate covers the *order* too: a
//! message delivers only when both its content and the fragment that
//! carried its sequence assignment are stable, so no minority can act on an
//! ordering the primary component may re-make.
//!
//! Halting is no longer terminal: a crashed or excluded site may restart as
//! a fresh [`Gcs::rejoin`] instance, which announces itself with `JoinReq`
//! until the live primary component's lowest member grants admission at an
//! order-clean point ([`Upcall::ServeJoin`] at the granter primes the
//! application-level snapshot + delta-log state transfer) and a member-add
//! view install readmits it ([`Upcall::Rejoined`] at the joiner).

mod membership;
mod order;
mod reliable;

use crate::config::{GcsConfig, FRAG_PAYLOAD, HEARTBEAT_PERIOD, NAK_RETRY, PROC_COST};
use crate::runtime::{ProtocolRuntime, TimerKind};
use crate::stability::Stability;
use crate::types::{GcsMetrics, NodeId, NodeSet, Upcall, View};
use crate::wire::{
    decode_seq_ann, decode_vote, encode_vote, Envelope, Fragment, Message, PayloadKind, SeqAssign,
    WireVote,
};
use bytes::Bytes;
use membership::{Grant, Phase};
use order::TotalOrder;
use reliable::{frags_for, Advanced, RecvStream, SendState};
use std::collections::VecDeque;

/// The stack's one path onto the wire: frames each message as this node's
/// [`Envelope`] in the current view and hands it to the runtime at once, so
/// sends keep their order relative to the timer calls around them.
struct Out<'r> {
    rt: &'r mut dyn ProtocolRuntime,
    me: NodeId,
    view: u64,
}

impl Out<'_> {
    fn frame(&self, sender: NodeId, msg: Message) -> Bytes {
        Envelope { sender, view: self.view, msg }.encode()
    }

    fn multicast(&mut self, msg: Message) {
        self.rt.multicast(self.frame(self.me, msg));
    }

    fn unicast(&mut self, to: NodeId, msg: Message) {
        self.rt.unicast(to, self.frame(self.me, msg));
    }

    /// Unicasts `msg`, framed once as `sender`'s, to each of `to`.
    fn relay(&mut self, sender: NodeId, to: impl IntoIterator<Item = NodeId>, msg: Message) {
        let raw = self.frame(sender, msg);
        for n in to {
            self.rt.unicast(n, raw.clone());
        }
    }
}

/// Everything this node tracks per universe member (its own loopback
/// stream included), reset as a unit on rejoin.
#[derive(Debug)]
struct Peer {
    recv: RecvStream,
    last_heard: u64,
}

impl Peer {
    fn new(base: u64, now: u64) -> Self {
        Peer { recv: RecvStream::new(base), last_heard: now }
    }

    /// Newly added members (rejoiners): unfreeze their streams and reset the
    /// failure detector so the fresh member is not instantly re-suspected on
    /// pre-crash silence.
    fn readmit(&mut self, now: u64) {
        self.recv.reopen();
        self.last_heard = now;
    }
}

/// The group-communication protocol instance of one node.
///
/// Drive it with [`Gcs::on_start`], [`Gcs::on_packet`], [`Gcs::on_timer`]
/// and [`Gcs::broadcast`]; collect [`Upcall`]s with [`Gcs::drain_upcalls`]
/// after every call. See the crate docs for a complete example.
#[derive(Debug)]
pub struct Gcs {
    me: NodeId,
    cfg: GcsConfig,
    view: View,
    phase: Phase,
    send: SendState,
    peers: Vec<Peer>,
    stab: Stability,
    to: TotalOrder,
    /// The `seq` of the next vote this instance casts (1-based).
    next_vote: u64,
    suspected: NodeSet,
    upcalls: VecDeque<Upcall>,
    metrics: GcsMetrics,
    halted: bool,
    /// True while this instance is a rejoiner waiting for a `JoinGrant`.
    joining: bool,
    /// A joiner latched for admission at the next order-clean point (only
    /// ever set at the lowest live member).
    pending_join: Option<NodeId>,
    /// The last grant issued, kept for loss-healing resends.
    last_grant: Option<Grant>,
    /// Reused, so the receive path allocates no buffers per fragment.
    advanced: Advanced,
}

impl Gcs {
    /// Creates a node `me` of an `cfg.n_nodes`-member group. All nodes start
    /// in view 0 containing everyone.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the universe or the universe exceeds 64.
    pub fn new(me: NodeId, cfg: GcsConfig) -> Self {
        assert!((me.0 as usize) < cfg.n_nodes, "node id outside universe");
        let view = View::initial(cfg.n_nodes);
        Gcs {
            me,
            view,
            phase: Phase::Stable,
            send: SendState::new(&cfg),
            peers: (0..cfg.n_nodes).map(|_| Peer::new(0, 0)).collect(),
            stab: Stability::new(me, cfg.n_nodes, view.members),
            to: TotalOrder::new(me, &cfg, view.members),
            next_vote: 1,
            suspected: NodeSet::EMPTY,
            upcalls: VecDeque::new(),
            metrics: GcsMetrics::default(),
            cfg,
            halted: false,
            joining: false,
            pending_join: None,
            last_grant: None,
            advanced: Advanced::default(),
        }
    }

    /// Creates a *rejoining* instance for a node restarting after a crash
    /// or exclusion. It starts outside any view: [`Gcs::on_start`]
    /// multicasts a `JoinReq` (retried on a timer) until the live primary
    /// component's lowest member grants admission at an order-clean point,
    /// at which point the instance adopts the granted view and baselines,
    /// emits [`Upcall::ViewChange`] + [`Upcall::Rejoined`], and resumes
    /// normal operation. Its pre-crash tentative suffix is implicitly
    /// discarded (fresh state) — safe because halted commits are always a
    /// prefix of the primary component's.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the universe or the universe exceeds 64.
    pub fn rejoin(me: NodeId, cfg: GcsConfig) -> Self {
        let mut g = Gcs::new(me, cfg);
        g.joining = true;
        g
    }

    /// The node this instance runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Protocol counters.
    pub fn metrics(&self) -> GcsMetrics {
        let mut m = self.metrics;
        m.pending_peak = m.pending_peak.max(self.send.pending.len());
        m
    }

    /// Number of fragments held in the send buffer (unstable).
    pub fn unstable_frags(&self) -> usize {
        self.send.buffer.len()
    }

    /// True once this node has been excluded from the group.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// True while this instance is a rejoiner awaiting its grant.
    pub fn is_joining(&self) -> bool {
        self.joining
    }

    /// The node currently acting as sequencer: the initial view's lowest
    /// member, then sticky — the role moves, to the lowest survivor, only
    /// when its holder leaves the membership (a rejoined node never
    /// reclaims it mid-view, even the lowest-numbered one — two
    /// concurrently live sequencers would order divergently).
    pub fn sequencer(&self) -> NodeId {
        self.to.sequencer
    }

    /// Removes and returns all queued upcalls. Call after every entry point.
    pub fn drain_upcalls(&mut self) -> Vec<Upcall> {
        self.upcalls.drain(..).collect()
    }

    /// Hands the queued upcalls over by swapping them with `buf`, which
    /// must be empty: the stack keeps `buf`'s allocation for the next entry
    /// point, so a caller that passes the same buffer back allocates nothing.
    pub(crate) fn swap_upcalls(&mut self, buf: &mut VecDeque<Upcall>) {
        debug_assert!(buf.is_empty(), "upcalls handed over twice");
        std::mem::swap(&mut self.upcalls, buf);
    }

    fn out<'r>(&self, rt: &'r mut dyn ProtocolRuntime) -> Out<'r> {
        Out { rt, me: self.me, view: self.view.id }
    }

    /// Starts the protocol: arms the periodic timers and reports the
    /// initial view. A rejoining instance instead announces itself with a
    /// `JoinReq` and retries until granted.
    pub fn on_start(&mut self, rt: &mut dyn ProtocolRuntime) {
        let now = rt.now_nanos();
        for p in &mut self.peers {
            p.last_heard = now;
        }
        self.send.last_refill = now;
        if self.joining {
            self.out(rt).multicast(Message::JoinReq);
            rt.set_timer(HEARTBEAT_PERIOD, TimerKind::JoinRetry);
            return;
        }
        self.start_timers(rt);
        self.upcalls.push_back(Upcall::ViewChange(self.view));
    }

    fn start_timers(&self, rt: &mut dyn ProtocolRuntime) {
        rt.set_timer(self.cfg.gossip_period, TimerKind::Gossip);
        rt.set_timer(HEARTBEAT_PERIOD, TimerKind::Heartbeat);
        rt.set_timer(self.cfg.failure_timeout, TimerKind::FailureCheck);
        rt.set_timer(self.cfg.nak_delay, TimerKind::NakCheck);
    }

    /// Atomically multicasts `payload` to the group. Delivery (including
    /// back to the caller) happens through [`Upcall::Deliver`] in total
    /// order. Never blocks: under flow-control pressure the message queues
    /// and [`GcsMetrics::blocked_ns`] accumulates. Dropped while halted or
    /// still joining (the application gates traffic on the rejoin anyway).
    pub fn broadcast(&mut self, rt: &mut dyn ProtocolRuntime, payload: Bytes) {
        if self.halted || self.joining {
            return;
        }
        self.metrics.app_sent += 1;
        self.send.enqueue(PayloadKind::App, payload, &mut self.metrics);
        self.drain_sends(rt);
    }

    /// Casts a certification verdict for transaction `(origin, txn)` into
    /// the group. The vote loops back to this node immediately (as
    /// [`Upcall::Vote`]) and goes out as a [`PayloadKind::Vote`] message on
    /// this node's own data stream, behind whatever is already queued: it
    /// takes its turn for the buffer share, is repaired by NAK, and a view
    /// change's flush hands it to every survivor or to none. Dropped while
    /// halted or still joining — a crashed voter simply goes silent and the
    /// survivors' votes cover its spans.
    pub fn cast_vote(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        origin: u16,
        txn: u64,
        conflict: Option<u64>,
    ) {
        if self.halted || self.joining {
            return;
        }
        let vote = WireVote { seq: self.next_vote, origin, txn, conflict };
        self.next_vote += 1;
        // Loopback: the local application always sees its own verdict.
        self.upcalls.push_back(Upcall::Vote { voter: self.me, vote });
        self.metrics.votes_sent += 1;
        self.send.enqueue(PayloadKind::Vote, encode_vote(&vote), &mut self.metrics);
        self.drain_sends(rt);
    }

    /// The `seq` the next vote cast here will carry. Every vote already
    /// cast carries a strictly smaller `seq`, so callers can use this value
    /// as a staleness threshold: votes below it predate the moment the
    /// snapshot was taken.
    pub fn vote_seq(&self) -> u64 {
        self.next_vote
    }

    // ----- sending & flow control -------------------------------------

    fn drain_sends(&mut self, rt: &mut dyn ProtocolRuntime) {
        if self.halted {
            return;
        }
        let now = rt.now_nanos();
        self.send.refill(now, &self.cfg);
        loop {
            let window = matches!(self.phase, Phase::Stable).then(|| {
                let share = self.cfg.buffer_share(self.to.is_sequencer()) as u64;
                let stable_self = self.stab.stable()[self.me.0 as usize];
                share.saturating_sub(self.send.sent().saturating_sub(stable_self))
            });
            let Some((kind, payload)) =
                self.send.admit(rt, now, window, &self.cfg, &mut self.metrics)
            else {
                return;
            };
            self.transmit(rt, kind, payload);
        }
    }

    fn transmit(&mut self, rt: &mut dyn ProtocolRuntime, kind: PayloadKind, payload: Bytes) {
        let total = frags_for(payload.len()) as u16;
        for idx in 0..total {
            let lo = idx as usize * FRAG_PAYLOAD;
            let chunk = payload.slice(lo..(lo + FRAG_PAYLOAD).min(payload.len()));
            let mut ann = Vec::new();
            // The last fragment of an application message usually leaves MTU
            // slack: fill it with pending announcements.
            if idx + 1 == total
                && kind == PayloadKind::App
                && matches!(self.phase, Phase::Stable)
                && self.to.is_sequencer()
            {
                let room = FRAG_PAYLOAD.saturating_sub(chunk.len());
                ann = self.to.take_piggyback(rt, room, &mut self.metrics);
            }
            let frag = Fragment { total, idx, kind, ann, payload: chunk };
            let seq = self.send.push(frag.clone());
            self.out(rt).multicast(Message::Data { seq, retrans: false, frag: frag.clone() });
            self.metrics.frags_sent += 1;
            // Loopback: count own fragment as received by self.
            self.on_fragment(rt, self.me, seq, frag);
        }
    }

    fn assign(&mut self, rt: &mut dyn ProtocolRuntime, origin: NodeId, msg_seq: u64) {
        let stable_self = self.stab.stable()[self.me.0 as usize];
        let in_flight = self.send.sent().saturating_sub(stable_self);
        if self.to.assign(rt, origin, msg_seq, self.send.pending.len(), in_flight) {
            self.flush_ann(rt);
        }
    }

    fn flush_ann(&mut self, rt: &mut dyn ProtocolRuntime) {
        self.to.cancel_flush(rt);
        if self.to.pending_ann.is_empty() || !matches!(self.phase, Phase::Stable) {
            // Outside `Stable` the batch is retained; `install` then clears
            // it and its re-assignment pass rebuilds (and re-schedules, via
            // `assign`) every still-unassigned message — so a flush timer
            // fired mid-view-change strands nothing.
            return;
        }
        while let Some(batch) = self.to.next_batch(&mut self.metrics) {
            self.send.enqueue(PayloadKind::SeqAnn, batch, &mut self.metrics);
        }
        self.drain_sends(rt);
    }

    // ----- receive path ------------------------------------------------

    /// Entry point for a raw packet from the network.
    pub fn on_packet(&mut self, rt: &mut dyn ProtocolRuntime, raw: Bytes) {
        if self.halted {
            return;
        }
        rt.charge(PROC_COST);
        let Ok(Envelope { sender: from, msg, .. }) = Envelope::decode(raw) else {
            return; // stray or corrupt packet: drop silently
        };
        if from == self.me || !self.names_within_universe(&msg) {
            return; // our own multicast looped back, or no frame of ours
        }
        let now = rt.now_nanos();
        let Some(peer) = self.peers.get_mut(from.0 as usize) else {
            return; // outside the universe
        };
        peer.last_heard = now;
        if self.joining {
            // A rejoiner is deaf to everything but its grant: it has no
            // view to interpret the traffic against yet.
            return self.on_join_grant(rt, msg);
        }
        match msg {
            Message::Data { seq, frag, .. } => {
                self.on_fragment(rt, from, seq, frag);
                self.try_complete_install(rt);
            }
            Message::Nak { target, ranges } => {
                self.answer_nak(rt, from, target, &ranges);
            }
            Message::Gossip(g) => {
                let received = self.received_vec();
                if self.stab.on_gossip(&g, &received) {
                    self.on_stability_advance(rt);
                }
            }
            Message::Heartbeat { sent } => {
                let s = &mut self.peers[from.0 as usize].recv;
                s.highest_known = s.highest_known.max(sent);
            }
            Message::FlushReq { new_view, members } => {
                self.on_flush_req(rt, from, new_view, members);
            }
            Message::FlushAck { new_view, received } => {
                self.on_flush_ack(rt, from, new_view, received);
            }
            Message::ViewInstall { new_view, members, cut } => {
                self.on_view_install(rt, new_view, members, cut);
            }
            Message::JoinReq => self.on_join_req(rt, from),
            Message::JoinGrant { .. } => {
                // Duplicate grant after adoption (or a stray): ignore.
            }
        }
    }

    /// True if `id` is a node of this group's universe.
    fn in_universe(&self, id: NodeId) -> bool {
        usize::from(id.0) < self.cfg.n_nodes
    }

    /// True if every node id and node set in `msg` lies within the
    /// universe. No stack of this group names another node, and the
    /// per-node tables would be indexed past their end by one that did.
    fn names_within_universe(&self, msg: &Message) -> bool {
        let set = |s: NodeSet| s.is_subset(NodeSet::first_n(self.cfg.n_nodes));
        match msg {
            Message::Data { frag, .. } => frag.ann.iter().all(|a| self.in_universe(a.sender)),
            Message::Nak { target, .. } => self.in_universe(*target),
            Message::Gossip(g) => set(g.w),
            Message::FlushReq { members, .. } | Message::ViewInstall { members, .. } => {
                set(*members)
            }
            Message::JoinGrant { members, sequencer, .. } => {
                set(*members) && self.in_universe(*sequencer)
            }
            Message::Heartbeat { .. } | Message::FlushAck { .. } | Message::JoinReq => true,
        }
    }

    /// Furthest a fragment may lead its stream's contiguous prefix. A
    /// sender keeps at most its buffer share beyond its own stable prefix,
    /// and stability waits for every member's contiguous prefix, so a
    /// member's stream leads it by one share at most. A rejoiner starts
    /// each stream at the granter's received vector, which the sender's
    /// stable prefix may pass by up to one more share before the grant's
    /// install reaches it. A fragment past this bound comes from no sender
    /// of this group and is dropped before it is buffered.
    fn frag_lead(&self) -> u64 {
        let share = self.cfg.buffer_share(true).max(self.cfg.buffer_share(false));
        2 * share as u64
    }

    fn received_vec(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.peers.iter().map(|p| p.recv.contiguous).collect();
        v[self.me.0 as usize] = self.send.sent();
        v
    }

    fn on_fragment(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        from: NodeId,
        seq: u64,
        frag: Fragment,
    ) {
        let lead = self.frag_lead();
        if self.peers[from.0 as usize].recv.accept(seq, frag, lead, &mut self.metrics) {
            self.advance_stream(rt, from);
        }
    }

    /// Advances `from`'s stream, delivering completed messages upward.
    fn advance_stream(&mut self, rt: &mut dyn ProtocolRuntime, from: NodeId) {
        // Taken, not borrowed: delivery may re-enter (sequencer loopback).
        let mut up = std::mem::take(&mut self.advanced);
        let own = from == self.me;
        self.peers[from.0 as usize].recv.advance(own, &mut up, || rt.now_nanos());
        // Votes first: a vote that overtook the sequencer's order on the
        // wire surfaces before the deliveries that order releases, so the
        // application files it before its transaction delivers. Votes keep
        // their own FIFO order.
        up.completed.retain(|(msg_seq, kind, payload)| {
            let vote = *kind == PayloadKind::Vote;
            if vote {
                self.on_reliable_msg(rt, from, *msg_seq, *kind, payload.clone());
            }
            !vote
        });
        if !up.anns.is_empty() {
            for (a, carrier_seq) in up.anns.drain(..) {
                self.to.apply(a, from, carrier_seq);
            }
            self.try_deliver();
        }
        for (msg_seq, kind, payload) in up.completed.drain(..) {
            self.on_reliable_msg(rt, from, msg_seq, kind, payload);
        }
        self.advanced = up;
    }

    fn on_reliable_msg(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        origin: NodeId,
        msg_seq: u64,
        kind: PayloadKind,
        payload: Bytes,
    ) {
        // An announcement's own last fragment is the order carrier: uniform
        // delivery waits for it to be stable as well.
        let last_frag = msg_seq + frags_for(payload.len()) - 1;
        match kind {
            PayloadKind::App => {
                if let Some(tentative) = self.to.hold(origin, msg_seq, payload, last_frag) {
                    self.upcalls.push_back(tentative);
                }
                if self.to.is_sequencer()
                    && matches!(self.phase, Phase::Stable)
                    && !self.to.assigned.contains(&(origin.0, msg_seq))
                {
                    self.assign(rt, origin, msg_seq);
                }
                self.try_deliver();
            }
            PayloadKind::SeqAnn => {
                let assigns = decode_seq_ann(payload);
                let named = |a: &Vec<SeqAssign>| a.iter().all(|a| self.in_universe(a.sender));
                if let Some(assigns) = assigns.ok().filter(named) {
                    for a in assigns {
                        self.to.apply(a, origin, last_frag);
                    }
                    self.try_deliver();
                }
            }
            // Our own votes looped back at cast time.
            PayloadKind::Vote if origin != self.me => {
                if let Ok(vote) = decode_vote(payload) {
                    self.metrics.votes_received += 1;
                    self.upcalls.push_back(Upcall::Vote { voter: origin, vote });
                }
            }
            PayloadKind::Vote => {}
        }
    }

    fn try_deliver(&mut self) {
        while let Some(up) = self.to.next_delivery(self.stab.stable()) {
            self.metrics.delivered += 1;
            self.upcalls.push_back(up);
        }
    }

    // ----- NAK / retransmission ----------------------------------------

    fn answer_nak(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        requester: NodeId,
        target: NodeId,
        ranges: &[(u64, u64)],
    ) {
        const MAX_ANSWER: usize = 64;
        let mut out = self.out(rt);
        // Each range is clamped to the keys the cache holds, so a range as
        // wide as the sequence space costs no more than the cache.
        let (own, peer) = (&self.send.buffer, &self.peers[target.0 as usize].recv);
        let cached = |&(from, to): &(u64, u64)| {
            let own = (target == self.me).then(|| own.range(from..=to));
            let peer = (target != self.me).then(|| peer.cached(from..=to));
            own.into_iter().flatten().chain(peer.into_iter().flatten())
        };
        for (seq, frag) in ranges.iter().flat_map(cached).take(MAX_ANSWER) {
            let resend = Message::Data { seq, retrans: true, frag: frag.clone() };
            out.relay(target, [requester], resend);
            self.metrics.retrans_sent += 1;
        }
    }

    fn nak_scan(&mut self, rt: &mut dyn ProtocolRuntime) {
        let now = rt.now_nanos();
        let delay = self.cfg.nak_delay.as_nanos() as u64;
        let retry = NAK_RETRY.as_nanos() as u64;
        for j in 0..self.cfg.n_nodes {
            let node = NodeId(j as u16);
            if node == self.me {
                continue;
            }
            let Some(ranges) = self.peers[j].recv.nak_due(now, delay, retry) else { continue };
            self.metrics.naks_sent += 1;
            let msg = Message::Nak { target: node, ranges };
            let mut out = self.out(rt);
            if self.view.members.contains(node) && !self.suspected.contains(node) {
                out.unicast(node, msg);
            } else {
                // Original sender is gone: ask the survivors.
                let survivors = self.view.members.iter().filter(|&m| m != self.me && m != node);
                out.relay(self.me, survivors, msg);
            }
        }
    }

    fn on_stability_advance(&mut self, rt: &mut dyn ProtocolRuntime) {
        // GC own send buffer and peers' retained caches.
        let stable = self.stab.stable();
        self.send.gc(stable[self.me.0 as usize]);
        for (p, &s) in self.peers.iter_mut().zip(stable) {
            p.recv.gc(s);
        }
        if self.cfg.uniform_delivery {
            self.try_deliver();
        }
        // Freed buffer share may unblock the sender.
        self.drain_sends(rt);
    }

    // ----- timers --------------------------------------------------------

    /// Entry point for a fired timer.
    pub fn on_timer(&mut self, rt: &mut dyn ProtocolRuntime, kind: TimerKind) {
        if self.halted {
            return;
        }
        rt.charge(PROC_COST);
        if self.joining {
            // A rejoiner runs nothing but its retry loop.
            if kind == TimerKind::JoinRetry {
                self.out(rt).multicast(Message::JoinReq);
                rt.set_timer(HEARTBEAT_PERIOD, TimerKind::JoinRetry);
            }
            return;
        }
        match kind {
            TimerKind::Gossip => {
                let received = self.received_vec();
                let g = self.stab.make_gossip(&received);
                self.out(rt).multicast(Message::Gossip(g));
                self.metrics.gossip_sent += 1;
                // Completing our own vote may already advance stability.
                self.on_stability_advance(rt);
                // A latched joiner admits at the next order-clean beat.
                self.try_grant_join(rt);
                rt.set_timer(self.cfg.gossip_period, TimerKind::Gossip);
            }
            TimerKind::Heartbeat => {
                self.out(rt).multicast(Message::Heartbeat { sent: self.send.sent() });
                rt.set_timer(HEARTBEAT_PERIOD, TimerKind::Heartbeat);
            }
            TimerKind::FailureCheck => {
                self.failure_scan(rt);
                rt.set_timer(self.cfg.failure_timeout, TimerKind::FailureCheck);
            }
            TimerKind::NakCheck => {
                self.nak_scan(rt);
                self.try_complete_install(rt);
                rt.set_timer(self.cfg.nak_delay, TimerKind::NakCheck);
            }
            TimerKind::RateRefill => {
                self.send.rate_timer = None;
                self.drain_sends(rt);
            }
            TimerKind::AnnFlush => {
                // The fired timer is spent: drop the handle first so
                // flush_ann does not issue a cancel for it.
                self.to.ann_timer = None;
                self.flush_ann(rt);
            }
            TimerKind::FlushResend => self.resend_flush(rt),
            TimerKind::JoinRetry => self.resend_grant_install(rt),
        }
    }
}

#[cfg(test)]
mod tests;
