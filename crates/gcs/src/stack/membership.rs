//! Membership: failure detection, flush/install view changes, and rejoin.

use super::{Gcs, Peer, Upcall};
use crate::config::HEARTBEAT_PERIOD;
use crate::runtime::{ProtocolRuntime, TimerKind};
use crate::stability::Stability;
use crate::types::{NodeId, NodeSet, View};
use crate::wire::Message;
use std::collections::BTreeMap;

#[derive(Debug)]
pub(super) enum Phase {
    Stable,
    Flushing {
        new_view: u64,
        proposed: NodeSet,
        /// Coordinator only: received vectors collected so far.
        acks: BTreeMap<u16, Vec<u64>>,
        /// An install we received but whose cut we have not reached.
        pending_install: Option<(u64, NodeSet, Vec<u64>)>,
        /// Install already sent (coordinator resends it instead of FlushReq).
        sent_install: Option<Message>,
    },
}

impl Phase {
    fn flushing(
        new_view: u64,
        proposed: NodeSet,
        acks: BTreeMap<u16, Vec<u64>>,
        pending_install: Option<(u64, NodeSet, Vec<u64>)>,
    ) -> Self {
        Phase::Flushing { new_view, proposed, acks, pending_install, sent_install: None }
    }
}

/// A grant issued to a rejoiner, retained so lost `JoinGrant`/`ViewInstall`
/// packets can be healed by resends (driven by `JoinReq` retries and a short
/// resend timer).
#[derive(Debug)]
pub(super) struct Grant {
    joiner: NodeId,
    view: u64,
    grant: Message,
    install: Message,
    /// Remaining scheduled re-multicasts of `install`.
    resends: u8,
}

impl Gcs {
    /// Primary-component rule: a membership may carry the group forward only
    /// if it is a strict majority of the current view. Minority components
    /// (e.g. the small side of a partition, or an isolated sequencer) halt
    /// instead of installing a view — two disjoint components that both kept
    /// committing would be a split-brain the safety check rightly flags.
    ///
    /// The majority is judged against this node's *local* view, which can be
    /// stale if it missed an intermediate install: such a node may halt on a
    /// proposal that is in fact a legitimate majority of the newer view. The
    /// rule deliberately errs on that side — halting is always safe (the
    /// halted node's commits stay a prefix), while proceeding on a stale
    /// denominator could admit two disjoint "majorities".
    fn is_primary(&self, members: NodeSet) -> bool {
        members.len() * 2 > self.view.members.len()
    }

    /// Halts this node — excluded by a view proposal, or a survivor that
    /// cannot prove it is in the primary component. Either way the
    /// application treats it as crashed; its commits stay a prefix of the
    /// primary component's.
    fn halt_excluded(&mut self) {
        self.halted = true;
        self.upcalls.push_back(Upcall::Excluded);
    }

    fn survivors(&self) -> NodeSet {
        self.view.members.difference(self.suspected)
    }

    /// The lowest unsuspected member coordinates flushes and grants.
    fn leads(&self) -> bool {
        self.survivors().min() == Some(self.me)
    }

    pub(super) fn failure_scan(&mut self, rt: &mut dyn ProtocolRuntime) {
        let now = rt.now_nanos();
        let timeout = self.cfg.failure_timeout.as_nanos() as u64;
        let mut newly = false;
        for j in self.view.members.iter() {
            if j == self.me || self.suspected.contains(j) {
                continue;
            }
            if now.saturating_sub(self.peers[j.0 as usize].last_heard) > timeout {
                self.suspected.insert(j);
                newly = true;
            }
        }
        if newly {
            if !self.is_primary(self.survivors()) {
                // We lost contact with a majority of the view: we are (at
                // best) in a minority partition segment. Halt.
                self.halt_excluded();
                return;
            }
            self.maybe_coordinate_flush(rt);
        }
    }

    fn maybe_coordinate_flush(&mut self, rt: &mut dyn ProtocolRuntime) {
        if !self.leads() {
            return; // not the coordinator
        }
        let survivors = self.survivors();
        let next_view = match &self.phase {
            Phase::Stable => self.view.id + 1,
            Phase::Flushing { new_view, proposed, .. } => {
                if *proposed == survivors {
                    return; // already flushing this proposal
                }
                new_view + 1
            }
        };
        self.start_flush(rt, next_view, survivors);
    }

    fn start_flush(&mut self, rt: &mut dyn ProtocolRuntime, new_view: u64, proposed: NodeSet) {
        self.freeze_excluded(proposed);
        let acks = BTreeMap::from([(self.me.0, self.received_vec())]);
        self.phase = Phase::flushing(new_view, proposed, acks, None);
        self.out(rt).multicast(Message::FlushReq { new_view, members: proposed });
        rt.set_timer(HEARTBEAT_PERIOD, TimerKind::FlushResend);
        self.check_flush_complete(rt);
    }

    /// Freezes delivery from members excluded by `proposed` at the current
    /// snapshot, so no survivor delivers messages beyond what will be in the
    /// agreed cut.
    fn freeze_excluded(&mut self, proposed: NodeSet) {
        for node in self.view.members.difference(proposed).iter() {
            let s = &mut self.peers[node.0 as usize].recv;
            s.freeze_at.get_or_insert(s.contiguous);
        }
    }

    pub(super) fn on_flush_req(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        coordinator: NodeId,
        new_view: u64,
        members: NodeSet,
    ) {
        if new_view <= self.view.id {
            return;
        }
        if let Phase::Flushing { new_view: cur, .. } = &self.phase {
            if new_view < *cur {
                return;
            }
        }
        if !members.contains(self.me) || !self.is_primary(members) {
            self.halt_excluded();
            return;
        }
        self.freeze_excluded(members);
        match &mut self.phase {
            Phase::Flushing { new_view: cur, proposed, .. } if *cur == new_view => {
                *proposed = members;
            }
            _ => self.phase = Phase::flushing(new_view, members, BTreeMap::new(), None),
        }
        let received = self.received_vec();
        self.out(rt).unicast(coordinator, Message::FlushAck { new_view, received });
    }

    pub(super) fn on_flush_ack(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        sender: NodeId,
        new_view: u64,
        received: Vec<u64>,
    ) {
        let Phase::Flushing { new_view: cur, acks, .. } = &mut self.phase else { return };
        if *cur != new_view || received.len() != self.cfg.n_nodes {
            return;
        }
        acks.insert(sender.0, received);
        self.check_flush_complete(rt);
    }

    fn check_flush_complete(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Phase::Flushing { new_view, proposed, acks, sent_install, .. } = &mut self.phase else {
            return;
        };
        if sent_install.is_some() || !proposed.iter().all(|m| acks.contains_key(&m.0)) {
            return;
        }
        // Cut: for every stream, the maximum any survivor has received —
        // every survivor can reach it via retransmission from its peers.
        let mut cut = vec![0u64; self.cfg.n_nodes];
        for v in acks.values() {
            for (c, r) in cut.iter_mut().zip(v) {
                *c = (*c).max(*r);
            }
        }
        let (new_view, members) = (*new_view, *proposed);
        let install = Message::ViewInstall { new_view, members, cut: cut.clone() };
        *sent_install = Some(install.clone());
        self.out(rt).multicast(install);
        self.on_view_install(rt, new_view, members, cut);
    }

    pub(super) fn resend_flush(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Phase::Flushing { new_view, proposed, sent_install, .. } = &self.phase else { return };
        let req = Message::FlushReq { new_view: *new_view, members: *proposed };
        if let Some(msg) = sent_install.clone().or(self.leads().then_some(req)) {
            self.out(rt).multicast(msg);
        }
        rt.set_timer(HEARTBEAT_PERIOD, TimerKind::FlushResend);
    }

    pub(super) fn on_view_install(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        new_view: u64,
        members: NodeSet,
        cut: Vec<u64>,
    ) {
        if new_view <= self.view.id || cut.len() != self.cfg.n_nodes {
            return;
        }
        if !members.contains(self.me) || !self.is_primary(members) {
            self.halt_excluded();
            return;
        }
        // Adopt the install (possibly without having seen the FlushReq).
        let acks = match std::mem::replace(&mut self.phase, Phase::Stable) {
            Phase::Flushing { acks, .. } => acks,
            Phase::Stable => BTreeMap::new(),
        };
        self.phase = Phase::flushing(new_view, members, acks, Some((new_view, members, cut)));
        self.try_complete_install(rt);
    }

    pub(super) fn try_complete_install(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Phase::Flushing { pending_install: Some((new_view, members, cut)), .. } = &self.phase
        else {
            return;
        };
        let (new_view, members, cut) = (*new_view, *members, cut.clone());
        // Raise the freeze limit of excluded streams to the agreed cut and
        // replay buffered fragments now allowed through; fragments still
        // missing will be NAKed from the survivors by nak_scan.
        let mut reached = true;
        for node in self.view.members.difference(members).iter() {
            let (j, s) = (node.0 as usize, &mut self.peers[node.0 as usize].recv);
            s.freeze_at = Some(cut[j]);
            s.highest_known = s.highest_known.max(cut[j]);
            self.advance_stream(rt, node);
            reached &= self.peers[j].recv.contiguous >= cut[j];
        }
        // advance_stream may have delivered messages but cannot change the
        // phase; the pending install is still ours to complete.
        if reached {
            self.install(rt, new_view, members, cut);
        }
    }

    fn install(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        new_view: u64,
        members: NodeSet,
        cut: Vec<u64>,
    ) {
        for node in NodeSet::first_n(self.cfg.n_nodes).difference(members).iter() {
            self.peers[node.0 as usize].recv.cut_off(cut[node.0 as usize]);
        }
        let now = rt.now_nanos();
        for node in members.difference(self.view.members).iter() {
            self.peers[node.0 as usize].readmit(now);
        }
        self.to.on_install(rt, members, &cut);
        self.view = View { id: new_view, members };
        self.phase = Phase::Stable;
        self.suspected = self.suspected.difference(members);
        self.stab.set_members(members);
        self.metrics.view_changes += 1;
        self.upcalls.push_back(Upcall::ViewChange(self.view));
        // New sequencer sequences everything left unassigned,
        // deterministically ordered.
        if self.to.is_sequencer() {
            for (origin, msg_seq) in self.to.unassigned() {
                self.assign(rt, NodeId(origin), msg_seq);
            }
        }
        self.try_deliver();
        self.drain_sends(rt);
    }

    // ----- rejoin --------------------------------------------------------

    /// A restarted node asks to rejoin. Only the lowest live member grants;
    /// everyone else ignores the request. If the joiner is already a member
    /// (a previous grant or its install was lost on the wire), the stored
    /// grant is resent instead.
    pub(super) fn on_join_req(&mut self, rt: &mut dyn ProtocolRuntime, joiner: NodeId) {
        if joiner == self.me || (joiner.0 as usize) >= self.cfg.n_nodes {
            return;
        }
        if self.view.members.contains(joiner) {
            // Only while the granted view is still current: past it, the
            // joiner went silent through a later flush and will be
            // re-admitted fresh.
            let current = |g: &Grant| g.joiner == joiner && g.view == self.view.id;
            if self.last_grant.as_ref().is_some_and(current) {
                self.send_grant(rt, true);
            }
            return;
        }
        if !self.leads() {
            return;
        }
        if self.pending_join.is_none() {
            self.pending_join = Some(joiner);
        }
        self.try_grant_join(rt);
    }

    fn send_grant(&self, rt: &mut dyn ProtocolRuntime, to_joiner: bool) {
        let Some(g) = &self.last_grant else { return };
        let mut out = self.out(rt);
        if to_joiner {
            out.unicast(g.joiner, g.grant.clone());
        }
        out.multicast(g.install.clone());
    }

    /// Granter side of `JoinRetry`: re-multicast the grant's install a
    /// couple of times so a survivor that lost the single install packet
    /// still learns the new member (the joiner's own losses heal through
    /// its JoinReq retries).
    pub(super) fn resend_grant_install(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Some(g) = self.last_grant.as_mut().filter(|g| g.resends > 0) else { return };
        g.resends -= 1;
        if g.view == self.view.id {
            self.send_grant(rt, false);
            rt.set_timer(HEARTBEAT_PERIOD, TimerKind::JoinRetry);
        }
    }

    /// Admits the latched joiner if this is an *order-clean* point: a
    /// stable phase with no live suspicions, and nothing reliably received
    /// anywhere in this node's streams still awaiting ordering or assembly.
    /// At such a point the received vector plus the next-to-deliver global
    /// sequence number fully describe the group state for a fresh member:
    /// every assignment or message content at or beyond those baselines
    /// travels in fragments beyond the cut, which the joiner will receive
    /// (or NAK) like any member. Called on every `JoinReq` and from the
    /// gossip timer, so a latched join lands within a beat of the group
    /// draining.
    pub(super) fn try_grant_join(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Some(joiner) = self.pending_join else { return };
        if self.view.members.contains(joiner) {
            self.pending_join = None;
            return;
        }
        // Suspicions of already-removed nodes linger harmlessly.
        if !matches!(self.phase, Phase::Stable) || self.survivors() != self.view.members {
            return;
        }
        if !self.to.is_clean() || self.peers.iter().any(|p| p.recv.mid_message()) {
            return;
        }
        // Clear the latch *before* the install below re-enters try_deliver —
        // and so a grant is never re-issued for the same latch.
        self.pending_join = None;
        let cut = self.received_vec();
        let new_view = self.view.id + 1;
        let mut members = self.view.members;
        members.insert(joiner);
        let (order_base, skipped) = self.to.grant_base();
        // The application serves the state transfer from exactly this
        // instant's committed state (everything below `order_base`).
        self.upcalls.push_back(Upcall::ServeJoin { joiner });
        let sequencer = self.to.sequencer;
        self.last_grant = Some(Grant {
            joiner,
            view: new_view,
            grant: Message::JoinGrant {
                new_view,
                members,
                cut: cut.clone(),
                order_base,
                skipped,
                sequencer,
            },
            install: Message::ViewInstall { new_view, members, cut: cut.clone() },
            resends: 2,
        });
        rt.set_timer(HEARTBEAT_PERIOD, TimerKind::JoinRetry);
        self.send_grant(rt, true);
        // A member-add install needs no flush (no stream is being cut off):
        // adopt it locally through the normal install path.
        self.on_view_install(rt, new_view, members, cut);
    }

    /// The joiner adopts its grant: the granted view, per-stream fragment
    /// baselines (its own old stream continues where the group last saw
    /// it), and the total-order base. Stability restarts from scratch and
    /// catches up through gossip max-merge — it is *not* seeded with the
    /// cut, because group-wide stable never exceeds the granter's received
    /// vector, so seeding could over-promise and garbage-collect fragments
    /// a trailing survivor still needs. Votes are stream payloads, so the
    /// baselines skip every peer's pre-rejoin votes too: their outcomes
    /// arrive with the state transfer.
    pub(super) fn on_join_grant(&mut self, rt: &mut dyn ProtocolRuntime, grant: Message) {
        let Message::JoinGrant { new_view, members, cut, order_base, skipped, sequencer } = grant
        else {
            return;
        };
        if !members.contains(self.me) || cut.len() != self.cfg.n_nodes {
            return;
        }
        let now = rt.now_nanos();
        self.joining = false;
        self.view = View { id: new_view, members };
        self.to.rebase(order_base, skipped, sequencer, members);
        self.peers = cut.iter().map(|&c| Peer::new(c, now)).collect();
        self.send.next_frag = cut[self.me.0 as usize] + 1;
        self.send.last_refill = now;
        self.stab = Stability::new(self.me, self.cfg.n_nodes, members);
        self.start_timers(rt);
        self.metrics.view_changes += 1;
        self.upcalls.push_back(Upcall::ViewChange(self.view));
        self.upcalls.push_back(Upcall::Rejoined);
    }
}
