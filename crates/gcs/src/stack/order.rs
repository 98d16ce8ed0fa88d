//! Total-order layer: the fixed sequencer's assignments, their batching
//! into `SeqAnn` messages or piggybacking on data fragments, and the
//! (tentative, total-order, uniform) delivery gate.

use super::{GcsMetrics, Upcall};
use crate::config::{AnnBatchPolicy, GcsConfig};
use crate::runtime::{ProtocolRuntime, TimerId, TimerKind};
use crate::types::{NodeId, NodeSet};
use crate::wire::{encode_seq_ann, Field, SeqAssign};
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// An applied sequencer assignment awaiting delivery, remembering which
/// fragment carried it: uniform delivery must wait until the *order* is
/// stable too — an assignment known only to a minority (e.g. the sequencer
/// alone across a partition) may be re-made differently by the primary
/// component's next sequencer.
#[derive(Debug, Clone, Copy)]
pub(super) struct AppliedAssign {
    pub origin: NodeId,
    pub msg_seq: u64,
    /// Stream that carried the assignment (the sequencer's `SeqAnn`
    /// fragment or the application fragment it piggybacked on).
    pub carrier: NodeId,
    /// The carrier's fragment sequence number within that stream.
    pub carrier_seq: u64,
}

#[derive(Debug)]
pub(super) struct StoredMsg {
    payload: Bytes,
    /// Sequence number of the message's last fragment (for uniform mode).
    last_frag: u64,
}

fn pick_sequencer(members: NodeSet) -> NodeId {
    members.min().expect("nonempty membership")
}

#[derive(Debug)]
pub(super) struct TotalOrder {
    me: NodeId,
    policy: AnnBatchPolicy,
    uniform: bool,
    tentative: bool,
    /// Sticky sequencer: the role moves only when its holder leaves the
    /// membership, so a rejoiner (possibly the lowest-numbered node) never
    /// races a live sequencer.
    pub sequencer: NodeId,
    /// Applied assignments for not-yet-delivered messages.
    pub by_gseq: BTreeMap<u64, AppliedAssign>,
    /// Reverse index of `by_gseq`.
    pub assigned: BTreeSet<(u16, u64)>,
    /// Reliably delivered application messages awaiting total-order delivery.
    pub store: BTreeMap<(u16, u64), StoredMsg>,
    /// Next global sequence number to deliver.
    pub next_deliver: u64,
    /// Highest global sequence number applied anywhere (from SeqAnn).
    pub max_applied: u64,
    /// Sequencer-local assignment counter.
    pub assign_counter: u64,
    /// Assignments made but not yet announced (batching mode).
    pub pending_ann: Vec<SeqAssign>,
    /// `(sender, msg_seq)` keys of `pending_ann`, for O(1) dedup on push.
    pending_keys: BTreeSet<(u16, u64)>,
    pub ann_timer: Option<TimerId>,
    /// Global sequence numbers that can never be delivered (their message
    /// died with its sender) — skipped deterministically by every survivor.
    skipped: BTreeSet<u64>,
}

impl TotalOrder {
    pub fn new(me: NodeId, cfg: &GcsConfig, members: NodeSet) -> Self {
        TotalOrder {
            me,
            policy: cfg.ann_policy,
            uniform: cfg.uniform_delivery,
            tentative: cfg.tentative_delivery,
            sequencer: pick_sequencer(members),
            by_gseq: BTreeMap::new(),
            assigned: BTreeSet::new(),
            store: BTreeMap::new(),
            next_deliver: 1,
            max_applied: 0,
            assign_counter: 1,
            pending_ann: Vec::new(),
            pending_keys: BTreeSet::new(),
            ann_timer: None,
            skipped: BTreeSet::new(),
        }
    }

    pub fn is_sequencer(&self) -> bool {
        self.sequencer == self.me
    }

    /// Files a sequencer's assignment. One at the end of the sequence
    /// space names no next number, so no stack sends it: it is dropped.
    pub fn apply(&mut self, a: SeqAssign, carrier: NodeId, carrier_seq: u64) {
        let Some(next) = a.global_seq.checked_add(1) else { return };
        if a.global_seq < self.next_deliver || !self.assigned.insert((a.sender.0, a.msg_seq)) {
            return;
        }
        self.by_gseq.insert(
            a.global_seq,
            AppliedAssign { origin: a.sender, msg_seq: a.msg_seq, carrier, carrier_seq },
        );
        self.max_applied = self.max_applied.max(a.global_seq);
        self.assign_counter = self.assign_counter.max(next);
    }

    /// Holds a message until its global order is known; returns the
    /// tentative head start if configured (`Bytes` clones share the buffer).
    pub fn hold(
        &mut self,
        origin: NodeId,
        msg_seq: u64,
        payload: Bytes,
        last_frag: u64,
    ) -> Option<Upcall> {
        let tentative =
            self.tentative.then(|| Upcall::Tentative { origin, msg_seq, payload: payload.clone() });
        self.store.insert((origin.0, msg_seq), StoredMsg { payload, last_frag });
        tentative
    }

    /// Queues an assignment (dedup on push: a re-assign after sequencer
    /// recovery must not waste a global sequence number) and consults the
    /// batching policy. Backlog: queued sequencer work *besides* this
    /// assignment — batch-mates already waiting, `queued` untransmitted
    /// messages, and `in_flight` unstable fragments still consuming the
    /// sequencer's buffer share (the §5.3 resource announcements compete
    /// for). All three drain to zero at idle, so the adaptive policy then
    /// flushes in one hop. True: flush now; else a flush timer is armed.
    pub fn assign(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        origin: NodeId,
        msg_seq: u64,
        queued: usize,
        in_flight: u64,
    ) -> bool {
        if !self.pending_keys.insert((origin.0, msg_seq)) {
            return false;
        }
        let global_seq = self.assign_counter;
        self.assign_counter += 1;
        self.pending_ann.push(SeqAssign { sender: origin, msg_seq, global_seq });
        // A sequencer-origin message is assigned through loopback right
        // after its own send, so its fragments are unavoidably still
        // unstable — they are the carrier of this assignment, not backlog.
        let carrier_frags = match self.store.get(&(origin.0, msg_seq)) {
            Some(m) if origin == self.me => m.last_frag - msg_seq + 1,
            _ => 0,
        };
        let backlog = (self.pending_ann.len() - 1)
            + queued
            + (in_flight as usize).saturating_sub(carrier_frags as usize);
        match self.policy.window(backlog) {
            None => true,
            Some(d) => {
                if self.ann_timer.is_none() {
                    self.ann_timer = Some(rt.set_timer(d, TimerKind::AnnFlush));
                }
                false
            }
        }
    }

    /// Drains as many pending announcements as fit in `room` bytes of MTU
    /// slack. The carried assignments then cost zero extra messages; if the
    /// batch empties, the pending flush timer is disarmed.
    pub fn take_piggyback(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        room: usize,
        m: &mut GcsMetrics,
    ) -> Vec<SeqAssign> {
        let k = (room / SeqAssign::LEN).min(self.pending_ann.len());
        if k == 0 {
            return Vec::new();
        }
        let ann: Vec<SeqAssign> = self.pending_ann.drain(..k).collect();
        for a in &ann {
            self.pending_keys.remove(&(a.sender.0, a.msg_seq));
        }
        m.ann_piggybacked += ann.len() as u64;
        if self.pending_ann.is_empty() {
            self.cancel_flush(rt);
        }
        ann
    }

    pub fn cancel_flush(&mut self, rt: &mut dyn ProtocolRuntime) {
        if let Some(id) = self.ann_timer.take() {
            rt.cancel_timer(id);
        }
    }

    /// One wire message per chunk keeps the u16 count field sound under
    /// extreme backlog.
    pub fn next_batch(&mut self, m: &mut GcsMetrics) -> Option<Bytes> {
        const MAX_ANN_CHUNK: usize = 4096;
        if self.pending_ann.is_empty() {
            return None;
        }
        let take = self.pending_ann.len().min(MAX_ANN_CHUNK);
        let batch = encode_seq_ann(&self.pending_ann[..take]);
        for a in self.pending_ann.drain(..take) {
            self.pending_keys.remove(&(a.sender.0, a.msg_seq));
        }
        m.ann_sent += 1;
        m.ann_assigns += take as u64;
        Some(batch)
    }

    /// Uniform mode: deliver only once both the message *and its ordering*
    /// are stable (received by all operational members). Gating on the
    /// carrier keeps an isolated sequencer from delivering an order the
    /// primary component never saw and will re-make differently.
    pub fn next_delivery(&mut self, stable: &[u64]) -> Option<Upcall> {
        while self.skipped.remove(&self.next_deliver) {
            self.next_deliver += 1;
        }
        let g = self.next_deliver;
        let &AppliedAssign { origin, msg_seq, carrier, carrier_seq } = self.by_gseq.get(&g)?;
        let stored = self.store.get(&(origin.0, msg_seq))?;
        if self.uniform
            && (stable[origin.0 as usize] < stored.last_frag
                || stable[carrier.0 as usize] < carrier_seq)
        {
            return None;
        }
        let stored = self.store.remove(&(origin.0, msg_seq)).expect("checked above");
        self.by_gseq.remove(&g);
        self.assigned.remove(&(origin.0, msg_seq));
        self.next_deliver += 1;
        Some(Upcall::Deliver { origin, global_seq: g, payload: stored.payload })
    }

    /// Orphaned assignments: messages sequenced by the old view but whose
    /// content died with its sender can never be delivered — skip their
    /// global sequence numbers (identically at every survivor).
    /// Announcements never sent can be re-assigned from scratch (with a
    /// fresh flush timer: the old one belongs to the dropped batch). Sticky
    /// sequencer: fail over, to the lowest member, only when the holder
    /// left. A *rejoined* lower-numbered node does not reclaim the role (it
    /// would race the incumbent across the unsynchronized install
    /// instants).
    pub fn on_install(&mut self, rt: &mut dyn ProtocolRuntime, members: NodeSet, cut: &[u64]) {
        let (me, assigned, skipped) = (self.me, &mut self.assigned, &mut self.skipped);
        self.by_gseq.retain(|&g, aa| {
            let orphan = !members.contains(aa.origin)
                && aa.origin != me
                && aa.msg_seq > cut[aa.origin.0 as usize];
            if orphan {
                assigned.remove(&(aa.origin.0, aa.msg_seq));
                skipped.insert(g);
            }
            !orphan
        });
        self.pending_ann.clear();
        self.pending_keys.clear();
        self.cancel_flush(rt);
        self.assign_counter = self.max_applied + 1;
        if !members.contains(self.sequencer) {
            self.sequencer = pick_sequencer(members);
        }
    }

    pub fn unassigned(&self) -> Vec<(u16, u64)> {
        self.store.keys().filter(|k| !self.assigned.contains(k)).copied().collect()
    }

    pub fn is_clean(&self) -> bool {
        self.store.is_empty() && self.by_gseq.is_empty() && self.pending_ann.is_empty()
    }

    /// The next global sequence number to deliver, and the skipped orphans
    /// at or beyond it.
    pub fn grant_base(&self) -> (u64, Vec<u64>) {
        (self.next_deliver, self.skipped.range(self.next_deliver..).copied().collect())
    }

    pub fn rebase(&mut self, base: u64, skipped: Vec<u64>, sequencer: NodeId, members: NodeSet) {
        self.next_deliver = base;
        self.max_applied = base.saturating_sub(1);
        self.assign_counter = base;
        self.skipped = skipped.into_iter().collect();
        self.sequencer =
            if members.contains(sequencer) { sequencer } else { pick_sequencer(members) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::mock::MockRt;

    fn assign(origin: u16, msg_seq: u64, global_seq: u64) -> SeqAssign {
        SeqAssign { sender: NodeId(origin), msg_seq, global_seq }
    }

    #[test]
    fn delivers_in_global_order_once_content_and_order_meet() {
        let mut to = TotalOrder::new(NodeId(2), &GcsConfig::lan(3), NodeSet::first_n(3));
        to.apply(assign(1, 4, 2), NodeId(0), 1);
        to.hold(NodeId(1), 4, Bytes::from_static(b"second"), 4);
        assert!(to.next_delivery(&[0; 3]).is_none(), "global seq 1 still missing");
        to.apply(assign(0, 9, 1), NodeId(0), 1);
        assert!(to.next_delivery(&[0; 3]).is_none(), "ordered, but no content yet");
        to.hold(NodeId(0), 9, Bytes::from_static(b"first"), 9);
        let order: Vec<u64> = std::iter::from_fn(|| to.next_delivery(&[0; 3]))
            .map(|u| match u {
                Upcall::Deliver { global_seq, .. } => global_seq,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(order, vec![1, 2]);
        assert!(to.is_clean());
        to.apply(assign(0, 9, 1), NodeId(0), 1);
        assert!(to.by_gseq.is_empty(), "a delivered number is never re-applied");
    }

    #[test]
    fn install_skips_orphans_and_fails_the_sequencer_over() {
        let mut rt = MockRt::default();
        let mut to = TotalOrder::new(NodeId(1), &GcsConfig::lan(3), NodeSet::first_n(3));
        assert!(!to.is_sequencer());
        // Node 0's message 5 was ordered, but node 0 died at cut 4.
        to.apply(assign(0, 5, 1), NodeId(0), 6);
        to.apply(assign(2, 1, 2), NodeId(0), 6);
        to.hold(NodeId(2), 1, Bytes::from_static(b"m"), 1);
        let survivors: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        to.on_install(&mut rt, survivors, &[4, 0, 0]);
        assert!(to.is_sequencer(), "role moves to the lowest survivor");
        assert!(matches!(to.next_delivery(&[0; 3]), Some(Upcall::Deliver { global_seq: 2, .. })));
        assert_eq!(to.grant_base(), (3, Vec::new()), "the orphan was jumped");
    }
}
