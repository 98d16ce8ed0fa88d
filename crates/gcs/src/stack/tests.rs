//! Whole-stack tests: single [`Gcs`] instances driven through exact event
//! sequences by [`MockRt`].

use super::*;
use crate::config::{AnnBatchPolicy, MAX_PACKET};
use crate::runtime::mock::MockRt;
use crate::stability::Gossip;
use crate::testkit::TestNet;
use crate::wire::{Field, SeqAssign};
use std::time::Duration;

fn fixed_cfg(n: usize, window: Duration) -> GcsConfig {
    let mut cfg = GcsConfig::lan(n);
    cfg.ann_policy = AnnBatchPolicy::Fixed(window);
    cfg
}

/// `msg` from `sender`, framed as it arrives off the wire.
fn pkt(sender: u16, msg: Message) -> Bytes {
    Envelope { sender: NodeId(sender), view: 0, msg }.encode()
}

/// A single-fragment application message carrying `ann` piggybacked.
fn data(seq: u64, ann: Vec<SeqAssign>, payload: &'static [u8]) -> Message {
    let frag = Fragment {
        total: 1,
        idx: 0,
        kind: PayloadKind::App,
        ann,
        payload: Bytes::from_static(payload),
    };
    Message::Data { seq, retrans: false, frag }
}

fn app_fragment(sender: NodeId, seq: u64, payload: &'static [u8]) -> Bytes {
    pkt(sender.0, data(seq, Vec::new(), payload))
}

fn ann_timer_armed(g: &Gcs, rt: &MockRt) -> bool {
    g.to.ann_timer.is_some_and(|id| !rt.cancelled.contains(&id))
}

/// Decodes everything `rt` sent, newest-last.
fn sent_msgs(rt: &MockRt) -> Vec<Message> {
    rt.sent.iter().filter_map(|raw| Envelope::decode(raw.clone()).ok()).map(|e| e.msg).collect()
}

/// The `(origin, global_seq)` of every delivery among `g`'s upcalls.
fn deliveries(g: &mut Gcs) -> Vec<(NodeId, u64)> {
    g.drain_upcalls()
        .into_iter()
        .filter_map(|u| match u {
            Upcall::Deliver { origin, global_seq, .. } => Some((origin, global_seq)),
            _ => None,
        })
        .collect()
}

fn vote_upcalls(ups: &[Upcall]) -> Vec<(NodeId, WireVote)> {
    ups.iter()
        .filter_map(|u| match u {
            Upcall::Vote { voter, vote } => Some((*voter, *vote)),
            _ => None,
        })
        .collect()
}

/// Drives `g` (node 0 of 3) through a view change that removes node 2:
/// suspect it via the failure detector, then complete the flush with
/// node 1's ack.
/// Drops `gone` from `g`'s 3-node view: the third member stays heard, `g`
/// suspects `gone`, coordinates the flush and installs the 2-node view.
fn remove_node(rt: &mut MockRt, g: &mut Gcs, gone: NodeId) {
    let other = (0..3).map(NodeId).find(|&n| n != g.me && n != gone).expect("3-node view");
    rt.now += 10 * g.cfg.failure_timeout.as_nanos() as u64;
    g.peers[usize::from(other.0)].last_heard = rt.now;
    g.on_timer(rt, TimerKind::FailureCheck);
    assert!(matches!(g.phase, Phase::Flushing { .. }), "flush started");
    let ack = Message::FlushAck { new_view: 1, received: g.received_vec() };
    g.on_packet(rt, pkt(other.0, ack));
    assert!(matches!(g.phase, Phase::Stable), "view installed");
    assert_eq!(g.view().members.len(), 2);
}

fn flush_req(members: NodeSet) -> Bytes {
    pkt(1, Message::FlushReq { new_view: 1, members })
}

#[test]
fn flush_timer_fired_mid_view_change_does_not_strand_the_batch() {
    // Regression for the stale-batch edge: the sequencer's flush timer
    // fires while a view change is in progress (outside `Phase::Stable`),
    // which used to leave the pending announcements with no armed timer.
    // On re-entry to `Stable` the batch must be re-scheduled.
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(600)));
    g.on_start(&mut rt);
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"txn"));
    assert_eq!(g.to.pending_ann.len(), 1, "assignment queued for batching");
    assert!(ann_timer_armed(&g, &rt), "flush timer armed");

    // Node 1 coordinates a view change excluding node 2.
    let members: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
    g.on_packet(&mut rt, flush_req(members));
    // The armed flush timer fires mid-flush: the batch is retained but
    // its timer is gone — the stranded state under test.
    g.on_timer(&mut rt, TimerKind::AnnFlush);
    assert_eq!(g.to.pending_ann.len(), 1, "batch retained across the view change");
    assert!(!ann_timer_armed(&g, &rt), "timer consumed mid-flush");
    assert_eq!(g.metrics().ann_sent, 0, "nothing announced while flushing");

    let install = Message::ViewInstall { new_view: 1, members, cut: vec![0, 1, 0] };
    g.on_packet(&mut rt, pkt(1, install));
    assert!(matches!(g.phase, Phase::Stable), "view installed");
    assert_eq!(g.to.pending_ann.len(), 1, "assignment re-queued by the new-view pass");
    assert!(ann_timer_armed(&g, &rt), "batch re-scheduled on re-entry to Stable");

    // The re-armed timer fires: the announcement goes out and the
    // message is delivered in total order.
    g.on_timer(&mut rt, TimerKind::AnnFlush);
    let m = g.metrics();
    assert_eq!((m.ann_sent, m.ann_assigns), (1, 1));
    assert!(rt.cancelled.is_empty(), "fired timers must not be cancelled (runtime set leak)");
    assert_eq!(deliveries(&mut g), vec![(NodeId(1), 1)]);
}

#[test]
fn losing_the_majority_halts_instead_of_forming_a_rump_view() {
    // Primary-component rule: a node that suspects a majority of its
    // view (the small side of a partition) must halt, not install a
    // singleton view and keep sequencing — that is the split-brain that
    // would diverge commit logs.
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(1)));
    g.on_start(&mut rt);
    // Silence from both peers for longer than the failure timeout.
    rt.now = 10 * g.cfg.failure_timeout.as_nanos() as u64;
    g.on_timer(&mut rt, TimerKind::FailureCheck);
    assert!(g.is_halted(), "minority survivor must halt");
    assert!(
        g.drain_upcalls().iter().any(|u| matches!(u, Upcall::Excluded)),
        "halt surfaces as Excluded"
    );
    assert_eq!(g.view().id, 0, "no rump view was installed");
}

#[test]
fn majority_suspicion_still_reconfigures() {
    // Suspecting one node of three leaves a majority: the survivor
    // coordinates a flush instead of halting.
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(1)));
    g.on_start(&mut rt);
    let t = 10 * g.cfg.failure_timeout.as_nanos() as u64;
    rt.now = t;
    // Node 1 keeps talking, node 2 stays silent.
    g.peers[1].last_heard = t;
    g.on_timer(&mut rt, TimerKind::FailureCheck);
    assert!(!g.is_halted());
    assert!(matches!(g.phase, Phase::Flushing { .. }), "flush towards {{0,1}} started");
}

#[test]
fn minority_view_proposals_are_refused_by_halting() {
    // Defense in depth: even a received FlushReq / ViewInstall proposing
    // a non-primary membership (including us) halts the node.
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(4, Duration::from_millis(1)));
    g.on_start(&mut rt);
    g.on_packet(&mut rt, flush_req([NodeId(0), NodeId(1)].into_iter().collect()));
    assert!(g.is_halted(), "2 of 4 is not a primary component");
}

#[test]
fn uniform_delivery_waits_for_the_order_to_be_stable() {
    // Uniform mode gates on the carrier fragment of the assignment, not
    // just the message content: an assignment only this node has seen
    // must not deliver.
    let mut cfg = fixed_cfg(3, Duration::from_millis(5));
    cfg.uniform_delivery = true;
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(2), cfg);
    g.on_start(&mut rt);
    // Content: node 1's message, fragment 1.
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"m"));
    // Order: sequencer node 0's fragment 1 carries the assignment.
    let a = SeqAssign { sender: NodeId(1), msg_seq: 1, global_seq: 1 };
    g.on_packet(&mut rt, pkt(0, data(1, vec![a], b"carrier")));
    assert!(
        !g.drain_upcalls().iter().any(|u| matches!(u, Upcall::Deliver { .. })),
        "nothing may deliver before content AND carrier are stable"
    );
    assert_eq!(g.to.by_gseq.len(), 1, "assignment applied, delivery gated");
    let aa = g.to.by_gseq[&1];
    assert_eq!((aa.origin, aa.msg_seq), (NodeId(1), 1));
    assert_eq!((aa.carrier, aa.carrier_seq), (NodeId(0), 1), "carrier recorded for the gate");
}

#[test]
fn duplicate_assign_is_dropped_from_the_batch() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(5)));
    g.on_start(&mut rt);
    g.assign(&mut rt, NodeId(1), 7);
    g.assign(&mut rt, NodeId(1), 7);
    assert_eq!(g.to.pending_ann.len(), 1, "duplicate dropped on push");
    assert_eq!(g.to.assign_counter, 2, "duplicate burned no global sequence number");
    g.assign(&mut rt, NodeId(1), 8);
    assert_eq!(g.to.pending_ann.len(), 2);
    assert_eq!(g.to.assign_counter, 3);
}

#[test]
fn pending_announcements_piggyback_on_app_fragments() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(10)));
    g.on_start(&mut rt);
    // A remote message is assigned and held for the batching window...
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"remote"));
    assert_eq!(g.to.pending_ann.len(), 1);
    // ...then the sequencer sends application traffic of its own: the
    // assignment rides the fragment's MTU slack, costing zero messages.
    g.broadcast(&mut rt, Bytes::from_static(b"own"));
    let m = g.metrics();
    assert_eq!(m.ann_piggybacked, 1, "assignment piggybacked");
    assert_eq!(m.ann_sent, 0, "no SeqAnn message spent");
    // The broadcast's own message was assigned at loopback *after* its
    // fragment left, so exactly that one assignment is waiting now.
    assert_eq!(g.to.pending_ann.len(), 1);
    assert_eq!(g.to.pending_ann[0].sender, NodeId(0));
    assert!(ann_timer_armed(&g, &rt), "fresh assignment re-armed the flush timer");
    // The carried assignment is on the wire...
    let carried = sent_msgs(&rt)
        .iter()
        .any(|m| matches!(m, Message::Data { frag, .. } if !frag.ann.is_empty()));
    assert!(carried, "an outgoing fragment carries the assignment");
    // ...and applied through loopback: the remote message delivers.
    assert_eq!(deliveries(&mut g), vec![(NodeId(1), 1)]);
}

#[test]
fn beyond_cut_piggyback_is_never_applied() {
    // Agreement discipline: assignments piggybacked on a fragment beyond
    // the agreed view-change cut must never be applied — they apply only
    // when the carrier joins the contiguous prefix, exactly like a
    // `SeqAnn` through the stream. A survivor that applied a beyond-cut
    // straggler while its peers did not would diverge after install.
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    // Sequencer node 0's fragment seq 2 arrives out of order (seq 1
    // lost), carrying a piggybacked assignment.
    let a = SeqAssign { sender: NodeId(1), msg_seq: 9, global_seq: 5 };
    g.on_packet(&mut rt, pkt(0, data(2, vec![a], b"late")));
    assert!(g.to.assigned.is_empty(), "out-of-order carrier: assignment must wait");
    assert_eq!(g.to.max_applied, 0);
    // Node 0 dies; node 1 coordinates a view change whose cut excludes
    // the straggler (no survivor acked fragment 1, let alone 2).
    let members: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
    g.on_packet(&mut rt, flush_req(members));
    let install = Message::ViewInstall { new_view: 1, members, cut: vec![0, 0, 0] };
    g.on_packet(&mut rt, pkt(1, install));
    assert!(matches!(g.phase, Phase::Stable), "view installed");
    assert!(g.to.assigned.is_empty(), "beyond-cut assignment never applied");
    assert_eq!(g.to.max_applied, 0, "assign counters untouched by the dropped straggler");
}

#[test]
fn piggyback_respects_mtu_slack() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(10)));
    g.on_start(&mut rt);
    for i in 0..200 {
        g.assign(&mut rt, NodeId(1), i + 1);
    }
    // A payload one byte under the fragment limit leaves room for no
    // assignment at all; a tiny one carries as many as fit.
    g.broadcast(&mut rt, Bytes::from(vec![0u8; FRAG_PAYLOAD - 1]));
    assert_eq!(g.metrics().ann_piggybacked, 0, "no slack, no piggyback");
    g.broadcast(&mut rt, Bytes::from_static(b"x"));
    let max_fit = ((FRAG_PAYLOAD - 1) / SeqAssign::LEN) as u64;
    assert_eq!(g.metrics().ann_piggybacked, max_fit, "slack filled to the MTU");
    // Each broadcast's own message joins the batch at loopback: 200
    // seeded assignments + 2 own, minus what the second fragment carried.
    assert_eq!(g.to.pending_ann.len(), 202 - max_fit as usize, "rest stays batched");
    assert!(ann_timer_armed(&g, &rt), "remaining batch keeps its timer");
}

fn tentative_count(ups: &[Upcall]) -> usize {
    ups.iter().filter(|u| matches!(u, Upcall::Tentative { .. })).count()
}

#[test]
fn tentative_delivery_precedes_total_order_when_configured() {
    let mut rt = MockRt::default();
    let mut cfg = fixed_cfg(3, Duration::ZERO); // zero window: announce at once
    cfg.tentative_delivery = true;
    let mut g = Gcs::new(NodeId(0), cfg);
    g.on_start(&mut rt);
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"txn"));
    let ups = g.drain_upcalls();
    let tent = ups.iter().position(|u| {
        matches!(u, Upcall::Tentative { origin, msg_seq, payload }
            if *origin == NodeId(1) && *msg_seq == 1 && payload.as_ref() == b"txn")
    });
    let deliv = ups.iter().position(|u| {
        matches!(u, Upcall::Deliver { origin, payload, .. }
            if *origin == NodeId(1) && payload.as_ref() == b"txn")
    });
    assert!(tent.is_some(), "tentative upcall emitted: {ups:?}");
    assert!(deliv.is_some(), "total-order delivery still follows: {ups:?}");
    assert!(tent < deliv, "the head start precedes the total order");
    assert_eq!(tentative_count(&ups), 1);
    assert_eq!(g.metrics().delivered, 1);
}

#[test]
fn tentative_delivery_covers_own_loopback_messages() {
    // The origin's own messages complete through the send-path loopback
    // rather than on_packet; they must get the same head start, since the
    // origin site speculates on its own transactions too.
    let mut rt = MockRt::default();
    let mut cfg = fixed_cfg(2, Duration::ZERO);
    cfg.tentative_delivery = true;
    let mut g = Gcs::new(NodeId(0), cfg);
    g.on_start(&mut rt);
    g.broadcast(&mut rt, Bytes::from_static(b"mine"));
    let ups = g.drain_upcalls();
    assert!(
        ups.iter().any(|u| matches!(u, Upcall::Tentative { origin, .. } if *origin == NodeId(0))),
        "loopback message tentatively delivered: {ups:?}"
    );
    assert_eq!(tentative_count(&ups), 1);
}

#[test]
fn tentative_delivery_is_off_by_default() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::ZERO));
    g.on_start(&mut rt);
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"txn"));
    let ups = g.drain_upcalls();
    assert_eq!(tentative_count(&ups), 0, "no tentative upcalls unless configured: {ups:?}");
    assert_eq!(g.metrics().delivered, 1, "normal delivery unaffected");
}

#[test]
fn join_req_is_granted_at_an_order_clean_point() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    remove_node(&mut rt, &mut g, NodeId(2));
    g.drain_upcalls();

    // Node 2 restarts and asks to rejoin; the group is idle, so the
    // grant is immediate.
    g.on_packet(&mut rt, pkt(2, Message::JoinReq));
    let ups = g.drain_upcalls();
    let serve = ups.iter().position(|u| *u == Upcall::ServeJoin { joiner: NodeId(2) });
    let vc = ups.iter().position(|u| matches!(u, Upcall::ViewChange(v) if v.members.len() == 3));
    assert!(serve.is_some(), "granter serves the transfer: {ups:?}");
    assert!(vc.is_some(), "member-add view installed: {ups:?}");
    assert!(serve < vc, "transfer is primed before the new view");
    assert_eq!(g.view().id, 2);
    assert_eq!(g.sequencer(), NodeId(0), "sequencer role unchanged");
    let msgs = sent_msgs(&rt);
    assert!(
        msgs.iter().any(|m| matches!(m, Message::JoinGrant { new_view: 2, .. })),
        "grant unicast: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| matches!(m, Message::ViewInstall { new_view: 2, members, .. }
                if members.len() == 3)),
        "member-add install multicast: {msgs:?}"
    );
    assert!(g.peers[2].recv.freeze_at.is_none(), "rejoined stream unfrozen");
}

#[test]
fn grant_waits_until_the_order_is_clean() {
    // An application message whose announcement is still batched keeps
    // the group order-dirty: the join latches and is granted only once
    // the message has delivered (checked at the gossip beat).
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(600)));
    g.on_start(&mut rt);
    remove_node(&mut rt, &mut g, NodeId(2));
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"txn"));
    assert!(!g.to.store.is_empty(), "undelivered message in the store");

    g.on_packet(&mut rt, pkt(2, Message::JoinReq));
    assert_eq!(g.pending_join, Some(NodeId(2)), "join latched, not granted");
    assert!(!sent_msgs(&rt).iter().any(|m| matches!(m, Message::JoinGrant { .. })));

    // The batch flushes, the message delivers, and the next gossip beat
    // admits the joiner.
    g.on_timer(&mut rt, TimerKind::AnnFlush);
    assert!(g.to.store.is_empty(), "message delivered");
    g.on_timer(&mut rt, TimerKind::Gossip);
    assert_eq!(g.pending_join, None);
    let grant = sent_msgs(&rt).into_iter().find_map(|m| match m {
        Message::JoinGrant { order_base, .. } => Some(order_base),
        _ => None,
    });
    assert_eq!(grant, Some(2), "order base covers the delivered message");
    assert_eq!(g.view().members.len(), 3);
}

#[test]
fn repeated_join_req_resends_the_stored_grant() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    remove_node(&mut rt, &mut g, NodeId(2));
    g.on_packet(&mut rt, pkt(2, Message::JoinReq));
    assert_eq!(g.view().id, 2);
    let grants = |rt: &MockRt| {
        sent_msgs(rt).iter().filter(|m| matches!(m, Message::JoinGrant { .. })).count()
    };
    let grants_before = grants(&rt);
    // The grant was lost: the joiner keeps retrying, and each retry
    // resends the stored grant + install instead of re-granting.
    g.on_packet(&mut rt, pkt(2, Message::JoinReq));
    assert_eq!(grants(&rt), grants_before + 1, "stored grant resent");
    assert_eq!(g.view().id, 2, "no second view change");
    let ups = g.drain_upcalls();
    assert_eq!(
        ups.iter().filter(|u| matches!(u, Upcall::ServeJoin { .. })).count(),
        1,
        "transfer served once: {ups:?}"
    );
}

#[test]
fn joiner_adopts_the_granted_baselines() {
    let mut rt = MockRt::default();
    let mut g = Gcs::rejoin(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    assert!(g.is_joining());
    assert!(
        sent_msgs(&rt).iter().any(|m| matches!(m, Message::JoinReq)),
        "rejoiner announces itself"
    );
    assert!(g.drain_upcalls().is_empty(), "no view reported while joining");
    // Deaf to regular traffic while joining.
    g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"early"));
    assert_eq!(g.peers[1].recv.contiguous, 0, "the early fragment was not taken in");

    let grant = |new_view, cut, order_base, skipped| Message::JoinGrant {
        new_view,
        members: NodeSet::first_n(3),
        cut,
        order_base,
        skipped,
        sequencer: NodeId(1),
    };
    g.on_packet(&mut rt, pkt(1, grant(4, vec![5, 7, 4], 9, vec![11])));
    assert!(!g.is_joining());
    assert_eq!(g.view(), View { id: 4, members: NodeSet::first_n(3) });
    assert_eq!(g.sequencer(), NodeId(1), "adopts the sticky sequencer");
    assert_eq!(g.to.next_deliver, 9);
    assert_eq!(g.send.next_frag, 5, "own stream resumes past the cut");
    assert_eq!(g.peers[0].recv.contiguous, 5);
    assert_eq!(g.peers[1].recv.contiguous, 7);
    let ups = g.drain_upcalls();
    assert_eq!(
        ups,
        vec![Upcall::ViewChange(View { id: 4, members: NodeSet::first_n(3) }), Upcall::Rejoined]
    );
    // A duplicate grant is ignored.
    g.on_packet(&mut rt, pkt(1, grant(5, vec![0, 0, 0], 1, Vec::new())));
    assert_eq!(g.view().id, 4, "duplicate grant ignored");
    // Post-rejoin traffic flows: node 1's next fragment (8) continues
    // its stream, and the skipped orphan is honoured.
    g.on_packet(&mut rt, app_fragment(NodeId(1), 8, b"txn"));
    let ann = vec![
        SeqAssign { sender: NodeId(1), msg_seq: 8, global_seq: 9 },
        SeqAssign { sender: NodeId(1), msg_seq: 9, global_seq: 10 },
    ];
    g.on_packet(&mut rt, pkt(1, data(9, ann, b"txn2")));
    let delivered: Vec<u64> = deliveries(&mut g).into_iter().map(|(_, s)| s).collect();
    assert_eq!(delivered, vec![9, 10], "delivery resumes from the order base");
    assert_eq!(g.to.next_deliver, 12, "skipped orphan 11 deterministically jumped");
}

#[test]
fn rejoined_lowest_member_does_not_reclaim_the_sequencer_role() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(1), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    assert_eq!(g.sequencer(), NodeId(0), "the lowest member starts as sequencer");
    remove_node(&mut rt, &mut g, NodeId(0));
    assert_eq!(g.sequencer(), NodeId(1), "failover to the lowest survivor");
    g.on_packet(&mut rt, pkt(0, Message::JoinReq));
    assert_eq!(g.view().members.len(), 3);
    assert_eq!(g.sequencer(), NodeId(1), "the rejoiner does not reclaim the role");
}

/// `vote` as fragment `seq` of its voter's data stream.
fn vote_data(seq: u64, vote: WireVote) -> Message {
    let frag = Fragment {
        total: 1,
        idx: 0,
        kind: PayloadKind::Vote,
        ann: Vec::new(),
        payload: encode_vote(&vote),
    };
    Message::Data { seq, retrans: false, frag }
}

/// The `(fragment seq, vote)` of every vote fragment `rt` sent.
fn sent_votes(rt: &MockRt) -> Vec<(u64, WireVote)> {
    sent_msgs(rt)
        .into_iter()
        .filter_map(|m| match m {
            Message::Data { seq, frag, .. } if frag.kind == PayloadKind::Vote => {
                Some((seq, decode_vote(frag.payload).expect("well-formed vote")))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn cast_vote_loops_back_and_flushes_standalone() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    g.cast_vote(&mut rt, 1, 7, None);
    g.cast_vote(&mut rt, 2, 3, Some(41));
    let ups = g.drain_upcalls();
    let votes = vote_upcalls(&ups);
    assert_eq!(votes.len(), 2, "each verdict looped back exactly once: {ups:?}");
    assert_eq!(votes[0].0, NodeId(0));
    assert_eq!(votes[0].1, WireVote { seq: 1, origin: 1, txn: 7, conflict: None });
    assert_eq!(votes[1].1, WireVote { seq: 2, origin: 2, txn: 3, conflict: Some(41) });
    // Idle sender: each cast leaves at once as a message of its own on the
    // data stream, and stays buffered for repair until it is stable.
    assert_eq!(sent_votes(&rt), vec![(1, votes[0].1), (2, votes[1].1)]);
    assert_eq!(g.metrics().votes_sent, 2);
    assert_eq!(g.unstable_frags(), 2);
    assert!(g.to.store.is_empty() && g.to.pending_ann.is_empty(), "votes are never sequenced");
}

#[test]
fn received_votes_surface_in_stream_order_and_are_acked() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    let v1 = WireVote { seq: 1, origin: 1, txn: 1, conflict: None };
    let v2 = WireVote { seq: 2, origin: 1, txn: 2, conflict: Some(9) };
    // Fragment 2 arrives first: buffered, not surfaced.
    g.on_packet(&mut rt, pkt(1, vote_data(2, v2)));
    assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "gap holds the stream");
    // Fragment 1 closes the gap: both surface, in cast order.
    let fill = pkt(1, vote_data(1, v1));
    g.on_packet(&mut rt, fill.clone());
    let votes = vote_upcalls(&g.drain_upcalls());
    assert_eq!(votes, vec![(NodeId(1), v1), (NodeId(1), v2)]);
    assert_eq!(g.metrics().votes_received, 2);
    g.on_packet(&mut rt, fill);
    assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "duplicate dropped");
    // The sequencer orders none of them, and receipt costs no frame of its
    // own: the next stability gossip acknowledges both fragments.
    assert!(g.to.store.is_empty() && g.to.pending_ann.is_empty(), "votes are never sequenced");
    assert!(rt.sent.is_empty(), "nothing answered: {:?}", sent_msgs(&rt));
    g.on_timer(&mut rt, TimerKind::Gossip);
    let acked = sent_msgs(&rt).into_iter().find_map(|m| match m {
        Message::Gossip(gossip) => Some(gossip.m[1]),
        _ => None,
    });
    assert_eq!(acked, Some(2), "the gossip reports node 1's stream received through 2");
}

#[test]
fn a_vote_surfaces_before_the_delivery_its_advance_releases() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    // The sequencer's vote on its own message overtook the fragment that
    // carries the message and its order: buffered behind the gap.
    let v = WireVote { seq: 1, origin: 0, txn: 1, conflict: None };
    g.on_packet(&mut rt, pkt(0, vote_data(2, v)));
    assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "gap holds the stream");
    let a = SeqAssign { sender: NodeId(0), msg_seq: 1, global_seq: 1 };
    g.on_packet(&mut rt, pkt(0, data(1, vec![a], b"m")));
    let order: Vec<&str> = g
        .drain_upcalls()
        .iter()
        .map(|u| match u {
            Upcall::Vote { .. } => "vote",
            Upcall::Deliver { .. } => "deliver",
            _ => "other",
        })
        .collect();
    assert_eq!(order, ["vote", "deliver"], "the vote is filed before its transaction delivers");
}

#[test]
fn unacked_votes_resend_until_acked_then_gc() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    g.cast_vote(&mut rt, 0, 1, None);
    let sent = sent_votes(&rt);
    rt.sent.clear();
    // A peer lost it: its NAK is answered from the send buffer.
    g.on_packet(&mut rt, pkt(1, Message::Nak { target: NodeId(0), ranges: vec![(1, 1)] }));
    assert_eq!(sent_votes(&rt), sent, "the same vote resent");
    assert_eq!(g.metrics().retrans_sent, 1);
    // Once every member holds it, stability collects it.
    let stable = Gossip { round: 0, w: NodeSet::EMPTY, m: vec![u64::MAX; 3], s: vec![1, 0, 0] };
    g.on_packet(&mut rt, pkt(1, Message::Gossip(stable)));
    assert_eq!(g.unstable_frags(), 0);
}

#[test]
fn vote_frames_respect_the_packet_size_cap() {
    // A burst of votes leaves as one fragment per vote, and the NAK
    // answers that repair it reuse those fragments: the network drops
    // oversized datagrams, so a frame over `MAX_PACKET` would be lost on
    // every transmission.
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    for txn in 0..300 {
        g.cast_vote(&mut rt, 0, txn, Some(txn));
    }
    assert_eq!(sent_votes(&rt).len(), 300, "every vote of the burst went out");
    g.on_packet(&mut rt, pkt(1, Message::Nak { target: NodeId(0), ranges: vec![(1, 300)] }));
    assert!(g.metrics().retrans_sent > 0);
    for raw in &rt.sent {
        assert!(raw.len() <= MAX_PACKET, "{} > MAX_PACKET", raw.len());
    }
}

#[test]
fn view_change_drops_the_dead_receiver_from_vote_gc() {
    let mut rt = MockRt::default();
    let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    g.cast_vote(&mut rt, 0, 1, None);
    // Node 1 holds the vote; node 2 crashed without it, so it stays.
    remove_node(&mut rt, &mut g, NodeId(2));
    assert_eq!(g.unstable_frags(), 1, "not yet stable in the new view");
    // The new view's stability round needs node 1 and us only.
    g.on_timer(&mut rt, TimerKind::Gossip);
    let w = [NodeId(1)].into_iter().collect();
    let round = Gossip { round: 1, w, m: vec![1, 0, 0], s: vec![0, 0, 0] };
    g.on_packet(&mut rt, pkt(1, Message::Gossip(round)));
    assert_eq!(g.unstable_frags(), 0, "the dead receiver no longer gates gc");
}

/// The votes `net` surfaced at `node` from `voter`, as `txn`s.
fn surfaced(net: &TestNet, node: u16, voter: u16) -> Vec<u64> {
    vote_upcalls(&net.upcalls[usize::from(node)])
        .into_iter()
        .filter(|(v, _)| *v == NodeId(voter))
        .map(|(_, vote)| vote.txn)
        .collect()
}

#[test]
fn votes_cast_behind_a_full_buffer_share_still_reach_every_peer() {
    // Votes compete with application data for the sender's share: cast
    // while it is full, they wait their turn and then go out.
    let mut cfg = GcsConfig::lan(3);
    cfg.total_buffer_frags = 3 * 8;
    let mut net = TestNet::new(cfg);
    for k in 0..12u8 {
        net.broadcast(NodeId(1), Bytes::from(vec![k; 3 * FRAG_PAYLOAD]));
    }
    let queued = net.nodes[1].borrow().send.pending.len();
    assert!(queued > 0, "the share is full");
    for txn in 0..5 {
        net.cast_vote(NodeId(1), 1, txn, None);
    }
    net.run_for(Duration::from_secs(2));
    for node in 0..3 {
        assert_eq!(surfaced(&net, node, 1), (0..5).collect::<Vec<_>>(), "node {node}");
        assert_eq!(net.deliveries(NodeId(node)).len(), 12, "node {node}");
    }
    assert!(net.nodes[1].borrow().metrics().blocked_ns > 0, "the sender did block");
}

#[test]
fn a_dead_voters_vote_reaches_every_survivor_once() {
    // Node 3's vote reaches node 0 only, and node 3 dies: the view
    // change's flush agrees on node 3's stream, so the survivors that
    // missed the vote repair it from node 0.
    let mut net = TestNet::new(GcsConfig::lan(4));
    net.run_for(Duration::from_millis(10));
    net.set_drop_fn(|from, to, _| from == NodeId(3) && to != NodeId(0));
    net.cast_vote(NodeId(3), 3, 42, None);
    net.run_for(Duration::from_millis(1));
    net.crash(NodeId(3));
    net.run_for(Duration::from_secs(3));
    for node in 0..3 {
        assert_eq!(net.nodes[usize::from(node)].borrow().view().members.len(), 3);
        assert_eq!(surfaced(&net, node, 3), vec![42], "node {node}");
    }
}

#[test]
fn a_rejoiner_surfaces_no_vote_from_below_its_grant_baseline() {
    let mut net = TestNet::new(GcsConfig::lan(3));
    net.cast_vote(NodeId(1), 1, 0, None);
    net.run_for(Duration::from_millis(10));
    net.crash(NodeId(2));
    net.cast_vote(NodeId(1), 1, 1, None);
    net.run_for(Duration::from_secs(2));
    net.restart(NodeId(2), GcsConfig::lan(3));
    net.run_for(Duration::from_secs(1));
    assert!(!net.nodes[2].borrow().is_joining(), "rejoined");
    let before = net.upcalls[2].len();
    net.cast_vote(NodeId(1), 1, 2, None);
    net.run_for(Duration::from_secs(1));
    // The rejoiner's baseline covers votes 0 and 1, which the state
    // transfer would carry: it surfaces vote 2 only.
    let after: Vec<u64> = vote_upcalls(&net.upcalls[2][before..]).iter().map(|v| v.1.txn).collect();
    assert_eq!(after, vec![2]);
    assert_eq!(surfaced(&net, 2, 1), vec![0, 2], "vote 0 before the crash, then vote 2");
    assert_eq!(surfaced(&net, 0, 1), vec![0, 1, 2]);
}

#[test]
fn rejoining_and_halted_nodes_do_not_vote() {
    let mut rt = MockRt::default();
    let mut g = Gcs::rejoin(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
    g.on_start(&mut rt);
    g.cast_vote(&mut rt, 2, 1, None);
    assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "joiner casts nothing");
    assert_eq!(g.metrics().votes_sent, 0);
    // A halted node neither casts nor processes votes.
    let mut h = Gcs::new(NodeId(0), fixed_cfg(4, Duration::from_millis(1)));
    h.on_start(&mut rt);
    h.on_packet(&mut rt, flush_req([NodeId(1), NodeId(2)].into_iter().collect()));
    assert!(h.is_halted());
    h.drain_upcalls();
    h.cast_vote(&mut rt, 0, 1, None);
    let vote = WireVote { seq: 1, origin: 1, txn: 1, conflict: None };
    h.on_packet(&mut rt, pkt(1, vote_data(1, vote)));
    assert!(vote_upcalls(&h.drain_upcalls()).is_empty(), "halted node is silent");
}
