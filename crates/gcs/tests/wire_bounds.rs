//! Well-formed frames that no stack of the group sends must not crash,
//! exhaust or hang a node. `NativeBridge` hands every datagram that reaches
//! its port to [`Gcs::on_packet`], so each bound here is checked on a
//! single node fed hand-built frames from node 1 of a 3-node universe.

use bytes::Bytes;
use dbsm_gcs::{
    encode_vote, Envelope, Fragment, Gcs, GcsConfig, Message, NodeId, NodeSet, PayloadKind,
    ProtocolRuntime, SeqAssign, TimerId, TimerKind, Upcall, WireVote,
};
use std::sync::mpsc;
use std::time::Duration;

/// A lead no buffer may be sized by: far enough that an unbounded ring
/// asks for more memory than exists, and fails before it allocates.
const FAR: u64 = 1 << 60;

/// Records what the node sends; time stands still.
#[derive(Default)]
struct Rt {
    sent: Vec<Bytes>,
    timers: u64,
}

impl ProtocolRuntime for Rt {
    fn now_nanos(&mut self) -> u64 {
        0
    }

    fn set_timer(&mut self, _delay: Duration, _kind: TimerKind) -> TimerId {
        self.timers += 1;
        TimerId(self.timers)
    }

    fn cancel_timer(&mut self, _id: TimerId) {}

    fn unicast(&mut self, _to: NodeId, payload: Bytes) {
        self.sent.push(payload);
    }

    fn multicast(&mut self, payload: Bytes) {
        self.sent.push(payload);
    }

    fn charge(&mut self, _cost: Duration) {}
}

fn node0() -> (Gcs, Rt) {
    let mut g = Gcs::new(NodeId(0), GcsConfig::lan(3));
    let mut rt = Rt::default();
    g.on_start(&mut rt);
    g.drain_upcalls();
    rt.sent.clear();
    (g, rt)
}

fn from1(g: &mut Gcs, rt: &mut Rt, msg: Message) {
    g.on_packet(rt, Envelope { sender: NodeId(1), view: 0, msg }.encode());
}

fn frame(seq: u64, kind: PayloadKind, ann: Vec<SeqAssign>, payload: Bytes) -> Message {
    let frag = Fragment { total: 1, idx: 0, kind, ann, payload };
    Message::Data { seq, retrans: false, frag }
}

fn data(seq: u64, ann: Vec<SeqAssign>) -> Message {
    frame(seq, PayloadKind::App, ann, Bytes::from(seq.to_le_bytes().to_vec()))
}

/// Node 1's vote cast as fragment `seq` of its stream.
fn vote(seq: u64) -> Message {
    let vote = WireVote { seq, origin: 1, txn: seq, conflict: None };
    frame(seq, PayloadKind::Vote, vec![], encode_vote(&vote))
}

/// The `txn`s of the votes `g` surfaced from node 1.
fn votes_from1(g: &mut Gcs) -> Vec<u64> {
    g.drain_upcalls()
        .into_iter()
        .filter_map(|u| match u {
            Upcall::Vote { voter: NodeId(1), vote } => Some(vote.txn),
            _ => None,
        })
        .collect()
}

fn members(ids: &[u16]) -> NodeSet {
    ids.iter().map(|&i| NodeId(i)).collect()
}

#[test]
fn a_fragment_far_ahead_of_its_stream_is_dropped() {
    let (mut g, mut rt) = node0();
    from1(&mut g, &mut rt, data(2, vec![]));
    from1(&mut g, &mut rt, data(2 + FAR, vec![]));
    from1(&mut g, &mut rt, data(1, vec![]));
    let delivered =
        g.drain_upcalls().iter().filter(|u| matches!(u, Upcall::Deliver { .. })).count();
    assert_eq!(delivered, 2, "the stream still delivers what its sender sent");
}

#[test]
fn a_vote_far_ahead_of_its_stream_is_dropped() {
    // Votes are fragments: the same lead bound holds them.
    let (mut g, mut rt) = node0();
    from1(&mut g, &mut rt, vote(2));
    from1(&mut g, &mut rt, vote(2 + FAR));
    from1(&mut g, &mut rt, vote(1));
    assert_eq!(votes_from1(&mut g), vec![1, 2]);
}

#[test]
fn a_malformed_vote_payload_is_ignored() {
    let (mut g, mut rt) = node0();
    let short = frame(1, PayloadKind::Vote, vec![], Bytes::from_static(&[7; 3]));
    from1(&mut g, &mut rt, short);
    from1(&mut g, &mut rt, vote(2));
    assert_eq!(votes_from1(&mut g), vec![2], "the stream goes on past the malformed vote");
}

#[test]
fn a_nak_for_a_node_outside_the_universe_is_ignored() {
    let (mut g, mut rt) = node0();
    from1(&mut g, &mut rt, Message::Nak { target: NodeId(9), ranges: vec![(1, 1)] });
    assert!(rt.sent.is_empty(), "nothing to answer");
}

#[test]
fn a_nak_over_the_whole_sequence_space_answers_from_the_cache() {
    let (tx, rx) = mpsc::channel();
    // On a thread of its own, so a scan that walks the whole range fails
    // the timeout instead of hanging the test run.
    let worker = std::thread::spawn(move || {
        let (mut g, mut rt) = node0();
        g.broadcast(&mut rt, Bytes::from_static(b"x"));
        let cached = g.unstable_frags();
        rt.sent.clear();
        let ranges = vec![(1, u64::MAX)];
        from1(&mut g, &mut rt, Message::Nak { target: NodeId(0), ranges });
        tx.send((cached, rt.sent.len())).expect("the test is waiting");
    });
    let (cached, resent) =
        rx.recv_timeout(Duration::from_secs(5)).expect("the NAK is answered within 5 s");
    worker.join().expect("the node thread ends once it has answered");
    assert!(cached > 0);
    assert_eq!(resent, cached, "every cached fragment is resent once");
}

#[test]
fn a_view_install_naming_a_node_outside_the_universe_is_dropped() {
    let (mut g, mut rt) = node0();
    let install =
        Message::ViewInstall { new_view: 1, members: members(&[0, 1, 40]), cut: vec![0; 3] };
    from1(&mut g, &mut rt, install);
    assert_eq!(g.view().id, 0);
    assert!(!g.is_halted());
}

#[test]
fn an_assignment_naming_a_node_outside_the_universe_is_dropped() {
    let (mut g, mut rt) = node0();
    let ann = vec![SeqAssign { sender: NodeId(40), msg_seq: 1, global_seq: 5 }];
    from1(&mut g, &mut rt, data(1, ann));
    // A view change walks every applied assignment by its sender.
    let install = Message::ViewInstall { new_view: 1, members: members(&[0, 1]), cut: vec![0; 3] };
    from1(&mut g, &mut rt, install);
    assert_eq!(g.view().members, members(&[0, 1]));
}

#[test]
fn an_assignment_at_the_end_of_the_sequence_space_is_dropped() {
    let (mut g, mut rt) = node0();
    // Node 1 assigns its own message the last global sequence number; node
    // 0, the sequencer, drops that and orders the message itself.
    let ann = vec![SeqAssign { sender: NodeId(1), msg_seq: 1, global_seq: u64::MAX }];
    from1(&mut g, &mut rt, data(1, ann));
    let delivered =
        g.drain_upcalls().iter().filter(|u| matches!(u, Upcall::Deliver { .. })).count();
    assert_eq!(delivered, 1, "the message still delivers in the sequencer's order");
}
