//! Property tests of the GCS wire format: arbitrary envelopes of every kind
//! round-trip, every strict prefix of one is rejected as truncated, and
//! arbitrary byte soup never panics the decoder (robustness to stray
//! datagrams, which the stack drops silently).

use bytes::Bytes;
use dbsm_gcs::{
    decode_seq_ann, decode_vote, encode_seq_ann, encode_vote, Envelope, Fragment, Gossip, Message,
    NodeId, NodeSet, PayloadKind, SeqAssign, WireError, WireVote,
};
use proptest::prelude::*;

fn arb_nodeset() -> impl Strategy<Value = NodeSet> {
    any::<u64>().prop_map(NodeSet::from_bits)
}

fn arb_vec64(n: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 0..n)
}

fn arb_seq_assign() -> impl Strategy<Value = SeqAssign> {
    (0u16..64, any::<u64>(), any::<u64>()).prop_map(|(s, m, g)| SeqAssign {
        sender: NodeId(s),
        msg_seq: m,
        global_seq: g,
    })
}

fn arb_wire_vote() -> impl Strategy<Value = WireVote> {
    (any::<u64>(), any::<u16>(), any::<u64>(), prop::option::of(any::<u64>()))
        .prop_map(|(seq, origin, txn, conflict)| WireVote { seq, origin, txn, conflict })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u64>(),
            1u16..64,
            any::<bool>(),
            prop_oneof![Just(PayloadKind::App), Just(PayloadKind::SeqAnn), Just(PayloadKind::Vote)],
            prop::collection::vec(arb_seq_assign(), 0..8),
            prop::collection::vec(any::<u8>(), 0..512)
        )
            .prop_flat_map(|(seq, total, retrans, kind, ann, payload)| {
                (0..total).prop_map(move |idx| Message::Data {
                    seq,
                    retrans,
                    frag: Fragment {
                        total,
                        idx,
                        kind,
                        ann: ann.clone(),
                        payload: Bytes::from(payload.clone()),
                    },
                })
            }),
        (0u16..64, prop::collection::vec((any::<u64>(), any::<u64>()), 0..16))
            .prop_map(|(t, ranges)| Message::Nak { target: NodeId(t), ranges }),
        (any::<u64>(), arb_nodeset(), arb_vec64(16)).prop_map(|(round, w, m)| {
            let s = m.iter().map(|v| v / 2).collect();
            Message::Gossip(Gossip { round, w, m, s })
        }),
        any::<u64>().prop_map(|sent| Message::Heartbeat { sent }),
        (any::<u64>(), arb_nodeset())
            .prop_map(|(v, m)| Message::FlushReq { new_view: v, members: m }),
        (any::<u64>(), arb_vec64(16))
            .prop_map(|(v, r)| Message::FlushAck { new_view: v, received: r }),
        (any::<u64>(), arb_nodeset(), arb_vec64(16)).prop_map(|(v, m, c)| Message::ViewInstall {
            new_view: v,
            members: m,
            cut: c
        }),
        Just(Message::JoinReq),
        (any::<u64>(), arb_nodeset(), arb_vec64(16), any::<u64>(), arb_vec64(16), 0u16..64)
            .prop_map(|(v, members, cut, order_base, skipped, s)| Message::JoinGrant {
                new_view: v,
                members,
                cut,
                order_base,
                skipped,
                sequencer: NodeId(s),
            }),
    ]
}

proptest! {
    #[test]
    fn envelopes_roundtrip(sender in 0u16..64, view in any::<u64>(), msg in arb_message()) {
        let env = Envelope { sender: NodeId(sender), view, msg };
        let decoded = Envelope::decode(env.encode()).expect("roundtrip");
        prop_assert_eq!(decoded, env);
    }

    #[test]
    fn strict_prefixes_are_truncated(
        sender in 0u16..64, view in any::<u64>(), msg in arb_message()
    ) {
        let env = Envelope { sender: NodeId(sender), view, msg };
        let wire = env.encode();
        // A data frame's payload is the rest of the packet: a cut inside it
        // is the same frame with a shorter payload.
        let payload = match &env.msg {
            Message::Data { frag, .. } => frag.payload.clone(),
            _ => Bytes::new(),
        };
        let header = wire.len() - payload.len();
        for cut in 0..wire.len() {
            let got = Envelope::decode(wire.slice(0..cut));
            if cut < header {
                prop_assert_eq!(got, Err(WireError::Truncated), "cut {} of {}", cut, wire.len());
            } else {
                let mut short = env.clone();
                if let Message::Data { frag, .. } = &mut short.msg {
                    frag.payload = payload.slice(0..cut - header);
                }
                prop_assert_eq!(got, Ok(short));
            }
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Envelope::decode(Bytes::from(bytes));
    }

    #[test]
    fn decoder_never_panics_on_truncated_valid(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let env = Envelope { sender: NodeId(1), view: 3, msg };
        let wire = env.encode();
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        let _ = Envelope::decode(wire.slice(0..cut));
    }

    #[test]
    fn seq_ann_roundtrips(assigns in prop::collection::vec(
        (0u16..64, any::<u64>(), any::<u64>()), 0..64)
    ) {
        let assigns: Vec<SeqAssign> = assigns
            .into_iter()
            .map(|(s, m, g)| SeqAssign { sender: NodeId(s), msg_seq: m, global_seq: g })
            .collect();
        let back = decode_seq_ann(encode_seq_ann(&assigns)).expect("roundtrip");
        prop_assert_eq!(back, assigns);
    }

    #[test]
    fn seq_ann_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_seq_ann(Bytes::from(bytes));
    }

    #[test]
    fn votes_roundtrip(vote in arb_wire_vote()) {
        prop_assert_eq!(decode_vote(encode_vote(&vote)), Ok(vote));
    }
}
