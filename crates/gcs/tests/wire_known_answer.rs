//! Known-answer bytes for every GCS frame kind.
//!
//! One fixed envelope of each of the 9 kinds, with a non-empty list
//! wherever the kind has one, against its exact encoding. A roundtrip test
//! passes for any self-consistent codec; these pin the layout itself: the
//! field order, each field's width and where each count sits. Every frame
//! is sent by node 3 in view 7, so each constant opens with the same
//! envelope header: magic `5d`, the kind byte, `0300`, then `07` and seven
//! zero bytes.

use bytes::Bytes;
use dbsm_gcs::{
    encode_vote, Envelope, Fragment, Gossip, Message, NodeId, NodeSet, PayloadKind, WireVote,
};

fn hex(raw: &[u8]) -> String {
    raw.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Bytes {
    let raw: Vec<u8> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect();
    Bytes::from(raw)
}

/// Checks both directions: `msg` encodes to `expect`, and `expect` decodes
/// back to `msg`.
fn known(msg: Message, expect: &str) {
    let env = Envelope { sender: NodeId(3), view: 7, msg };
    assert_eq!(hex(&env.encode()), expect, "encoding of {:?}", env.msg);
    assert_eq!(Envelope::decode(unhex(expect)), Ok(env));
}

#[test]
fn every_frame_kind_encodes_to_known_bytes() {
    known(
        Message::Nak { target: NodeId(2), ranges: vec![(1, 5), (9, 9)] },
        concat!(
            "5d01030007000000000000000200", // header, target 2
            "0200",                         // two ranges
            "0100000000000000",
            "0500000000000000",
            "0900000000000000",
            "0900000000000000",
        ),
    );
    known(
        Message::Gossip(Gossip {
            round: 8,
            w: NodeSet::from_bits(0b101),
            m: vec![4, 6],
            s: vec![2, 3],
        }),
        concat!(
            "5d0203000700000000000000",
            "0800000000000000", // round
            "0500000000000000", // voters
            "0200",             // one count for both vectors
            "0400000000000000",
            "0600000000000000", // m
            "0200000000000000",
            "0300000000000000", // s
        ),
    );
    known(Message::Heartbeat { sent: 99 }, concat!("5d0303000700000000000000", "6300000000000000"));
    known(
        Message::FlushReq { new_view: 2, members: NodeSet::from_bits(0b110) },
        concat!("5d0403000700000000000000", "0200000000000000", "0600000000000000"),
    );
    known(
        Message::FlushAck { new_view: 2, received: vec![10, 20, 30] },
        concat!(
            "5d0503000700000000000000",
            "0200000000000000",
            "0300",
            "0a00000000000000",
            "1400000000000000",
            "1e00000000000000",
        ),
    );
    known(
        Message::ViewInstall { new_view: 2, members: NodeSet::from_bits(0b011), cut: vec![11, 21] },
        concat!(
            "5d0603000700000000000000",
            "0200000000000000", // new view
            "0300000000000000", // members
            "0200",
            "0b00000000000000",
            "1500000000000000", // cut
        ),
    );
    known(Message::JoinReq, "5d0703000700000000000000");
    known(
        Message::JoinGrant {
            new_view: 4,
            members: NodeSet::from_bits(0b111),
            cut: vec![10, 20, 30],
            order_base: 17,
            skipped: vec![18, 21],
            sequencer: NodeId(1),
        },
        concat!(
            "5d0803000700000000000000",
            "0400000000000000", // new view
            "0700000000000000", // members
            "0300",
            "0a00000000000000",
            "1400000000000000",
            "1e00000000000000", // cut
            "1100000000000000", // order base
            "0200",
            "1200000000000000",
            "1500000000000000", // skipped
            "0100",             // sequencer
        ),
    );
    let vote = WireVote { seq: 5, origin: 2, txn: 17, conflict: Some(41) };
    let frag = Fragment {
        total: 1,
        idx: 0,
        kind: PayloadKind::Vote,
        ann: vec![],
        payload: encode_vote(&vote),
    };
    known(
        Message::Data { seq: 4, retrans: false, frag },
        concat!(
            "5d0003000700000000000000",
            "0400000000000000", // seq
            "0100",             // total fragments
            "0000",             // fragment index
            "02",               // payload kind: vote
            "00",               // first transmission
            "0000",             // no assignments
            // the vote: seq, origin, txn, conflict flag, conflict value
            "0500000000000000",
            "0200",
            "1100000000000000",
            "01",
            "2900000000000000",
        ),
    );
}

/// A data fragment: `seq` 7, fragment 2 of 3, an application payload, a
/// retransmission and two piggybacked assignments.
const DATA: &str = concat!(
    "5d0003000700000000000000",
    "0700000000000000", // seq
    "0300",             // total fragments
    "0200",             // fragment index
    "00",               // payload kind: application
    "01",               // retransmission
    "0200",             // assignments
    // assignments: sender, message seq, global seq
    "0100",
    "0300000000000000",
    "0900000000000000",
    "0200",
    "0400000000000000",
    "0a00000000000000",
    "63617272696564", // payload "carried": the rest of the packet
);

#[test]
fn data_frame_decodes_from_known_bytes() {
    // Checked through its `Debug` text, which names the piggyback list and
    // the payload without depending on how the variant groups its fields.
    let raw = unhex(DATA);
    let env = Envelope::decode(raw.clone()).expect("decodes");
    assert_eq!((env.sender, env.view), (NodeId(3), 7));
    assert_eq!(env.encode(), raw, "re-encodes to the same bytes");
    let text = format!("{:?}", env.msg);
    for part in [
        "Data { seq: 7, ",
        "idx: 2, kind: App, ",
        "ann: [SeqAssign { sender: NodeId(1), msg_seq: 3, global_seq: 9 }, \
         SeqAssign { sender: NodeId(2), msg_seq: 4, global_seq: 10 }]",
        "payload: b\"carried\"",
        "retrans: true",
    ] {
        assert!(text.contains(part), "{part:?} not in {text}");
    }
}
