//! Wire format of the group-communication stack.
//!
//! Hand-rolled little-endian encoding over [`bytes`]; data payloads are
//! carried as zero-copy slices (§3.3's "avoids copying the contents of
//! buffers that are already marshaled").

use crate::stability::Gossip;
use crate::types::{NodeId, NodeSet};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Protocol magic byte.
const MAGIC: u8 = 0x5D;

/// What a reassembled reliable message contains, so the stack can route it
/// to the application or to the total-order module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PayloadKind {
    /// Application data (a marshalled certification request for the DBSM).
    #[default]
    App,
    /// Sequencer announcements (total-order metadata) — deliberately shipped
    /// through the *reliable* layer so they consume the sequencer's buffer
    /// share, reproducing the bottleneck analysed in §5.3.
    SeqAnn,
}

impl PayloadKind {
    fn to_byte(self) -> u8 {
        match self {
            PayloadKind::App => 0,
            PayloadKind::SeqAnn => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(PayloadKind::App),
            1 => Some(PayloadKind::SeqAnn),
            _ => None,
        }
    }
}

/// One sequencer assignment: `(sender, sender_seq) -> global_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqAssign {
    /// Originator of the message being ordered.
    pub sender: NodeId,
    /// The originator's message sequence number (first fragment).
    pub msg_seq: u64,
    /// Assigned global (total-order) sequence number.
    pub global_seq: u64,
}

/// One certification verdict on the wire: the voting site's span-restricted
/// answer for transaction `(origin, txn)`. Votes form a per-voter reliable
/// stream numbered by `seq`, resent until every view member acks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireVote {
    /// Position in the voter's vote stream (1-based, monotone).
    pub seq: u64,
    /// Site that originated the transaction being voted on.
    pub origin: u16,
    /// The origin site's transaction number.
    pub txn: u64,
    /// `Some(seq)` of the first conflicting committed write, else a clean
    /// span-restricted pass.
    pub conflict: Option<u64>,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A data fragment of the reliable multicast layer.
    Data {
        /// Fragment sequence number in the sender's stream.
        seq: u64,
        /// Number of fragments in the whole message.
        total_frags: u16,
        /// Index of this fragment within the message.
        frag_idx: u16,
        /// Payload routing tag.
        kind: PayloadKind,
        /// Sequencer assignments piggybacked in the packet's MTU slack —
        /// hot-path announcements that cost zero extra messages. Part of the
        /// fragment's identity: retransmissions carry the same batch.
        ann: Vec<SeqAssign>,
        /// Certification votes piggybacked after the announcements in the
        /// remaining MTU slack. Like `ann`, part of the fragment's identity.
        votes: Vec<WireVote>,
        /// Fragment bytes.
        payload: Bytes,
        /// True when this is a retransmission (metrics only).
        retrans: bool,
    },
    /// Receiver-initiated retransmission request: "I am missing fragments
    /// `ranges` of `target`'s stream" — unicast to whoever should resend.
    Nak {
        /// Whose stream has the gaps.
        target: NodeId,
        /// Inclusive `(from, to)` fragment ranges.
        ranges: Vec<(u64, u64)>,
    },
    /// Stability-detection gossip.
    Gossip(Gossip),
    /// Failure-detector heartbeat, carrying the sender's stream length so
    /// receivers can detect tail loss (gaps with no later fragment).
    Heartbeat {
        /// Fragments the sender has sent so far.
        sent: u64,
    },
    /// View change: coordinator asks members to stop sending and report
    /// their received vectors.
    FlushReq {
        /// Proposed new view number.
        new_view: u64,
        /// Proposed membership.
        members: NodeSet,
    },
    /// View change: member's answer with its contiguous received vector.
    FlushAck {
        /// Echoes the proposed view number.
        new_view: u64,
        /// Contiguous received fragment count per sender.
        received: Vec<u64>,
    },
    /// View change: coordinator installs the new view once every survivor
    /// can reach the cut.
    ViewInstall {
        /// New view number.
        new_view: u64,
        /// New membership.
        members: NodeSet,
        /// Message cut: fragment count per sender every survivor must reach
        /// before installing.
        cut: Vec<u64>,
    },
    /// Rejoin: a restarted node announces itself to the live primary
    /// component (multicast, retried until granted).
    JoinReq,
    /// Rejoin: the lowest live member admits the joiner at an order-clean
    /// point, shipping every baseline the fresh instance needs (unicast).
    JoinGrant {
        /// View the joiner becomes a member of.
        new_view: u64,
        /// Membership of that view (old members plus the joiner).
        members: NodeSet,
        /// Per-stream fragment baselines: the granter's received vector.
        /// The joiner resumes each stream (its own included) from here.
        cut: Vec<u64>,
        /// First global sequence number the joiner will deliver; everything
        /// below is covered by the application-level state transfer.
        order_base: u64,
        /// Deterministically skipped global sequence numbers at or above
        /// `order_base` (orphans of earlier view changes).
        skipped: Vec<u64>,
        /// The group's current (sticky) sequencer.
        sequencer: NodeId,
    },
    /// Standalone certification-vote batch (multicast) for verdicts that
    /// found no outgoing data fragment to ride on.
    Vote {
        /// The voter's first un-garbage-collected vote sequence number.
        /// Receivers jump their expectation forward to it: for operational
        /// members that is a no-op (GC waits for every member's ack), for a
        /// rejoiner it skips pre-rejoin votes whose outcomes arrived with
        /// the state transfer.
        base: u64,
        /// The votes, contiguous by `seq` within a batch.
        votes: Vec<WireVote>,
    },
    /// Cumulative acknowledgement of a voter's vote stream (unicast,
    /// receiver → voter): "I have every vote of yours up to `up_to`".
    VoteAck {
        /// Highest contiguously received vote sequence number.
        up_to: u64,
    },
}

/// Decode error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the declared structure.
    Truncated,
    /// Unknown magic/kind/payload tag.
    BadTag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated group-communication packet"),
            WireError::BadTag(t) => write!(f, "unrecognized tag {t:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An envelope: sender, view and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub sender: NodeId,
    /// Sender's view number when transmitting.
    pub view: u64,
    /// The message.
    pub msg: Message,
}

/// Fixed envelope overhead in bytes (magic, kind, sender, view).
pub const ENVELOPE_OVERHEAD: usize = 1 + 1 + 2 + 8;
/// Per-fragment data header beyond the envelope (includes both piggyback
/// counts: announcements and votes).
pub const DATA_OVERHEAD: usize = 8 + 2 + 2 + 1 + 1 + 2 + 2;
/// Wire size of one encoded [`SeqAssign`].
pub const SEQ_ASSIGN_WIRE: usize = 2 + 8 + 8;
/// Wire size of one encoded [`WireVote`] (seq, origin, txn, flag, conflict).
pub const WIRE_VOTE_WIRE: usize = 8 + 2 + 8 + 1 + 8;

fn put_seq_assign(b: &mut BytesMut, a: &SeqAssign) {
    b.put_u16_le(a.sender.0);
    b.put_u64_le(a.msg_seq);
    b.put_u64_le(a.global_seq);
}

fn get_seq_assign(buf: &mut Bytes) -> SeqAssign {
    SeqAssign {
        sender: NodeId(buf.get_u16_le()),
        msg_seq: buf.get_u64_le(),
        global_seq: buf.get_u64_le(),
    }
}

fn put_wire_vote(b: &mut BytesMut, v: &WireVote) {
    b.put_u64_le(v.seq);
    b.put_u16_le(v.origin);
    b.put_u64_le(v.txn);
    // Fixed-width option: flag byte + always-present value keeps the record
    // size constant so truncation checks stay a single multiply.
    b.put_u8(u8::from(v.conflict.is_some()));
    b.put_u64_le(v.conflict.unwrap_or(0));
}

fn get_wire_vote(buf: &mut Bytes) -> WireVote {
    let seq = buf.get_u64_le();
    let origin = buf.get_u16_le();
    let txn = buf.get_u64_le();
    let some = buf.get_u8() != 0;
    let val = buf.get_u64_le();
    WireVote { seq, origin, txn, conflict: some.then_some(val) }
}

/// Fails as truncated unless `buf` holds at least `n` more bytes.
fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    Ok(())
}

/// A `u16` count, then that many `u64`s.
fn put_u64s(b: &mut BytesMut, v: &[u64]) {
    b.put_u16_le(v.len() as u16);
    for x in v {
        b.put_u64_le(*x);
    }
}

fn get_u64s(buf: &mut Bytes) -> Result<Vec<u64>, WireError> {
    need(buf, 2)?;
    let n = buf.get_u16_le() as usize;
    need(buf, n * 8)?;
    Ok((0..n).map(|_| buf.get_u64_le()).collect())
}

impl Envelope {
    /// Encodes to a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(ENVELOPE_OVERHEAD + 64);
        b.put_u8(MAGIC);
        b.put_u8(self.kind_byte());
        b.put_u16_le(self.sender.0);
        b.put_u64_le(self.view);
        match &self.msg {
            Message::Data { seq, total_frags, frag_idx, kind, ann, votes, payload, retrans } => {
                b.put_u64_le(*seq);
                b.put_u16_le(*total_frags);
                b.put_u16_le(*frag_idx);
                b.put_u8(kind.to_byte());
                b.put_u8(u8::from(*retrans));
                b.put_u16_le(ann.len() as u16);
                b.put_u16_le(votes.len() as u16);
                for a in ann {
                    put_seq_assign(&mut b, a);
                }
                for v in votes {
                    put_wire_vote(&mut b, v);
                }
                b.put_slice(payload);
            }
            Message::Nak { target, ranges } => {
                b.put_u16_le(target.0);
                b.put_u16_le(ranges.len() as u16);
                for (from, to) in ranges {
                    b.put_u64_le(*from);
                    b.put_u64_le(*to);
                }
            }
            Message::Gossip(g) => {
                b.put_u64_le(g.round);
                b.put_u64_le(g.w.bits());
                b.put_u16_le(g.m.len() as u16);
                for v in &g.m {
                    b.put_u64_le(*v);
                }
                for v in &g.s {
                    b.put_u64_le(*v);
                }
            }
            Message::Heartbeat { sent } => {
                b.put_u64_le(*sent);
            }
            Message::FlushReq { new_view, members } => {
                b.put_u64_le(*new_view);
                b.put_u64_le(members.bits());
            }
            Message::FlushAck { new_view, received } => {
                b.put_u64_le(*new_view);
                put_u64s(&mut b, received);
            }
            Message::ViewInstall { new_view, members, cut } => {
                b.put_u64_le(*new_view);
                b.put_u64_le(members.bits());
                put_u64s(&mut b, cut);
            }
            Message::JoinReq => {}
            Message::Vote { base, votes } => {
                b.put_u64_le(*base);
                b.put_u16_le(votes.len() as u16);
                for v in votes {
                    put_wire_vote(&mut b, v);
                }
            }
            Message::VoteAck { up_to } => {
                b.put_u64_le(*up_to);
            }
            Message::JoinGrant { new_view, members, cut, order_base, skipped, sequencer } => {
                b.put_u64_le(*new_view);
                b.put_u64_le(members.bits());
                put_u64s(&mut b, cut);
                b.put_u64_le(*order_base);
                put_u64s(&mut b, skipped);
                b.put_u16_le(sequencer.0);
            }
        }
        b.freeze()
    }

    fn kind_byte(&self) -> u8 {
        match &self.msg {
            Message::Data { .. } => 0,
            Message::Nak { .. } => 1,
            Message::Gossip(_) => 2,
            Message::Heartbeat { .. } => 3,
            Message::FlushReq { .. } => 4,
            Message::FlushAck { .. } => 5,
            Message::ViewInstall { .. } => 6,
            Message::JoinReq => 7,
            Message::JoinGrant { .. } => 8,
            Message::Vote { .. } => 9,
            Message::VoteAck { .. } => 10,
        }
    }

    /// Decodes an envelope.
    ///
    /// # Errors
    ///
    /// [`WireError`] on short or mis-tagged input.
    pub fn decode(mut buf: Bytes) -> Result<Envelope, WireError> {
        need(&buf, ENVELOPE_OVERHEAD)?;
        let magic = buf.get_u8();
        if magic != MAGIC {
            return Err(WireError::BadTag(magic));
        }
        let kind = buf.get_u8();
        let sender = NodeId(buf.get_u16_le());
        let view = buf.get_u64_le();
        let msg = match kind {
            0 => {
                need(&buf, DATA_OVERHEAD)?;
                let seq = buf.get_u64_le();
                let total_frags = buf.get_u16_le();
                let frag_idx = buf.get_u16_le();
                let k = buf.get_u8();
                let retrans = buf.get_u8() != 0;
                let kind = PayloadKind::from_byte(k).ok_or(WireError::BadTag(k))?;
                let n_ann = buf.get_u16_le() as usize;
                let n_votes = buf.get_u16_le() as usize;
                need(&buf, n_ann * SEQ_ASSIGN_WIRE + n_votes * WIRE_VOTE_WIRE)?;
                let ann = (0..n_ann).map(|_| get_seq_assign(&mut buf)).collect();
                let votes = (0..n_votes).map(|_| get_wire_vote(&mut buf)).collect();
                Message::Data {
                    seq,
                    total_frags,
                    frag_idx,
                    kind,
                    ann,
                    votes,
                    payload: buf,
                    retrans,
                }
            }
            1 => {
                need(&buf, 4)?;
                let target = NodeId(buf.get_u16_le());
                let n = buf.get_u16_le() as usize;
                need(&buf, n * 16)?;
                let ranges =
                    (0..n).map(|_| (buf.get_u64_le(), buf.get_u64_le())).collect::<Vec<_>>();
                Message::Nak { target, ranges }
            }
            2 => {
                need(&buf, 18)?;
                let round = buf.get_u64_le();
                let w = NodeSet::from_bits(buf.get_u64_le());
                let n = buf.get_u16_le() as usize;
                need(&buf, n * 16)?;
                let m = (0..n).map(|_| buf.get_u64_le()).collect::<Vec<_>>();
                let s = (0..n).map(|_| buf.get_u64_le()).collect::<Vec<_>>();
                Message::Gossip(Gossip { round, w, m, s })
            }
            3 => {
                need(&buf, 8)?;
                Message::Heartbeat { sent: buf.get_u64_le() }
            }
            4 => {
                need(&buf, 16)?;
                Message::FlushReq {
                    new_view: buf.get_u64_le(),
                    members: NodeSet::from_bits(buf.get_u64_le()),
                }
            }
            5 => {
                need(&buf, 10)?;
                let new_view = buf.get_u64_le();
                Message::FlushAck { new_view, received: get_u64s(&mut buf)? }
            }
            6 => {
                need(&buf, 18)?;
                let new_view = buf.get_u64_le();
                let members = NodeSet::from_bits(buf.get_u64_le());
                Message::ViewInstall { new_view, members, cut: get_u64s(&mut buf)? }
            }
            7 => Message::JoinReq,
            9 => {
                need(&buf, 10)?;
                let base = buf.get_u64_le();
                let n = buf.get_u16_le() as usize;
                need(&buf, n * WIRE_VOTE_WIRE)?;
                let votes = (0..n).map(|_| get_wire_vote(&mut buf)).collect();
                Message::Vote { base, votes }
            }
            10 => {
                need(&buf, 8)?;
                Message::VoteAck { up_to: buf.get_u64_le() }
            }
            8 => {
                need(&buf, 18)?;
                let new_view = buf.get_u64_le();
                let members = NodeSet::from_bits(buf.get_u64_le());
                let cut = get_u64s(&mut buf)?;
                need(&buf, 8)?;
                let order_base = buf.get_u64_le();
                let skipped = get_u64s(&mut buf)?;
                need(&buf, 2)?;
                let sequencer = NodeId(buf.get_u16_le());
                Message::JoinGrant { new_view, members, cut, order_base, skipped, sequencer }
            }
            other => return Err(WireError::BadTag(other)),
        };
        Ok(Envelope { sender, view, msg })
    }
}

/// Encodes a batch of sequencer assignments as a [`PayloadKind::SeqAnn`]
/// payload.
pub fn encode_seq_ann(assigns: &[SeqAssign]) -> Bytes {
    debug_assert!(assigns.len() <= u16::MAX as usize, "announcement batch exceeds wire count");
    let mut b = BytesMut::with_capacity(2 + assigns.len() * SEQ_ASSIGN_WIRE);
    b.put_u16_le(assigns.len() as u16);
    for a in assigns {
        put_seq_assign(&mut b, a);
    }
    b.freeze()
}

/// Decodes a [`PayloadKind::SeqAnn`] payload.
///
/// # Errors
///
/// [`WireError::Truncated`] when the declared count exceeds the buffer.
pub fn decode_seq_ann(mut buf: Bytes) -> Result<Vec<SeqAssign>, WireError> {
    need(&buf, 2)?;
    let n = buf.get_u16_le() as usize;
    need(&buf, n * SEQ_ASSIGN_WIRE)?;
    Ok((0..n).map(|_| get_seq_assign(&mut buf)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let env = Envelope { sender: NodeId(3), view: 7, msg };
        let back = Envelope::decode(env.encode()).expect("roundtrip");
        assert_eq!(back, env);
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(Message::Data {
            seq: 42,
            total_frags: 3,
            frag_idx: 1,
            kind: PayloadKind::App,
            ann: Vec::new(),
            votes: Vec::new(),
            payload: Bytes::from_static(b"hello"),
            retrans: false,
        });
        roundtrip(Message::Data {
            seq: 42,
            total_frags: 1,
            frag_idx: 0,
            kind: PayloadKind::SeqAnn,
            ann: Vec::new(),
            votes: Vec::new(),
            payload: Bytes::new(),
            retrans: true,
        });
        roundtrip(Message::Data {
            seq: 7,
            total_frags: 1,
            frag_idx: 0,
            kind: PayloadKind::App,
            ann: vec![
                SeqAssign { sender: NodeId(1), msg_seq: 3, global_seq: 9 },
                SeqAssign { sender: NodeId(2), msg_seq: 4, global_seq: 10 },
            ],
            votes: vec![
                WireVote { seq: 1, origin: 2, txn: 17, conflict: None },
                WireVote { seq: 2, origin: 0, txn: 3, conflict: Some(41) },
            ],
            payload: Bytes::from_static(b"carried"),
            retrans: false,
        });
        roundtrip(Message::Nak { target: NodeId(2), ranges: vec![(1, 5), (9, 9)] });
        roundtrip(Message::Vote {
            base: 4,
            votes: vec![
                WireVote { seq: 4, origin: 1, txn: 9, conflict: Some(0) },
                WireVote { seq: 5, origin: 1, txn: 10, conflict: None },
            ],
        });
        roundtrip(Message::Vote { base: 1, votes: Vec::new() });
        roundtrip(Message::VoteAck { up_to: 23 });
        roundtrip(Message::Gossip(Gossip {
            round: 8,
            w: NodeSet::first_n(3),
            m: vec![1, 2, 3],
            s: vec![0, 1, 2],
        }));
        roundtrip(Message::Heartbeat { sent: 99 });
        roundtrip(Message::FlushReq { new_view: 2, members: NodeSet::first_n(2) });
        roundtrip(Message::FlushAck { new_view: 2, received: vec![10, 20, 30] });
        roundtrip(Message::ViewInstall {
            new_view: 2,
            members: NodeSet::first_n(2),
            cut: vec![10, 20, 30],
        });
        roundtrip(Message::JoinReq);
        roundtrip(Message::JoinGrant {
            new_view: 4,
            members: NodeSet::first_n(3),
            cut: vec![10, 20, 30],
            order_base: 17,
            skipped: vec![18, 21],
            sequencer: NodeId(1),
        });
        roundtrip(Message::JoinGrant {
            new_view: 1,
            members: NodeSet::first_n(2),
            cut: vec![0, 0],
            order_base: 1,
            skipped: Vec::new(),
            sequencer: NodeId(0),
        });
    }

    #[test]
    fn truncated_join_grant_rejected() {
        let env = Envelope {
            sender: NodeId(0),
            view: 3,
            msg: Message::JoinGrant {
                new_view: 4,
                members: NodeSet::first_n(3),
                cut: vec![10, 20, 30],
                order_base: 17,
                skipped: vec![18],
                sequencer: NodeId(1),
            },
        };
        let full = env.encode();
        for cut in ENVELOPE_OVERHEAD..full.len() {
            assert_eq!(
                Envelope::decode(full.slice(0..cut)),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
        assert!(Envelope::decode(full).is_ok());
    }

    #[test]
    fn rejects_bad_magic_and_kind() {
        let env = Envelope { sender: NodeId(0), view: 0, msg: Message::Heartbeat { sent: 0 } };
        let mut raw = BytesMut::from(&env.encode()[..]);
        raw[0] = 0xFF;
        assert_eq!(Envelope::decode(raw.clone().freeze()), Err(WireError::BadTag(0xFF)));
        raw[0] = MAGIC;
        raw[1] = 99;
        assert_eq!(Envelope::decode(raw.freeze()), Err(WireError::BadTag(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let env = Envelope {
            sender: NodeId(1),
            view: 1,
            msg: Message::Nak { target: NodeId(0), ranges: vec![(1, 2)] },
        };
        let full = env.encode();
        for cut in 0..full.len() {
            let r = Envelope::decode(full.slice(0..cut));
            if cut < full.len() {
                assert!(r.is_err() || cut >= ENVELOPE_OVERHEAD + 4, "cut={cut}");
            }
        }
    }

    #[test]
    fn truncated_piggyback_rejected() {
        let env = Envelope {
            sender: NodeId(0),
            view: 1,
            msg: Message::Data {
                seq: 1,
                total_frags: 1,
                frag_idx: 0,
                kind: PayloadKind::App,
                ann: vec![SeqAssign { sender: NodeId(1), msg_seq: 1, global_seq: 1 }],
                votes: vec![WireVote { seq: 1, origin: 0, txn: 1, conflict: Some(7) }],
                payload: Bytes::new(),
                retrans: false,
            },
        };
        let full = env.encode();
        // Cutting inside the piggyback region must be an error, never a
        // misparse of assignment or vote bytes as payload.
        for cut in ENVELOPE_OVERHEAD + DATA_OVERHEAD..full.len() {
            assert_eq!(
                Envelope::decode(full.slice(0..cut)),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
        assert!(Envelope::decode(full).is_ok());
    }

    #[test]
    fn truncated_vote_batch_rejected() {
        let env = Envelope {
            sender: NodeId(2),
            view: 5,
            msg: Message::Vote {
                base: 3,
                votes: vec![
                    WireVote { seq: 3, origin: 0, txn: 12, conflict: None },
                    WireVote { seq: 4, origin: 1, txn: 2, conflict: Some(88) },
                ],
            },
        };
        let full = env.encode();
        for cut in ENVELOPE_OVERHEAD..full.len() {
            assert_eq!(
                Envelope::decode(full.slice(0..cut)),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
        assert!(Envelope::decode(full).is_ok());
        let ack = Envelope { sender: NodeId(2), view: 5, msg: Message::VoteAck { up_to: 4 } };
        let full = ack.encode();
        for cut in ENVELOPE_OVERHEAD..full.len() {
            assert_eq!(
                Envelope::decode(full.slice(0..cut)),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
        assert!(Envelope::decode(full).is_ok());
    }

    #[test]
    fn seq_ann_roundtrip() {
        let assigns = vec![
            SeqAssign { sender: NodeId(1), msg_seq: 10, global_seq: 100 },
            SeqAssign { sender: NodeId(2), msg_seq: 11, global_seq: 101 },
        ];
        let back = decode_seq_ann(encode_seq_ann(&assigns)).expect("roundtrip");
        assert_eq!(back, assigns);
        assert!(decode_seq_ann(Bytes::from_static(&[5])).is_err());
        assert!(decode_seq_ann(encode_seq_ann(&assigns).slice(0..5)).is_err());
    }

    #[test]
    fn data_payload_is_zero_copy() {
        let payload = Bytes::from(vec![7u8; 100]);
        let env = Envelope {
            sender: NodeId(0),
            view: 0,
            msg: Message::Data {
                seq: 1,
                total_frags: 1,
                frag_idx: 0,
                kind: PayloadKind::App,
                ann: Vec::new(),
                votes: Vec::new(),
                payload: payload.clone(),
                retrans: false,
            },
        };
        let decoded = Envelope::decode(env.encode()).expect("decode");
        match decoded.msg {
            Message::Data { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
