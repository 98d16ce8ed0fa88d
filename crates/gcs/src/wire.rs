//! Wire format of the group-communication stack.
//!
//! Little-endian encoding over [`bytes`]. Each field type states its layout
//! once, as a [`Field`]; the `frames!` table lists each frame once, as its
//! kind byte and its fields in wire order. Data payloads are carried as
//! zero-copy slices (§3.3's "avoids copying the contents of buffers that
//! are already marshaled").

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
    App = 0,
    /// Sequencer announcements (total-order metadata) — deliberately shipped
    /// through the *reliable* layer so they consume the sequencer's buffer
    /// share, reproducing the bottleneck analysed in §5.3.
    SeqAnn = 1,
    /// One certification vote ([`WireVote`]). Consumed on receipt in the
    /// voter's stream order, never sequenced: it is repaired, flushed at a
    /// view change and garbage-collected like any other payload.
    Vote = 2,
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
/// answer for transaction `(origin, txn)`, carried as a
/// [`PayloadKind::Vote`] message on the voter's data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireVote {
    /// The voter's cast counter (1-based, monotone): the application's
    /// staleness threshold across a rejoin.
    pub seq: u64,
    /// Site that originated the transaction being voted on.
    pub origin: u16,
    /// The origin site's transaction number.
    pub txn: u64,
    /// `Some(seq)` of the first conflicting committed write, else a clean
    /// span-restricted pass.
    pub conflict: Option<u64>,
}

/// A data fragment of the reliable multicast layer, as the sender buffers
/// it for retransmission, a receiver caches it for repair and reassembly
/// consumes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Number of fragments in the whole message.
    pub total: u16,
    /// Index of this fragment within the message.
    pub idx: u16,
    /// Payload routing tag.
    pub kind: PayloadKind,
    /// Sequencer assignments piggybacked in the packet's MTU slack —
    /// hot-path announcements that cost zero extra messages. Part of the
    /// fragment's identity: retransmissions carry the same batch.
    pub ann: Vec<SeqAssign>,
    /// Fragment bytes.
    pub payload: Bytes,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A data fragment of the reliable multicast layer.
    Data {
        /// Fragment sequence number in the sender's stream.
        seq: u64,
        /// True when this is a retransmission (metrics only).
        retrans: bool,
        /// The fragment.
        frag: Fragment,
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
}

/// Expands one `frames!` row: `put` writes a frame's fields, `get` reads
/// them back into its message. A row with `by` names its own codec pair.
macro_rules! frame {
    (put $b:ident { $($f:ident),* } $put:ident) => { $put($b, $($f),*) };
    (put $b:ident { $($f:ident),* }) => { $(Field::put($f, $b);)* };
    (put $b:ident ( $($f:ident),* )) => { $(Field::put($f, $b);)* };
    (get $buf:ident $var:ident $fields:tt $get:ident) => { $get($buf)? };
    (get $buf:ident $var:ident { $($f:ident),* }) => {{
        $(let $f = Field::get($buf)?;)*
        Message::$var { $($f),* }
    }};
    (get $buf:ident $var:ident ( $($f:ident),* )) => {{
        $(let $f = Field::get($buf)?;)*
        Message::$var($($f),*)
    }};
}

/// The frame table: each frame's kind byte and its fields in wire order,
/// after the envelope header. Generates encode and decode.
macro_rules! frames {
    ($($kind:literal => $var:ident $fields:tt $(by $put:ident, $get:ident)?;)*) => {
        impl Envelope {
            /// Encodes to a fresh buffer.
            pub fn encode(&self) -> Bytes {
                let kind: u8 = match self.msg {
                    $(Message::$var { .. } => $kind,)*
                };
                let mut out = BytesMut::with_capacity(ENVELOPE_OVERHEAD + 64);
                let b = &mut out;
                (MAGIC, kind, self.sender, self.view).put(b);
                match &self.msg {
                    $(Message::$var $fields => {
                        frame!(put b $fields $($put)?);
                    })*
                }
                out.freeze()
            }

            /// Decodes an envelope.
            ///
            /// # Errors
            ///
            /// [`WireError`] on short or mis-tagged input.
            pub fn decode(mut buf: Bytes) -> Result<Envelope, WireError> {
                let buf = &mut buf;
                let (magic, kind, sender, view) = Header::get(buf)?;
                if magic != MAGIC {
                    return Err(WireError::BadTag(magic));
                }
                let msg = match kind {
                    $($kind => frame!(get buf $var $fields $($get)?),)*
                    other => return Err(WireError::BadTag(other)),
                };
                Ok(Envelope { sender, view, msg })
            }
        }
    };
}

frames! {
    0 => Data { seq, retrans, frag } by put_data, get_data;
    1 => Nak { target, ranges };
    2 => Gossip(gossip);
    3 => Heartbeat { sent };
    4 => FlushReq { new_view, members };
    5 => FlushAck { new_view, received };
    6 => ViewInstall { new_view, members, cut };
    7 => JoinReq {};
    8 => JoinGrant { new_view, members, cut, order_base, skipped, sequencer };
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

/// The envelope header: magic, kind, sender and view.
type Header = (u8, u8, NodeId, u64);

/// A `Data` frame's header: seq, total, idx, kind, retrans, then the
/// piggybacked assignments' count. The assignments follow it, and the
/// payload is the rest of the packet.
type DataHeader = (u64, u16, u16, PayloadKind, bool, u16);

/// Fixed envelope overhead in bytes.
pub(crate) const ENVELOPE_OVERHEAD: usize = Header::LEN;
/// Per-fragment data header beyond the envelope.
pub(crate) const DATA_OVERHEAD: usize = DataHeader::LEN;

fn put_data(b: &mut BytesMut, seq: &u64, retrans: &bool, f: &Fragment) {
    (*seq, f.total, f.idx, f.kind, *retrans, f.ann.len() as u16).put(b);
    f.ann.iter().for_each(|a| a.put(b));
    b.put_slice(&f.payload);
}

fn get_data(buf: &mut Bytes) -> Result<Message, WireError> {
    let (seq, total, idx, kind, retrans, n_ann) = DataHeader::get(buf)?;
    let ann = items(buf, n_ann.into())?;
    let frag = Fragment { total, idx, kind, ann, payload: std::mem::take(buf) };
    Ok(Message::Data { seq, retrans, frag })
}

/// Encodes a batch of sequencer assignments as a [`PayloadKind::SeqAnn`]
/// payload: the `Vec<SeqAssign>` layout.
pub fn encode_seq_ann(assigns: &[SeqAssign]) -> Bytes {
    let mut b = BytesMut::with_capacity(u16::LEN + assigns.len() * SeqAssign::LEN);
    put_list(&mut b, assigns);
    b.freeze()
}

/// Decodes a [`PayloadKind::SeqAnn`] payload.
///
/// # Errors
///
/// [`WireError::Truncated`] when the declared count exceeds the buffer.
pub fn decode_seq_ann(mut buf: Bytes) -> Result<Vec<SeqAssign>, WireError> {
    Vec::get(&mut buf)
}

/// Encodes one vote as a [`PayloadKind::Vote`] payload: the [`WireVote`]
/// layout.
pub fn encode_vote(vote: &WireVote) -> Bytes {
    let mut b = BytesMut::with_capacity(WireVote::LEN);
    vote.put(&mut b);
    b.freeze()
}

/// Decodes a [`PayloadKind::Vote`] payload.
///
/// # Errors
///
/// [`WireError::Truncated`] when the payload is shorter than a vote.
pub fn decode_vote(mut buf: Bytes) -> Result<WireVote, WireError> {
    WireVote::get(&mut buf)
}

/// A field type's little-endian wire layout.
pub(crate) trait Field: Sized {
    /// Encoded length in bytes; for a list, the length of its count.
    const LEN: usize;
    /// Appends the encoding to `b`.
    fn put(&self, b: &mut BytesMut);
    /// Reads one value off the front of `buf`: [`WireError::Truncated`] if
    /// it is too short, [`WireError::BadTag`] for an unknown tag.
    fn get(buf: &mut Bytes) -> Result<Self, WireError>;
}

/// Fails as truncated unless `buf` holds at least `n` more bytes.
fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    (buf.len() >= n).then_some(()).ok_or(WireError::Truncated)
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, b: &mut BytesMut) {
                b.put_slice(&self.to_le_bytes());
            }
            fn get(buf: &mut Bytes) -> Result<Self, WireError> {
                need(buf, Self::LEN)?;
                let mut le = [0; std::mem::size_of::<$t>()];
                buf.copy_to_slice(&mut le);
                Ok(<$t>::from_le_bytes(le))
            }
        }
    )*};
}

int_fields!(u8, u16, u64);

/// Field types carried as another field type, written `Type as Carrier`
/// with the conversion to the carrier and back.
macro_rules! via {
    ($($t:ty as $c:ty: |$x:ident| $to:expr, |$v:ident| $from:expr;)*) => {$(
        impl Field for $t {
            const LEN: usize = <$c>::LEN;
            fn put(&self, b: &mut BytesMut) {
                let $x = self;
                <$c>::put(&$to, b);
            }
            fn get(buf: &mut Bytes) -> Result<Self, WireError> {
                let $v = <$c>::get(buf)?;
                Ok($from)
            }
        }
    )*};
}

via! {
    bool as u8: |x| u8::from(*x), |v| v != 0;
    NodeId as u16: |x| x.0, |v| NodeId(v);
    NodeSet as u64: |x| x.bits(), |v| NodeSet::from_bits(v);
    PayloadKind as u8: |x| *x as u8, |v| match v {
        0 => PayloadKind::App,
        1 => PayloadKind::SeqAnn,
        2 => PayloadKind::Vote,
        k => return Err(WireError::BadTag(k)),
    };
    // A flag byte plus an always-present value: the fixed width keeps a
    // record's size constant, so a list's length check stays one multiply.
    Option<u64> as (bool, u64): |x| (x.is_some(), x.unwrap_or(0)), |v| v.0.then_some(v.1);
    SeqAssign as (NodeId, u64, u64): |x| (x.sender, x.msg_seq, x.global_seq),
        |v| SeqAssign { sender: v.0, msg_seq: v.1, global_seq: v.2 };
    WireVote as (u64, u16, u64, Option<u64>): |x| (x.seq, x.origin, x.txn, x.conflict),
        |v| WireVote { seq: v.0, origin: v.1, txn: v.2, conflict: v.3 };
}

macro_rules! tuple_fields {
    ($(($($t:ident),+)),*) => {$(
        #[allow(non_snake_case)]
        impl<$($t: Field),+> Field for ($($t,)+) {
            const LEN: usize = 0 $(+ $t::LEN)+;
            fn put(&self, b: &mut BytesMut) {
                let ($($t,)+) = self;
                $($t.put(b);)+
            }
            fn get(buf: &mut Bytes) -> Result<Self, WireError> {
                Ok(($($t::get(buf)?,)+))
            }
        }
    )*};
}

tuple_fields!((A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E, F));

/// A `u16` count, then the items.
impl<T: Field> Field for Vec<T> {
    const LEN: usize = u16::LEN;
    fn put(&self, b: &mut BytesMut) {
        put_list(b, self);
    }
    fn get(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = u16::get(buf)?;
        items(buf, n.into())
    }
}

/// One count covers both vectors.
impl Field for Gossip {
    const LEN: usize = <(u64, NodeSet, u16)>::LEN;
    fn put(&self, b: &mut BytesMut) {
        (self.round, self.w, self.m.len() as u16).put(b);
        self.m.iter().chain(&self.s).for_each(|v| v.put(b));
    }
    fn get(buf: &mut Bytes) -> Result<Self, WireError> {
        let (round, w, n) = <(u64, NodeSet, u16)>::get(buf)?;
        Ok(Gossip { round, w, m: items(buf, n.into())?, s: items(buf, n.into())? })
    }
}

fn put_list<T: Field>(b: &mut BytesMut, list: &[T]) {
    debug_assert!(list.len() <= u16::MAX as usize, "list exceeds its wire count");
    (list.len() as u16).put(b);
    list.iter().for_each(|x| x.put(b));
}

/// `n` fixed-size items, length-checked before anything is allocated.
fn items<T: Field>(buf: &mut Bytes, n: usize) -> Result<Vec<T>, WireError> {
    need(buf, n * T::LEN)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::get(buf)?);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let env = Envelope { sender: NodeId(3), view: 7, msg };
        let back = Envelope::decode(env.encode()).expect("roundtrip");
        assert_eq!(back, env);
    }

    fn data(retrans: bool, frag: Fragment) -> Message {
        Message::Data { seq: 42, retrans, frag }
    }

    fn app(payload: Bytes) -> Fragment {
        Fragment { total: 1, idx: 0, kind: PayloadKind::App, ann: Vec::new(), payload }
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(data(false, Fragment { total: 3, idx: 1, ..app(Bytes::from_static(b"hello")) }));
        roundtrip(data(true, Fragment { kind: PayloadKind::SeqAnn, ..app(Bytes::new()) }));
        let vote = WireVote { seq: 2, origin: 0, txn: 3, conflict: Some(41) };
        roundtrip(data(false, Fragment { kind: PayloadKind::Vote, ..app(encode_vote(&vote)) }));
        roundtrip(data(
            false,
            Fragment {
                ann: vec![
                    SeqAssign { sender: NodeId(1), msg_seq: 3, global_seq: 9 },
                    SeqAssign { sender: NodeId(2), msg_seq: 4, global_seq: 10 },
                ],
                ..app(Bytes::from_static(b"carried"))
            },
        ));
        roundtrip(Message::Nak { target: NodeId(2), ranges: vec![(1, 5), (9, 9)] });
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
    fn rejects_bad_magic_and_kind() {
        let env = Envelope { sender: NodeId(0), view: 0, msg: Message::Heartbeat { sent: 0 } };
        let mut raw = BytesMut::from(&env.encode()[..]);
        raw[0] = 0xFF;
        assert_eq!(Envelope::decode(raw.clone().freeze()), Err(WireError::BadTag(0xFF)));
        raw[0] = MAGIC;
        raw[1] = 99;
        assert_eq!(Envelope::decode(raw.freeze()), Err(WireError::BadTag(99)));
    }

    fn assert_truncated_from(env: &Envelope, first_cut: usize) {
        let full = env.encode();
        for cut in first_cut..full.len() {
            assert_eq!(
                Envelope::decode(full.slice(0..cut)),
                Err(WireError::Truncated),
                "cut={cut}"
            );
        }
        assert!(Envelope::decode(full).is_ok());
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
        assert_truncated_from(&env, ENVELOPE_OVERHEAD);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let env = Envelope {
            sender: NodeId(1),
            view: 1,
            msg: Message::Nak { target: NodeId(0), ranges: vec![(1, 2)] },
        };
        assert_truncated_from(&env, 0);
    }

    #[test]
    fn truncated_piggyback_rejected() {
        let frag = Fragment {
            ann: vec![SeqAssign { sender: NodeId(1), msg_seq: 1, global_seq: 1 }],
            ..app(Bytes::new())
        };
        let env = Envelope { sender: NodeId(0), view: 1, msg: data(false, frag) };
        // Cutting inside the piggyback region must be an error, never a
        // misparse of assignment bytes as payload.
        assert_truncated_from(&env, ENVELOPE_OVERHEAD + DATA_OVERHEAD);
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
    fn truncated_vote_payload_rejected() {
        let vote = WireVote { seq: 4, origin: 1, txn: 2, conflict: Some(88) };
        let full = encode_vote(&vote);
        assert_eq!(decode_vote(full.clone()), Ok(vote));
        for cut in 0..full.len() {
            assert_eq!(decode_vote(full.slice(0..cut)), Err(WireError::Truncated), "cut={cut}");
        }
    }

    #[test]
    fn data_payload_is_zero_copy() {
        let payload = Bytes::from(vec![7u8; 100]);
        let env = Envelope { sender: NodeId(0), view: 0, msg: data(false, app(payload.clone())) };
        let decoded = Envelope::decode(env.encode()).expect("decode");
        match decoded.msg {
            Message::Data { frag, .. } => assert_eq!(frag.payload, payload),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
