//! Basic group-communication types, and what the stack hands the
//! application: upcalls and protocol counters.

use crate::wire::WireVote;
use bytes::Bytes;
use std::fmt;

/// Identifier of a group member (dense, assigned by configuration).
///
/// The stack supports up to 64 members (membership sets travel as `u64`
/// bitmasks); the paper's experiments use at most 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Maximum number of group members.
pub const MAX_NODES: usize = 64;

/// A set of nodes, stored as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// Creates a set from a raw bitmask.
    pub const fn from_bits(bits: u64) -> Self {
        NodeSet(bits)
    }

    /// The raw bitmask.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Set containing nodes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_NODES, "at most {MAX_NODES} nodes");
        if n == 64 {
            NodeSet(u64::MAX)
        } else {
            NodeSet((1u64 << n) - 1)
        }
    }

    /// Inserts a node.
    pub fn insert(&mut self, node: NodeId) {
        self.0 |= 1 << node.0;
    }

    /// Removes a node.
    pub fn remove(&mut self, node: NodeId) {
        self.0 &= !(1 << node.0);
    }

    /// Membership test.
    pub fn contains(self, node: NodeId) -> bool {
        self.0 & (1 << node.0) != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union.
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set difference (`self` minus `other`).
    pub fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// True if every member of `self` is in `other`.
    pub fn is_subset(self, other: NodeSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// The lowest-numbered member, if any.
    pub fn min(self) -> Option<NodeId> {
        if self.is_empty() {
            None
        } else {
            Some(NodeId(self.0.trailing_zeros() as u16))
        }
    }

    /// Iterates members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(NodeId(i as u16))
            }
        })
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

/// A view: epoch number plus membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct View {
    /// Monotonically increasing view number.
    pub id: u64,
    /// Current members.
    pub members: NodeSet,
}

impl View {
    /// The initial view over `n` nodes.
    pub fn initial(n: usize) -> Self {
        View { id: 0, members: NodeSet::first_n(n) }
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view{}{}", self.id, self.members)
    }
}

/// Events the stack hands to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Upcall {
    /// A message delivered in total order.
    Deliver {
        /// Originating node.
        origin: NodeId,
        /// Global (total-order) sequence number. Consecutive at every node,
        /// except for deterministically skipped orphans after a crash.
        global_seq: u64,
        /// The application payload.
        payload: Bytes,
    },
    /// A message whose content is reliably received but whose global order
    /// is not yet known — emitted (when
    /// [`GcsConfig::tentative_delivery`](crate::GcsConfig) is set) as soon
    /// as the reliable layer completes the message, before the sequencer's
    /// assignment arrives. The matching [`Upcall::Deliver`] always follows;
    /// applications use the head start for work that is safe to perform out
    /// of order, e.g. speculative certification overlapped with the
    /// total-order broadcast.
    Tentative {
        /// Originating node.
        origin: NodeId,
        /// The origin's message sequence number (pairs this tentative
        /// delivery with its later total-order delivery).
        msg_seq: u64,
        /// The application payload.
        payload: Bytes,
    },
    /// A new view was installed.
    ViewChange(View),
    /// This node was excluded from the view (e.g. falsely suspected under
    /// clock drift); it must halt. Survivors stay consistent.
    Excluded,
    /// This node (the lowest live member) admitted `joiner` and must serve
    /// its snapshot + delta-log state transfer. Emitted at the grant's
    /// order-clean point, *before* the member-add [`Upcall::ViewChange`]:
    /// the application's committed state at this instant is exactly what
    /// the joiner must receive — every global sequence number below the
    /// granted order base has been delivered here, and none above.
    ServeJoin {
        /// The rejoining node.
        joiner: NodeId,
    },
    /// Emitted at a rejoining node (built with [`Gcs::rejoin`](crate::Gcs::rejoin)) once a
    /// grant was adopted: the stack is live in the new view, and the
    /// application must install the transferred state before acting on
    /// the deliveries that follow.
    Rejoined,
    /// A certification vote from `voter`: this node's own at once, via
    /// loopback, and a peer's when its [`PayloadKind::Vote`] message
    /// completes on the peer's data stream, never waiting for the total
    /// order: it comes ahead of any delivery that the same stream advance
    /// releases. Votes from one voter arrive in cast order, and a view change
    /// hands a failed voter's votes to every survivor or to none; the
    /// application collects a covering quorum per transaction and decides
    /// by merging.
    ///
    /// [`PayloadKind::Vote`]: crate::PayloadKind::Vote
    Vote {
        /// The site that cast the vote.
        voter: NodeId,
        /// The verdict.
        vote: WireVote,
    },
}

/// Protocol counters (diagnostics for the fault-injection analysis, §5.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcsMetrics {
    /// Application messages submitted.
    pub app_sent: u64,
    /// Messages delivered in total order.
    pub delivered: u64,
    /// Data fragments transmitted (first time).
    pub frags_sent: u64,
    /// Duplicate fragments discarded.
    pub duplicates: u64,
    /// Retransmitted fragments sent.
    pub retrans_sent: u64,
    /// NAKs sent.
    pub naks_sent: u64,
    /// Gossip messages sent.
    pub gossip_sent: u64,
    /// Completed view changes.
    pub view_changes: u64,
    /// Cumulative nanoseconds the sender spent blocked by flow control with
    /// traffic pending — the paper's "whole system blocked temporarily
    /// waiting for garbage collection". Certification votes share the send
    /// queue with application messages and announcements, so a vote waiting
    /// there counts too.
    pub blocked_ns: u64,
    /// Peak pending (flow-control-blocked) queue length, queued votes
    /// included.
    pub pending_peak: usize,
    /// `SeqAnn` announcement messages submitted to the reliable layer
    /// (sequencer only).
    pub ann_sent: u64,
    /// Assignments carried by those announcement messages.
    pub ann_assigns: u64,
    /// Assignments piggybacked on outgoing application fragments instead of
    /// costing a `SeqAnn` message of their own (sequencer only).
    pub ann_piggybacked: u64,
    /// Certification votes cast onto this node's data stream.
    pub votes_sent: u64,
    /// Certification votes received from peers (non-duplicate, surfaced in
    /// stream order).
    pub votes_received: u64,
    /// Always 0: votes ride the data stream, and no longer piggyback on
    /// fragment slack. Kept only while the end-to-end benchmark still sums
    /// it; ROADMAP item 1b deletes it.
    pub votes_piggybacked: u64,
    /// Always 0: a lost vote is repaired by NAK like any fragment, counted
    /// in `retrans_sent`. Kept only while the end-to-end benchmark still
    /// sums it; ROADMAP item 1b deletes it.
    pub vote_resends: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodeset_basics() {
        let mut s = NodeSet::first_n(3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId(0)));
        assert!(!s.contains(NodeId(3)));
        s.insert(NodeId(5));
        s.remove(NodeId(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2), NodeId(5)]);
        assert_eq!(s.min(), Some(NodeId(1)));
    }

    #[test]
    fn nodeset_algebra() {
        let a: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        let b: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(a.union(b), NodeSet::first_n(3));
        assert_eq!(a.difference(b).iter().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert!(a.is_subset(NodeSet::first_n(2)));
        assert!(!NodeSet::first_n(3).is_subset(a));
    }

    #[test]
    fn full_set_of_64() {
        let s = NodeSet::first_n(64);
        assert_eq!(s.len(), 64);
        assert!(s.contains(NodeId(63)));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_nodes_rejected() {
        let _ = NodeSet::first_n(65);
    }

    #[test]
    fn display_formats() {
        let v = View::initial(2);
        assert_eq!(v.to_string(), "view0{n0,n1}");
        assert_eq!(NodeSet::EMPTY.to_string(), "{}");
    }
}
