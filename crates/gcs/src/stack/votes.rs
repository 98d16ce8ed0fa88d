//! Vote-stream layer: a lightweight reliable stream per voter, independent
//! of the data windows so verdicts never compete with application traffic
//! for the buffer share.

use super::{GcsMetrics, Out};
use crate::config::MAX_PACKET;
use crate::seq_ring::SeqRing;
use crate::wire::{Field, Message, WireVote, ENVELOPE_OVERHEAD};

/// Sender side: votes get a monotone per-voter sequence number, sit in
/// `pending` until they either ride the MTU slack of an outgoing data
/// fragment or flush as a standalone [`Message::Vote`], and stay in
/// `outbox` until every current view member has cumulatively acked them
/// ([`Message::VoteAck`]); the heartbeat timer retransmits the unacked
/// suffix.
#[derive(Debug, Default)]
pub(super) struct VoteState {
    /// Next vote sequence number to assign (1-based).
    pub next_seq: u64,
    /// Cast but not yet transmitted votes.
    pub pending: Vec<WireVote>,
    /// Transmitted votes not yet acked by every view member, keyed by seq.
    pub outbox: SeqRing<WireVote>,
}

/// Most votes that fit one standalone `Vote` frame: envelope plus the
/// base/count header, then one [`WireVote`] record per vote, all within
/// [`MAX_PACKET`]. The network drops datagrams over the MTU, so a frame
/// that overflows it is lost on every transmission — including the
/// heartbeat retransmissions that are supposed to repair the loss.
const VOTES_PER_FRAME: usize = (MAX_PACKET - ENVELOPE_OVERHEAD - <(u64, u16)>::LEN) / WireVote::LEN;

/// Furthest a received vote may lead its stream's contiguous prefix. Votes
/// have no flow-control window: a voter runs ahead of a receiver by the
/// votes it casts while a lost frame waits for the heartbeat resend, and a
/// fresh rejoiner meets piggybacked votes at their absolute seq until a
/// standalone frame's base moves it up. 2^16 votes is far more than either
/// in any run here, and it caps the out-of-order buffer at as many slots.
/// A vote dropped for its lead is not lost: the voter resends it until
/// this node acks it.
const MAX_VOTE_LEAD: u64 = 1 << 16;

/// Receiver side, per voter: contiguity tracking surfaces votes in cast
/// order exactly once.
#[derive(Debug, Default)]
pub(super) struct VoteLink {
    /// The peer's cumulative ack of *our* vote stream.
    pub acked: u64,
    /// Highest contiguously received vote sequence number.
    up_to: u64,
    /// Out-of-order votes beyond the contiguous prefix.
    ooo: SeqRing<WireVote>,
}

impl VoteState {
    pub fn new() -> Self {
        VoteState { next_seq: 1, ..Default::default() }
    }

    pub fn cast(&mut self, origin: u16, txn: u64, conflict: Option<u64>, peers: bool) -> WireVote {
        let vote = WireVote { seq: self.next_seq, origin, txn, conflict };
        self.next_seq += 1;
        if peers {
            self.outbox.insert(vote.seq, vote);
            self.pending.push(vote);
        }
        vote
    }

    /// The first un-garbage-collected sequence number of our vote stream.
    /// GC only advances past votes acked by *every* view member, so for an
    /// operational receiver a jump to this base is a no-op; a fresh
    /// rejoiner legitimately skips to it (pre-rejoin outcomes arrive with
    /// the state transfer).
    fn base(&self) -> u64 {
        self.outbox.first_key().unwrap_or(self.next_seq)
    }

    /// MTU-sized frames: an oversized one would itself be dropped, pinning
    /// the receivers' gap open forever. `base` is the same for every frame
    /// — a receiver only jumps forward to it, and the chunks are contiguous
    /// from there.
    fn send_frames(&self, out: &mut Out<'_>, votes: &[WireVote]) {
        let base = self.base();
        for chunk in votes.chunks(VOTES_PER_FRAME) {
            out.multicast(Message::Vote { base, votes: chunk.to_vec() });
        }
    }

    pub fn flush(&mut self, out: &mut Out<'_>, m: &mut GcsMetrics) {
        m.votes_sent += self.pending.len() as u64;
        self.send_frames(out, &self.pending);
        self.pending.clear();
    }

    /// Drains as many pending votes as fit in `room` payload bytes of an
    /// outgoing application fragment (the slack left after announcements).
    pub fn take_piggyback(&mut self, room: usize, m: &mut GcsMetrics) -> Vec<WireVote> {
        let k = (room / WireVote::LEN).min(self.pending.len());
        if k == 0 {
            return Vec::new();
        }
        m.votes_sent += k as u64;
        m.votes_piggybacked += k as u64;
        self.pending.drain(..k).collect()
    }

    /// Heartbeat-driven reliability arm: retransmits the unacked suffix of
    /// the vote stream. Empty in the steady state — acks arrive within a
    /// round-trip — so this only fires on real loss or a stalled receiver.
    pub fn resend(&mut self, out: &mut Out<'_>, m: &mut GcsMetrics) {
        const MAX_RESEND: usize = 256;
        // The pending suffix of the outbox has never been transmitted —
        // that is `flush`'s job, not a retransmission.
        let limit = self.pending.first().map_or(u64::MAX, |v| v.seq);
        let suffix: Vec<WireVote> =
            self.outbox.range(..limit).map(|(_, v)| *v).take(MAX_RESEND).collect();
        m.vote_resends += suffix.len() as u64;
        self.send_frames(out, &suffix);
    }

    /// Pending (never-transmitted) votes always have sequence numbers above
    /// any ack, so splitting cannot lose them.
    pub fn gc(&mut self, min_ack: Option<u64>) {
        match min_ack {
            None => self.outbox.clear(),
            Some(min) => self.outbox.drop_through(min),
        }
    }
}

impl VoteLink {
    /// Jumps to `base` (0 = no jump), buffers out-of-order votes within
    /// [`MAX_VOTE_LEAD`], surfaces the contiguous prefix exactly once;
    /// returns the cumulative ack.
    pub fn receive(
        &mut self,
        base: u64,
        votes: impl IntoIterator<Item = WireVote>,
        mut surface: impl FnMut(WireVote),
    ) -> u64 {
        let jump = base.saturating_sub(1);
        if jump > self.up_to {
            self.up_to = jump;
            self.ooo.drop_through(jump);
        }
        for v in votes {
            let lead = v.seq.saturating_sub(self.up_to);
            if (1..=MAX_VOTE_LEAD).contains(&lead) && !self.ooo.contains_key(v.seq) {
                self.ooo.insert(v.seq, v);
            }
        }
        while let Some(v) = self.ooo.remove(self.up_to + 1) {
            self.up_to += 1;
            surface(v);
        }
        self.up_to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vote(seq: u64) -> WireVote {
        WireVote { seq, origin: 1, txn: seq, conflict: None }
    }

    #[test]
    fn link_surfaces_each_vote_once_in_cast_order() {
        let mut link = VoteLink::default();
        let mut seen = Vec::new();
        assert_eq!(link.receive(1, [vote(2)], |v| seen.push(v.seq)), 0, "gap holds the stream");
        assert_eq!(link.receive(1, [vote(1), vote(2)], |v| seen.push(v.seq)), 2);
        assert_eq!(link.receive(0, [vote(1)], |v| seen.push(v.seq)), 2, "duplicate");
        // A base jump skips votes garbage-collected before we joined.
        assert_eq!(link.receive(6, [vote(6)], |v| seen.push(v.seq)), 6);
        assert_eq!(seen, vec![1, 2, 6]);
    }

    #[test]
    fn piggyback_takes_what_fits_and_gc_follows_the_slowest_ack() {
        let mut m = GcsMetrics::default();
        let mut vs = VoteState::new();
        for txn in 0..3 {
            vs.cast(0, txn, None, true);
        }
        assert_eq!(vs.take_piggyback(2 * WireVote::LEN + 1, &mut m).len(), 2);
        assert_eq!((vs.pending.len(), m.votes_piggybacked), (1, 2));
        vs.gc(Some(1));
        assert_eq!(vs.outbox.keys().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(vs.base(), 2);
        vs.gc(None);
        assert!(vs.outbox.is_empty() && vs.base() == vs.next_seq);
    }
}
