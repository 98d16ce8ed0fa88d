//! Reliable-multicast layer: fragmentation and reassembly, rate + window
//! flow control, and the per-stream state behind NAK repair.
//!
//! Every fragment buffer here — a receive stream's out-of-order and
//! retained fragments, the sender's unstable fragments — is keyed by the
//! stream's fragment sequence number and is a [`SeqRing`]: fragments are
//! consumed from its front, and stability garbage-collects a prefix by
//! popping the front rather than rebuilding a tree.

use super::GcsMetrics;
use crate::config::{GcsConfig, FRAG_PAYLOAD};
use crate::runtime::{ProtocolRuntime, TimerId, TimerKind};
use crate::seq_ring::SeqRing;
use crate::wire::{Fragment, PayloadKind, SeqAssign};
use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::ops::RangeInclusive;

pub(super) fn frags_for(len: usize) -> u64 {
    len.div_ceil(FRAG_PAYLOAD).max(1) as u64
}

#[derive(Debug, Default)]
struct Assembler {
    first_seq: u64,
    total: u16,
    kind: PayloadKind,
    frags: Vec<Bytes>,
}

impl Assembler {
    /// Feeds the next in-order fragment; returns a complete message as
    /// `(first_seq, kind, payload)` when assembly finishes.
    fn feed(&mut self, seq: u64, frag: &Fragment) -> Option<(u64, PayloadKind, Bytes)> {
        if frag.idx == 0 {
            self.first_seq = seq;
            self.total = frag.total;
            self.kind = frag.kind;
            self.frags.clear();
        } else if self.frags.len() != frag.idx as usize || self.total != frag.total {
            // Stream corruption would indicate a protocol bug: fragments
            // arrive in contiguous order by construction.
            debug_assert!(false, "fragment sequence corrupted");
            self.frags.clear();
            return None;
        }
        self.frags.push(frag.payload.clone());
        if self.frags.len() == self.total as usize {
            let payload = if self.frags.len() == 1 {
                self.frags.pop().expect("one fragment")
            } else {
                let mut b = BytesMut::with_capacity(self.frags.iter().map(Bytes::len).sum());
                for f in self.frags.drain(..) {
                    b.extend_from_slice(&f);
                }
                b.freeze()
            };
            Some((self.first_seq, self.kind, payload))
        } else {
            None
        }
    }
}

/// What advancing a stream hands upward, in stream order: assignments with
/// their carrier's sequence number, and completed messages.
#[derive(Debug, Default)]
pub(super) struct Advanced {
    pub anns: Vec<(SeqAssign, u64)>,
    pub completed: Vec<(u64, PayloadKind, Bytes)>,
}

#[derive(Debug, Default)]
pub(super) struct RecvStream {
    /// All fragments `1..=contiguous` received and processed.
    pub contiguous: u64,
    /// Out-of-order fragments beyond the contiguous prefix.
    ooo: SeqRing<Fragment>,
    /// Contiguously received but not-yet-stable fragments, kept so peers can
    /// be served retransmissions when the original sender is gone.
    retained: SeqRing<Fragment>,
    /// Highest fragment known to exist in this stream (from data/heartbeats).
    pub highest_known: u64,
    /// When the current head gap was first noticed (ns); None = no gap.
    gap_since: Option<u64>,
    /// Last NAK emission for this stream (ns).
    last_nak: u64,
    /// Hard upper bound on delivery: set while flushing for streams of
    /// excluded members (ack snapshot, then the agreed cut).
    pub freeze_at: Option<u64>,
    asm: Assembler,
}

impl RecvStream {
    pub fn new(base: u64) -> Self {
        RecvStream { contiguous: base, highest_known: base, ..Default::default() }
    }

    fn delivery_limit(&self) -> u64 {
        self.freeze_at.unwrap_or(u64::MAX)
    }

    pub fn mid_message(&self) -> bool {
        !self.asm.frags.is_empty()
    }

    /// Buffers fragment `seq`; false if it is a duplicate or leads the
    /// contiguous prefix by more than `lead`, which would size the
    /// out-of-order buffer by the gap.
    pub fn accept(&mut self, seq: u64, frag: Fragment, lead: u64, m: &mut GcsMetrics) -> bool {
        if seq > self.contiguous.saturating_add(lead) {
            return false;
        }
        self.highest_known = self.highest_known.max(seq);
        if seq <= self.contiguous || self.ooo.contains_key(seq) {
            m.duplicates += 1;
            return false;
        }
        self.ooo.insert(seq, frag);
        true
    }

    /// Advances the contiguous prefix as far as buffered fragments and the
    /// flush freeze limit allow, maintaining gap bookkeeping. `own` marks
    /// the loopback stream, whose fragments the send buffer keeps for repair.
    pub fn advance(&mut self, own: bool, up: &mut Advanced, now: impl FnOnce() -> u64) {
        while self.contiguous < self.delivery_limit() {
            let next = self.contiguous + 1;
            let Some(frag) = self.ooo.remove(next) else { break };
            self.contiguous = next;
            // Piggybacked assignments apply only once their carrier fragment
            // is consumed into the contiguous prefix: that is the same
            // flush/cut discipline `SeqAnn` messages obey, so a beyond-cut
            // straggler can never apply assignments at some survivors and
            // not others across a view change.
            up.anns.extend(frag.ann.iter().map(|a| (*a, next)));
            if let Some(msg) = self.asm.feed(next, &frag) {
                up.completed.push(msg);
            }
            if !own {
                self.retained.insert(next, frag);
            }
        }
        // Gap bookkeeping for the NAK machinery.
        if self.contiguous < self.highest_known.min(self.delivery_limit()) {
            if self.gap_since.is_none() {
                self.gap_since = Some(now());
            }
        } else {
            self.gap_since = None;
        }
    }

    /// The cached fragments within `range`, in key order: every retained
    /// key lies at or below the contiguous prefix, every out-of-order key
    /// above it.
    pub fn cached(&self, range: RangeInclusive<u64>) -> impl Iterator<Item = (u64, &Fragment)> {
        self.retained.range(range.clone()).chain(self.ooo.range(range))
    }

    /// The missing ranges to NAK now, if any.
    pub fn nak_due(&mut self, now: u64, delay: u64, retry: u64) -> Option<Vec<(u64, u64)>> {
        const MAX_RANGES: usize = 32;
        let limit = self.highest_known.min(self.delivery_limit());
        if self.contiguous >= limit {
            return None;
        }
        let Some(gap_since) = self.gap_since else {
            // Tail loss: no later fragment arrived; rely on the
            // heartbeat-advertised length to open the gap clock.
            self.gap_since = Some(now);
            return None;
        };
        if now.saturating_sub(gap_since) < delay || now.saturating_sub(self.last_nak) < retry {
            return None;
        }
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut next = self.contiguous + 1;
        for (have, _) in self.ooo.range(next..=limit) {
            if have > next {
                ranges.push((next, have - 1));
                if ranges.len() >= MAX_RANGES {
                    break;
                }
            }
            next = have + 1;
        }
        if ranges.len() < MAX_RANGES && next <= limit {
            ranges.push((next, limit));
        }
        if ranges.is_empty() {
            return None;
        }
        self.last_nak = now;
        Some(ranges)
    }

    pub fn gc(&mut self, stable: u64) {
        self.retained.drop_through(stable);
    }

    /// Drop undeliverable fragments beyond the cut for a dead stream. A
    /// message left partially assembled at the cut died with its sender
    /// and can never complete anywhere — clear it, or it would block rejoin
    /// grants (which require assembly-clean streams) forever.
    pub fn cut_off(&mut self, cut: u64) {
        self.ooo.clear();
        self.gap_since = None;
        self.freeze_at = Some(cut);
        if self.contiguous >= cut {
            self.asm = Assembler::default();
        }
    }

    /// A rejoiner's new traffic continues the old fragment numbering past
    /// the freeze point.
    pub fn reopen(&mut self) {
        self.freeze_at = None;
        self.gap_since = None;
        self.asm = Assembler::default();
    }
}

#[derive(Debug, Default)]
pub(super) struct SendState {
    /// Next fragment sequence number to assign (1-based).
    pub next_frag: u64,
    /// Own unstable fragments (for retransmission).
    pub buffer: SeqRing<Fragment>,
    /// Messages admitted by the application but not yet transmitted
    /// (window/rate/flush blocked).
    pub pending: VecDeque<(PayloadKind, Bytes)>,
    /// Token bucket for rate-based flow control.
    tokens: f64,
    pub last_refill: u64,
    pub rate_timer: Option<TimerId>,
    /// Start of the current blocked period, if any.
    blocked_since: Option<u64>,
}

impl SendState {
    pub fn new(cfg: &GcsConfig) -> Self {
        SendState { next_frag: 1, tokens: cfg.rate_burst_bytes as f64, ..Default::default() }
    }

    pub fn sent(&self) -> u64 {
        self.next_frag - 1
    }

    pub fn enqueue(&mut self, kind: PayloadKind, payload: Bytes, m: &mut GcsMetrics) {
        self.pending.push_back((kind, payload));
        m.pending_peak = m.pending_peak.max(self.pending.len());
    }

    pub fn refill(&mut self, now: u64, cfg: &GcsConfig) {
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        self.tokens = (self.tokens + cfg.send_rate_bytes_per_sec * elapsed as f64 / 1e9)
            .min(cfg.rate_burst_bytes as f64);
    }

    /// Pops the next queued message if `window` (free buffer-share
    /// fragments; `None` while flushing) and the rate bucket admit it.
    pub fn admit(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        now: u64,
        window: Option<u64>,
        cfg: &GcsConfig,
        m: &mut GcsMetrics,
    ) -> Option<(PayloadKind, Bytes)> {
        let Some((_, payload)) = self.pending.front() else {
            self.note_unblocked(now, m);
            return None;
        };
        // Window full: wait for stability to advance (§5.3 blocking).
        if window.is_none_or(|free| frags_for(payload.len()) > free) {
            self.note_blocked(now, m);
            return None;
        }
        if self.tokens < payload.len() as f64 {
            // Rate limited: wake up when enough tokens have accrued.
            let deficit = payload.len() as f64 - self.tokens;
            let wait = (deficit / cfg.send_rate_bytes_per_sec * 1e9).ceil() as u64;
            if self.rate_timer.is_none() {
                let id = rt
                    .set_timer(std::time::Duration::from_nanos(wait.max(1)), TimerKind::RateRefill);
                self.rate_timer = Some(id);
            }
            self.note_blocked(now, m);
            return None;
        }
        self.tokens -= payload.len() as f64;
        let next = self.pending.pop_front();
        self.note_unblocked(now, m);
        next
    }

    fn note_blocked(&mut self, now: u64, m: &mut GcsMetrics) {
        if self.pending.is_empty() {
            return;
        }
        // Accumulate incrementally so a long-lived block (the §5.3
        // pathology) is visible while it is still ongoing.
        if let Some(since) = self.blocked_since {
            m.blocked_ns += now.saturating_sub(since);
        }
        self.blocked_since = Some(now);
    }

    fn note_unblocked(&mut self, now: u64, m: &mut GcsMetrics) {
        if let Some(since) = self.blocked_since.take() {
            m.blocked_ns += now.saturating_sub(since);
        }
    }

    pub fn push(&mut self, frag: Fragment) -> u64 {
        let seq = self.next_frag;
        self.next_frag += 1;
        self.buffer.insert(seq, frag);
        seq
    }

    pub fn gc(&mut self, stable: u64) {
        self.buffer.drop_through(stable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lead no fragment of these tests comes near.
    const LEAD: u64 = 8;

    fn cached_keys(s: &RecvStream) -> Vec<u64> {
        s.cached(0..=u64::MAX).map(|(seq, _)| seq).collect()
    }

    fn frag(idx: u16, total: u16, byte: u8) -> Fragment {
        Fragment {
            total,
            idx,
            kind: PayloadKind::App,
            ann: Vec::new(),
            payload: Bytes::from(vec![byte; 2]),
        }
    }

    #[test]
    fn stream_reassembles_in_order_and_caches_for_repair() {
        let mut m = GcsMetrics::default();
        let mut s = RecvStream::new(0);
        let mut up = Advanced::default();
        // Fragment 2 arrives first: buffered, and the head gap opens.
        assert!(s.accept(2, frag(1, 2, 0xB), LEAD, &mut m));
        s.advance(false, &mut up, || 7);
        assert!(up.completed.is_empty());
        assert_eq!(s.nak_due(7, 0, 0), Some(vec![(1, 1)]), "the missing head is NAKed");
        // Fragment 1 closes the gap: one message, both fragments cached.
        assert!(s.accept(1, frag(0, 2, 0xA), LEAD, &mut m));
        assert!(!s.accept(1, frag(0, 2, 0xA), LEAD, &mut m), "duplicate");
        s.advance(false, &mut up, || unreachable!("no gap left"));
        assert_eq!(
            up.completed,
            vec![(1, PayloadKind::App, Bytes::from(vec![0xA, 0xA, 0xB, 0xB]))]
        );
        assert_eq!(cached_keys(&s), vec![1, 2]);
        assert_eq!(m.duplicates, 1);
        s.gc(1);
        assert_eq!(cached_keys(&s), vec![2], "stable prefix dropped");
    }

    #[test]
    fn frozen_stream_stops_at_the_cut() {
        let mut m = GcsMetrics::default();
        let mut s = RecvStream::new(0);
        s.freeze_at = Some(1);
        for seq in 1..=2 {
            s.accept(seq, frag(0, 1, seq as u8), LEAD, &mut m);
        }
        let mut up = Advanced::default();
        s.advance(false, &mut up, || 0);
        assert_eq!((s.contiguous, up.completed.len()), (1, 1), "nothing past the freeze");
        s.cut_off(1);
        assert_eq!(cached_keys(&s), vec![1], "beyond-cut fragment dropped");
    }
}
