//! The protocol runtime abstraction (§2.3).
//!
//! "Protocol code is written targeting an abstraction layer which provides
//! job scheduling, clock access, and a simplified network interface in a
//! single-threaded environment. The abstract interface is then implemented
//! twice, first as a bridge to SSF, SSFNet, and the simulation runtime, and
//! then also as a bridge to the native Java API." Our two implementations
//! are [`SimBridge`](crate::SimBridge) (simulation) and
//! [`NativeBridge`](crate::NativeBridge) (`std::net` + a timer thread).

use crate::types::NodeId;
use bytes::Bytes;
use std::time::Duration;

/// Identifies a pending timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// Which logical timer fired — the protocol keys its periodic activities on
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Stability-detection gossip round.
    Gossip,
    /// Failure-detector heartbeat emission.
    Heartbeat,
    /// Failure-detector timeout scan.
    FailureCheck,
    /// Gap scan / NAK (re)transmission.
    NakCheck,
    /// Rate-based flow control: tokens available again.
    RateRefill,
    /// Sequencer announcement batch flush.
    AnnFlush,
    /// View-change coordinator resend.
    FlushResend,
    /// Rejoin: `JoinReq` retry at a joining node; grant-install resend at
    /// the granter.
    JoinRetry,
}

/// Services the protocol may use — its *only* window on the outside world.
///
/// The single-threaded contract: implementations invoke protocol entry
/// points sequentially, and the protocol only touches time, timers, and the
/// network through this trait. That is what lets the identical code run
/// under the simulation (where the bridge accounts CPU and virtual time) and
/// on a real network.
pub trait ProtocolRuntime {
    /// Current time in nanoseconds (virtual under simulation).
    fn now_nanos(&mut self) -> u64;

    /// Arms a timer; the protocol's `on_timer` runs with `kind` after
    /// `delay`.
    fn set_timer(&mut self, delay: Duration, kind: TimerKind) -> TimerId;

    /// Cancels a pending timer (no-op if it already fired).
    fn cancel_timer(&mut self, id: TimerId);

    /// Sends `payload` to one node.
    fn unicast(&mut self, to: NodeId, payload: Bytes);

    /// Sends `payload` to all group members — IP multicast where the
    /// network provides it, unicast fan-out otherwise (§3.4).
    fn multicast(&mut self, payload: Bytes);

    /// Declares simulated CPU cost (no-op on the native bridge, where real
    /// cycles are spent instead).
    fn charge(&mut self, cost: Duration);
}

#[cfg(test)]
pub(crate) mod mock {
    use super::*;

    /// A transparent [`ProtocolRuntime`] recording everything the stack
    /// does, for driving single instances through exact event sequences the
    /// network harness cannot easily force (e.g. a flush timer firing in the
    /// middle of a view change).
    #[derive(Default)]
    pub(crate) struct MockRt {
        pub now: u64,
        next_timer: u64,
        pub cancelled: Vec<TimerId>,
        pub sent: Vec<Bytes>,
    }

    impl ProtocolRuntime for MockRt {
        fn now_nanos(&mut self) -> u64 {
            self.now
        }

        fn set_timer(&mut self, _delay: Duration, _kind: TimerKind) -> TimerId {
            self.next_timer += 1;
            TimerId(self.next_timer - 1)
        }

        fn cancel_timer(&mut self, id: TimerId) {
            self.cancelled.push(id);
        }

        fn unicast(&mut self, _to: NodeId, payload: Bytes) {
            self.sent.push(payload);
        }

        fn multicast(&mut self, payload: Bytes) {
            self.sent.push(payload);
        }

        fn charge(&mut self, _cost: Duration) {}
    }
}
