//! Traffic accounting — the data behind Fig. 6(c) (network KB/s) and the
//! drop diagnostics used when analysing fault-injection runs.

use std::collections::BTreeMap;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropCause {
    /// Receiver-side loss model (random/bursty loss, crash).
    LossModel,
    /// Transmit backlog exceeded the NIC/channel buffer.
    TxOverflow,
    /// Frame larger than the segment MTU (we enforce the MTU SSFNet did not).
    Mtu,
    /// Destination host is down.
    HostDown,
    /// Destination port has no bound socket.
    NoSocket,
    /// No common segment between the two hosts.
    NoRoute,
    /// Sender and receiver are in different partition segments (the
    /// partition fault splits the network until it heals).
    Partition,
}

/// Per-host byte/packet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostTraffic {
    /// Payload+header bytes transmitted onto a wire.
    pub tx_bytes: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes delivered to sockets on this host.
    pub rx_bytes: u64,
    /// Packets delivered.
    pub rx_packets: u64,
}

/// Aggregated network statistics.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    per_host: Vec<HostTraffic>,
    drops: BTreeMap<DropCause, u64>,
    dup_injected: u64,
}

impl TrafficStats {
    /// Creates counters for `n` hosts.
    pub fn new(n: usize) -> Self {
        TrafficStats {
            per_host: vec![HostTraffic::default(); n],
            drops: BTreeMap::new(),
            dup_injected: 0,
        }
    }

    pub(crate) fn on_tx(&mut self, host: usize, wire_bytes: usize) {
        let h = &mut self.per_host[host];
        h.tx_bytes += wire_bytes as u64;
        h.tx_packets += 1;
    }

    pub(crate) fn on_rx(&mut self, host: usize, wire_bytes: usize) {
        let h = &mut self.per_host[host];
        h.rx_bytes += wire_bytes as u64;
        h.rx_packets += 1;
    }

    pub(crate) fn on_drop(&mut self, cause: DropCause) {
        *self.drops.entry(cause).or_insert(0) += 1;
    }

    pub(crate) fn on_dup(&mut self, copies: u64) {
        self.dup_injected += copies;
    }

    /// Duplicate packet copies injected by the duplicate-delivery fault.
    pub fn duplicates_injected(&self) -> u64 {
        self.dup_injected
    }

    /// Counters for one host.
    pub fn host(&self, idx: usize) -> HostTraffic {
        self.per_host.get(idx).copied().unwrap_or_default()
    }

    /// Total bytes put on wires by all hosts.
    pub fn total_tx_bytes(&self) -> u64 {
        self.per_host.iter().map(|h| h.tx_bytes).sum()
    }

    /// Total bytes delivered to sockets.
    pub fn total_rx_bytes(&self) -> u64 {
        self.per_host.iter().map(|h| h.rx_bytes).sum()
    }

    /// Packets dropped for a given cause.
    pub fn drops(&self, cause: DropCause) -> u64 {
        self.drops.get(&cause).copied().unwrap_or(0)
    }

    /// All drops, any cause.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TrafficStats::new(2);
        s.on_tx(0, 100);
        s.on_tx(0, 50);
        s.on_rx(1, 100);
        s.on_drop(DropCause::Mtu);
        s.on_drop(DropCause::Mtu);
        assert_eq!(s.host(0).tx_bytes, 150);
        assert_eq!(s.host(0).tx_packets, 2);
        assert_eq!(s.host(1).rx_packets, 1);
        assert_eq!(s.drops(DropCause::Mtu), 2);
        assert_eq!(s.drops(DropCause::LossModel), 0);
        assert_eq!(s.total_tx_bytes(), 150);
        assert_eq!(s.total_drops(), 2);
    }

    #[test]
    fn unknown_host_is_zero() {
        let s = TrafficStats::new(1);
        assert_eq!(s.host(99), HostTraffic::default());
    }
}
