//! Topology construction.

use crate::addr::HostId;
use crate::network::{Network, SegmentConfig};
use dbsm_sim::{Sim, Trace};

/// Builds a [`Network`] topology: LAN segments, each host attached to
/// exactly one of them.
///
/// # Examples
///
/// ```
/// use dbsm_net::{NetworkBuilder, SegmentConfig};
/// use dbsm_sim::Sim;
///
/// let sim = Sim::new();
/// let mut b = NetworkBuilder::new(&sim);
/// let lan = b.lan(SegmentConfig::fast_ethernet());
/// let h0 = b.host(lan);
/// let h1 = b.host(lan);
/// let net = b.build();
/// assert_eq!(net.n_hosts(), 2);
/// # let _ = (h0, h1);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    sim: Sim,
    segments: Vec<(SegmentConfig, Vec<HostId>)>,
    n_hosts: usize,
    trace: Trace,
}

/// Identifier of a segment under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHandle(usize);

impl NetworkBuilder {
    /// Starts building a topology on the given simulation.
    pub fn new(sim: &Sim) -> Self {
        NetworkBuilder {
            sim: sim.clone(),
            segments: Vec::new(),
            n_hosts: 0,
            trace: Trace::disabled(),
        }
    }

    /// Enables packet tracing with the given buffer capacity.
    pub fn trace(&mut self, trace: Trace) -> &mut Self {
        self.trace = trace;
        self
    }

    /// Adds a LAN segment.
    pub fn lan(&mut self, config: SegmentConfig) -> SegmentHandle {
        self.segments.push((config, Vec::new()));
        SegmentHandle(self.segments.len() - 1)
    }

    /// Adds a host attached to `segment`.
    pub fn host(&mut self, segment: SegmentHandle) -> HostId {
        let id = HostId(u16::try_from(self.n_hosts).expect("too many hosts"));
        self.n_hosts += 1;
        self.segments[segment.0].1.push(id);
        id
    }

    /// Finalizes the topology.
    pub fn build(self) -> Network {
        Network::from_parts(self.sim, self.segments, self.n_hosts, self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_multi_segment_topologies() {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan1 = b.lan(SegmentConfig::fast_ethernet());
        let lan2 = b.lan(SegmentConfig::fast_ethernet());
        assert_ne!(lan1, lan2);
        let hosts = [b.host(lan1), b.host(lan2), b.host(lan1)];
        assert_eq!(hosts.map(|h| h.0), [0, 1, 2], "host ids count across segments");
        let net = b.build();
        assert_eq!(net.n_hosts(), 3);
    }
}
