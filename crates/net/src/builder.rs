//! Topology construction.

use crate::addr::HostId;
use crate::network::{Network, SegmentConfig};
use dbsm_sim::Sim;

/// Builds a [`Network`]: one LAN, and the hosts attached to it.
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
    lan: Option<SegmentConfig>,
    n_hosts: usize,
}

/// Proof that the builder's LAN exists; [`NetworkBuilder::host`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHandle(());

impl NetworkBuilder {
    /// Starts building a topology on the given simulation.
    pub fn new(sim: &Sim) -> Self {
        NetworkBuilder { sim: sim.clone(), lan: None, n_hosts: 0 }
    }

    /// Declares the network's LAN.
    ///
    /// # Panics
    ///
    /// Panics if the LAN is already declared: a network is one LAN.
    pub fn lan(&mut self, config: SegmentConfig) -> SegmentHandle {
        assert!(self.lan.replace(config).is_none(), "a network has exactly one LAN");
        SegmentHandle(())
    }

    /// Adds a host attached to the LAN.
    pub fn host(&mut self, _lan: SegmentHandle) -> HostId {
        let id = HostId(u16::try_from(self.n_hosts).expect("too many hosts"));
        self.n_hosts += 1;
        id
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    ///
    /// Panics if no LAN was declared.
    pub fn build(self) -> Network {
        let lan = self.lan.expect("a network needs its LAN: call NetworkBuilder::lan first");
        Network::from_parts(self.sim, lan, self.n_hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "exactly one LAN")]
    fn a_second_lan_is_rejected() {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        assert_eq!([b.host(lan), b.host(lan)].map(|h| h.0), [0, 1]);
        b.lan(SegmentConfig::fast_ethernet());
    }
}
