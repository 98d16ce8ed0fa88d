//! # dbsm-net — simulated network (the SSFNet role)
//!
//! Models the network environment of the paper's testbed (§2.1, §4.1): one
//! shared-medium LAN (100 Mbps Fast Ethernet with latency, MTU and drop-tail
//! transmit buffer) with every host attached to it, as the paper's testbed
//! was one switched LAN (§4.1); UDP-like sockets, IP multicast,
//! receive-side loss models for fault injection (§5.3: random, bursty and
//! windowed-burst loss; a crash marks its host down instead), and per-host
//! transmit accounting (Fig. 6c).
//!
//! The network is purely a *wire* model: CPU costs of sending/receiving are
//! charged by the protocol bridges in `dbsm-gcs` (the four CSRT overhead
//! parameters of §4.1), keeping the separation the paper draws between the
//! simulated environment and the real protocol code.
//!
//! # Examples
//!
//! ```
//! use dbsm_net::{NetworkBuilder, SegmentConfig, Addr, Port, Dest};
//! use dbsm_sim::Sim;
//! use bytes::Bytes;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let sim = Sim::new();
//! let mut b = NetworkBuilder::new(&sim);
//! let lan = b.lan(SegmentConfig::fast_ethernet());
//! let h0 = b.host(lan);
//! let h1 = b.host(lan);
//! let net = b.build();
//!
//! let got = Rc::new(RefCell::new(Vec::new()));
//! let sink = got.clone();
//! net.bind(Addr::new(h1, Port(9)), move |dg| sink.borrow_mut().push(dg.payload.clone()))?;
//! net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::from_static(b"ping"));
//! sim.run();
//! assert_eq!(got.borrow().len(), 1);
//! # Ok::<(), dbsm_net::BindError>(())
//! ```

#![warn(missing_docs)]

mod addr;
mod builder;
mod loss;
mod monitor;
mod network;
mod packet;

pub use addr::{Addr, GroupId, HostId, Port};
pub use builder::{NetworkBuilder, SegmentHandle};
pub use loss::{BurstyLoss, LossModel, RandomLoss, WindowedBurst};
pub use monitor::{DropCause, HostTraffic, TrafficStats};
pub use network::{BindError, Network, SegmentConfig};
pub use packet::{wire_bytes, Datagram, Dest, HEADER_BYTES, MIN_FRAME_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dbsm_sim::{Sim, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn two_host_lan() -> (Sim, Network, HostId, HostId) {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let h0 = b.host(lan);
        let h1 = b.host(lan);
        (sim.clone(), b.build(), h0, h1)
    }

    fn collector(net: &Network, at: Addr) -> Rc<RefCell<Vec<(SimTime, Datagram)>>> {
        let got: Rc<RefCell<Vec<(SimTime, Datagram)>>> = Rc::default();
        let sink = got.clone();
        let sim = net.sim().clone();
        net.bind(at, move |dg| sink.borrow_mut().push((sim.now(), dg))).expect("bind");
        got
    }

    #[test]
    fn unicast_delivery_time_matches_analytic_model() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        let payload = Bytes::from(vec![0u8; 958]); // wire = 1000B
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), payload);
        sim.run();
        let (at, dg) = got.borrow()[0].clone();
        // 1000B at 100Mbps = 80us serialization + 50us latency.
        assert_eq!(at, SimTime::from_micros(130));
        assert_eq!(dg.payload.len(), 958);
        assert_eq!(dg.from, Addr::new(h0, Port(1)));
    }

    #[test]
    fn back_to_back_sends_serialize_on_the_channel() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        for _ in 0..2 {
            let payload = Bytes::from(vec![0u8; 958]);
            net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), payload);
        }
        sim.run();
        let times: Vec<SimTime> = got.borrow().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![SimTime::from_micros(130), SimTime::from_micros(210)]);
    }

    #[test]
    fn multicast_reaches_group_members_only() {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let hosts: Vec<HostId> = (0..4).map(|_| b.host(lan)).collect();
        let net = b.build();
        let g = GroupId(5);
        // Hosts 1 and 2 join; host 3 does not. The sender's own copy is not
        // looped back (IP_MULTICAST_LOOP off, as the GCS prototype assumes).
        net.join_group(hosts[0], g);
        net.join_group(hosts[1], g);
        net.join_group(hosts[2], g);
        let got1 = collector(&net, Addr::new(hosts[1], Port(9)));
        let got2 = collector(&net, Addr::new(hosts[2], Port(9)));
        let got3 = collector(&net, Addr::new(hosts[3], Port(9)));
        net.send(
            Addr::new(hosts[0], Port(1)),
            Dest::Multicast(g, Port(9)),
            Bytes::from_static(b"m"),
        );
        sim.run();
        assert_eq!(got1.borrow().len(), 1);
        assert_eq!(got2.borrow().len(), 1);
        assert_eq!(got3.borrow().len(), 0);
        assert_eq!(got1.borrow()[0].1.group, Some(g));
        // One transmission on the wire regardless of receiver count.
        assert_eq!(net.stats().host(0).tx_packets, 1);
    }

    #[test]
    fn mtu_violations_are_dropped_and_counted() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        net.send(
            Addr::new(h0, Port(1)),
            Dest::Unicast(Addr::new(h1, Port(9))),
            Bytes::from(vec![0u8; 2000]),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(net.stats().drops(DropCause::Mtu), 1);
    }

    #[test]
    fn tx_overflow_drops_excess_packets() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        // 20ms buffer at 100Mbps fits 250 x 1000B frames; send 400.
        for _ in 0..400 {
            net.send(
                Addr::new(h0, Port(1)),
                Dest::Unicast(Addr::new(h1, Port(9))),
                Bytes::from(vec![0u8; 958]),
            );
        }
        sim.run();
        let delivered = got.borrow().len() as u64;
        let dropped = net.stats().drops(DropCause::TxOverflow);
        assert_eq!(delivered + dropped, 400);
        assert!(dropped > 100, "dropped {dropped}");
    }

    #[test]
    fn receive_loss_model_applies() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        net.add_loss(h1, Box::new(RandomLoss::new(1.0, 1)));
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(net.stats().drops(DropCause::LossModel), 1);
    }

    #[test]
    fn down_host_neither_sends_nor_receives() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        net.set_host_down(h1, true);
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(net.stats().drops(DropCause::HostDown), 1);

        net.set_host_down(h1, false);
        net.set_host_down(h0, true);
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(net.stats().host(0).tx_packets, 1, "the down host put nothing on the wire");
    }

    #[test]
    fn stacked_loss_models_compose_and_all_observe_traffic() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        // A drop-everything model stacked on a drop-nothing model: the
        // union drops everything.
        net.add_loss(h1, Box::new(RandomLoss::new(0.0, 1)));
        net.add_loss(h1, Box::new(RandomLoss::new(1.0, 2)));
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        sim.run();
        assert_eq!(got.borrow().len(), 0, "any stacked model may drop");
        assert_eq!(net.stats().drops(DropCause::LossModel), 1);
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_healed() {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let hosts: Vec<HostId> = (0..3).map(|_| b.host(lan)).collect();
        let net = b.build();
        let got1 = collector(&net, Addr::new(hosts[1], Port(9)));
        let got2 = collector(&net, Addr::new(hosts[2], Port(9)));
        net.set_partition(&[vec![hosts[0], hosts[1]], vec![hosts[2]]]);
        let from = Addr::new(hosts[0], Port(1));
        net.send(from, Dest::Unicast(Addr::new(hosts[1], Port(9))), Bytes::from_static(b"in"));
        net.send(from, Dest::Unicast(Addr::new(hosts[2], Port(9))), Bytes::from_static(b"out"));
        sim.run();
        assert_eq!(got1.borrow().len(), 1, "same group delivers");
        assert_eq!(got2.borrow().len(), 0, "cross-group dropped");
        assert_eq!(net.stats().drops(DropCause::Partition), 1);
        net.clear_partition();
        net.send(from, Dest::Unicast(Addr::new(hosts[2], Port(9))), Bytes::from_static(b"heal"));
        sim.run();
        assert_eq!(got2.borrow().len(), 1, "healed network delivers again");
    }

    #[test]
    fn partition_drops_packets_in_flight_at_the_split() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        // Sent pre-split, arriving (130us later) after the split lands.
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        let net2 = net.clone();
        sim.schedule_at(SimTime::from_micros(10), move || {
            net2.set_partition(&[vec![h0], vec![h1]]);
        });
        sim.run();
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(net.stats().drops(DropCause::Partition), 1);
    }

    #[test]
    fn unlisted_hosts_are_isolated_by_a_partition() {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let hosts: Vec<HostId> = (0..3).map(|_| b.host(lan)).collect();
        let net = b.build();
        let got: Vec<_> = hosts.iter().map(|&h| collector(&net, Addr::new(h, Port(9)))).collect();
        net.set_partition(&[vec![hosts[0], hosts[1]]]);
        for (from, to) in [(0, 2), (2, 1), (0, 1)] {
            let (src, dst) = (Addr::new(hosts[from], Port(1)), Addr::new(hosts[to], Port(9)));
            net.send(src, Dest::Unicast(dst), Bytes::new());
        }
        sim.run();
        assert_eq!(got[2].borrow().len(), 0, "the unlisted host hears nobody");
        assert_eq!(got[1].borrow().len(), 1, "only its own group reaches host 1");
        assert_eq!(net.stats().drops(DropCause::Partition), 2, "nor is it heard");
    }

    #[test]
    fn duplicate_delivery_injects_extra_copies() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        net.set_duplication(h1, 1.0, 2, 42);
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        sim.run();
        let n = got.borrow().len();
        assert!((2..=3).contains(&n), "original + 1..=2 copies, got {n}");
        assert_eq!(net.stats().duplicates_injected(), n as u64 - 1);
        // Copies arrive after the original, 50us apart.
        let times: Vec<SimTime> = got.borrow().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn duplicates_do_not_multiply_and_zero_p_is_silent() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        net.set_duplication(h1, 0.0, 3, 1);
        for _ in 0..20 {
            net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(9))), Bytes::new());
        }
        sim.run();
        assert_eq!(got.borrow().len(), 20, "p=0 injects nothing");
        assert_eq!(net.stats().duplicates_injected(), 0);
    }

    #[test]
    fn unbound_port_counts_no_socket() {
        let (sim, net, h0, h1) = two_host_lan();
        net.send(Addr::new(h0, Port(1)), Dest::Unicast(Addr::new(h1, Port(99))), Bytes::new());
        sim.run();
        assert_eq!(net.stats().drops(DropCause::NoSocket), 1);
    }

    #[test]
    fn bind_conflicts_are_errors() {
        let (_sim, net, _h0, h1) = two_host_lan();
        net.bind(Addr::new(h1, Port(9)), |_| {}).expect("first bind");
        let err = net.bind(Addr::new(h1, Port(9)), |_| {}).expect_err("duplicate");
        assert_eq!(err, BindError::PortInUse(Port(9)));
        let err = net.bind(Addr::new(HostId(42), Port(9)), |_| {}).expect_err("bad host");
        assert_eq!(err, BindError::NoSuchHost(HostId(42)));
    }

    #[test]
    fn handlers_can_send_replies() {
        let (sim, net, h0, h1) = two_host_lan();
        let net2 = net.clone();
        net.bind(Addr::new(h1, Port(9)), move |dg| {
            net2.send(Addr::new(dg.to.host, Port(9)), Dest::Unicast(dg.from), dg.payload);
        })
        .expect("bind responder");
        let got = collector(&net, Addr::new(h0, Port(1)));
        net.send(
            Addr::new(h0, Port(1)),
            Dest::Unicast(Addr::new(h1, Port(9))),
            Bytes::from_static(b"x"),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 1, "round trip completed");
    }

    #[test]
    fn traffic_counters_track_bytes() {
        let (sim, net, h0, h1) = two_host_lan();
        let got = collector(&net, Addr::new(h1, Port(9)));
        net.send(
            Addr::new(h0, Port(1)),
            Dest::Unicast(Addr::new(h1, Port(9))),
            Bytes::from(vec![0u8; 100]),
        );
        sim.run();
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(net.stats().host(0).tx_bytes, 142);
        assert_eq!(net.stats().host(1), HostTraffic::default(), "the receiver sent nothing");
        assert_eq!(net.stats().total_tx_bytes(), 142);
    }
}
