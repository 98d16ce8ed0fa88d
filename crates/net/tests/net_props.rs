//! Property tests of the network model: conservation (every packet is
//! delivered or accounted as dropped), FIFO per channel, and analytic
//! delivery times.

use bytes::Bytes;
use dbsm_net::{Addr, Dest, DropCause, HostId, NetworkBuilder, Port, SegmentConfig};
use dbsm_sim::{Sim, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn packets_are_delivered_or_counted(
        sizes in prop::collection::vec(0usize..2000, 1..60),
        loss_pct in 0u32..40,
    ) {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let h0 = b.host(lan);
        let h1 = b.host(lan);
        let net = b.build();
        net.add_loss(h1, Box::new(dbsm_net::RandomLoss::new(f64::from(loss_pct) / 100.0, 7)));
        let delivered: Rc<RefCell<u64>> = Rc::default();
        let d = delivered.clone();
        net.bind(Addr::new(h1, Port(9)), move |_| *d.borrow_mut() += 1).expect("bind");
        let n = sizes.len() as u64;
        for size in &sizes {
            net.send(
                Addr::new(h0, Port(1)),
                Dest::Unicast(Addr::new(h1, Port(9))),
                Bytes::from(vec![0u8; *size]),
            );
        }
        sim.run();
        let st = net.stats();
        let dropped = st.drops(DropCause::LossModel)
            + st.drops(DropCause::Mtu)
            + st.drops(DropCause::TxOverflow);
        prop_assert_eq!(*delivered.borrow() + dropped, n, "conservation");
        // Transmitted = everything that passed MTU and the buffer.
        prop_assert_eq!(
            st.host(0).tx_packets + st.drops(DropCause::Mtu) + st.drops(DropCause::TxOverflow),
            n
        );
    }

    #[test]
    fn delivery_is_fifo_per_sender(count in 2usize..50) {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let h0 = b.host(lan);
        let h1 = b.host(lan);
        let net = b.build();
        let seen: Rc<RefCell<Vec<u64>>> = Rc::default();
        let s = seen.clone();
        net.bind(Addr::new(h1, Port(9)), move |dg| {
            let mut v = [0u8; 8];
            v.copy_from_slice(&dg.payload[..8]);
            s.borrow_mut().push(u64::from_le_bytes(v));
        })
        .expect("bind");
        for i in 0..count as u64 {
            net.send(
                Addr::new(h0, Port(1)),
                Dest::Unicast(Addr::new(h1, Port(9))),
                Bytes::from(i.to_le_bytes().to_vec()),
            );
        }
        sim.run();
        let got = seen.borrow().clone();
        prop_assert_eq!(got.len(), count);
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO violated: {:?}", got);
    }

    #[test]
    fn delivery_time_matches_analytic_formula(payload in 0usize..1400, lat_us in 1u64..2000) {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let cfg = SegmentConfig {
            bandwidth_bps: 100_000_000.0,
            latency: Duration::from_micros(lat_us),
            mtu: 1500,
            tx_buffer: Duration::from_millis(50),
        };
        let lan = b.lan(cfg);
        let h0 = b.host(lan);
        let h1 = b.host(lan);
        let net = b.build();
        let at: Rc<RefCell<Option<SimTime>>> = Rc::default();
        let a = at.clone();
        let sim2 = sim.clone();
        net.bind(Addr::new(h1, Port(9)), move |_| *a.borrow_mut() = Some(sim2.now()))
            .expect("bind");
        net.send(
            Addr::new(h0, Port(1)),
            Dest::Unicast(Addr::new(h1, Port(9))),
            Bytes::from(vec![0u8; payload]),
        );
        sim.run();
        let wire = dbsm_net::wire_bytes(payload) as f64;
        let expect_ns = wire * 8.0 / 100e6 * 1e9 + lat_us as f64 * 1e3;
        let got = at.borrow().expect("delivered").as_nanos() as f64;
        prop_assert!((got - expect_ns).abs() < 1000.0, "got {got}ns expect {expect_ns}ns");
    }

    #[test]
    fn multicast_fans_out_to_all_members(members in 2usize..10) {
        let sim = Sim::new();
        let mut b = NetworkBuilder::new(&sim);
        let lan = b.lan(SegmentConfig::fast_ethernet());
        let hosts: Vec<HostId> = (0..members).map(|_| b.host(lan)).collect();
        let net = b.build();
        let group = dbsm_net::GroupId(3);
        let count: Rc<RefCell<u64>> = Rc::default();
        for h in &hosts {
            net.join_group(*h, group);
            let c = count.clone();
            net.bind(Addr::new(*h, Port(9)), move |_| *c.borrow_mut() += 1).expect("bind");
        }
        net.send(Addr::new(hosts[0], Port(1)), Dest::Multicast(group, Port(9)), Bytes::new());
        sim.run();
        // Everyone but the sender receives exactly one copy; one frame on
        // the wire regardless of group size.
        prop_assert_eq!(*count.borrow(), members as u64 - 1);
        prop_assert_eq!(net.stats().host(0).tx_packets, 1);
    }
}
