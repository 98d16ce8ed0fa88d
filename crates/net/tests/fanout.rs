//! The multicast fan-out contract: every receiver of a multicast runs its
//! handler at the arrival instant, in host-id order, before anything
//! a handler schedules for that instant; per-host loss and duplication draw
//! exactly as if each receiver had its own arrival event.

use bytes::Bytes;
use dbsm_net::{Addr, Dest, DropCause, GroupId, HostId, NetworkBuilder, Port, RandomLoss};
use dbsm_net::{Network, SegmentConfig};
use dbsm_sim::{Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// One handler run: the receiving host (`None` for the zero-delay event the
/// first receiver schedules), the instant, and the multicast's tag byte.
type Entry = (Option<HostId>, SimTime, u8);

const SENDS: u8 = 40;

/// Six hosts on one LAN, all in the group; host 0 sends `SENDS` multicasts
/// 1 ms apart, so hosts 1..=5 each receive every one. Host 2 loses 30 %
/// of arrivals, host 4 duplicates half of its arrivals (1 or 2 copies).
fn run() -> (Vec<Entry>, Network, Vec<HostId>) {
    let sim = Sim::new();
    let mut b = NetworkBuilder::new(&sim);
    let lan = b.lan(SegmentConfig::fast_ethernet());
    let hosts: Vec<HostId> = (0..6).map(|_| b.host(lan)).collect();
    let net = b.build();
    let (group, port) = (GroupId(3), Port(7));
    let log: Rc<RefCell<Vec<Entry>>> = Rc::default();
    for &h in &hosts {
        net.join_group(h, group);
        let (log, sim) = (log.clone(), sim.clone());
        let first = h == hosts[1];
        net.bind(Addr::new(h, port), move |dg| {
            let tag = dg.payload[0];
            log.borrow_mut().push((Some(h), sim.now(), tag));
            if first {
                let (log, now) = (log.clone(), sim.now());
                sim.schedule_now(move || log.borrow_mut().push((None, now, tag)));
            }
        })
        .expect("fresh host");
    }
    net.add_loss(hosts[2], Box::new(RandomLoss::new(0.3, 11)));
    net.set_duplication(hosts[4], 0.5, 2, 13);
    for tag in 0..SENDS {
        let net = net.clone();
        let from = Addr::new(hosts[0], port);
        sim.schedule_at(SimTime::from_millis(u64::from(tag)), move || {
            net.send(from, Dest::Multicast(group, port), Bytes::from(vec![tag; 100]));
        });
    }
    sim.run();
    let log = log.take();
    (log, net, hosts)
}

fn fnv(log: &[Entry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (host, at, tag) in log {
        let host = host.map_or(u64::MAX, |h| u64::from(h.0));
        for word in [host, at.as_nanos(), u64::from(*tag)] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn receivers_run_at_the_arrival_instant_in_member_order() {
    let (log, _net, hosts) = run();
    for tag in 0..SENDS {
        let original: Vec<&Entry> = log.iter().filter(|e| e.2 == tag).collect();
        let arrive = original[0].1;
        // Duplicate copies come 50 µs or later after the original instant.
        let at_arrival: Vec<Option<HostId>> =
            original.iter().filter(|e| e.1 == arrive).map(|e| e.0).collect();
        let receivers: Vec<HostId> = at_arrival.iter().flatten().copied().collect();
        assert!(receivers.windows(2).all(|w| w[0] < w[1]), "member order: {receivers:?}");
        assert_eq!(receivers.first(), Some(&hosts[1]), "host 1 never loses");
        assert_eq!(
            at_arrival.last(),
            Some(&None),
            "the first receiver's zero-delay event runs after the last receiver"
        );
        assert!(receivers.iter().all(|h| *h != hosts[0]), "no loopback to the sender");
    }
}

#[test]
fn loss_and_duplication_draws_are_per_receiver() {
    let (log, net, hosts) = run();
    let st = net.stats();
    // Handler runs per receiving host, the `None` entries aside.
    let rx = |i: usize| log.iter().filter(|e| e.0 == Some(hosts[i])).count();
    // Recorded on the one-event-per-receiver model this contract replaces.
    assert_eq!(st.host(hosts[0].0 as usize).tx_packets, u64::from(SENDS));
    assert_eq!((rx(0), rx(1), rx(2), rx(3), rx(4), rx(5)), (0, 40, 28, 40, 70, 40));
    assert_eq!(st.drops(DropCause::LossModel), 12);
    assert_eq!(st.duplicates_injected(), 30);
    assert_eq!(st.total_drops(), 12);
    let copies: Vec<(SimTime, u8)> = log
        .iter()
        .filter(|e| e.0 == Some(hosts[4]))
        .map(|e| (e.1, e.2))
        .filter(|(at, tag)| log.iter().any(|o| o.2 == *tag && o.1 < *at))
        .collect();
    assert_eq!(copies.len(), 30);
    assert!(copies.iter().all(|(at, tag)| {
        let arrive = log.iter().find(|o| o.2 == *tag).expect("original").1;
        let gap = at.saturating_duration_since(arrive);
        gap == Duration::from_micros(50) || gap == Duration::from_micros(100)
    }));
    assert_eq!(fnv(&log), 0x70d9_35fe_88d4_4301, "handler log digest");
}
