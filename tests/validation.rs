//! Tests of the §4.2 validation harness: the simulated flooding/RTT curves
//! must match the analytic expectations of the configured models, and the
//! RealRig comparison must produce comparable distributions.

use dbsm_testbed::core::validate::{flood_sim, real_rig_run, rtt_sim, sim_rig_run, RigConfig};
use std::time::Duration;

#[test]
fn flood_sim_write_rate_is_cpu_bound() {
    let r = flood_sim(4000, Duration::from_millis(100));
    // Analytic: one message costs 18us + 9ns/B * 4000 = 54us -> ~18.5k msg/s
    // -> ~593 Mbit/s written.
    assert!((r.written_mbit - 590.0).abs() < 60.0, "written {:.0} Mbit/s", r.written_mbit);
    // The wire caps reception at 100 Mbit/s.
    assert!(r.received_mbit < 100.0, "received {:.0}", r.received_mbit);
    assert!(r.received_mbit > 60.0, "received {:.0}", r.received_mbit);
}

#[test]
fn flood_sim_bandwidth_grows_with_message_size() {
    let small = flood_sim(256, Duration::from_millis(50));
    let large = flood_sim(4000, Duration::from_millis(50));
    // Fig. 3a's shape: amortizing the fixed overhead raises bandwidth.
    assert!(large.written_mbit > small.written_mbit * 2.0);
}

#[test]
fn rtt_sim_matches_analytic_model() {
    let rtt = rtt_sim(1000, 20);
    // Two sends (27us), two receives (30us), two serializations of
    // 1042B (83us) and two propagations (50us) ~= 380us.
    let us = rtt.as_secs_f64() * 1e6;
    assert!((us - 380.0).abs() < 80.0, "rtt {us:.0}us");
}

#[test]
fn rtt_sim_grows_with_size() {
    let small = rtt_sim(64, 10);
    let large = rtt_sim(4000, 10);
    assert!(large > small);
}

#[test]
fn rig_and_sim_produce_comparable_latency_distributions() {
    // A miniature Fig. 4: the simulated centralized server against the
    // genuinely concurrent executor, same workload and scaled parameters.
    let cfg = RigConfig { clients: 8, txns: 120, cores: 2, ..RigConfig::default() };
    let mut real = real_rig_run(cfg);
    let mut sim = sim_rig_run(cfg);
    assert!(real.update_ms.len() > 20, "rig update samples {}", real.update_ms.len());
    assert!(sim.update_ms.len() > 20, "sim update samples {}", sim.update_ms.len());
    // Medians within a factor of three: the Q-Q plot hugs the diagonal at
    // that granularity (tighter bounds would make the test flaky on loaded
    // CI machines).
    let (rm, sm) = (
        real.update_ms.quantile(0.5).expect("samples"),
        sim.update_ms.quantile(0.5).expect("samples"),
    );
    let ratio = if rm > sm { rm / sm } else { sm / rm };
    assert!(ratio < 3.0, "median ratio {ratio:.2} (real {rm:.2}ms vs sim {sm:.2}ms)");
}
