//! Wide-area replication: what happens to certification latency when the
//! replicas leave the machine room. The paper's §5.3 conclusion — total
//! order over a fixed sequencer "suggests that relaxing the requirement for
//! total order is necessary for efficient deployment in wide area networks"
//! — shows up here as latency tracking the longest round trip.
//!
//! ```sh
//! cargo run --release --example wide_area
//! ```

use dbsm_testbed::core::{run_experiment, ExperimentConfig};
use dbsm_testbed::gcs::GcsConfig;
use std::time::Duration;

fn run_with_lan_latency(label: &str, one_way: Duration) {
    let mut cfg = ExperimentConfig::replicated(3, 90).with_target(900);
    // Model a WAN by stretching the shared segment's propagation latency:
    // certification cannot finish before the ordering round trip.
    let mut gcs = GcsConfig::lan(3);
    // WAN-friendlier protocol settings: longer NAK and gossip cadence.
    gcs.nak_delay = Duration::from_millis(20).max(one_way / 2);
    gcs.gossip_period = Duration::from_millis(100).max(one_way);
    cfg.gcs = Some(gcs);
    cfg.wan_latency = Some(one_way);
    let m = run_experiment(cfg);
    let mut cert = m.cert_latencies_ms.clone();
    println!(
        "{label:<18} tpm={:>6.0}  cert p50={:>7.1}ms  p99={:>8.1}ms  txn latency={:>7.1}ms",
        m.tpm(),
        cert.quantile(0.5).unwrap_or(0.0),
        cert.quantile(0.99).unwrap_or(0.0),
        m.mean_latency_ms()
    );
}

fn main() {
    println!("3 sites, 90 clients, 900 transactions per row\n");
    run_with_lan_latency("LAN (50us)", Duration::from_micros(50));
    run_with_lan_latency("metro (2ms)", Duration::from_millis(2));
    run_with_lan_latency("regional (10ms)", Duration::from_millis(10));
    run_with_lan_latency("continental (40ms)", Duration::from_millis(40));
    println!("\ncertification latency tracks the ordering round trip: the paper's");
    println!("motivation for optimistic total order in wide-area networks.");
}
