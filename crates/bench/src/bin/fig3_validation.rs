//! Fig. 3 — validation of the centralized simulation runtime: maximum UDP
//! write bandwidth (3a), receive bandwidth on a 100 Mbps wire (3b) and
//! round-trip time (3c), Real (native loopback) vs CSRT (simulation).

use dbsm_core::validate::{flood_native, flood_sim, rtt_native, rtt_sim};
use std::time::Duration;

fn main() {
    let sizes = [64usize, 256, 512, 1000, 2000, 4000];
    let sim_window = Duration::from_millis(200);
    let native_window = Duration::from_millis(120);

    println!("# Fig 3a/3b: flooding bandwidth (Mbit/s)");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "size", "written(real)", "written(CSRT)", "recv(real)", "recv(CSRT)"
    );
    for &size in &sizes {
        let sim = flood_sim(size, sim_window);
        let real = flood_native(size, native_window, Some(100.0))
            .unwrap_or(dbsm_core::validate::FloodResult { written_mbit: 0.0, received_mbit: 0.0 });
        println!(
            "{size:>8} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            real.written_mbit, sim.written_mbit, real.received_mbit, sim.received_mbit
        );
    }

    println!("\n# Fig 3c: average round trip (us)");
    println!("{:>8} {:>12} {:>12}", "size", "real", "CSRT");
    for &size in &sizes {
        let sim_rtt = rtt_sim(size, 50);
        let real_rtt = rtt_native(size, 200).unwrap_or(Duration::ZERO);
        println!(
            "{size:>8} {:>12.0} {:>12.0}",
            real_rtt.as_secs_f64() * 1e6,
            sim_rtt.as_secs_f64() * 1e6
        );
    }
    println!(
        "\n(real = loopback UDP, which has no wire limit: the paper's 100 Mbit Ethernet cap \
         is emulated by discarding on receive beyond the byte budget)"
    );
}
