//! Quickstart: run a 3-site replicated database under TPC-C load, print the
//! headline numbers, and verify the DBSM safety condition.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dbsm_testbed::core::{report, run_experiment, ExperimentConfig};
use dbsm_testbed::fault::check_logs;

fn main() {
    // 3 single-CPU replicas on a simulated 100 Mbps LAN, 150 TPC-C clients
    // split across them, measured until 1500 transactions complete.
    let cfg = ExperimentConfig::replicated(3, 150).with_target(1500);
    println!("running: 3 sites x 1 CPU, 150 clients, 1500 transactions...");
    let metrics = run_experiment(cfg);

    println!("{}", report::summary_line("3 sites", &metrics));
    println!();
    println!("per-class abort rates (%):");
    print!("{}", report::abort_table(&[("3 sites", metrics.abort_rates())]));

    // The paper's §5.3 safety condition: every operational site committed
    // exactly the same sequence of transactions.
    check_logs(&metrics.commit_logs, &[false, false, false])
        .expect("DBSM safety: identical commit sequences");
    println!();
    println!(
        "safety check passed: {} commits identical at all 3 sites",
        metrics.commit_logs[0].len()
    );
}
