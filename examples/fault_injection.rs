//! Fault injection (paper §5.3 and beyond): subject a replicated database
//! to the full scenario catalogue — random loss, bursty loss, a crash,
//! clock drift, scheduling latency, a partition-then-merge, duplicate
//! delivery, correlated loss bursts, and a crash-then-rejoin — and verify
//! both the performance impact and the safety condition after every
//! scenario (rejoined sites are chain-checked through their transfer
//! cuts).
//!
//! Every scenario prints the `summary_line` work ledger (tpm, latency,
//! certification work, announcement work, view installs, duplicates), so
//! this example doubles as the executable companion to
//! `docs/EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use dbsm_testbed::core::{report, run_experiment, ExperimentConfig, RunMetrics};
use dbsm_testbed::fault::{check_logs_rejoined, FaultPlan, FaultSpec};
use dbsm_testbed::sim::SimTime;
use std::time::Duration;

fn run(label: &str, faults: FaultPlan) -> RunMetrics {
    let cfg = ExperimentConfig::replicated(3, 120).with_target(1200).with_faults(faults);
    let metrics = run_experiment(cfg);
    let crashed: Vec<bool> = (0..3u16).map(|s| metrics.crashed_sites.contains(&s)).collect();
    check_logs_rejoined(&metrics.commit_logs, &crashed, &metrics.rejoins).expect("safety violated");
    println!("{}  (safety ok)", report::summary_line(&format!("{label:<22}"), &metrics));
    metrics
}

fn main() {
    println!("3 sites, 120 clients, 1200 transactions per scenario\n");
    let baseline = run("no faults", FaultPlan::none());
    let random = run("random loss 5%", FaultPlan::random_loss(0.05));
    let bursty = run("bursty loss 5%/5", FaultPlan::bursty_loss(0.05, 5));
    run("clock drift x1.05", FaultPlan::clock_drift(1, 1.05));
    run("sched latency 2ms", FaultPlan::sched_latency(Duration::from_millis(2)));
    let crash = run("crash site 2 @20s", FaultPlan::crash(2, SimTime::from_secs(20)));
    // The partition splits {0,1} from {2} at 20s for 2s: longer than the
    // 500ms failure timeout, so the primary component {0,1} excludes site 2
    // through a real view change while site 2 halts as a non-primary
    // survivor. The heal at 22s merges the network back; the halted site
    // stays down (safety counts it as crashed, holding a prefix). Partition
    // plans automatically run with uniform (safe) delivery.
    let partition = run(
        "partition {01}|{2} 2s",
        FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(20),
            SimTime::from_secs(22),
        ),
    );
    // A short split heals below the failure-detector radar: no view change,
    // NAK recovery patches the gap after the merge.
    let short_split = run(
        "partition 300ms",
        FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(20),
            SimTime::from_millis(20_300),
        ),
    );
    let dup = run("duplicates 25%x3", FaultPlan::duplicate_delivery(0.25, 3));
    run(
        "correlated burst 15%",
        FaultPlan::correlated_burst(vec![0, 1, 2], Duration::from_millis(10), 0.15),
    );
    // Site 2 crashes at 20s and restarts at 40s: the fresh incarnation
    // announces itself to the primary component, catches up through a
    // snapshot + delta-log state transfer from a live member, and resumes
    // certifying — the `rec=` section of its summary line is the recovery
    // ledger (rejoins/snapshots, transfer KB, replayed entries, mean
    // time-to-useful).
    let rejoin = run(
        "crash+rejoin @20/40s",
        FaultPlan::crash_restart(2, SimTime::from_secs(20), SimTime::from_secs(40)),
    );
    // Flapping partition: the same minority split re-forms three times
    // (2s split / 2s heal from 10s on). The first flap outlives the
    // failure detector, so site 2 is excluded and halts; the later flaps
    // hit an already-dead site. A restart at 30s then brings it back
    // through the rejoin path — a partition-halt is as recoverable as a
    // crash.
    let flap = run(
        "flapping x3 + rejoin",
        FaultPlan::flapping_partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(10),
            Duration::from_secs(2),
            3,
        )
        .with(FaultSpec::Restart { site: 2, at: SimTime::from_secs(30) }),
    );
    // Rolling kill-and-replace: every site is killed in turn and comes
    // back 10s later, staggered 25s apart so a majority always survives.
    let rolling = run(
        "kill-and-replace x3",
        FaultPlan::kill_and_replace(
            3,
            SimTime::from_secs(15),
            Duration::from_secs(25),
            Duration::from_secs(10),
        ),
    );
    // Double restart of one site: the flapping-crash plan crashes site 2
    // at 15s and 25s, restarting it 5s after each crash. Both incarnations
    // must come back through the rejoin path; the chain checker accepts
    // multiple transfer cuts per site.
    let flap_crash = run(
        "flapping crash x2",
        FaultPlan::flapping_crash(2, SimTime::from_secs(15), Duration::from_secs(5), 2),
    );
    // Re-placement under churn: at rf 2 over 6 sites, crashing the
    // adjacent pair {0,1} removes both replicas of the spans homed on the
    // pair. The survivors elect adopters by rendezvous hash over the
    // installed view and re-home the stranded spans via state transfer —
    // the `repl=` section of the summary line is the ledger.
    let rehome = {
        let cfg = ExperimentConfig::replicated(6, 120)
            .with_target(1200)
            .with_replication_factor(2)
            .with_faults(
                FaultPlan::crash(0, SimTime::from_secs(15))
                    .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(17) }),
            );
        let metrics = run_experiment(cfg);
        let crashed: Vec<bool> = (0..6u16).map(|s| metrics.crashed_sites.contains(&s)).collect();
        check_logs_rejoined(&metrics.commit_logs, &crashed, &metrics.rejoins)
            .expect("safety violated");
        let label = format!("{:<22}", "re-home rf2 pair crash");
        println!("{}  (safety ok)", report::summary_line(&label, &metrics));
        metrics
    };

    println!();
    println!(
        "loss impact: random-loss p99 is {:.1}x the fault-free p99 (the paper's long tail)",
        random.pooled_latencies_ms().quantile(0.99).unwrap_or(1.0)
            / baseline.pooled_latencies_ms().quantile(0.99).unwrap_or(1.0)
    );
    println!(
        "bursty loss hurts less than random loss: {:.2}% vs {:.2}% aborts",
        bursty.abort_rate(),
        random.abort_rate()
    );
    println!(
        "after the crash the survivors kept committing: {} commits at site 0",
        crash.commit_logs[0].len()
    );
    println!(
        "partition: {} view installs, {} packets died at the boundary, survivors committed {} \
         vs {} at the halted site",
        partition.fault_work.view_installs,
        partition.fault_work.partition_drops,
        partition.commit_logs[0].len(),
        partition.commit_logs[2].len(),
    );
    println!(
        "short partition merged back with no view change ({} installs) and no casualties",
        short_split.fault_work.view_installs
    );
    println!(
        "duplicate delivery: {} copies injected, {} absorbed by the dedup path, logs identical",
        dup.fault_work.dup_injected,
        dup.gcs_sum(|g| g.duplicates)
    );
    let r = rejoin.rejoins[2][0];
    println!(
        "crash+rejoin: site 2 kept {} commits, caught up to {} via {} KB of state transfer, \
         replayed {} delta entries, useful again after {:.0} ms",
        r.kept,
        r.cut,
        rejoin.recovery_work.total_bytes() / 1024,
        rejoin.recovery_work.replayed_entries,
        rejoin.recovery_work.mean_ttu_ms(),
    );
    println!(
        "kill-and-replace: {}/3 sites rejoined ({} KB transferred, mean ttu {:.0} ms) and the \
         logs still form one chain",
        rolling.recovery_work.rejoins,
        rolling.recovery_work.total_bytes() / 1024,
        rolling.recovery_work.mean_ttu_ms(),
    );
    println!(
        "flapping partition: {} view installs, then the halted minority rejoined ({} rejoin, \
         ttu {:.0} ms)",
        flap.fault_work.view_installs,
        flap.recovery_work.rejoins,
        flap.recovery_work.mean_ttu_ms(),
    );
    println!(
        "flapping crash: site 2 rejoined {} times; each incarnation chains through its own \
         transfer cut",
        flap_crash.recovery_work.rejoins,
    );
    println!(
        "re-placement: {} spans re-homed in {} elections ({} KB shipped, serving again after \
         {:.0} ms; stranded clients parked {:.0} ms total)",
        rehome.replacement_work.rehomed_spans,
        rehome.replacement_work.replacements,
        rehome.replacement_work.transfer_bytes / 1024,
        rehome.replacement_work.mean_time_to_serving_ms(),
        rehome.replacement_work.parked_ms(),
    );
}
