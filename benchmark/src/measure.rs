//! One repetition: `Cluster::build` → `Cluster::run` → `check_logs`, timed on
//! the host clock from outside, then everything the simulated clock produced
//! read back through the crates' public API.
//!
//! `Cluster::run` does not return when the transaction target is reached: it
//! keeps simulating until `max_sim`, first draining the transactions in
//! flight, then idle gossip and heartbeats. Host time is therefore read off a
//! watcher — an event of the benchmark's own on the cluster's scheduler that
//! notes the host clock every [`TICK`] of simulated time — at the instant
//! `RunMetrics::elapsed` says the target was reached. The tail is simulated
//! but not timed.

use crate::spans::Recorder;
use dbsm_core::{Cluster, ExperimentConfig, RunMetrics};
use dbsm_gcs::GcsMetrics;
use dbsm_net::{DropCause, TrafficStats};
use dbsm_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Simulated time between two watcher samples.
const TICK: Duration = Duration::from_millis(50);

/// Everything one rep produced on the simulated clock. Two reps of one
/// seed must compare equal, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Simulated instant the transaction target was reached.
    pub stop: SimTime,
    /// Transactions completed (committed + aborted) when the run ended —
    /// the target plus whatever was in flight and drained.
    pub completed: u64,
    pub sim_tpm: f64,
    pub sim_latency_p50_ms: f64,
    pub sim_latency_p99_ms: f64,
    pub latency_samples: usize,
    pub sim_abort_pct: f64,
    /// Per-layer counts and simulated-clock metrics, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// FNV-1a digest of every site's commit log.
    pub commit_digest: u64,
    pub sizes: Sizes,
}

/// The run's own counts, which size the layer replays.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub events: u64,
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub app_msgs: u64,
    pub certifications: u64,
    pub requests: u64,
}

pub struct Rep {
    /// Host seconds from the start of `Cluster::run` to the target.
    pub run_s: f64,
    pub check_s: f64,
    pub facts: Facts,
}

/// Runs one rep of `cfg` and applies the per-rep correctness gate: the
/// target is reached before `cfg.max_sim`, the commit logs pass the safety
/// checker, and no frame exceeded the MTU.
///
/// The safety condition is the checker's rule for halted sites — each log a
/// prefix of the longest, no transaction committed twice — because a run
/// that ends at `max_sim` halts every site wherever it is. The rule for
/// operational sites, identical logs, also demands that every site caught up
/// during the idle tail; `fault.stragglers` reports that part as a count.
pub fn run_rep(cfg: ExperimentConfig, rec: &mut Recorder) -> Result<Rep, String> {
    let (max_sim, target, sites) = (cfg.max_sim, cfg.target_txns, cfg.sites);

    rec.enter("core", "Cluster::build");
    let cluster = Cluster::build(cfg);
    rec.exit(sites as u64);

    // `run` consumes the cluster; a clone shares its simulation, network and
    // protocol stacks, which is how the watcher reads their counters.
    let samples = Rc::new(RefCell::new(Vec::new()));
    watch(cluster.clone(), samples.clone(), SimTime::ZERO + max_sim);
    rec.enter("core", "Cluster::run");
    let started = Instant::now();
    let metrics = cluster.run();
    let completed = metrics.committed() + metrics.aborted();
    rec.exit(completed);

    rec.enter("fault", "check_logs");
    let t = Instant::now();
    let safety = dbsm_fault::check_logs(&metrics.commit_logs, &vec![true; sites]);
    let check_s = t.elapsed().as_secs_f64();
    rec.exit(metrics.commit_logs.iter().map(|l| l.len() as u64).sum());

    safety.map_err(|d| format!("commit logs diverge: {d:?}"))?;
    let stop = metrics.elapsed;
    if completed < target || stop >= SimTime::ZERO + max_sim {
        return Err(format!(
            "target not reached: {completed} of {target} transactions by {max_sim:?} simulated"
        ));
    }
    let samples = samples.borrow();
    let after = samples.partition_point(|s: &Sample| s.at < stop).min(samples.len() - 1);
    let run_s = host_seconds_to(stop, started, &samples[..=after]);
    let facts = facts(&samples[after], after as u64 + 1, &metrics, completed, target)?;
    Ok(Rep { run_s, check_s, facts })
}

/// What the watcher notes at one tick: both clocks, and the counters that
/// keep running through the idle tail — events, traffic, protocol work.
struct Sample {
    at: SimTime,
    host: Instant,
    events: u64,
    net: TrafficStats,
    hosts: usize,
    gcs: GcsMetrics,
}

/// Starts the watcher: an event every [`TICK`] until `until` that touches
/// nothing in the model, so the run it watches is the run that would have
/// happened without it.
fn watch(cluster: Cluster, samples: Rc<RefCell<Vec<Sample>>>, until: SimTime) {
    let sim = cluster.sim().clone();
    sim.schedule_in(TICK, move || {
        let sim = cluster.sim();
        let hosts = cluster.network().n_hosts();
        let mut gcs = GcsMetrics::default();
        for site in (0..hosts).filter_map(|site| cluster.gcs_metrics(site)) {
            gcs.app_sent += site.app_sent;
            gcs.frags_sent += site.frags_sent;
            gcs.retrans_sent += site.retrans_sent;
            gcs.naks_sent += site.naks_sent;
            gcs.gossip_sent += site.gossip_sent;
            gcs.duplicates += site.duplicates;
            gcs.blocked_ns += site.blocked_ns;
            gcs.pending_peak = gcs.pending_peak.max(site.pending_peak);
            gcs.ann_sent += site.ann_sent;
            gcs.ann_assigns += site.ann_assigns;
            gcs.ann_piggybacked += site.ann_piggybacked;
            gcs.votes_sent += site.votes_sent;
            gcs.votes_piggybacked += site.votes_piggybacked;
            gcs.vote_resends += site.vote_resends;
        }
        samples.borrow_mut().push(Sample {
            at: sim.now(),
            host: Instant::now(),
            events: sim.events_executed(),
            net: cluster.network().stats(),
            hosts,
            gcs,
        });
        if sim.now() + TICK <= until {
            watch(cluster, samples, until);
        }
    });
}

/// Host seconds from `started` to the simulated instant `stop`, interpolated
/// between the last two of `samples` (the last is the first at or after
/// `stop`).
fn host_seconds_to(stop: SimTime, started: Instant, samples: &[Sample]) -> f64 {
    let hi = samples.last().expect("a sample at or after the stop");
    let (sim_lo, host_lo) = match samples.len() {
        1 => (SimTime::ZERO, started),
        n => (samples[n - 2].at, samples[n - 2].host),
    };
    let window = hi.at.saturating_duration_since(sim_lo).as_secs_f64();
    let into = stop.saturating_duration_since(sim_lo).as_secs_f64();
    let share = if window > 0.0 { (into / window).min(1.0) } else { 1.0 };
    (host_lo.duration_since(started) + (hi.host - host_lo).mul_f64(share)).as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated-clock side of a rep: `at` is the watcher's sample at the
/// target (counters that the idle tail would otherwise inflate), `ticks` the
/// watcher events executed by then, `m` what the run returned after the
/// drain.
fn facts(
    at: &Sample,
    ticks: u64,
    m: &RunMetrics,
    completed: u64,
    target: u64,
) -> Result<Facts, String> {
    let done = completed as f64;
    let sum = |f: fn(&dbsm_core::ClassStats) -> u64| m.per_class.iter().map(f).sum::<u64>() as f64;
    let (ww, preempt, cert_aborts) =
        (sum(|c| c.aborted_ww), sum(|c| c.aborted_remote), sum(|c| c.aborted_cert));
    let requests = sum(|c| c.submitted) as u64;

    let mut latencies = m.pooled_latencies_ms();
    let latency_samples = latencies.len();
    if latency_samples == 0 {
        return Err("no transaction committed".to_string());
    }
    let mut cert_latencies = m.cert_latencies_ms.clone();

    let (events, net, gcs) = (at.events - ticks, &at.net, &at.gcs);
    let tx_packets: u64 = (0..at.hosts).map(|h| net.host(h).tx_packets).sum();
    let tx_bytes = net.total_tx_bytes();
    if net.drops(DropCause::Mtu) != 0 {
        return Err(format!("{} frames exceeded the MTU", net.drops(DropCause::Mtu)));
    }
    let stop = m.elapsed;

    // Commits the sites still in the view trail the longest log by, summed,
    // after the idle tail gave them every chance to catch up.
    let longest = m.commit_logs.iter().map(Vec::len).max().unwrap_or(0);
    let stragglers: usize = (0..m.commit_logs.len())
        .filter(|&site| !m.crashed_sites.contains(&(site as u16)))
        .map(|site| longest - m.commit_logs[site].len())
        .sum();

    let (cw, vw, rw) = (&m.cert_work, &m.vote_wire, &m.replacement_work);
    let (cpu_total, cpu_real) = m.mean_cpu_usage();
    let layer = vec![
        ("sim.events", events as f64),
        ("sim.events_per_txn", ratio(events as f64, target as f64)),
        ("net.tx_packets", tx_packets as f64),
        ("net.tx_bytes_per_txn", ratio(tx_bytes as f64, target as f64)),
        ("net.kbps", ratio(tx_bytes as f64 / 1024.0, at.at.as_secs_f64())),
        ("net.drops_loss", net.drops(DropCause::LossModel) as f64),
        ("net.drops_overflow", net.drops(DropCause::TxOverflow) as f64),
        ("net.drops_mtu", net.drops(DropCause::Mtu) as f64),
        ("gcs.frags_per_app_msg", ratio(gcs.frags_sent as f64, gcs.app_sent as f64)),
        ("gcs.retrans_per_1k_frags", ratio(gcs.retrans_sent as f64 * 1e3, gcs.frags_sent as f64)),
        ("gcs.naks_sent", gcs.naks_sent as f64),
        ("gcs.gossip_sent", gcs.gossip_sent as f64),
        ("gcs.ann_sent", gcs.ann_sent as f64),
        (
            "gcs.ann_piggyback_rate",
            ratio(gcs.ann_piggybacked as f64, (gcs.ann_assigns + gcs.ann_piggybacked) as f64),
        ),
        ("gcs.blocked_ms", gcs.blocked_ns as f64 / 1e6),
        ("gcs.pending_peak", gcs.pending_peak as f64),
        ("gcs.duplicates", gcs.duplicates as f64),
        ("gcs.votes_sent", gcs.votes_sent as f64),
        ("gcs.vote_piggyback_rate", ratio(gcs.votes_piggybacked as f64, gcs.votes_sent as f64)),
        ("gcs.vote_resends", gcs.vote_resends as f64),
        ("cert.certifications", cw.certifications as f64),
        ("cert.probes_per_cert", cw.mean_probes()),
        ("cert.stall_us_per_cert", cw.mean_stall_us()),
        ("cert.queue_us_per_cert", cw.mean_queue_us()),
        ("cert.spec_hit_rate", cw.spec_hit_rate()),
        ("cert.span_fraction", cw.span_fraction()),
        ("cert.cross_span_share", ratio(cw.cross_span_txns as f64, vw.decided as f64)),
        ("cert.latency_p50_ms", cert_latencies.quantile(0.5).unwrap_or(0.0)),
        ("cert.latency_p99_ms", cert_latencies.quantile(0.99).unwrap_or(0.0)),
        ("db.cpu_util", cpu_total),
        ("db.cpu_real_share", ratio(cpu_real, cpu_total)),
        ("db.disk_util", m.mean_disk_usage()),
        ("db.abort_ww_pct", ratio(ww * 100.0, done)),
        ("db.abort_preempt_pct", ratio(preempt * 100.0, done)),
        ("db.abort_cert_pct", ratio(cert_aborts * 100.0, done)),
        ("tpcc.requests", requests as f64),
        ("fault.view_installs", m.fault_work.view_installs as f64),
        ("fault.stragglers", stragglers as f64),
        ("fault.partition_drops", m.fault_work.partition_drops as f64),
        ("core.vote_wait_ms", vw.mean_wait_ms()),
        ("core.vote_rounds_per_cross_txn", ratio(cw.vote_rounds as f64, cw.cross_span_txns as f64)),
        ("core.recollected_rounds", rw.vote_rounds_recollected as f64),
        ("core.rehomed_spans", rw.rehomed_spans as f64),
        ("core.time_to_serving_ms", rw.mean_time_to_serving_ms()),
        ("core.parked_ms", rw.parked_ms()),
    ];

    Ok(Facts {
        stop,
        completed,
        sim_tpm: m.tpm(),
        sim_latency_p50_ms: latencies.quantile(0.5).expect("samples checked above"),
        sim_latency_p99_ms: latencies.quantile(0.99).expect("samples checked above"),
        latency_samples,
        sim_abort_pct: (ww + preempt + cert_aborts) * 100.0 / done,
        layer,
        commit_digest: digest(&m.commit_logs),
        sizes: Sizes {
            events,
            tx_packets,
            tx_bytes,
            app_msgs: gcs.app_sent,
            certifications: cw.certifications,
            requests,
        },
    })
}

fn digest(logs: &[Vec<(u16, u64)>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for log in logs {
        mix(log.len() as u64);
        for &(site, seq) in log {
            mix(u64::from(site));
            mix(seq);
        }
    }
    h
}
