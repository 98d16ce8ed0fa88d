//! The metric catalogue: every name the runner may print, with its unit and
//! direction. `BENCHMARK.json` at the repo root lists exactly these (a unit
//! test holds the two together); the README says which clock each uses and
//! which end-to-end metric each per-layer metric should move.

use crate::json::{obj, Value};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number was read from. Simulated-clock numbers (counts
/// included) repeat exactly for a seed; host-clock numbers carry this
/// sandbox's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

use Better::{Higher, Lower};

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, clock, bound }
}

pub const END_TO_END: [EndToEnd; 7] = [
    end_to_end("setup_s", "s", Lower, Clock::Host, 0.25),
    end_to_end("host_us_per_txn", "us", Lower, Clock::Host, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, Clock::Host, 0.15),
    end_to_end("sim_tpm", "txn/min", Higher, Clock::Sim, 0.05),
    end_to_end("sim_latency_p50_ms", "ms", Lower, Clock::Sim, 0.25),
    end_to_end("sim_latency_p99_ms", "ms", Lower, Clock::Sim, 0.25),
    end_to_end("sim_abort_pct", "%", Lower, Clock::Sim, 0.25),
];

/// A per-layer row read off the simulated clock (counts included).
const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, clock: Clock::Sim }
}

/// A per-layer row read off the host clock, or (the restart probe) one that
/// does not repeat from its seed.
const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, clock: Clock::Host }
}

pub const PER_LAYER: [PerLayer; 61] = [
    layer("sim.events", "count", Lower),
    layer("sim.events_per_txn", "count", Lower),
    host("sim.host_ns_per_event", "ns", Lower),
    host("sim.replay_ns_per_event", "ns", Lower),
    layer("net.tx_packets", "count", Lower),
    layer("net.tx_bytes_per_txn", "B/txn", Lower),
    layer("net.kbps", "KB/s", Lower),
    layer("net.drops_loss", "count", Lower),
    layer("net.drops_overflow", "count", Lower),
    layer("net.drops_mtu", "count", Lower),
    host("net.replay_ns_per_packet", "ns", Lower),
    layer("gcs.frags_per_app_msg", "ratio", Lower),
    layer("gcs.retrans_per_1k_frags", "ratio", Lower),
    layer("gcs.naks_sent", "count", Lower),
    layer("gcs.gossip_sent", "count", Lower),
    layer("gcs.ann_sent", "count", Lower),
    layer("gcs.ann_piggyback_rate", "ratio", Higher),
    layer("gcs.blocked_ms", "ms", Lower),
    layer("gcs.pending_peak", "count", Lower),
    layer("gcs.duplicates", "count", Lower),
    layer("gcs.votes_sent", "count", Lower),
    layer("gcs.vote_piggyback_rate", "ratio", Higher),
    layer("gcs.vote_resends", "count", Lower),
    host("gcs.replay_ns_per_app_msg", "ns", Lower),
    layer("cert.certifications", "count", Lower),
    layer("cert.probes_per_cert", "ratio", Lower),
    layer("cert.stall_us_per_cert", "us", Lower),
    layer("cert.queue_us_per_cert", "us", Lower),
    layer("cert.spec_hit_rate", "ratio", Higher),
    layer("cert.span_fraction", "ratio", Lower),
    layer("cert.cross_span_share", "ratio", Lower),
    layer("cert.latency_p50_ms", "ms", Lower),
    layer("cert.latency_p99_ms", "ms", Lower),
    host("cert.replay_ns_per_certify", "ns", Lower),
    host("cert.replay_ns_per_marshal", "ns", Lower),
    layer("db.cpu_util", "ratio", Lower),
    layer("db.cpu_real_share", "ratio", Lower),
    layer("db.disk_util", "ratio", Lower),
    layer("db.abort_ww_pct", "%", Lower),
    layer("db.abort_preempt_pct", "%", Lower),
    layer("db.abort_cert_pct", "%", Lower),
    host("db.replay_ns_per_txn", "ns", Lower),
    layer("tpcc.requests", "count", Lower),
    host("tpcc.replay_ns_per_request", "ns", Lower),
    host("fault.check_logs_ms", "ms", Lower),
    layer("fault.view_installs", "count", Lower),
    layer("fault.stragglers", "count", Lower),
    layer("fault.partition_drops", "count", Lower),
    host("core.build_ms", "ms", Lower),
    layer("core.vote_wait_ms", "ms", Lower),
    layer("core.vote_rounds_per_cross_txn", "ratio", Lower),
    layer("core.recollected_rounds", "count", Lower),
    layer("core.rehomed_spans", "count", Lower),
    layer("core.time_to_serving_ms", "ms", Lower),
    layer("core.parked_ms", "ms", Lower),
    host("core.residual_host_share", "ratio", Lower),
    host("core.restart_repeat_exact", "count", Higher),
    host("core.restart_events_delta", "count", Lower),
    host("bench.rep_spread_pct", "%", Lower),
    host("bench.trace_overhead_pct", "%", Lower),
    layer("bench.sim_repeat_exact", "count", Higher),
];

/// The unit and clock of metric `name`, whichever list it is in.
pub fn lookup(name: &str) -> Option<(&'static str, Clock)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.clock))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.clock)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, clock)| (unit, clock))
}

/// Host seconds one run measures for, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, from the catalogue above and the workload table.
pub fn spec_json() -> Value {
    obj([
        ("command", Value::Arr(vec![Value::from("bash"), Value::from("benchmark/run.sh")])),
        ("paths", Value::Arr(vec![Value::from("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.name())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
