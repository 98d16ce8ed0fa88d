//! The repo's end-to-end benchmark (see `README.md` beside `Cargo.toml`).
//!
//! `dbsm-benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process, on this thread, and prints every metric by name
//! followed by one JSON result line. Without `--workload` it runs every
//! workload, each in a child process of its own, and writes a result set.
//! `compare A B` holds two result sets against each other (the A/A check),
//! `spec` prints `BENCHMARK.json`, `list` the workload names.

mod json;
mod measure;
mod replay;
mod sets;
mod spans;
mod spec;
mod stats;
mod workloads;

use dbsm_core::{Cluster, ExperimentConfig, FaultPlan};
use dbsm_sim::SimTime;
use json::{obj, Value};
use measure::{run_rep, Facts, Rep};
use spans::Recorder;
use stats::{median, quartiles};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

/// Builds per set-up sample: `Cluster::build` takes well under a millisecond,
/// so its median needs many.
const SETUPS: usize = 101;
const MAX_REPS: usize = 64;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    set: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]\n\
         \x20      [--out-dir DIR] [--set FILE]\n\
         \x20      run.sh compare A.json B.json | spec | list\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        set: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => o.trace = true,
            "--smoke" => o.smoke = true,
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--set" => o.set = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !(o.seconds.is_finite() && o.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            WORKLOADS.iter().for_each(|w| println!("{}", w.name));
            Ok(())
        }
        Some("spec") => {
            println!("{}", spec::spec_json().pretty(0));
            Ok(())
        }
        Some("compare") if args.len() == 3 => {
            sets::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("-h" | "--help") => {
            println!("{}", usage());
            Ok(())
        }
        _ => parse_options(&args).and_then(|o| match &o.workload {
            Some(name) => {
                let w = workloads::find(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
                let report = run_workload(w, &o).map_err(|e| format!("{name} FAILED: {e}"))?;
                report.print(&o);
                Ok(())
            }
            None => sets::run_all(&o),
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

// ----- one workload, in this process ------------------------------------

struct Report {
    workload: &'static Workload,
    /// What trial 0 produced on the simulated clock; the per-layer counts
    /// describe this input.
    facts: Facts,
    /// Inputs the reps covered: the workload's trials, or 1 on a traced run.
    inputs: usize,
    /// Host seconds to the target, one per measured rep.
    run_s: Vec<f64>,
    /// Transactions completed over the measured trials.
    attempted: u64,
    commit_digest: u64,
    end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric on a traced run; the counts alone otherwise.
    per_layer: Vec<(&'static str, f64)>,
}

fn run_workload(w: &'static Workload, o: &Options) -> Result<Report, String> {
    let mut rec = Recorder::new(o.trace);
    rec.enter("bench", w.name);
    let trial = |k: usize| w.config(o.seed, k, o.smoke);

    // Warm-up on trial 0's input: its host time is discarded (cold allocator,
    // cold caches), its simulated results are what trial 0 must repeat.
    rec.set_enabled(false);
    let warm_up = run_rep(trial(0), &mut rec)?;
    // One run's footprint, read before the reps: the harness never frees a
    // cluster (its closures hold it in `Rc` cycles), so every later rep adds
    // to the high-water mark and the figure would grow with the rep count.
    let peak_rss_mb = peak_rss_mb()?;

    // Set-up next, while the heap holds exactly one leaked cluster: later
    // every further one is in the allocator's way and the timing drifts with
    // the rep count.
    let setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let cluster = Cluster::build(trial(0));
            let s = t.elapsed().as_secs_f64();
            drop(cluster);
            s
        })
        .collect();

    // An untraced run measures every trial once, then keeps cycling through
    // them until its time is up. A traced run stays on trial 0, alternating
    // the recorder off and on, and spends the rest of its time on the layer
    // replays. A smoke run does the least of either and stops.
    let budget = Duration::from_secs_f64(match (o.smoke, o.trace) {
        (true, _) => 0.0,
        (false, true) => o.seconds / 2.0,
        (false, false) => o.seconds,
    });
    let inputs = if o.trace { 1 } else { w.trials };
    let least = if o.trace { 2 } else { inputs };
    let started = Instant::now();
    struct Measured {
        recorded: bool,
        input: usize,
        rep: Rep,
    }
    let mut reps: Vec<Measured> = Vec::new();
    while reps.len() < least || (started.elapsed() < budget && reps.len() < MAX_REPS) {
        let recorded = o.trace && reps.len() % 2 == 1;
        let input = reps.len() % inputs;
        rec.set_enabled(recorded);
        reps.push(Measured { recorded, input, rep: run_rep(trial(input), &mut rec)? });
    }
    rec.set_enabled(o.trace);

    // Per workload: everything the simulated clock produced, every per-layer
    // count and the commit-log digest repeat exactly when an input does.
    let first_of =
        |k: usize| &reps.iter().find(|r| r.input == k).expect("every input ran").rep.facts;
    if warm_up.facts != *first_of(0) || reps.iter().any(|r| r.rep.facts != *first_of(r.input)) {
        return Err("simulated results differ between two reps of one input".to_string());
    }
    let trials: Vec<&Facts> = (0..inputs).map(first_of).collect();
    let facts = trials[0].clone();
    let fewest = trials.iter().map(|f| f.latency_samples).min().expect("a trial ran");
    if !o.smoke && stats::highest_supported_percentile(fewest) < Some(99.0) {
        return Err(format!("{fewest} latency samples cannot support a p99"));
    }

    // Host time per transaction: each input's own median over its reps, then
    // the median over the inputs, so every input weighs the same however
    // many extra reps the time allowed.
    let target = trial(0).target_txns as f64;
    let us_per_txn = |recorded: bool| -> f64 {
        let per_input: Vec<f64> = (0..inputs)
            .filter_map(|k| {
                let of = |r: &&Measured| r.recorded == recorded && r.input == k;
                let reps: Vec<f64> =
                    reps.iter().filter(of).map(|r| r.rep.run_s * 1e6 / target).collect();
                (!reps.is_empty()).then(|| median(&reps))
            })
            .collect();
        median(&per_input)
    };
    let host_us_per_txn = us_per_txn(false);
    let over_trials =
        |f: fn(&Facts) -> f64| median(&trials.iter().map(|t| f(t)).collect::<Vec<_>>());

    let end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("host_us_per_txn", host_us_per_txn),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_tpm", over_trials(|f| f.sim_tpm)),
        ("sim_latency_p50_ms", over_trials(|f| f.sim_latency_p50_ms)),
        ("sim_latency_p99_ms", over_trials(|f| f.sim_latency_p99_ms)),
        ("sim_abort_pct", over_trials(|f| f.sim_abort_pct)),
    ];

    let run_s: Vec<f64> = reps.iter().map(|r| r.rep.run_s).collect();
    let mut per_layer = facts.layer.clone();
    if o.trace {
        let run_ns = median(&run_s) * 1e9;
        let check_s: Vec<f64> = reps.iter().map(|r| r.rep.check_s).collect();
        per_layer.extend([
            ("sim.host_ns_per_event", run_ns / facts.sizes.events as f64),
            ("fault.check_logs_ms", median(&check_s) * 1e3),
            ("core.build_ms", median(&setup_s) * 1e3),
            ("bench.rep_spread_pct", quartiles(&run_s).spread_pct()),
            ("bench.trace_overhead_pct", (us_per_txn(true) / host_us_per_txn - 1.0) * 100.0),
            ("bench.sim_repeat_exact", 1.0),
        ]);
        per_layer.extend(layer_replays(&trial(0), &facts, run_ns, &mut rec));
        per_layer.extend(restart_probe(o, &mut rec));
    }
    rec.exit(reps.len() as u64);

    if o.trace {
        std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
        let path = o.out_dir.join(format!("trace-{}.json", w.name));
        let doc = obj([
            ("workload", Value::from(w.name)),
            ("seed", Value::from(o.seed)),
            ("spans", rec.to_json()),
        ]);
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Report {
        workload: w,
        attempted: trials.iter().map(|f| f.completed).sum(),
        commit_digest: trials.iter().fold(0, |h, f| h.rotate_left(7) ^ f.commit_digest),
        facts,
        inputs,
        run_s,
        end_to_end,
        per_layer,
    })
}

/// Drives each layer alone with the workload's own counts (see `replay`),
/// one span per replay, and returns the `*.replay_*` metrics and the share
/// of the run's host time the replays leave unexplained.
fn layer_replays(
    cfg: &ExperimentConfig,
    facts: &Facts,
    run_ns: f64,
    rec: &mut Recorder,
) -> Vec<(&'static str, f64)> {
    let sizes = &facts.sizes;
    fn spanned(
        rec: &mut Recorder,
        layer: &'static str,
        name: &str,
        f: impl FnOnce() -> replay::Replay,
    ) -> replay::Replay {
        rec.enter(layer, name);
        let r = f();
        rec.exit(r.count);
        r
    }
    let tpcc =
        spanned(rec, "tpcc", "replay TpccGen::next_request", || replay::tpcc(cfg, sizes.requests));
    rec.enter("cert", "replay marshal + certify");
    let cert = replay::cert(cfg, sizes.requests);
    rec.exit(cert.certify.count);
    let gcs = spanned(rec, "gcs", "replay TestNet broadcast", || {
        replay::gcs(
            cfg,
            sizes.app_msgs,
            cert.mean_payload,
            facts.stop.saturating_duration_since(SimTime::ZERO),
        )
    });
    let frame = (sizes.tx_bytes / sizes.tx_packets.max(1)) as usize;
    let net = spanned(rec, "net", "replay LAN multicast", || {
        replay::net(cfg.sites, sizes.tx_packets, frame.saturating_sub(dbsm_net::HEADER_BYTES))
    });
    let sim =
        spanned(rec, "sim", "replay Sim::schedule_in", || replay::sim(sizes.events, cfg.clients));
    let db = spanned(rec, "db", "replay DbEngine::begin_local", || replay::db(cfg));

    // Each layer's estimated share of the run: its unit cost times the run's
    // own count. Replays that ran on a `Sim` of their own hand the scheduler
    // its part back, so it is not counted twice.
    let sim_ns = sim.ns_per_unit();
    let own = |r: &replay::Replay| (r.host_ns as f64 - r.sim_events as f64 * sim_ns).max(0.0);
    let explained = sim_ns * sizes.events as f64
        + own(&net)
        + gcs.host_ns as f64
        + cert.marshal.host_ns as f64
        + cert.certify.ns_per_unit() * sizes.certifications as f64
        + own(&db) * cfg.sites as f64
        + tpcc.host_ns as f64;
    vec![
        ("tpcc.replay_ns_per_request", tpcc.ns_per_unit()),
        ("cert.replay_ns_per_marshal", cert.marshal.ns_per_unit()),
        ("cert.replay_ns_per_certify", cert.certify.ns_per_unit()),
        ("gcs.replay_ns_per_app_msg", gcs.ns_per_unit()),
        ("net.replay_ns_per_packet", net.ns_per_unit()),
        ("sim.replay_ns_per_event", sim_ns),
        ("db.replay_ns_per_txn", db.ns_per_unit()),
        ("core.residual_host_share", 1.0 - explained / run_ns),
    ]
}

/// The restart determinism probe: one crash-and-rejoin run, twice, from one
/// seed. Reports whether the two agree and by how many events they differ;
/// it never fails the workload (they do not agree today, which is why no
/// workload contains a `Restart`).
fn restart_probe(o: &Options, rec: &mut Recorder) -> [(&'static str, f64); 2] {
    let run = || {
        let mut cfg = ExperimentConfig::replicated(3, 2000)
            .with_target(if o.smoke { 1_000 } else { 10_000 })
            .with_seed(o.seed)
            .with_faults(FaultPlan::crash_restart(
                2,
                SimTime::from_secs(10),
                SimTime::from_secs(25),
            ));
        cfg.max_sim = Duration::from_secs(120);
        let cluster = Cluster::build(cfg);
        let handle = cluster.clone();
        let m = cluster.run();
        (handle.sim().events_executed(), m.committed(), m.aborted(), m.elapsed, m.commit_logs)
    };
    rec.enter("core", "restart determinism probe");
    let (a, b) = (run(), run());
    rec.exit(2);
    [
        ("core.restart_repeat_exact", f64::from(u8::from(a == b))),
        ("core.restart_events_delta", a.0.abs_diff(b.0) as f64),
    ]
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

impl Report {
    fn print(&self, o: &Options) {
        let tag = if o.smoke { "[smoke] " } else { "" };
        let (w, f) = (self.workload, &self.facts);
        let cfg = w.config(o.seed, 0, o.smoke);
        println!(
            "{tag}workload {} seed {}: closed loop, {} clients, mean think time {:?}, {} site(s), \
             target {} transactions, one process, one thread",
            w.name, o.seed, cfg.clients, cfg.think_mean, cfg.sites, cfg.target_txns
        );
        let q = quartiles(&self.run_s);
        println!(
            "{tag}  host clock: {} reps over {} input(s) derived from the seed, Cluster::run to the \
             target: median {:.3} s (q1 {:.3}, q3 {:.3}, spread {:.2} %)",
            self.run_s.len(),
            self.inputs,
            q.median,
            q.q1,
            q.q3,
            q.spread_pct()
        );
        println!(
            "{tag}  simulated clock, first input: target reached at {:.3} s, {} latency samples \
             (highest percentile they support: p{}); every input repeated exactly",
            f.stop.as_secs_f64(),
            f.latency_samples,
            stats::highest_supported_percentile(f.latency_samples).unwrap_or(50.0),
        );
        let lines = |title: &str, metrics: &[(&'static str, f64)]| {
            println!("{tag}  {title}");
            for (name, value) in metrics {
                let (unit, clock) = spec::lookup(name).expect("metric missing from the catalogue");
                println!("{tag}    {name:<32} {value:>16.4} {unit:<8} [{}]", clock.name());
            }
        };
        lines("end to end (untraced reps; medians over the inputs)", &self.end_to_end);
        lines(
            if o.trace {
                "per layer (first input)"
            } else {
                "per layer (first input; counts only, --traced adds the rest)"
            },
            &self.per_layer,
        );
        let digest = format!("{:016x}", self.commit_digest);
        println!(
            "extra {}",
            obj([
                ("commit_digest", Value::from(digest.as_str())),
                ("reps", Value::from(self.run_s.len() as u64)),
            ])
        );
        println!("{}", self.result_line(o.trace));
    }

    /// The contract's result line: end-to-end metrics untraced, per-layer
    /// metrics traced. Conflict aborts are outcomes a closed-loop client
    /// simply retries (`sim_abort_pct`), not failed operations; a run whose
    /// checks fail prints no result line at all.
    fn result_line(&self, trace: bool) -> Value {
        let metrics = if trace { &self.per_layer } else { &self.end_to_end };
        obj([
            ("correct", Value::from(true)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(0u64)),
            (
                "metrics",
                obj(metrics.iter().map(|&(name, value)| {
                    let (unit, _) = spec::lookup(name).expect("metric missing from the catalogue");
                    (name, obj([("value", Value::from(value)), ("unit", Value::from(unit))]))
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests;
