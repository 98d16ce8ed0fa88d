//! Result sets: every workload run in a child process of its own and
//! gathered into one JSON file, and the A/A comparison of two such files.

use crate::json::{self, obj, Value};
use crate::spec;
use crate::workloads::{Workload, WORKLOADS};
use crate::Options;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run_all(o: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |w: &Workload, trace: bool| -> Result<(Value, Value), String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&o.out_dir);
        if o.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", exe.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            return Err(format!("{}{} FAILED", String::from_utf8_lossy(&out.stderr), w.name));
        }
        let mut tail = text.lines().rev();
        let result = tail
            .next()
            .ok_or("no output")
            .and_then(|l| json::parse(l).map_err(|_| "bad result line"))?;
        let extra = tail
            .next()
            .and_then(|l| l.strip_prefix("extra "))
            .ok_or("no extra line")
            .and_then(|l| json::parse(l).map_err(|_| "bad extra line"))?;
        Ok((result, extra))
    };
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let (untraced, extra) = child(w, false)?;
        let per_layer = if o.trace {
            child(w, true)?.0.get("metrics").cloned().unwrap_or(Value::Null)
        } else {
            Value::Null
        };
        let field = |v: &Value, key: &str| v.get(key).cloned().unwrap_or(Value::Null);
        rows.push(obj([
            ("name", Value::from(w.name)),
            ("attempted", field(&untraced, "attempted")),
            ("failed", field(&untraced, "failed")),
            ("reps", field(&extra, "reps")),
            ("commit_digest", field(&extra, "commit_digest")),
            ("end_to_end", field(&untraced, "metrics")),
            ("per_layer", per_layer),
        ]));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let set = obj([
        ("kind", Value::from(if o.smoke { "smoke: never compare these values" } else { "full" })),
        ("seed", Value::from(o.seed)),
        ("seconds", Value::from(o.seconds)),
        ("nproc", Value::from(nproc)),
        ("rustc", Value::from(command_line("rustc", &["-V"]).as_str())),
        ("commit", Value::from(command_line("git", &["rev-parse", "HEAD"]).as_str())),
        ("workloads", Value::Arr(rows)),
    ]);
    let default = o.out_dir.join(format!(
        "results-{}seed{}.json",
        if o.smoke { "smoke-" } else { "" },
        o.seed
    ));
    let path = o.set.as_ref().unwrap_or(&default);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{}\n", set.pretty(0)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "all {} workloads passed their checks; result set in {}",
        WORKLOADS.len(),
        path.display()
    );
    Ok(())
}

/// Holds result set `b` against `a`: every end-to-end metric of every
/// workload must agree within its bound, and everything the simulated clock
/// produced must agree exactly.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    for set in [&a, &b] {
        if set.get("kind").and_then(Value::as_str) != Some("full") {
            return Err("smoke results are never compared".to_string());
        }
    }
    let rows = |set| Value::get(set, "workloads").and_then(Value::as_arr).ok_or("no workloads");
    let (rows_a, rows_b) = (rows(&a)?, rows(&b)?);
    let value = |row: &Value, list: &str, name: &str| {
        row.get(list).and_then(|m| m.get(name)).and_then(|m| m.get("value")).and_then(Value::as_f64)
    };
    let mut failures = 0;
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for w in &WORKLOADS {
        fn find<'a>(rows: &'a [Value], name: &str) -> Option<&'a Value> {
            rows.iter().find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        }
        let (Some(ra), Some(rb)) = (find(rows_a, w.name), find(rows_b, w.name)) else {
            return Err(format!("{} missing from a result set", w.name));
        };
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) =
                (value(ra, "end_to_end", m.name), value(rb, "end_to_end", m.name))
            else {
                return Err(format!("{} {} missing from a result set", w.name, m.name));
            };
            let diff = (vb - va) / va;
            let exact = m.clock == spec::Clock::Sim;
            let ok = if exact { va == vb } else { diff.abs() <= m.bound };
            failures += usize::from(!ok);
            println!(
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>+9.2} {:>7} {}",
                w.name,
                m.name,
                va,
                vb,
                diff * 100.0,
                if exact { "exact".to_string() } else { format!("{:.0}", m.bound * 100.0) },
                if ok { "" } else { "<-- DISAGREE" }
            );
        }
        let same = |key: &str| ra.get(key) == rb.get(key);
        let counts_differ = spec::PER_LAYER.iter().filter(|m| {
            m.clock == spec::Clock::Sim
                && value(ra, "per_layer", m.name) != value(rb, "per_layer", m.name)
        });
        for m in counts_differ {
            failures += 1;
            println!("{:<20} {:<20} differs between the sets <-- DISAGREE", w.name, m.name);
        }
        if !same("attempted") || !same("commit_digest") {
            failures += 1;
            println!("{:<20} attempted / commit-log digest differ <-- DISAGREE", w.name);
        }
    }
    if failures == 0 {
        println!("the two sets agree: host-clock metrics within their bounds, simulated-clock results exactly");
        Ok(())
    } else {
        Err(format!("{failures} disagreement(s) between the two sets"))
    }
}
