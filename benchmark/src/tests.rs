//! Tests that hold the runner, the catalogue and `BENCHMARK.json` together.

use super::*;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        spec::spec_json(),
        "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
    );

    let mut seen = std::collections::HashSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(name_ok(name), "{name}");
        assert!(seen.insert(name), "{name} used twice");
    }
    for w in &WORKLOADS {
        assert!(w.why.chars().count() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let units =
        spec::END_TO_END.iter().map(|m| m.unit).chain(spec::PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(!unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok), "{unit}");
    }
    for m in &spec::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = spec::END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    let widest = spec::END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
}

/// A smoke-sized traced and untraced run of the cheapest workload: the
/// runner emits exactly the catalogue's names, and its result line parses
/// back to what it was built from.
#[test]
fn runner_emits_every_catalogued_metric_and_its_result_line_parses_back() {
    let dir = std::env::temp_dir().join(format!("dbsm-benchmark-test-{}", std::process::id()));
    let mut o = Options {
        workload: None,
        seed: 7,
        seconds: 0.2,
        trace: false,
        smoke: true,
        out_dir: dir.clone(),
        set: None,
    };
    let w = workloads::find("churn-6site-3k").expect("workload");
    let untraced = run_workload(w, &o).expect("smoke run passes its checks");
    let emitted: Vec<&str> = untraced.end_to_end.iter().map(|m| m.0).collect();
    let catalogued: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(emitted, catalogued);

    o.trace = true;
    let traced = run_workload(w, &o).expect("traced smoke run passes its checks");
    let mut emitted: Vec<&str> = traced.per_layer.iter().map(|m| m.0).collect();
    let mut catalogued: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    emitted.sort_unstable();
    catalogued.sort_unstable();
    assert_eq!(emitted, catalogued);
    assert_eq!(untraced.facts, traced.facts, "tracing must not move a simulated result");

    for (report, trace) in [(&untraced, false), (&traced, true)] {
        let line = report.result_line(trace);
        let back = json::parse(&line.to_string()).expect("result line parses");
        assert_eq!(back, line);
        let keys: Vec<&str> = back.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(back.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        for (name, m) in back.get("metrics").unwrap().as_obj().unwrap() {
            assert!(m.get("value").unwrap().as_f64().unwrap().is_finite(), "{name}");
            assert_eq!(m.get("unit").unwrap().as_str(), spec::lookup(name).map(|m| m.0));
        }
    }

    // The trace file: one root whose children cover build, run, check, every
    // layer replay and the restart probe.
    let trace = std::fs::read_to_string(dir.join("trace-churn-6site-3k.json")).expect("trace file");
    let trace = json::parse(&trace).expect("trace parses");
    let spans = trace.get("spans").unwrap().as_arr().unwrap();
    let roots: Vec<&Value> =
        spans.iter().filter(|s| s.get("parent") == Some(&Value::Null)).collect();
    assert_eq!(roots.len(), 1);
    let children: Vec<&str> = spans
        .iter()
        .filter(|s| s.get("parent") == roots[0].get("id"))
        .map(|s| s.get("layer").unwrap().as_str().unwrap())
        .collect();
    for layer in ["core", "fault", "tpcc", "cert", "gcs", "net", "sim", "db"] {
        assert!(children.contains(&layer), "no {layer} span under the root: {children:?}");
    }
    std::fs::remove_dir_all(&dir).expect("test output removed");
}

#[test]
fn unknown_arguments_and_workloads_are_refused() {
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert!(parse_options(&args(&["--bogus"])).is_err());
    assert!(parse_options(&args(&["--trace", "2"])).is_err());
    assert!(parse_options(&args(&["--seconds", "0"])).is_err());
    assert!(parse_options(&args(&["--seed"])).is_err());
    let o =
        parse_options(&args(&["--workload", "x", "--seed", "9", "--seconds", "3", "--trace", "1"]))
            .expect("the driver's argument list");
    assert_eq!((o.workload.as_deref(), o.seed, o.seconds, o.trace), (Some("x"), 9, 3.0, true));
    assert!(workloads::find("x").is_none());
}
