//! CI schema gate for `BENCH_cert.json` and `BENCH_paper.json`: reads each
//! artifact back with the typed reader (every row must carry every key of
//! its `dbsm_bench::cert_json` field table, in order, with the right type,
//! exactly as the writer renders it) and prints a one-line digest per
//! row. Exits non-zero on any violation, so a malformed artifact fails the
//! pipeline at the change that broke it instead of at the first consumer.
//!
//! Reads the workspace artifact locations (the root, or
//! `$DBSM_BENCH_CERT_JSON` and its sibling).

use dbsm_bench::cert_json::{output_path, parse_document, CertBenchRow, PaperRow, Row};
use std::process::ExitCode;

fn gate<R: Row>(tpm: fn(&R) -> f64) -> Result<(), String> {
    let path = output_path::<R>();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rows = parse_document::<R>(&text)
        .map_err(|e| format!("{} violates the schema: {e}", path.display()))?;
    if rows.is_empty() {
        return Err(format!("{} parsed but holds zero rows", path.display()));
    }
    println!("cert_schema_gate: {} OK — group {:?}, {} rows", path.display(), R::GROUP, rows.len());
    for r in &rows {
        println!("  {} tpm={:<9.0} hash={}", r.key_text(), tpm(r), r.fingerprint());
    }
    Ok(())
}

fn main() -> ExitCode {
    match gate::<CertBenchRow>(|r| r.tpm).and_then(|()| gate::<PaperRow>(|r| r.tpm)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cert_schema_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
