//! CI schema gate for `BENCH_cert.json`: parses the artifact with the
//! typed schema parser (every row must carry every key of the
//! `dbsm_bench::cert_json` field table with the right type) and prints a
//! one-line digest per sweep row. Exits non-zero on any violation, so a
//! malformed artifact fails the pipeline at the PR that broke it instead of
//! at the first consumer.
//!
//! Usage: `cert_schema_gate [path]` — defaults to the workspace artifact
//! location (`$DBSM_BENCH_CERT_JSON` or `BENCH_cert.json` at the root).

use dbsm_bench::cert_json::{default_output_path, parse_document};
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = std::env::args().nth(1).map_or_else(default_output_path, std::path::PathBuf::from);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cert_schema_gate: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse_document(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cert_schema_gate: {} violates the schema: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if doc.rows.is_empty() {
        eprintln!("cert_schema_gate: {} parsed but holds zero rows", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "cert_schema_gate: {} OK — group {:?}, {} rows",
        path.display(),
        doc.group,
        doc.rows.len()
    );
    for r in &doc.rows {
        let (backend, shards, clients, commit_path, sites, rf) = r.key();
        println!(
            "  {backend:<10} shards={shards:<2} clients={clients:<6} {commit_path:<9} \
             sites={sites:<2} rf={rf:<2} tpm={:<9.0} hash={}",
            r.tpm, r.config_hash
        );
    }
    ExitCode::SUCCESS
}
