//! Renders the paper's Fig. 5–7 and Tables 1–2 from `BENCH_paper.json` —
//! it simulates nothing; `cargo bench -p dbsm_bench --bench ablation --
//! paper/` regenerates the artifact.
//!
//! Usage: `paper_report [fig5|fig6|fig7|table1|table2 ...]` (none = all).

use dbsm_bench::cert_json::{output_path, parse_document, PaperRow};
use dbsm_bench::paper::{view, VIEWS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = output_path::<PaperRow>();
    let rows = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_document::<PaperRow>(&text))
    {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("paper_report: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut wanted: Vec<String> = std::env::args().skip(1).collect();
    if wanted.is_empty() {
        wanted = VIEWS.map(String::from).to_vec();
    }
    for (i, name) in wanted.iter().enumerate() {
        match view(&rows, name) {
            Ok(text) => print!("{}{text}", if i > 0 { "\n" } else { "" }),
            Err(e) => {
                eprintln!("paper_report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
