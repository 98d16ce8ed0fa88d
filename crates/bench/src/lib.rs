//! # dbsm-bench — reproduction harness for every table and figure
//!
//! One harness, two committed artifacts. [`sweeps`] lists every experiment
//! as a point of a catalogue and runs the selected ones
//! (`cargo bench --bench ablation -- <filter> ...`): the `paper/` group is
//! the paper's own evaluation grid (§5) and lands in `BENCH_paper.json`,
//! the certification sweeps of the `ablation_*` groups land in
//! `BENCH_cert.json` — see [`cert_json`] for the one schema machinery
//! behind both. [`paper`] renders the paper's figures and tables from the
//! committed rows; nothing but [`sweeps::run`] simulates them.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig3_validation` | Fig. 3a–c: flooding bandwidth and RTT, real vs CSRT |
//! | `fig4_qq` | Fig. 4: Q-Q latency validation vs a concurrent executor |
//! | `paper_report fig5` | Fig. 5a–c: tpm, latency, abort rate vs clients |
//! | `paper_report fig6` | Fig. 6a–c: CPU, disk, network usage vs clients |
//! | `paper_report fig7` | Fig. 7a–c: latency quantiles + protocol CPU under loss |
//! | `paper_report table1` | Table 1: abort rates per class and configuration |
//! | `paper_report table2` | Table 2: abort rates under loss faults |
//! | `cert_schema_gate` | CI gate: both artifacts against their field tables |

pub mod cert_json;
pub mod paper;
pub mod sweeps;
