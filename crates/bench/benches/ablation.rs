//! Command line of the ablation sweeps ([`dbsm_bench::sweeps`]):
//! `cargo bench -p dbsm_bench --bench ablation -- [filter ...]` simulates
//! every point whose `group/id` contains one of the filters (all points
//! when none is given; cargo's own `--bench` flag is skipped).

fn main() -> std::io::Result<()> {
    let filters: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    dbsm_bench::sweeps::run(&filters)
}
