//! Cluster-scale dispatch benchmark: the serialized router-contention
//! knee (the one-shard configuration) vs. the sharded+batched engine at
//! 10⁵+ invocations. Pass
//! `--quick` for a reduced sweep (used by CI's determinism diff) and
//! `--dispatch=serialized|sharded` to run one side of the A/B alone.
//! Full A/B runs also archive the series to `results/cluster.json`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = kaas_bench::common::dispatch_mode_from_args();
    let ab = mode.is_none();
    let figs = match mode {
        Some(mode) => kaas_bench::cluster::run_mode(quick, mode),
        None => kaas_bench::cluster::run(quick),
    };
    for fig in &figs {
        fig.print();
        println!();
    }
    if !quick && ab {
        std::fs::create_dir_all("results").ok();
        std::fs::write("results/cluster.json", kaas_bench::cluster::to_json(&figs))
            .expect("write results/cluster.json");
        eprintln!("wrote results/cluster.json");
    }
}
