//! Regenerates Figure 12 of the KaaS paper. Pass `--quick` for a
//! reduced sweep and `--dispatch=serialized|sharded` to pin the
//! dispatch configuration (default: sharded; `serialized` is the
//! one-shard historical router).

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = kaas_bench::common::dispatch_mode_from_args().unwrap_or_default();
    for fig in kaas_bench::fig12::run_with(quick, mode) {
        fig.print();
        println!();
    }
}
