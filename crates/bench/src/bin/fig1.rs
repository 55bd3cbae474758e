//! Regenerates Fig. 1 of the paper: performance of ILP / Randomized /
//! Heuristic while the SFC length of a request varies from 2 to 20
//! (residual capacity fixed at 25%, function reliabilities in [0.8, 0.9],
//! `l = 1`).
//!
//! Usage: `cargo run -p bench-harness --release --bin fig1 -- [--trials N]
//! [--seed S] [--threads T] [--json PATH] [--greedy] [--no-ilp]`

use bench_harness::{render_figure, run_point, sweeps, to_json, HarnessArgs, FIGURE_FLAGS};

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1), FIGURE_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig1: {e}");
            std::process::exit(2);
        }
    };
    println!("## Fig. 1 — varying the SFC length of a request from 2 to 20");
    println!("({} trials/point, seed {}, {} threads)\n", args.trials, args.seed, args.threads);
    let mut points = Vec::new();
    for len in sweeps::fig1_lengths() {
        let cfg = args.apply(sweeps::fig1_point(len, args.trials, args.seed));
        let started = std::time::Instant::now();
        let res = run_point(&cfg);
        eprintln!("  point L={len} done in {:.1} s", started.elapsed().as_secs_f64());
        points.push(res);
    }
    println!("{}", render_figure(&points));
    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&points)).expect("write JSON");
        eprintln!("wrote {path}");
    }
}
