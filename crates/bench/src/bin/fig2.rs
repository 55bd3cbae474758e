//! Regenerates Fig. 2 of the paper: performance of ILP / Randomized /
//! Heuristic while the network-function reliability interval varies over
//! [0.55, 0.65), [0.65, 0.75), [0.75, 0.85), [0.85, 0.95]
//! (SFC length 3–10, residual capacity 25%, `l = 1`).
//!
//! Usage: `cargo run -p bench-harness --release --bin fig2 -- [--trials N]
//! [--seed S] [--threads T] [--json PATH] [--greedy] [--no-ilp]`

use bench_harness::{render_figure, run_point, sweeps, to_json, HarnessArgs, FIGURE_FLAGS};

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1), FIGURE_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig2: {e}");
            std::process::exit(2);
        }
    };
    println!("## Fig. 2 — varying the network function reliability from 0.6 to 0.9");
    println!("({} trials/point, seed {}, {} threads)\n", args.trials, args.seed, args.threads);
    let mut points = Vec::new();
    for interval in sweeps::fig2_intervals() {
        let cfg = args.apply(sweeps::fig2_point(interval, args.trials, args.seed));
        let started = std::time::Instant::now();
        let res = run_point(&cfg);
        eprintln!(
            "  point [{:.2}, {:.2}) done in {:.1} s",
            interval.0,
            interval.1,
            started.elapsed().as_secs_f64()
        );
        points.push(res);
    }
    println!("{}", render_figure(&points));
    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&points)).expect("write JSON");
        eprintln!("wrote {path}");
    }
}
