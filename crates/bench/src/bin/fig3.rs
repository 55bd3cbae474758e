//! Regenerates Fig. 3 of the paper: performance of ILP / Randomized /
//! Heuristic while the residual computing capacity of each cloudlet varies
//! over 1/16, 1/8, 1/4, 1/2, 1 of its capacity (SFC length 3–10, function
//! reliabilities in [0.8, 0.9], `l = 1`).
//!
//! Usage: `cargo run -p bench-harness --release --bin fig3 -- [--trials N]
//! [--seed S] [--threads T] [--json PATH] [--greedy] [--no-ilp]`

use bench_harness::{render_figure, run_point, sweeps, to_json, HarnessArgs, FIGURE_FLAGS};

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1), FIGURE_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig3: {e}");
            std::process::exit(2);
        }
    };
    println!("## Fig. 3 — varying the residual computing capacity from 1/16 to 1");
    println!("({} trials/point, seed {}, {} threads)\n", args.trials, args.seed, args.threads);
    let mut points = Vec::new();
    for fraction in sweeps::fig3_fractions() {
        let cfg = args.apply(sweeps::fig3_point(fraction, args.trials, args.seed));
        let started = std::time::Instant::now();
        let res = run_point(&cfg);
        eprintln!("  point C'={fraction:.4} done in {:.1} s", started.elapsed().as_secs_f64());
        points.push(res);
    }
    println!("{}", render_figure(&points));
    if let Some(path) = &args.json {
        std::fs::write(path, to_json(&points)).expect("write JSON");
        eprintln!("wrote {path}");
    }
}
