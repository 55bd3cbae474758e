//! Runs all three figure sweeps in one go and prints a complete markdown
//! report — the source material for EXPERIMENTS.md.
//!
//! Usage: `cargo run -p bench-harness --release --bin all_figs -- [--trials N]
//! [--seed S] [--threads T] [--json PATH] [--greedy] [--no-ilp]`

use bench_harness::{
    render_figure, run_point, sweeps, to_json, HarnessArgs, PointResult, FIGURE_FLAGS,
};

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1), FIGURE_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("all_figs: {e}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    let mut all: Vec<(String, Vec<PointResult>)> = Vec::new();

    eprintln!("running Fig. 1 sweep…");
    let fig1: Vec<PointResult> = sweeps::fig1_lengths()
        .into_iter()
        .map(|len| run_point(&args.apply(sweeps::fig1_point(len, args.trials, args.seed))))
        .collect();
    all.push(("Fig. 1 — SFC length 2..20".into(), fig1));

    eprintln!("running Fig. 2 sweep…");
    let fig2: Vec<PointResult> = sweeps::fig2_intervals()
        .into_iter()
        .map(|iv| run_point(&args.apply(sweeps::fig2_point(iv, args.trials, args.seed))))
        .collect();
    all.push(("Fig. 2 — function reliability 0.6..0.9".into(), fig2));

    eprintln!("running Fig. 3 sweep…");
    let fig3: Vec<PointResult> = sweeps::fig3_fractions()
        .into_iter()
        .map(|fr| run_point(&args.apply(sweeps::fig3_point(fr, args.trials, args.seed))))
        .collect();
    all.push(("Fig. 3 — residual capacity 1/16..1".into(), fig3));

    println!("# Reproduction report ({} trials/point, seed {})\n", args.trials, args.seed);
    for (title, points) in &all {
        println!("## {title}\n");
        println!("{}", render_figure(points));
        println!();
    }
    eprintln!("total wall clock: {:.1} s", started.elapsed().as_secs_f64());

    if let Some(path) = &args.json {
        let flat: Vec<&PointResult> = all.iter().flat_map(|(_, p)| p.iter()).collect();
        let owned: Vec<PointResult> = flat.into_iter().cloned().collect();
        std::fs::write(path, to_json(&owned)).expect("write JSON");
        eprintln!("wrote {path}");
    }
}
