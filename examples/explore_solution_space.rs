//! Explore the {N, p} solution space of a kernel: profile the full grid,
//! render it as ASCII art, and compare what CCWS/SWL (diagonal), the
//! Eq. 12 scoring and the raw optimum would each pick — the Fig. 2/5
//! analysis as a library workflow.
//!
//! ```sh
//! cargo run --release --example explore_solution_space [bench-name]
//! ```

use poise_repro::gpu_sim::{GpuConfig, KernelSource};
use poise_repro::poise::profiler::{profile_grid, GridSpec, ProfileWindow};
use poise_repro::poise_ml::ScoringWeights;
use poise_repro::workloads::evaluation_suite;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "ii".to_string());
    let bench = evaluation_suite()
        .iter()
        .find(|b| b.name == which)
        .unwrap_or_else(|| panic!("unknown benchmark {which}"));
    let kernel = &bench.kernels[0];
    let cfg = GpuConfig::scaled(4);

    println!("profiling {} over the full {{N, p}} grid...", kernel.name());
    let grid = profile_grid(
        kernel,
        &cfg,
        &GridSpec::full(kernel.warps_per_scheduler().min(16)),
        ProfileWindow::default(),
    );

    // ASCII rendering: rows are p (descending), columns N.
    let max_n = grid.max_n();
    for p in (1..=max_n).rev() {
        print!("p={p:2} ");
        for n in 1..=max_n {
            let c = if p > n {
                ' '
            } else {
                match grid.get(n, p) {
                    None => '.',
                    Some(v) if v >= 1.10 => '#',
                    Some(v) if v >= 1.00 => '+',
                    Some(v) if v >= 0.90 => '-',
                    Some(_) => ':',
                }
            };
            print!("{c} ");
        }
        println!();
    }
    println!(
        "     {}",
        (1..=max_n)
            .map(|n| format!("{:<2}", n % 10))
            .collect::<String>()
    );
    println!("# >= +10%, + speedup, - small slowdown, : big slowdown");

    let (best, s_best) = grid.best_performance().expect("profiled");
    let (diag, s_diag) = grid.best_diagonal().expect("profiled");
    let (scored, _) = grid
        .best_scored(&ScoringWeights::default())
        .expect("scored");
    println!("\nglobal best        : {best}  ({s_best:.3}x)");
    println!("diagonal best (SWL): {diag}  ({s_diag:.3}x)");
    println!(
        "best scored (Eq.12): {scored}  ({:.3}x) <- the training target",
        grid.get(scored.n, scored.p).unwrap_or(1.0)
    );
}
