//! The full Poise workflow: offline training on the (capped) training
//! suite, then deployment of the learned weights to the hardware
//! inference engine on an *unseen* evaluation benchmark — the paper's
//! no-profiling-burden-for-the-end-user story.
//!
//! ```sh
//! cargo run --release --example train_and_deploy
//! ```
//!
//! The caps are fixed in `main` (at most 6 kernels per training
//! benchmark, 2 per evaluation benchmark); edit them there to trade run
//! time for fidelity. The example reads no environment variable.

use poise_repro::poise::experiment::{self, Scheme, Setup};
use poise_repro::poise::train;
use poise_repro::workloads::evaluation_suite;

fn main() {
    let mut setup = Setup::default();
    // Keep the example quick: cap the default setup's kernel counts.
    setup.train_cap_per_benchmark = setup.train_cap_per_benchmark.min(6);
    setup.kernels_cap = setup.kernels_cap.min(2);

    println!("== offline training (GPU-vendor side, one time) ==");
    let t0 = std::time::Instant::now();
    let model = train::train_default_model(&setup);
    println!(
        "trained on {} kernels in {:.1}s",
        model.samples_used,
        t0.elapsed().as_secs_f64()
    );
    println!("alpha (N weights): {:?}", model.alpha);
    println!("beta  (p weights): {:?}", model.beta);

    println!("\n== deployment on an unseen benchmark (end-user side) ==");
    let bench = evaluation_suite()
        .into_iter()
        .find(|b| b.name == "mm")
        .expect("mm benchmark");
    let gto = experiment::run_benchmark(&bench, Scheme::Gto, &model, &setup);
    let poise = experiment::run_benchmark(&bench, Scheme::Poise, &model, &setup);
    println!(
        "{}: GTO IPC {:.3} -> Poise IPC {:.3} ({:.2}x)",
        bench.name,
        gto.ipc,
        poise.ipc,
        poise.ipc / gto.ipc
    );
    for k in &poise.kernels {
        for l in k.epoch_logs.iter().take(2) {
            println!(
                "  {}: predicted {} -> searched {}{}",
                k.kernel,
                l.predicted,
                l.searched,
                if l.early_out { " (early-out)" } else { "" }
            );
        }
    }
}
