//! Compare every warp-scheduling policy in the repository on one
//! benchmark: GTO, SWL, PCAL-SWL, Poise, Static-Best, random-restart
//! stochastic search and APCM-style bypassing.
//!
//! ```sh
//! cargo run --release --example scheduler_shootout [bench-name]
//! ```

use poise_repro::poise::experiment::{self, Scheme, Setup};
use poise_repro::poise::train;
use poise_repro::workloads::evaluation_suite;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "ii".to_string());
    let bench = evaluation_suite()
        .iter()
        .find(|b| b.name == which)
        .unwrap_or_else(|| panic!("unknown benchmark {which}"));

    let mut setup = Setup::default();
    setup.kernels_cap = setup.kernels_cap.min(2);
    setup.train_cap_per_benchmark = setup.train_cap_per_benchmark.min(6);
    println!("training the regression model (one-time)...");
    let model = train::train_default_model(&setup);

    println!(
        "\n{:<16} {:>8} {:>10} {:>9} {:>8}",
        "scheme", "IPC", "vs GTO", "L1 hit%", "AML"
    );
    let mut gto_ipc = None;
    for scheme in [
        Scheme::Gto,
        Scheme::Swl,
        Scheme::PcalSwl,
        Scheme::Poise,
        Scheme::StaticBest,
        Scheme::RandomRestart,
        Scheme::Apcm,
    ] {
        let r = experiment::run_benchmark(bench, scheme, &model, &setup);
        let base = *gto_ipc.get_or_insert(r.ipc);
        println!(
            "{:<16} {:>8.3} {:>9.2}x {:>8.1}% {:>8.0}",
            scheme.name(),
            r.ipc,
            r.ipc / base,
            100.0 * r.l1_hit_rate,
            r.aml
        );
    }
}
