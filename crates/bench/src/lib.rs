//! # poise-bench — the figure/table regeneration harness
//!
//! Every table and figure of the paper's evaluation section is a
//! [`figures::Figure`]: a declaration of the simulation jobs it needs
//! (executed once, deduplicated across figures, and cached by content
//! hash — see `poise::jobs`) plus a renderer that formats the cached
//! results. The `run_all` binary executes the union of every selected
//! figure's jobs in one in-process pass and renders them (`run_all
//! --only <figure>` for one figure). See `EXPERIMENTS.md` at the
//! workspace root for the engine, the cache layout/keys, and the
//! `--set`/`--sweep` knob grammar.
//!
//! Shared plumbing in this module: [`base_setup`] builds the experiment
//! [`Setup`] by applying a knob overlay to the pure default, plus small
//! text/table formatting helpers.

pub mod figures;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use poise::experiment::{BenchResult, Setup};
use poise::plan::KnobOverlay;
use poise_ml::TrainedModel;
use workloads::evaluation_suite;

/// Directory where figure outputs and caches are written, created if
/// missing: the workspace-root `results/`, whatever the invoking working
/// directory. `POISE_RESULTS_DIR` overrides. The error names the
/// directory that could not be created.
pub fn results_dir() -> Result<PathBuf, String> {
    let p = match std::env::var("POISE_RESULTS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => {
            // crates/bench -> workspace root.
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(|p| p.parent())
                .map(|root| root.join("results"))
                .unwrap_or_else(|| PathBuf::from("results"))
        }
    };
    std::fs::create_dir_all(&p)
        .map_err(|e| format!("cannot create results directory {}: {e}", p.display()))?;
    Ok(p)
}

/// The base experiment setup: the pure [`Setup::default`] with `overlay`
/// applied. Figures are pure functions of the resulting setup — nothing
/// below this reads the environment.
pub fn base_setup(overlay: &KnobOverlay) -> Setup {
    overlay.applied_to(&Setup::default())
}

/// Directory scanned for committed trace workloads (`*.trace` files):
/// the workspace-root `traces/`, or `POISE_TRACES_DIR`. Unlike
/// [`results_dir`] this is not created on demand. A missing `traces/`
/// means no trace workloads; a missing directory that
/// `POISE_TRACES_DIR` names fails `trace_eval`.
pub fn traces_dir() -> PathBuf {
    match std::env::var_os("POISE_TRACES_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(|p| p.parent())
                .map(|root| root.join("traces"))
                .unwrap_or_else(|| PathBuf::from("traces"))
        }
    }
}

/// Serialise a trained model to a small text format.
pub fn model_to_text(m: &TrainedModel) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# Poise trained model (alpha, beta, dispersions)");
    for v in m.alpha.iter() {
        let _ = writeln!(s, "alpha {v:.9e}");
    }
    for v in m.beta.iter() {
        let _ = writeln!(s, "beta {v:.9e}");
    }
    let _ = writeln!(s, "dispersion_n {:.9e}", m.dispersion_n);
    let _ = writeln!(s, "dispersion_p {:.9e}", m.dispersion_p);
    let _ = writeln!(s, "samples_used {}", m.samples_used);
    s
}

/// One row of the main-comparison results.
#[derive(Debug, Clone)]
pub struct MainRow {
    /// Benchmark name.
    pub bench: String,
    /// Scheme name.
    pub scheme: String,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Absolute L1 hit rate.
    pub l1_hit_rate: f64,
    /// Average memory latency (cycles).
    pub aml: f64,
    /// Total energy (model units).
    pub energy: f64,
    /// Mean |ΔN| between prediction and search (Poise rows only).
    pub disp_n: f64,
    /// Mean |Δp| (Poise rows only).
    pub disp_p: f64,
    /// Mean Euclidean displacement (Poise rows only).
    pub disp_euclid: f64,
}

pub(crate) fn row_of(r: &BenchResult) -> MainRow {
    let logs: Vec<_> = r
        .kernels
        .iter()
        .flat_map(|k| k.epoch_logs.iter())
        .filter(|l| !l.early_out)
        .collect();
    let mean = |f: fn(&poise::EpochLog) -> f64| -> f64 {
        if logs.is_empty() {
            0.0
        } else {
            logs.iter().map(|l| f(l)).sum::<f64>() / logs.len() as f64
        }
    };
    MainRow {
        bench: r.bench.clone(),
        scheme: r.scheme.name().to_string(),
        ipc: r.ipc,
        l1_hit_rate: r.l1_hit_rate,
        aml: r.aml,
        energy: r.energy,
        disp_n: mean(|l| l.displacement_n()),
        disp_p: mean(|l| l.displacement_p()),
        disp_euclid: mean(|l| l.displacement_euclid()),
    }
}

pub(crate) fn rows_to_tsv(rows: &[MainRow]) -> String {
    let mut s =
        String::from("bench\tscheme\tipc\tl1_hit_rate\taml\tenergy\tdisp_n\tdisp_p\tdisp_euclid\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{}\t{}\t{:.6}\t{:.6}\t{:.3}\t{:.3}\t{:.4}\t{:.4}\t{:.4}",
            r.bench,
            r.scheme,
            r.ipc,
            r.l1_hit_rate,
            r.aml,
            r.energy,
            r.disp_n,
            r.disp_p,
            r.disp_euclid
        );
    }
    s
}

pub(crate) fn rows_from_tsv(s: &str) -> Option<Vec<MainRow>> {
    let mut rows = Vec::new();
    for line in s.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 9 {
            return None;
        }
        rows.push(MainRow {
            bench: f[0].to_string(),
            scheme: f[1].to_string(),
            ipc: f[2].parse().ok()?,
            l1_hit_rate: f[3].parse().ok()?,
            aml: f[4].parse().ok()?,
            energy: f[5].parse().ok()?,
            disp_n: f[6].parse().ok()?,
            disp_p: f[7].parse().ok()?,
            disp_euclid: f[8].parse().ok()?,
        });
    }
    Some(rows)
}

/// Pull one metric for (bench, scheme) out of the rows.
pub fn metric(rows: &[MainRow], bench: &str, scheme: &str, f: impl Fn(&MainRow) -> f64) -> f64 {
    rows.iter()
        .find(|r| r.bench == bench && r.scheme == scheme)
        .map(f)
        .unwrap_or(f64::NAN)
}

/// The evaluation benchmark names in the paper's plotting order.
pub fn bench_order() -> Vec<String> {
    evaluation_suite().iter().map(|b| b.name.clone()).collect()
}

/// Write `contents` to `results/<file>`, leaving a file that already
/// holds exactly those bytes untouched (a warm pass rewrites nothing).
/// The error names the file, for the figure's `FAIL` row.
pub fn write_result(file: &str, contents: &str) -> Result<(), String> {
    let path = results_dir()?.join(file);
    let wrote = write_if_changed(&path, contents.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let verb = if wrote { "wrote" } else { "unchanged" };
    eprintln!("[bench] {verb} {}", path.display());
    Ok(())
}

/// Write `bytes` to `path` unless the file already holds exactly them;
/// whether it wrote.
fn write_if_changed(path: &Path, bytes: &[u8]) -> std::io::Result<bool> {
    if std::fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(false);
    }
    std::fs::write(path, bytes)?;
    Ok(true)
}

/// Render a simple aligned table to stdout and write it to the results
/// file `results/<file>` (see [`write_result`]).
pub fn emit_table(
    file: &str,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(8)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| -> String {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let _ = writeln!(
        out,
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        let _ = writeln!(out, "{}", fmt_row(r.clone()));
    }
    print!("{out}");
    write_result(file, &out)
}

/// Format a float with fixed decimals, as a table cell.
pub fn cell(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        // A failed or missing sweep point (job failure, degraded
        // render): an explicit marker beats `NaN` in a table meant for
        // human diffing. Details live in `results/run_all_failures.txt`.
        "MISSING".to_string()
    }
}

/// ASCII rendering of a {N, p} speedup surface (used by Figs. 2, 5, 17).
pub fn render_grid(grid: &poise_ml::SpeedupGrid) -> String {
    let mut s = String::new();
    let max_n = grid.max_n();
    let _ = writeln!(s, "rows: p (top = {max_n}), cols: N (1..{max_n});");
    let _ = writeln!(
        s,
        "++/+ speedup (>10% / >0), - slowdown, -- > 10% slowdown, . unprofiled"
    );
    for p in (1..=max_n).rev() {
        let _ = write!(s, "p={p:2} ");
        for n in 1..=max_n {
            let sym = if p > n {
                "  "
            } else {
                match grid.get(n, p) {
                    None => " .",
                    Some(v) if v >= 1.10 => "++",
                    Some(v) if v >= 1.0 => " +",
                    Some(v) if v >= 0.90 => " -",
                    Some(_) => "--",
                }
            };
            let _ = write!(s, "{sym}");
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use poise_ml::N_FEATURES;

    #[test]
    fn model_text_lists_every_weight() {
        let m = TrainedModel {
            alpha: [0.1, -0.2, 0.3, 0.0, 1.5, -2.0, 0.004, 1.6],
            beta: [3.7, 0.48, -6.3, 10.3, -6.5, -0.9, 0.08, -2.1],
            dispersion_n: 0.12,
            dispersion_p: 0.34,
            samples_used: 42,
            dropped_features: Vec::new(),
        };
        let t = model_to_text(&m);
        assert_eq!(
            t.lines().filter(|l| l.starts_with("alpha ")).count(),
            N_FEATURES
        );
        assert_eq!(
            t.lines().filter(|l| l.starts_with("beta ")).count(),
            N_FEATURES
        );
        assert!(t.contains("samples_used 42"));
        assert!(t.contains("dispersion_n 1.200000000e-1"));
    }

    #[test]
    fn tsv_round_trips() {
        let rows = vec![MainRow {
            bench: "ii".into(),
            scheme: "Poise".into(),
            ipc: 1.23,
            l1_hit_rate: 0.4,
            aml: 512.5,
            energy: 1e9,
            disp_n: 1.0,
            disp_p: 0.9,
            disp_euclid: 1.6,
        }];
        let s = rows_to_tsv(&rows);
        let back = rows_from_tsv(&s).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].bench, "ii");
        assert!((back[0].ipc - 1.23).abs() < 1e-9);
    }

    #[test]
    fn results_files_are_written_only_when_their_bytes_change() {
        let dir = std::env::temp_dir().join(format!("poise-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.txt");
        let mtime = || std::fs::metadata(&path).unwrap().modified().unwrap();
        // A missing file is created.
        assert!(write_if_changed(&path, b"a\n").unwrap());
        // Identical bytes leave the file, and its mtime, alone.
        let t0 = mtime();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!write_if_changed(&path, b"a\n").unwrap());
        assert_eq!(mtime(), t0);
        // Different bytes rewrite it.
        assert!(write_if_changed(&path, b"b\n").unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), b"b\n");
        assert_ne!(mtime(), t0);
        // A path under a regular file cannot be written: the error
        // comes back (whatever the user's permissions).
        assert!(write_if_changed(&path.join("x.txt"), b"a\n").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_rendering_marks_speedups() {
        let mut g = poise_ml::SpeedupGrid::new(3);
        g.set(2, 1, 1.5);
        g.set(3, 3, 0.5);
        let s = render_grid(&g);
        assert!(s.contains("++"));
        assert!(s.contains("--"));
    }
}
