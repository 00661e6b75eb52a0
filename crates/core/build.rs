//! Hashes the sources whose code computes a job's output into
//! `POISE_CODE_DIGEST`, which `poise::jobs` mixes into every cache key.
//! Each file enters as its path under `crates/`, a NUL, its length and
//! its bytes, in sorted path order, so any edit there, a comment
//! included, makes the next pass cold.

use std::path::{Path, PathBuf};

// The engine's own SHA-256, so the build script needs no other crate.
#[allow(dead_code)]
#[path = "../workloads/src/digest.rs"]
mod digest;

/// The simulator, the workloads, the model, the engine with its
/// controllers and codecs, and the `rand` stand-in they draw from.
const CRATES: [&str; 5] = ["gpu-sim", "workloads", "poise-ml", "core", "compat/rand"];

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in CRATES {
        let dir = crates.join(krate).join("src");
        println!("cargo:rerun-if-changed={}", dir.display());
        walk(&dir, &format!("{krate}/src"), &mut files);
    }
    files.sort();
    let mut h = digest::Sha256::new();
    for (name, path) in files {
        let bytes = std::fs::read(path).expect("read a source file");
        h.update(name.as_bytes());
        h.update(b"\0");
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    println!("cargo:rustc-env=POISE_CODE_DIGEST={}", h.finish_hex());
}

/// Every file below `dir` (named `name` under `crates/`), with its name.
fn walk(dir: &Path, name: &str, out: &mut Vec<(String, PathBuf)>) {
    for entry in std::fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("read a directory entry").path();
        let file = path.file_name().expect("a named entry").to_string_lossy();
        let name = format!("{name}/{file}");
        if path.is_dir() {
            walk(&path, &name, out);
        } else {
            out.push((name, path));
        }
    }
}
