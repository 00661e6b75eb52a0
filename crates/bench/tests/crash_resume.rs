//! Crash-resume: a `run_all` child killed (SIGKILL) mid-wave must leave
//! a store that a plain re-run resumes to completion — no quarantined
//! entries (atomic tmp+rename writes cannot tear on kill) and a final
//! store byte-identical to an uninterrupted run, modulo the recorded
//! wall-clock metadata line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn run_all_bin() -> &'static str {
    env!("CARGO_BIN_EXE_run_all")
}

const KNOBS: &[&str] = &[
    "--only",
    "fig07",
    "--set",
    "sms=1",
    "--set",
    "kernels_cap=1",
    "--set",
    "train_cap=3",
    "--set",
    "run_cycles=20000",
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("poise-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_to_completion(dir: &Path) -> std::process::ExitStatus {
    Command::new(run_all_bin())
        .args(KNOBS)
        .env("POISE_RESULTS_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn run_all")
}

/// Every cache entry's bytes with the `# wall:` metadata line dropped —
/// the only line allowed to differ between two runs of the same spec.
fn store_snapshot(dir: &Path) -> BTreeMap<String, String> {
    let cache = dir.join("cache");
    let mut snap = BTreeMap::new();
    for entry in std::fs::read_dir(&cache).expect("cache dir") {
        let entry = entry.expect("dir entry");
        if !entry.file_type().expect("file type").is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let body = std::fs::read_to_string(entry.path()).expect("read entry");
        let normalized: String = body
            .lines()
            .filter(|l| !l.starts_with("# wall:"))
            .collect::<Vec<_>>()
            .join("\n");
        snap.insert(name, normalized);
    }
    snap
}

#[test]
fn sigkill_mid_wave_resumes_to_an_identical_store() {
    // Reference: one uninterrupted pass.
    let ref_dir = tmp_dir("ref");
    let status = run_to_completion(&ref_dir);
    assert!(status.success(), "reference run failed: {status}");
    let reference = store_snapshot(&ref_dir);
    assert!(!reference.is_empty(), "reference run stored nothing");
    let ref_fig =
        std::fs::read_to_string(ref_dir.join("fig07_performance.txt")).expect("fig07 output");

    // Crash run: kill the child once it has committed a few entries.
    let crash_dir = tmp_dir("kill");
    let mut child = Command::new(run_all_bin())
        .args(KNOBS)
        .env("POISE_RESULTS_DIR", &crash_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn run_all");
    let cache = crash_dir.join("cache");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_entries = false;
    loop {
        if Instant::now() > deadline {
            break;
        }
        if let Some(_status) = child.try_wait().expect("try_wait") {
            // Finished before we pulled the trigger: the resume below
            // degenerates to a warm pass, which is still a valid (if
            // weaker) check. Keep going.
            break;
        }
        let committed = std::fs::read_dir(&cache)
            .map(|d| {
                d.filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".txt"))
                    .count()
            })
            .unwrap_or(0);
        if committed >= 2 {
            saw_entries = true;
            child.kill().expect("SIGKILL the child");
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.wait();
    assert!(
        saw_entries || child.try_wait().is_ok(),
        "child neither stored entries nor finished within the deadline"
    );

    // Resume: a plain re-run over the killed store completes cleanly.
    let status = run_to_completion(&crash_dir);
    assert!(status.success(), "resumed run failed: {status}");

    // Nothing was quarantined — the kill tore no committed entry.
    let quarantined = std::fs::read_dir(cache.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(quarantined, 0, "SIGKILL must not corrupt committed entries");

    // The final store matches the uninterrupted one (modulo `# wall:`),
    // and the rendered figure is byte-identical.
    assert_eq!(store_snapshot(&crash_dir), reference);
    let fig =
        std::fs::read_to_string(crash_dir.join("fig07_performance.txt")).expect("fig07 output");
    assert_eq!(fig, ref_fig, "figure output diverged after crash-resume");

    // And an offline fsck agrees the store is clean (exit 0).
    let fsck = Command::new(run_all_bin())
        .arg("--fsck")
        .env("POISE_RESULTS_DIR", &crash_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn fsck");
    assert!(fsck.success(), "fsck found corruption after crash-resume");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}
