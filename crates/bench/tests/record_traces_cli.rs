//! `record_traces`' command line: an unknown flag (including the retired
//! `--check`), a flag without its value or a malformed number fails the
//! invocation before anything is written, naming the culprit — a typo
//! must never regenerate the committed traces with defaults.

use std::process::Command;

#[test]
fn bad_arguments_are_rejected_and_write_nothing() {
    for (extra, culprit) in [
        (&["--check"][..], "--check"),
        (&["--chek"][..], "--chek"),
        (&["--ops", "abc"][..], "abc"),
    ] {
        let out_dir = std::env::temp_dir().join(format!(
            "poise-record-cli-{}-{}",
            std::process::id(),
            extra.join("_")
        ));
        let _ = std::fs::remove_dir_all(&out_dir);
        let out = Command::new(env!("CARGO_BIN_EXE_record_traces"))
            .arg("--out")
            .arg(&out_dir)
            .args(extra)
            .output()
            .expect("spawn record_traces");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(culprit),
            "{extra:?} must name {culprit}: {stderr}"
        );
        assert!(!out_dir.exists(), "{extra:?} wrote under --out");
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
