//! Content-addressed result cache for the experiment engine.
//!
//! Every simulation job (see [`crate::jobs`]) renders its *full* input
//! specification — kernel spec, scheme, controller parameters, machine
//! configuration, and digests of any upstream outputs such as trained
//! model weights — into a canonical text form, and the SHA-256 of that
//! text addresses the job's result under `results/cache/`. Editing any
//! input therefore invalidates exactly the runs that depend on it; nothing
//! else is re-simulated. The key also mixes in a digest of the sources
//! that compute every result (see [`crate::jobs`]), so a build whose
//! simulator, workload, model or engine code differs looks up none of an
//! older build's entries and re-executes.
//!
//! ## File format
//!
//! One file per job, named `<kind>-<hash>.txt`:
//!
//! ```text
//! # poise job cache v1
//! # key: <64 hex chars>
//! # wall: <execution seconds of the run that produced the entry>
//! # sha256: <64 hex chars over the body>
//! # spec:
//! #   <canonical spec, one line per field>
//! <output serialization, kind-specific>
//! ```
//!
//! The `wall` line is metadata, not identity: it records how long the
//! simulation that produced the entry took, so figures that report
//! simulation throughput (e.g. `sm_scaling`) render identically from a
//! warm cache and from the cold run that filled it. It is what the job
//! took in its pass: a profile or sample whose steady-state points
//! another job of the pass had simulated reused them (see "Execution
//! model" in [`crate::jobs`]) and records less than it would alone. No
//! figure renders a profile or sample wall; `sm_scaling` reads run walls
//! only. The `sha256` line is
//! an end-to-end body checksum: the header/end-marker checks catch
//! truncation, but only the checksum catches silent in-place corruption
//! (a flipped bit in a stored counter still parses). An entry without
//! both lines is invalid.
//!
//! ## Self-healing
//!
//! Loads verify the header version, key, metadata lines, end marker and
//! body checksum. An invalid entry is **quarantined** — moved under
//! `quarantine/` beside the store, counted in [`CacheStats::corrupt`] /
//! [`CacheStats::quarantined`] — and reported distinctly from a plain
//! miss ([`Lookup::Corrupt`]), so the engine can re-run the job *and*
//! the run summary can say corruption happened; nothing silently
//! vanishes. [`Cache::fsck`] applies the same validation to every entry
//! offline (`run_all --fsck`). Stores write to a temporary file and
//! `rename` into place, so an interrupted `run_all` never leaves a
//! half-written entry and the next invocation resumes from the completed
//! jobs.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`](crate::faults::FaultPlan) installed via
//! [`Cache::set_faults`] injects torn (truncated) writes and single-bit
//! body flips at the store seam, deterministically per entry key and
//! store occurrence, and counts each in [`CacheStats::store_faults`] —
//! see [`crate::faults`] for how occurrences count quarantined
//! casualties so that self-healing converges.
//!
//! ## Float canonicalisation
//!
//! `f64` values are serialised with Rust's shortest-round-trip formatting
//! (`{:?}`), which parses back to the identical bit pattern. A cache hit
//! therefore returns *bit-identical* rows to the run that produced it.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::faults::{FaultKind, FaultPlan};

// The SHA-256 implementation lives in `workloads::digest` (trace
// workloads key themselves by content digest down there); re-exported
// here so the engine keeps one canonical hash.
pub use workloads::digest::{sha256_hex, Sha256};

/// Format an `f64` so that parsing recovers the identical bits.
pub fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Parse an `f64` serialised by [`fmt_f64`] (also accepts `inf`/`NaN`).
pub fn parse_f64(s: &str) -> Option<f64> {
    s.parse().ok()
}

// ---------------------------------------------------------------------------
// The on-disk store.
// ---------------------------------------------------------------------------

/// Corruption and fault counters for one engine run (cheap, lock-free).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Entries that existed on disk but failed validation (truncated,
    /// stale format, checksum mismatch, wrong key). A corrupt entry's job
    /// re-runs as on a miss, but never silently: this counter surfaces
    /// in the run summary.
    pub corrupt: AtomicU64,
    /// Corrupt entries successfully moved under `quarantine/`.
    pub quarantined: AtomicU64,
    /// Torn writes and bit flips the installed fault plan injected at
    /// the store seam. Each leaves a corrupt entry on disk that only a
    /// later load finds, so this is the one count of them a pass has.
    pub store_faults: AtomicU64,
}

impl CacheStats {
    /// Corrupt-entry count (see the field docs).
    pub fn corrupt_count(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Quarantined-entry count.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Injected store-fault count (see the field docs).
    pub fn store_faults_count(&self) -> u64 {
        self.store_faults.load(Ordering::Relaxed)
    }
}

/// The outcome of one cache lookup, distinguishing "no entry" from "an
/// entry existed but was invalid" — the latter is telemetry the engine
/// must not swallow.
#[derive(Debug)]
pub enum Lookup {
    /// A valid entry: body plus recorded execution wall seconds.
    Hit(String, f64),
    /// No entry.
    Miss,
    /// An entry existed but failed validation; it has been quarantined.
    Corrupt,
}

/// Result of an offline [`Cache::fsck`] pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsckReport {
    /// Entries examined.
    pub scanned: usize,
    /// Entries that validated (header, key, end marker, checksum, body).
    pub valid: usize,
    /// Entries that failed validation (all quarantined).
    pub corrupt: usize,
    /// Orphaned `.tmp-*` files from crashed writers, removed.
    pub tmp_removed: usize,
}

/// Internal parse result: valid body and recorded wall, or invalid.
enum Parsed {
    Valid { body: String, wall: f64 },
    Invalid,
}

/// A content-addressed result store rooted at a directory
/// (conventionally `results/cache/`).
#[derive(Debug)]
pub struct Cache {
    root: PathBuf,
    /// Run statistics.
    pub stats: CacheStats,
    /// File names this cache instance has read or written — the live set
    /// for [`Cache::prune_untouched`].
    touched: Mutex<HashSet<String>>,
    seq: AtomicU64,
    /// Injected store faults (torn writes, bit flips); `None` in normal
    /// operation.
    faults: Option<Arc<FaultPlan>>,
    /// In-process store count per file name, part of the fault-decision
    /// occurrence index (see [`crate::faults`]).
    store_counts: Mutex<HashMap<String, u64>>,
}

impl Cache {
    /// Open (creating if needed) a cache rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        std::fs::create_dir_all(&root).expect("create cache dir");
        Cache {
            root,
            stats: CacheStats::default(),
            touched: Mutex::new(HashSet::new()),
            seq: AtomicU64::new(0),
            faults: None,
            store_counts: Mutex::new(HashMap::new()),
        }
    }

    /// The cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (`<root>/quarantine`); created lazily.
    pub fn quarantine_root(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Install a fault-injection plan for the store seam.
    pub fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    fn path_of(&self, kind: &str, key: &str) -> PathBuf {
        self.root.join(self.file_of(kind, key))
    }

    fn file_of(&self, kind: &str, key: &str) -> String {
        format!("{kind}-{key}.txt")
    }

    fn touch(&self, kind: &str, key: &str) {
        self.touched
            .lock()
            .expect("touched set")
            .insert(self.file_of(kind, key));
    }

    /// Look up `key`, distinguishing a plain miss from a corrupt entry.
    /// A corrupt entry is counted, quarantined and reported as such.
    pub fn lookup(&self, kind: &str, key: &str) -> Lookup {
        let path = self.path_of(kind, key);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Lookup::Miss;
        };
        match Self::parse_entry(&text, key) {
            Parsed::Valid { body, wall } => {
                self.touch(kind, key);
                Lookup::Hit(body, wall)
            }
            Parsed::Invalid => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                if self.quarantine(&path) {
                    self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                Lookup::Corrupt
            }
        }
    }

    /// Move an invalid entry under `quarantine/`, suffixed with the
    /// first free casualty index so repeat corruption of one key keeps
    /// every specimen. Returns whether the move succeeded.
    fn quarantine(&self, path: &Path) -> bool {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            return false;
        };
        let qdir = self.quarantine_root();
        if std::fs::create_dir_all(&qdir).is_err() {
            return false;
        }
        let mut n = self.quarantine_count(&name);
        // First free slot (a concurrent loader may have taken ours).
        loop {
            let dest = qdir.join(format!("{name}.{n}"));
            if !dest.exists() {
                return std::fs::rename(path, &dest).is_ok();
            }
            n += 1;
        }
    }

    /// How many quarantined casualties exist for cache file `name`.
    fn quarantine_count(&self, name: &str) -> u64 {
        let qdir = self.quarantine_root();
        let Ok(entries) = std::fs::read_dir(&qdir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with('.'))
            })
            .count() as u64
    }

    fn parse_entry(text: &str, key: &str) -> Parsed {
        let mut lines = text.lines();
        if lines.next() != Some("# poise job cache v1") {
            return Parsed::Invalid;
        }
        if lines.next().and_then(|l| l.strip_prefix("# key: ")) != Some(key) {
            return Parsed::Invalid;
        }
        let Some(wall) = lines
            .next()
            .and_then(|l| l.strip_prefix("# wall: "))
            .and_then(parse_f64)
        else {
            return Parsed::Invalid;
        };
        let Some(sha) = lines.next().and_then(|l| l.strip_prefix("# sha256: ")) else {
            return Parsed::Invalid;
        };
        // Skip the embedded spec (all `#` comment lines); the body is
        // everything after, terminated by an explicit end marker so a
        // truncated write can be told apart from a short body.
        let Some(marker) = text.find("\n# end-spec\n") else {
            return Parsed::Invalid;
        };
        let body = &text[marker + "\n# end-spec\n".len()..];
        let Some(body) = body.strip_suffix("# end\n") else {
            return Parsed::Invalid;
        };
        if sha256_hex(body) != sha {
            return Parsed::Invalid;
        }
        Parsed::Valid {
            body: body.to_string(),
            wall,
        }
    }

    /// Store `body` under `key`, embedding the human-readable `spec`,
    /// the producing run's execution `wall` seconds and the body
    /// checksum in the header. Atomic: concurrent writers and interrupts
    /// leave either the old entry or the complete new one.
    pub fn store(&self, kind: &str, key: &str, spec: &str, body: &str, wall: f64) {
        let mut text = String::with_capacity(spec.len() + body.len() + 224);
        text.push_str("# poise job cache v1\n");
        text.push_str(&format!("# key: {key}\n"));
        text.push_str(&format!("# wall: {}\n", fmt_f64(wall)));
        text.push_str(&format!("# sha256: {}\n", sha256_hex(body)));
        text.push_str("# spec:\n");
        for line in spec.lines() {
            text.push_str("#   ");
            text.push_str(line);
            text.push('\n');
        }
        text.push_str("# end-spec\n");
        let body_start = text.len();
        text.push_str(body);
        text.push_str("# end\n");
        self.inject_store_fault(kind, key, &mut text, body_start, body.len());
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        // Failures to persist are non-fatal: the engine still holds the
        // in-memory result; the job will simply re-run next time.
        if std::fs::write(&tmp, &text).is_ok()
            && std::fs::rename(&tmp, self.path_of(kind, key)).is_ok()
        {
            self.touch(kind, key);
        }
    }

    /// Apply an injected store fault to the rendered entry, when a plan
    /// is installed and rolls one for this key/occurrence. The
    /// occurrence index counts prior in-process stores plus quarantined
    /// casualties of earlier runs, so a healing re-store re-rolls
    /// instead of deterministically re-corrupting (see [`crate::faults`]).
    fn inject_store_fault(
        &self,
        kind: &str,
        key: &str,
        text: &mut String,
        body_start: usize,
        body_len: usize,
    ) {
        let Some(plan) = &self.faults else { return };
        let name = self.file_of(kind, key);
        let occurrence = {
            let mut counts = self.store_counts.lock().expect("store counts");
            let c = counts.entry(name.clone()).or_insert(0);
            let mine = *c;
            *c += 1;
            mine + self.quarantine_count(&name)
        };
        match plan.store_fault(key, occurrence) {
            Some(FaultKind::TornWrite) => {
                // Cut strictly before the end marker: every torn entry is
                // detectably incomplete.
                let max = text.len() - "# end\n".len();
                let cut = plan.corrupt_offset(key, occurrence, max).max(1);
                text.truncate(cut);
            }
            Some(FaultKind::BitFlip) if body_len > 0 => {
                let off = body_start + plan.corrupt_offset(key, occurrence, body_len);
                // SAFETY-free byte flip: rebuild around the flipped byte
                // (may break UTF-8 on multi-byte chars; bodies are ASCII).
                let mut bytes = std::mem::take(text).into_bytes();
                bytes[off] ^= 0x01;
                *text = String::from_utf8_lossy(&bytes).into_owned();
            }
            _ => return,
        }
        self.stats.store_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-validate every entry offline: header, key-vs-filename, end
    /// marker, checksum, plus the caller's body validation (typically a
    /// deserialisation round-trip). Invalid entries are quarantined and
    /// orphaned `.tmp-*` files are removed. Foreign files (no `.txt`
    /// suffix or unrecognised name shape) are left alone.
    pub fn fsck(&self, validate: &dyn Fn(&str, &str) -> bool) -> std::io::Result<FsckReport> {
        let mut report = FsckReport::default();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                std::fs::remove_file(entry.path())?;
                report.tmp_removed += 1;
                continue;
            }
            let Some((kind, key)) = name
                .strip_suffix(".txt")
                .and_then(|stem| stem.split_once('-'))
            else {
                continue; // foreign file
            };
            report.scanned += 1;
            let ok = std::fs::read_to_string(entry.path())
                .ok()
                .is_some_and(|text| match Self::parse_entry(&text, key) {
                    Parsed::Valid { body, .. } => validate(kind, &body),
                    Parsed::Invalid => false,
                });
            if ok {
                report.valid += 1;
            } else {
                report.corrupt += 1;
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                if self.quarantine(&entry.path()) {
                    self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(report)
    }

    /// Garbage-collect the store: delete every cache entry this instance
    /// has neither read nor written (plus orphaned temporaries from
    /// crashed writers). Returns `(removed, kept)` counts.
    ///
    /// Intended to run *after* a job graph has executed against this
    /// cache (`run_all --gc`): the touched set is then exactly the
    /// entries the current job set references, and everything else is a
    /// leftover of earlier specs — edited kernels, old knob settings,
    /// abandoned traces — that content addressing will never look up
    /// again.
    pub fn prune_untouched(&self) -> std::io::Result<(usize, usize)> {
        let touched = self.touched.lock().expect("touched set");
        let mut removed = 0;
        let mut kept = 0;
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let stale_tmp = name.starts_with(".tmp-");
            if !stale_tmp && touched.contains(&name) {
                kept += 1;
            } else if stale_tmp || name.ends_with(".txt") {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            } else {
                // Not ours (no .txt suffix): leave foreign files alone.
                kept += 1;
            }
        }
        Ok((removed, kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poise-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sha256_is_the_workloads_digest() {
        // The implementation moved to `workloads::digest`; the re-export
        // must keep producing FIPS 180-4 values.
        assert_eq!(
            sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let _ = Sha256::new();
    }

    #[test]
    fn prune_untouched_keeps_the_live_set() {
        let dir = tmp_dir("prune");
        {
            // A previous "run" leaves three entries behind.
            let old = Cache::new(&dir);
            for k in ["a", "b", "c"] {
                old.store("run", &sha256_hex(k), "spec", "body\n", 0.0);
            }
        }
        // A stale temporary from a crashed writer.
        std::fs::write(dir.join(".tmp-999-0"), "torn").unwrap();
        // The current run touches one existing entry (lookup) and writes
        // a new one (store).
        let cache = Cache::new(&dir);
        let hit = |k: &str| matches!(cache.lookup("run", &sha256_hex(k)), Lookup::Hit(..));
        assert!(hit("a"));
        cache.store("run", &sha256_hex("d"), "spec", "body\n", 0.0);
        let (removed, kept) = cache.prune_untouched().unwrap();
        assert_eq!((removed, kept), (3, 2), "b, c and the tmp file go");
        assert!(hit("a") && hit("d") && !hit("b"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            1.234567890123456e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let back = parse_f64(&fmt_f64(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v}");
        }
        assert!(parse_f64(&fmt_f64(f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn store_and_load_round_trip() {
        let dir = tmp_dir("test");
        let cache = Cache::new(&dir);
        let key = sha256_hex("spec");
        assert!(matches!(cache.lookup("run", &key), Lookup::Miss));
        cache.store("run", &key, "kernel t\nscheme GTO", "a 1\nb 2\n", 0.25);
        let Lookup::Hit(body, wall) = cache.lookup("run", &key) else {
            panic!("expected a hit");
        };
        assert_eq!(body, "a 1\nb 2\n");
        assert_eq!(wall, 0.25, "wall metadata round-trips");
        assert_eq!(cache.stats.corrupt_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_counted_and_quarantined() {
        let dir = tmp_dir("corrupt");
        let cache = Cache::new(&dir);
        let key = sha256_hex("x");
        cache.store("run", &key, "spec", "body line\n", 0.5);
        let path = dir.join(format!("run-{key}.txt"));
        // Truncated: the end marker is gone.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        match cache.lookup("run", &key) {
            Lookup::Corrupt => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(cache.stats.corrupt_count(), 1);
        assert_eq!(cache.stats.quarantined_count(), 1);
        assert!(!path.exists(), "corrupt entry moved away");
        let q = cache.quarantine_root().join(format!("run-{key}.txt.0"));
        assert!(q.exists(), "quarantined under a casualty index");
        // The next lookup is a plain miss (nothing left to quarantine).
        assert!(matches!(cache.lookup("run", &key), Lookup::Miss));

        // A bit flip in the body parses fine structurally — only the
        // checksum catches it.
        cache.store("run", &key, "spec", "body line\n", 0.5);
        let full = std::fs::read_to_string(&path).unwrap();
        let flipped = full.replace("body line", "bodz line");
        std::fs::write(&path, flipped).unwrap();
        assert!(matches!(cache.lookup("run", &key), Lookup::Corrupt));
        assert_eq!(cache.stats.corrupt_count(), 2);
        assert!(
            cache
                .quarantine_root()
                .join(format!("run-{key}.txt.1"))
                .exists(),
            "second casualty gets the next index"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_and_garbage_are_corrupt() {
        let dir = tmp_dir("wrongkey");
        let cache = Cache::new(&dir);
        let key = sha256_hex("x");
        let path = dir.join(format!("run-{key}.txt"));
        std::fs::write(&path, "not a cache file").unwrap();
        assert!(matches!(cache.lookup("run", &key), Lookup::Corrupt));
        // Wrong key in the header.
        let other = sha256_hex("y");
        cache.store("run", &other, "spec", "body\n", 0.0);
        std::fs::rename(dir.join(format!("run-{other}.txt")), &path).unwrap();
        assert!(matches!(cache.lookup("run", &key), Lookup::Corrupt));
        // Intact apart from the missing `# wall:` and `# sha256:` lines.
        let bare =
            format!("# poise job cache v1\n# key: {key}\n# spec:\n# end-spec\nbody\n# end\n");
        std::fs::write(&path, bare).unwrap();
        assert!(matches!(cache.lookup("run", &key), Lookup::Corrupt));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_is_caught_and_heals() {
        let dir = tmp_dir("torn");
        let mut cache = Cache::new(&dir);
        cache.set_faults(Some(Arc::new(
            FaultPlan::new(1, 1.0).with_kinds(&[FaultKind::TornWrite]),
        )));
        let key = sha256_hex("t");
        cache.store("run", &key, "spec", "body\n", 0.0);
        // Occurrence 0 tore the write; detection quarantines it.
        assert!(matches!(cache.lookup("run", &key), Lookup::Corrupt));
        assert_eq!(cache.stats.quarantined_count(), 1);
        // rate=1.0 tears every occurrence; drop the plan to verify the
        // occurrence index advanced past the quarantined casualty.
        cache.set_faults(None);
        cache.store("run", &key, "spec", "body\n", 0.0);
        assert!(
            matches!(cache.lookup("run", &key), Lookup::Hit(..)),
            "clean store heals"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_injected_store_fault_is_counted() {
        let dir = tmp_dir("faultcount");
        let mut cache = Cache::new(&dir);
        cache.set_faults(Some(Arc::new(
            FaultPlan::parse("seed=3,rate=1,kinds=torn").unwrap(),
        )));
        for k in ["a", "b", "c"] {
            cache.store("run", &sha256_hex(k), "spec", "body\n", 0.0);
        }
        // A second store of one key rolls a fresh occurrence: also torn.
        cache.store("run", &sha256_hex("a"), "spec", "body\n", 0.0);
        assert_eq!(cache.stats.store_faults_count(), 4, "every store tore");
        // Without a plan nothing is injected, so nothing is counted.
        cache.set_faults(None);
        cache.store("run", &sha256_hex("d"), "spec", "body\n", 0.0);
        assert_eq!(cache.stats.store_faults_count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_bit_flip_is_caught_by_checksum() {
        let dir = tmp_dir("flip");
        let mut cache = Cache::new(&dir);
        cache.set_faults(Some(Arc::new(
            FaultPlan::new(2, 1.0).with_kinds(&[FaultKind::BitFlip]),
        )));
        let key = sha256_hex("f");
        cache.store("run", &key, "spec", "value 1.25\n", 0.0);
        assert!(
            matches!(cache.lookup("run", &key), Lookup::Corrupt),
            "flipped body must fail the checksum"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_quarantines_invalid_entries_and_cleans_temporaries() {
        let dir = tmp_dir("fsck");
        let cache = Cache::new(&dir);
        for k in ["a", "b", "c"] {
            cache.store(
                "run",
                &sha256_hex(k),
                "spec",
                format!("{k}\n").as_str(),
                0.0,
            );
        }
        // Corrupt one entry in place; leave a stale temporary and a
        // foreign file.
        let victim = dir.join(format!("run-{}.txt", sha256_hex("b")));
        let text = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &text[..text.len() - 3]).unwrap();
        std::fs::write(dir.join(".tmp-1-1"), "torn").unwrap();
        std::fs::write(dir.join("README"), "foreign").unwrap();

        let report = cache
            .fsck(&|kind, body| kind == "run" && !body.is_empty())
            .unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.valid, 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.tmp_removed, 1);
        assert!(!victim.exists(), "invalid entry quarantined");
        assert!(dir.join("README").exists(), "foreign file untouched");
        // A second pass is clean.
        let report = cache.fsck(&|_, _| true).unwrap();
        assert_eq!((report.scanned, report.corrupt), (2, 0));
        // The caller's validator can also reject parseable bodies.
        let report = cache.fsck(&|_, _| false).unwrap();
        assert_eq!(report.corrupt, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
