//! The distributed sweep fabric: crash-tolerant cooperative execution of
//! one job graph by many worker processes over the shared
//! content-addressed cache.
//!
//! ## Design
//!
//! The fabric distributes *work*, not job descriptions. Every worker
//! re-expands the same deduplicated job graph from the same invocation
//! (the expansion is deterministic — see [`crate::jobs`]), so the only
//! coordination needed is mutual exclusion per job, and the cache itself
//! carries the results between processes. Mutual exclusion is a
//! crash-safe filesystem *lease* protocol (see [`crate::cache`]): a
//! worker claims a job by atomically creating
//! `cache/leases/<kind>-<key>.lease`, heartbeats the claim by touching
//! its mtime while executing, and releases it after committing the
//! result. A lease whose heartbeat goes stale belongs to a dead worker;
//! one older than the straggler threshold belongs to a wedged one;
//! either may be *stolen* by any peer, carrying the recorded attempt
//! count forward so retry classification, backoff and the watchdog of
//! [`crate::jobs`] apply unchanged across process boundaries.
//!
//! Because any worker can redo any job idempotently (content-addressed
//! keys, atomic tmp+rename commits, deterministic simulations) the
//! fabric needs no group membership, no consensus and no recovery
//! protocol: a worker may die at any instruction and the survivors
//! converge to the same store a single uninterrupted process would have
//! produced. A worker that wakes up late — its lease stolen mid-run —
//! discards its finished result at the store gate instead of
//! double-committing it.
//!
//! Terminal failures are shared as *tombstones* under
//! `<fabric_dir>/failed/` so peers neither re-claim a deterministically
//! failing job nor wait forever on its lease. Workers publish their
//! [`RunReport`]s as JSON under `<fabric_dir>/reports/`; the
//! coordinator merges them into the report of its authoritative final
//! in-process pass (which re-executes whatever dying workers left
//! behind). All files are written atomically, so a SIGKILL can orphan a
//! tmp file or a lease but never publish a torn artifact.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::{Cache, LeaseInfo, Lookup};
use crate::experiment::Setup;
use crate::jobs::{
    expand_graph, AttemptRecord, CacheKey, Engine, EventDetail, FailClass, JobGraph, JobOutcome,
    JobOutput, JobStatus, JobTrouble, ResultStore, RunReport, SimJob, Watchdog,
};

pub use self::json::Json;

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// One worker's view of the fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Coordination directory: manifest, tombstones, worker reports.
    pub fabric_dir: PathBuf,
    /// This worker's id (`w1`, `w2`, … under a coordinator; anything
    /// unique per process otherwise).
    pub worker_id: String,
    /// Heartbeat TTL in seconds: a lease whose mtime is older belongs
    /// to a dead worker and may be stolen.
    pub lease_ttl: f64,
    /// Straggler threshold in seconds: a claim older than this is
    /// stolen even while its owner still heartbeats. `None` = only
    /// heartbeat staleness steals.
    pub steal_after: Option<f64>,
    /// Sleep between poll rounds while peers hold the remaining jobs.
    pub poll_ms: u64,
    /// Honour injected [`crate::faults::FaultKind::WorkerKill`] faults.
    /// True only in worker processes — the coordinator's in-process
    /// pass must never abort itself.
    pub allow_kills: bool,
    /// Max leases claimed per poll round. Claiming more jobs than the
    /// host can execute at once only widens the blast radius of this
    /// worker's own death (every held lease must age out before a peer
    /// can steal it).
    pub claim_cap: usize,
}

impl FabricConfig {
    /// The standard worker configuration for `fabric_dir`, taking the
    /// lease knobs from `setup`.
    pub fn for_worker(fabric_dir: impl Into<PathBuf>, worker_id: &str, setup: &Setup) -> Self {
        FabricConfig {
            fabric_dir: fabric_dir.into(),
            worker_id: worker_id.to_string(),
            lease_ttl: setup.lease_ttl,
            steal_after: setup.steal_after,
            poll_ms: 25,
            allow_kills: true,
            claim_cap: crate::parallel::host_parallelism(),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared fabric artifacts: manifest, tombstones, worker reports.
// ---------------------------------------------------------------------------

/// Atomic publish: tmp + rename, like every cache commit — a kill can
/// orphan the tmp file (reclaimed by fsck) but never tear the artifact.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The canonical rendering of an expanded job graph: what the
/// coordinator publishes and every worker re-derives. Any byte of
/// difference means coordinator and worker would disagree about which
/// jobs exist — a build or argument skew that must fail loudly, not
/// silently execute a different sweep.
pub fn manifest_text(jobs: &[SimJob]) -> String {
    let JobGraph { ids, order } = expand_graph(jobs);
    let mut s = format!("# poise fabric manifest v1\njobs {}\n", order.len());
    for &i in &order {
        let (job, id) = ids.entry(i);
        s.push_str(&format!("{} {} {}\n", job.wave(), id.hash, job.label()));
    }
    s
}

/// Publish the manifest for `jobs` under `dir` (coordinator side).
pub fn write_manifest(dir: &Path, jobs: &[SimJob]) -> std::io::Result<()> {
    write_atomic(&dir.join("manifest.txt"), &manifest_text(jobs))
}

/// Check this process's expansion of `jobs` against the published
/// manifest (worker side).
pub fn verify_manifest(dir: &Path, jobs: &[SimJob]) -> Result<(), String> {
    let path = dir.join("manifest.txt");
    let published = std::fs::read_to_string(&path)
        .map_err(|e| format!("no fabric manifest at {}: {e}", path.display()))?;
    let ours = manifest_text(jobs);
    if published == ours {
        return Ok(());
    }
    Err(format!(
        "job-graph skew: this worker expands {} job(s) but the manifest lists {} — \
         coordinator and workers must run the same binary with the same arguments",
        ours.lines().count().saturating_sub(2),
        published.lines().count().saturating_sub(2),
    ))
}

/// A shared record of a terminal job failure. Written by whichever
/// worker exhausted the retry budget; read by every peer so the job is
/// neither re-claimed nor waited on.
#[derive(Debug, Clone)]
pub struct Tombstone {
    pub label: String,
    pub spec_hash: String,
    pub worker: String,
    pub error: String,
    pub outcome: JobOutcome,
    pub attempts: Vec<AttemptRecord>,
}

fn tombstone_path(dir: &Path, kind: &str, key: &str) -> PathBuf {
    dir.join("failed").join(format!("{kind}-{key}.json"))
}

fn attempts_json(attempts: &[AttemptRecord]) -> Json {
    Json::Arr(
        attempts
            .iter()
            .map(|a| {
                json::obj(vec![
                    ("class", Json::Str(a.class.name().to_string())),
                    ("error", Json::Str(a.error.clone())),
                    ("backoff_ms", Json::Num(a.backoff_ms as f64)),
                    ("wall_ms", Json::Num(a.wall_ms as f64)),
                ])
            })
            .collect(),
    )
}

fn attempts_from_json(j: &Json) -> Option<Vec<AttemptRecord>> {
    j.as_arr()?
        .iter()
        .map(|a| {
            Some(AttemptRecord {
                class: FailClass::from_name(a.get("class")?.as_str()?)?,
                error: a.get("error")?.as_str()?.to_string(),
                backoff_ms: a.get("backoff_ms")?.as_u64()?,
                wall_ms: a.get("wall_ms")?.as_u64()?,
            })
        })
        .collect()
}

/// One [`JobTrouble`] as a JSON object — also the line format of
/// `results/run_all_failures.jsonl`.
pub fn trouble_json(t: &JobTrouble) -> Json {
    json::obj(vec![
        ("label", Json::Str(t.label.clone())),
        ("spec_hash", Json::Str(t.spec_hash.clone())),
        ("worker", Json::Str(t.worker.clone())),
        ("outcome", Json::Str(t.outcome.name().to_string())),
        ("attempts", attempts_json(&t.attempts)),
    ])
}

fn trouble_from_json(j: &Json) -> Option<JobTrouble> {
    Some(JobTrouble {
        label: j.get("label")?.as_str()?.to_string(),
        spec_hash: j.get("spec_hash")?.as_str()?.to_string(),
        worker: j.get("worker")?.as_str()?.to_string(),
        outcome: JobOutcome::from_name(j.get("outcome")?.as_str()?)?,
        attempts: attempts_from_json(j.get("attempts")?)?,
    })
}

fn write_tombstone(dir: &Path, kind: &str, key: &str, t: &Tombstone) -> std::io::Result<()> {
    let body = json::obj(vec![
        ("label", Json::Str(t.label.clone())),
        ("spec_hash", Json::Str(t.spec_hash.clone())),
        ("worker", Json::Str(t.worker.clone())),
        ("error", Json::Str(t.error.clone())),
        ("outcome", Json::Str(t.outcome.name().to_string())),
        ("attempts", attempts_json(&t.attempts)),
    ]);
    write_atomic(&tombstone_path(dir, kind, key), &body.render())
}

/// Read a peer's tombstone for `(kind, key)`, if any. An unparseable
/// file reads as absent: the job is simply re-claimed, re-fails, and
/// the tombstone is rewritten — self-healing, like the cache.
pub fn read_tombstone(dir: &Path, kind: &str, key: &str) -> Option<Tombstone> {
    let text = std::fs::read_to_string(tombstone_path(dir, kind, key)).ok()?;
    let j = Json::parse(&text)?;
    Some(Tombstone {
        label: j.get("label")?.as_str()?.to_string(),
        spec_hash: j.get("spec_hash")?.as_str()?.to_string(),
        worker: j.get("worker")?.as_str()?.to_string(),
        error: j.get("error")?.as_str()?.to_string(),
        outcome: JobOutcome::from_name(j.get("outcome")?.as_str()?)?,
        attempts: attempts_from_json(j.get("attempts")?)?,
    })
}

/// Serialise a worker's [`RunReport`] for the coordinator.
pub fn report_json(worker: &str, r: &RunReport) -> Json {
    json::obj(vec![
        ("worker", Json::Str(worker.to_string())),
        ("total", Json::Num(r.total as f64)),
        ("executed", Json::Num(r.executed as f64)),
        ("cache_hits", Json::Num(r.cache_hits as f64)),
        (
            "failed",
            Json::Arr(
                r.failed
                    .iter()
                    .map(|(l, e)| Json::Arr(vec![Json::Str(l.clone()), Json::Str(e.clone())]))
                    .collect(),
            ),
        ),
        ("retried", Json::Num(r.retried as f64)),
        ("recovered", Json::Num(r.recovered as f64)),
        ("timed_out", Json::Num(r.timed_out as f64)),
        ("corrupt", Json::Num(r.corrupt as f64)),
        ("quarantined", Json::Num(r.quarantined as f64)),
        ("stolen", Json::Num(r.stolen as f64)),
        ("lost", Json::Num(r.lost as f64)),
        ("reaped", Json::Num(r.reaped as f64)),
        ("wall_ms", Json::Num(r.wall.as_millis() as f64)),
        (
            "trouble",
            Json::Arr(r.trouble.iter().map(trouble_json).collect()),
        ),
    ])
}

/// Inverse of [`report_json`].
pub fn report_from_json(j: &Json) -> Option<(String, RunReport)> {
    let failed = j
        .get("failed")?
        .as_arr()?
        .iter()
        .map(|pair| {
            let p = pair.as_arr()?;
            Some((
                p.first()?.as_str()?.to_string(),
                p.get(1)?.as_str()?.to_string(),
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let trouble = j
        .get("trouble")?
        .as_arr()?
        .iter()
        .map(trouble_from_json)
        .collect::<Option<Vec<_>>>()?;
    let report = RunReport {
        total: j.get("total")?.as_u64()? as usize,
        executed: j.get("executed")?.as_u64()? as usize,
        cache_hits: j.get("cache_hits")?.as_u64()? as usize,
        failed,
        retried: j.get("retried")?.as_u64()? as usize,
        recovered: j.get("recovered")?.as_u64()? as usize,
        timed_out: j.get("timed_out")?.as_u64()? as usize,
        corrupt: j.get("corrupt")?.as_u64()?,
        quarantined: j.get("quarantined")?.as_u64()?,
        trouble,
        stolen: j.get("stolen")?.as_u64()?,
        lost: j.get("lost")?.as_u64()?,
        reaped: j.get("reaped")?.as_u64()?,
        workers: 1,
        wall: Duration::from_millis(j.get("wall_ms")?.as_u64()?),
    };
    Some((j.get("worker")?.as_str()?.to_string(), report))
}

/// Publish this worker's report under `<fabric_dir>/reports/`.
pub fn write_worker_report(dir: &Path, worker: &str, report: &RunReport) -> std::io::Result<()> {
    write_atomic(
        &dir.join("reports").join(format!("{worker}.json")),
        &report_json(worker, report).render(),
    )
}

/// Collect every published worker report, sorted by worker id.
/// Unparseable files are skipped: a report torn by a kill only loses
/// attribution detail — the coordinator's final pass re-derives the
/// authoritative outcome regardless.
pub fn read_worker_reports(dir: &Path) -> Vec<(String, RunReport)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir.join("reports")) else {
        return out;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        if entry.path().extension().is_none_or(|e| e != "json") {
            continue;
        }
        if let Some(parsed) = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|text| Json::parse(&text))
            .and_then(|j| report_from_json(&j))
        {
            out.push(parsed);
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

// ---------------------------------------------------------------------------
// The worker loop.
// ---------------------------------------------------------------------------

/// One lease this worker won in the current poll round.
struct Claim {
    /// The job's entry in the pass's identity table.
    node: usize,
    kind: &'static str,
    key: String,
    spec_hash: String,
    label: String,
    /// Cumulative attempt counter carried from stolen leases (0 for a
    /// fresh claim).
    start_attempt: u32,
    /// Ownership token checked by the store gate and the heartbeat.
    nonce: String,
    /// `(previous owner, attempts it consumed)` when stolen.
    prior: Option<(String, u32)>,
}

fn stable_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Execute `jobs` cooperatively: resolve what peers (or earlier runs)
/// already committed from the cache, lease and execute what is free,
/// steal what dead or wedged peers hold, and wait out what live peers
/// are executing. Returns the same `(store, report)` contract as
/// [`Engine::run`]; the report's fabric counters (`stolen`, `lost`)
/// record this worker's share of the chaos.
pub fn run_worker(
    engine: &Engine,
    jobs: &[SimJob],
    cfg: &FabricConfig,
) -> (ResultStore, RunReport) {
    let t0 = Instant::now();
    let JobGraph { ids, order } = expand_graph(jobs);
    let total = order.len();
    let mut store = ResultStore::over(ids);
    let mut report = RunReport {
        total,
        workers: 1,
        ..RunReport::default()
    };
    let (corrupt0, quarantined0) = (
        engine.cache.stats.corrupt_count(),
        engine.cache.stats.quarantined_count(),
    );
    let _ = std::fs::create_dir_all(cfg.fabric_dir.join("failed"));

    // Heartbeat registry: (kind, key) -> (nonce, stalled). One thread
    // touches every live claim's lease mtime; an injected
    // `HeartbeatStall` marks the claim so the thread skips it — the
    // owner keeps executing while its lease goes stale, which is
    // exactly the wedged-worker scenario the steal + store-gate pair
    // must absorb.
    type Registry = Arc<Mutex<HashMap<(String, String), (String, bool)>>>;
    let registry: Registry = Arc::default();
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&hb_stop);
        // The thread gets its own Cache handle on the same root:
        // heartbeating is pure filesystem work and must not contend on
        // the engine's fault plan or stats.
        let cache = Cache::new(engine.cache().root());
        let period = Duration::from_secs_f64((cfg.lease_ttl / 4.0).clamp(0.01, 0.5));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for ((kind, key), (nonce, stalled)) in
                    registry.lock().expect("heartbeat registry").iter()
                {
                    if !*stalled {
                        cache.heartbeat(kind, key, nonce);
                    }
                }
                std::thread::sleep(period);
            }
        })
    };
    let watchdog = Arc::new(Watchdog::default());
    let patrol = {
        let w = Arc::clone(&watchdog);
        std::thread::spawn(move || w.patrol())
    };

    let mut resolved = 0usize;
    let mut claim_seq = 0u64;
    let mut nonce_seq = 0u64;
    let nonce_base = format!("{}:{}", cfg.worker_id, std::process::id());

    // Distinct waves actually present, ascending — the classic three
    // plus one per prefix-chain depth when the plan was prefix-factored
    // (identical on every worker: all expand the same manifest).
    let mut waves: Vec<usize> = order.iter().map(|&i| store.ids.entry(i).0.wave()).collect();
    waves.sort_unstable();
    waves.dedup();
    for wave in waves {
        let mut pending: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| store.ids.entry(i).0.wave() == wave)
            .collect();
        // Stagger the claim order across workers so peers race
        // different jobs first. Pure contention relief — correctness
        // never depends on who claims what.
        if !pending.is_empty() {
            let rot = (stable_hash(&cfg.worker_id) as usize) % pending.len();
            pending.rotate_left(rot);
        }
        // Poll rounds until the wave is fully resolved (waves are
        // barriers: wave N+1 keys hash wave-N outputs).
        while !pending.is_empty() {
            let mut next_round: Vec<usize> = Vec::new();
            let mut claims: Vec<Claim> = Vec::new();
            for node in pending.drain(..) {
                let (job, id) = store.ids.entry(node);
                let spec_hash = id.hash.to_string();
                let CacheKey { kind, key } = match engine.identify(job, id, &store) {
                    Ok(k) => k,
                    Err(error) => {
                        resolved += 1;
                        engine.emit(
                            &job.label(),
                            &spec_hash,
                            JobStatus::Failed,
                            EventDetail {
                                error: Some(error.clone()),
                                ..EventDetail::default()
                            },
                        );
                        report.failed.push((job.label(), error.clone()));
                        report.trouble.push(JobTrouble {
                            label: job.label(),
                            spec_hash,
                            worker: cfg.worker_id.clone(),
                            attempts: vec![AttemptRecord {
                                class: FailClass::Dependency,
                                error: error.clone(),
                                backoff_ms: 0,
                                wall_ms: 0,
                            }],
                            outcome: JobOutcome::Failed,
                        });
                        store.insert(node, Err(error), 0.0);
                        continue;
                    }
                };
                // A peer proved this job fails deterministically: adopt
                // the verdict (the peer's report carries the history).
                if let Some(t) = read_tombstone(&cfg.fabric_dir, kind, &key) {
                    resolved += 1;
                    if t.outcome == JobOutcome::TimedOut {
                        report.timed_out += 1;
                    }
                    engine.emit(
                        &t.label,
                        &spec_hash,
                        JobStatus::Failed,
                        EventDetail {
                            error: Some(t.error.clone()),
                            ..EventDetail::default()
                        },
                    );
                    report.failed.push((t.label, t.error.clone()));
                    store.insert(node, Err(t.error), 0.0);
                    continue;
                }
                // A peer (or an earlier run) may have committed it.
                let skip_cache =
                    engine.retrain && matches!(job, SimJob::Train(_) | SimJob::Sample(_));
                if !skip_cache {
                    if let Lookup::Hit(body, wall) = engine.cache.lookup(kind, &key) {
                        if let Some(out) = JobOutput::from_text(kind, &body) {
                            resolved += 1;
                            report.cache_hits += 1;
                            engine.emit(
                                &job.label(),
                                &spec_hash,
                                JobStatus::Hit,
                                EventDetail {
                                    wall,
                                    ..EventDetail::default()
                                },
                            );
                            if !engine.quiet {
                                eprintln!(
                                    "[{}] {resolved}/{total} {} hit",
                                    cfg.worker_id,
                                    job.label()
                                );
                            }
                            store.insert(node, Ok(out), wall);
                            continue;
                        }
                    }
                }
                if claims.len() >= cfg.claim_cap {
                    next_round.push(node);
                    continue;
                }
                // The lease state machine: free → claim; stale (dead
                // worker's heartbeat, straggler past the threshold, or
                // a torn write that aged out) → steal, carrying the
                // attempt count; held and fresh → the owner's this
                // round.
                let mut start_attempt = 0u32;
                let mut prior: Option<(String, u32)> = None;
                match engine.cache.read_lease(kind, &key) {
                    None => {}
                    Some(Ok(l)) => {
                        let hb_age = engine.cache.lease_age(kind, &key).unwrap_or(0.0);
                        let dead = hb_age >= cfg.lease_ttl;
                        let straggler = cfg.steal_after.is_some_and(|s| l.claim_age() >= s);
                        if !(dead || straggler) {
                            next_round.push(node);
                            continue;
                        }
                        // Straggler steals pass min_age 0: the owner
                        // still heartbeats, so an mtime threshold would
                        // never admit the steal.
                        let min_age = if dead { cfg.lease_ttl } else { 0.0 };
                        match engine.cache.try_steal(kind, &key, min_age) {
                            Some(n) => {
                                // The death consumed the attempt the
                                // lease recorded; resume past it.
                                // Clamped so worker deaths alone can
                                // never exhaust a retry budget that
                                // real failures did not.
                                start_attempt = (n + 1).min(engine.max_retries);
                                prior = Some((l.worker, n + 1));
                            }
                            None => {
                                next_round.push(node);
                                continue;
                            }
                        }
                    }
                    Some(Err(age)) => {
                        // A torn lease claims nothing and heartbeats
                        // never (its owner is unverifiable), so it ages
                        // out like a dead worker's.
                        if age < cfg.lease_ttl {
                            next_round.push(node);
                            continue;
                        }
                        match engine.cache.try_steal(kind, &key, cfg.lease_ttl) {
                            Some(n) => {
                                start_attempt = (n + 1).min(engine.max_retries);
                                prior = Some(("unknown (torn lease)".to_string(), n + 1));
                            }
                            None => {
                                next_round.push(node);
                                continue;
                            }
                        }
                    }
                }
                if prior.is_some() {
                    report.stolen += 1;
                }
                nonce_seq += 1;
                let nonce = format!("{nonce_base}:{nonce_seq}");
                if !engine.cache.try_claim(
                    kind,
                    &key,
                    &LeaseInfo::new(&cfg.worker_id, &nonce, start_attempt),
                ) {
                    next_round.push(node);
                    continue;
                }
                claim_seq += 1;
                // Injected chaos, rolled per claim: a worker kill takes
                // the whole process down right after claiming — the
                // lease survives with a frozen mtime, exactly a
                // SIGKILL's footprint.
                if cfg.allow_kills {
                    if let Some(plan) = engine.faults.as_deref() {
                        if plan.worker_kill(&cfg.worker_id, claim_seq) {
                            eprintln!(
                                "[{}] injected fault: worker kill at claim #{claim_seq}",
                                cfg.worker_id
                            );
                            std::process::abort();
                        }
                    }
                }
                let stalled = engine
                    .faults
                    .as_deref()
                    .is_some_and(|p| p.heartbeat_stall(&key, start_attempt));
                registry
                    .lock()
                    .expect("heartbeat registry")
                    .insert((kind.to_string(), key.clone()), (nonce.clone(), stalled));
                claims.push(Claim {
                    node,
                    kind,
                    key,
                    spec_hash,
                    label: job.label(),
                    start_attempt,
                    nonce,
                    prior,
                });
            }

            if claims.is_empty() {
                if !next_round.is_empty() {
                    std::thread::sleep(Duration::from_millis(cfg.poll_ms));
                }
                pending = next_round;
                continue;
            }

            let dispositions = crate::parallel::parallel_map(&claims, |c| {
                let (job, id) = store.ids.entry(c.node);
                let gate = || engine.cache.owns(c.kind, &c.key, &c.nonce);
                engine.run_one(job, id, &store, &watchdog, c.start_attempt, Some(&gate))
            });

            for (c, d) in claims.into_iter().zip(dispositions) {
                registry
                    .lock()
                    .expect("heartbeat registry")
                    .remove(&(c.kind.to_string(), c.key.clone()));
                if d.lost {
                    // Our lease was stolen mid-run and the finished
                    // result discarded at the store gate: the thief
                    // owns the job now — go back to waiting on it.
                    report.lost += 1;
                    if !engine.quiet {
                        eprintln!(
                            "[{}] {} lease stolen mid-run; result discarded",
                            cfg.worker_id, c.label
                        );
                    }
                    next_round.push(c.node);
                    continue;
                }
                resolved += 1;
                // Attempts consumed by previous owners surface as one
                // synthetic record, so reports show the whole
                // cross-process history of the job.
                let mut attempts = d.attempts;
                if let Some((prior_worker, n)) = &c.prior {
                    attempts.insert(
                        0,
                        AttemptRecord {
                            class: FailClass::Transient,
                            error: format!(
                                "{n} attempt(s) by previous owner {prior_worker}; \
                                 lease stolen as stale"
                            ),
                            backoff_ms: 0,
                            wall_ms: 0,
                        },
                    );
                }
                if !engine.quiet {
                    let status = match (&d.result, d.was_hit) {
                        (Ok(_), true) => "hit".to_string(),
                        (Ok(_), false) if attempts.is_empty() => format!("ran {:.2}s", d.wall),
                        (Ok(_), false) => format!(
                            "ran {:.2}s (recovered after {} failed attempt(s))",
                            d.wall,
                            attempts.len()
                        ),
                        (Err(e), _) => format!("FAILED: {e}"),
                    };
                    eprintln!(
                        "[{}] {resolved}/{total} {} {status}",
                        cfg.worker_id, c.label
                    );
                }
                match &d.result {
                    Ok(_) if d.was_hit => report.cache_hits += 1,
                    Ok(_) => {
                        report.executed += 1;
                        if !attempts.is_empty() {
                            report.retried += 1;
                            report.recovered += 1;
                            report.trouble.push(JobTrouble {
                                label: c.label.clone(),
                                spec_hash: c.spec_hash.clone(),
                                worker: cfg.worker_id.clone(),
                                attempts: attempts.clone(),
                                outcome: JobOutcome::Recovered,
                            });
                        }
                    }
                    Err(e) => {
                        report.failed.push((c.label.clone(), e.clone()));
                        let timed_out = attempts
                            .last()
                            .is_some_and(|a| a.class == FailClass::Timeout);
                        if timed_out {
                            report.timed_out += 1;
                        }
                        if attempts.len() > 1 {
                            report.retried += 1;
                        }
                        let outcome = if timed_out {
                            JobOutcome::TimedOut
                        } else {
                            JobOutcome::Failed
                        };
                        let _ = write_tombstone(
                            &cfg.fabric_dir,
                            c.kind,
                            &c.key,
                            &Tombstone {
                                label: c.label.clone(),
                                spec_hash: c.spec_hash.clone(),
                                worker: cfg.worker_id.clone(),
                                error: e.clone(),
                                outcome,
                                attempts: attempts.clone(),
                            },
                        );
                        report.trouble.push(JobTrouble {
                            label: c.label.clone(),
                            spec_hash: c.spec_hash,
                            worker: cfg.worker_id.clone(),
                            attempts,
                            outcome,
                        });
                    }
                }
                engine.cache.release(c.kind, &c.key, &c.nonce);
                store.insert(c.node, d.result, d.wall);
            }
            pending = next_round;
        }
    }

    hb_stop.store(true, Ordering::Relaxed);
    let _ = hb.join();
    watchdog.stop.store(true, Ordering::Relaxed);
    let _ = patrol.join();

    report.corrupt = engine.cache.stats.corrupt_count() - corrupt0;
    report.quarantined = engine.cache.stats.quarantined_count() - quarantined0;
    report.wall = t0.elapsed();
    if !engine.quiet {
        eprintln!("[{}] {}", cfg.worker_id, report.summary_line());
    }
    (store, report)
}

// ---------------------------------------------------------------------------
// Minimal JSON.
// ---------------------------------------------------------------------------

pub mod json {
    //! A tiny JSON subset — objects, arrays, strings, finite numbers,
    //! bools, null — for the fabric's reports, tombstones and the
    //! failures JSONL. Hand-rolled because the repo takes no external
    //! dependencies; the only producers and consumers are this
    //! codebase, so the subset is closed.

    /// A JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    /// Object from `(&str, Json)` pairs, in order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    impl Json {
        /// Render to compact JSON text.
        pub fn render(&self) -> String {
            let mut s = String::new();
            self.write(&mut s);
            s
        }

        fn write(&self, out: &mut String) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(n) => {
                    // Integers render without a fraction so counters
                    // round-trip exactly through `as_u64`.
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                }
                Json::Str(s) => {
                    out.push('"');
                    for ch in s.chars() {
                        match ch {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\r' => out.push_str("\\r"),
                            '\t' => out.push_str("\\t"),
                            c if (c as u32) < 0x20 => {
                                out.push_str(&format!("\\u{:04x}", c as u32));
                            }
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                }
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write(out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        Json::Str(k.clone()).write(out);
                        out.push(':');
                        v.write(out);
                    }
                    out.push('}');
                }
            }
        }

        /// Parse JSON text; `None` on any syntax error or trailing
        /// garbage (a torn artifact must read as absent, never as a
        /// half-truth).
        pub fn parse(text: &str) -> Option<Json> {
            let chars: Vec<char> = text.chars().collect();
            let mut p = Parser { chars, pos: 0 };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos == p.chars.len() {
                Some(v)
            } else {
                None
            }
        }

        /// Field lookup on an object.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer (counters).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn next(&mut self) -> Option<char> {
            let c = self.peek()?;
            self.pos += 1;
            Some(c)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, c: char) -> Option<()> {
            (self.next()? == c).then_some(())
        }

        fn lit(&mut self, word: &str, value: Json) -> Option<Json> {
            for c in word.chars() {
                self.eat(c)?;
            }
            Some(value)
        }

        fn value(&mut self) -> Option<Json> {
            self.skip_ws();
            match self.peek()? {
                't' => self.lit("true", Json::Bool(true)),
                'f' => self.lit("false", Json::Bool(false)),
                'n' => self.lit("null", Json::Null),
                '"' => self.string().map(Json::Str),
                '[' => self.array(),
                '{' => self.object(),
                '-' | '0'..='9' => self.number(),
                _ => None,
            }
        }

        fn string(&mut self) -> Option<String> {
            self.eat('"')?;
            let mut s = String::new();
            loop {
                match self.next()? {
                    '"' => return Some(s),
                    '\\' => match self.next()? {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        '/' => s.push('/'),
                        'n' => s.push('\n'),
                        'r' => s.push('\r'),
                        't' => s.push('\t'),
                        'b' => s.push('\u{8}'),
                        'f' => s.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                code = code * 16 + self.next()?.to_digit(16)?;
                            }
                            s.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    },
                    c => s.push(c),
                }
            }
        }

        fn number(&mut self) -> Option<Json> {
            let start = self.pos;
            if self.peek() == Some('-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
                self.pos += 1;
            }
            let text: String = self.chars[start..self.pos].iter().collect();
            let n: f64 = text.parse().ok()?;
            n.is_finite().then_some(Json::Num(n))
        }

        fn array(&mut self) -> Option<Json> {
            self.eat('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.next()? {
                    ',' => {}
                    ']' => return Some(Json::Arr(items)),
                    _ => return None,
                }
            }
        }

        fn object(&mut self) -> Option<Json> {
            self.eat('{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(':')?;
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.next()? {
                    ',' => {}
                    '}' => return Some(Json::Obj(fields)),
                    _ => return None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::KernelRunSpec;
    use crate::profiler::{GridSpec, ProfileWindow};
    use crate::Scheme;
    use workloads::{AccessMix, KernelSpec, Workload};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("poise-fabric-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_setup() -> Setup {
        let mut s = Setup::for_tests();
        s.run_cycles = 10_000;
        s.eval_grid = GridSpec::diagonal(6);
        s.profile_window = ProfileWindow {
            warmup: 200,
            measure: 800,
        };
        s
    }

    fn kernel(seed: u64) -> Workload {
        KernelSpec::steady(format!("fk{seed}"), AccessMix::memory_sensitive(), seed).into()
    }

    fn jobs(setup: &Setup, seeds: &[u64]) -> Vec<SimJob> {
        seeds
            .iter()
            .map(|&s| SimJob::Run(KernelRunSpec::new(&kernel(s), Scheme::Gto, setup, None)))
            .collect()
    }

    #[test]
    fn json_round_trips_escapes_and_nesting() {
        let v = json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd\te\u{1}".to_string())),
            ("n", Json::Num(42.0)),
            ("f", Json::Num(-0.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            (
                "arr",
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Str("x".into()),
                    Json::Arr(vec![]),
                ]),
            ),
            ("obj", json::obj(vec![("k", Json::Str("v".into()))])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text), Some(v));
        // Torn artifacts read as absent, never as half-truths.
        assert_eq!(Json::parse(&text[..text.len() - 3]), None);
        assert_eq!(Json::parse(&format!("{text}garbage")), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn worker_report_and_tombstone_round_trip() {
        let report = RunReport {
            total: 7,
            executed: 3,
            cache_hits: 2,
            failed: vec![("job a".into(), "boom \"quoted\"".into())],
            retried: 1,
            recovered: 1,
            timed_out: 1,
            corrupt: 1,
            quarantined: 1,
            stolen: 2,
            lost: 1,
            reaped: 0,
            workers: 1,
            trouble: vec![JobTrouble {
                label: "job a".into(),
                spec_hash: "abc123".into(),
                worker: "w1".into(),
                attempts: vec![AttemptRecord {
                    class: FailClass::Timeout,
                    error: "timed out after 1.0s".into(),
                    backoff_ms: 50,
                    wall_ms: 1000,
                }],
                outcome: JobOutcome::TimedOut,
            }],
            wall: Duration::from_millis(1234),
        };
        let j = report_json("w1", &report);
        let (worker, back) = report_from_json(&Json::parse(&j.render()).unwrap()).unwrap();
        assert_eq!(worker, "w1");
        assert_eq!(back.total, 7);
        assert_eq!(back.failed, report.failed);
        assert_eq!(back.stolen, 2);
        assert_eq!(back.lost, 1);
        assert_eq!(back.wall, Duration::from_millis(1234));
        assert_eq!(back.trouble.len(), 1);
        assert_eq!(back.trouble[0].outcome, JobOutcome::TimedOut);
        assert_eq!(back.trouble[0].attempts[0].class, FailClass::Timeout);
        assert_eq!(back.trouble[0].attempts[0].wall_ms, 1000);

        let dir = tmp_dir("tomb");
        let t = Tombstone {
            label: "job b".into(),
            spec_hash: "def".into(),
            worker: "w2".into(),
            error: "panicked: index out of bounds".into(),
            outcome: JobOutcome::Failed,
            attempts: vec![],
        };
        write_tombstone(&dir, "run", "k0", &t).unwrap();
        let back = read_tombstone(&dir, "run", "k0").unwrap();
        assert_eq!(back.error, t.error);
        assert_eq!(back.outcome, JobOutcome::Failed);
        assert!(read_tombstone(&dir, "run", "k1").is_none());
        // A torn tombstone reads as absent.
        std::fs::write(tombstone_path(&dir, "run", "k2"), "{\"label\": \"tr").unwrap();
        assert!(read_tombstone(&dir, "run", "k2").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_catches_job_graph_skew() {
        let dir = tmp_dir("manifest");
        let setup = tiny_setup();
        let a = jobs(&setup, &[1, 2]);
        let b = jobs(&setup, &[1, 3]);
        assert!(verify_manifest(&dir, &a).is_err(), "no manifest yet");
        write_manifest(&dir, &a).unwrap();
        verify_manifest(&dir, &a).expect("same jobs agree");
        let err = verify_manifest(&dir, &b).unwrap_err();
        assert!(err.contains("skew"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_worker_drains_the_graph_and_leaves_no_leases() {
        let dir = tmp_dir("drain");
        let mut engine = Engine::new(dir.join("cache"));
        engine.quiet = true;
        let setup = tiny_setup();
        let js = jobs(&setup, &[10, 11]);
        let cfg = FabricConfig {
            fabric_dir: dir.join("fabric"),
            worker_id: "w1".into(),
            lease_ttl: 2.0,
            steal_after: None,
            poll_ms: 5,
            allow_kills: false,
            claim_cap: 8,
        };
        let (store, report) = run_worker(&engine, &js, &cfg);
        assert_eq!(report.failed.len(), 0, "failures: {:?}", report.failed);
        assert_eq!(report.executed, report.total);
        assert!(store.get(&js[0]).is_ok() && store.get(&js[1]).is_ok());
        let leases = std::fs::read_dir(engine.cache().leases_root())
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leases, 0, "every lease must be released");

        // A second worker over the same store resolves everything from
        // cache without claiming anything.
        let (store2, report2) = run_worker(&engine, &js, &cfg);
        assert_eq!(report2.executed, 0);
        assert_eq!(report2.cache_hits, report2.total);
        let a = store.get(&js[0]).unwrap().as_run().unwrap();
        let b = store2.get(&js[0]).unwrap().as_run().unwrap();
        assert_eq!(a.counters, b.counters, "warm pass must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The late-waker scenario of the lease protocol: a worker's lease
    /// is heartbeat-stale, a peer steals it and re-claims; when the
    /// original worker's execution finally finishes, its store attempt
    /// must be discarded (not double-committed) and flagged `lost`.
    #[test]
    fn late_waking_owner_discards_its_store_attempt() {
        let dir = tmp_dir("latewake");
        let mut engine = Engine::new(dir.join("cache"));
        engine.quiet = true;
        let setup = tiny_setup();
        let job = SimJob::Run(KernelRunSpec::new(&kernel(20), Scheme::Gto, &setup, None));
        let store = ResultStore::default();
        // Resolve the dependency-free identity of the profile dep first:
        // use the leaf profile job itself so no deps are needed.
        let leaf = job.deps().into_iter().next().unwrap_or(job.clone());
        let leaf_id = crate::jobs::Identity::of(&leaf);
        let id = engine
            .identify(&leaf, &leaf_id, &store)
            .expect("leaf has no deps");

        // Original worker claims…
        assert!(engine
            .cache()
            .try_claim(id.kind, &id.key, &LeaseInfo::new("w1", "nonce-w1", 0)));
        // …its heartbeat stalls; a peer steals and re-claims.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(engine.cache().try_steal(id.kind, &id.key, 0.02), Some(0));
        assert!(engine
            .cache()
            .try_claim(id.kind, &id.key, &LeaseInfo::new("w2", "nonce-w2", 1)));

        // The original worker wakes up late and finishes its run: the
        // store gate (ownership check on its own nonce) must refuse.
        let watchdog = Watchdog::default();
        let gate = || engine.cache().owns(id.kind, &id.key, "nonce-w1");
        let d = engine.run_one(&leaf, &leaf_id, &store, &watchdog, 0, Some(&gate));
        assert!(d.lost, "late waker must discard, not double-commit");
        assert!(d.result.is_err());
        assert!(
            matches!(engine.cache().lookup(id.kind, &id.key), Lookup::Miss),
            "nothing may be committed by the losing worker"
        );

        // The thief's own store attempt (gate on its nonce) commits.
        let gate2 = || engine.cache().owns(id.kind, &id.key, "nonce-w2");
        let d2 = engine.run_one(&leaf, &leaf_id, &store, &watchdog, 1, Some(&gate2));
        assert!(!d2.lost);
        assert!(d2.result.is_ok());
        assert!(matches!(
            engine.cache().lookup(id.kind, &id.key),
            Lookup::Hit(_, _)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
