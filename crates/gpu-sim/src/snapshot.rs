//! Versioned, serializable snapshots of full [`Gpu`] state.
//!
//! A snapshot captures the complete architectural state of the machine at a
//! **controller barrier** — the only points where every SM's local clock
//! equals the global cycle and the shared memory system holds no pending
//! requests (the decoupled loops assert exactly this at every epoch end).
//! Restoring a snapshot onto a freshly constructed GPU of the same
//! configuration and kernel, then continuing with [`Gpu::resume`], is
//! bit-identical to an uninterrupted [`Gpu::run`]: counters, steering
//! trajectories and epoch logs all match, across every step mode. The
//! differential oracle in the `poise` crate proves this for every shipped
//! policy.
//!
//! ## What is (and is not) serialized
//!
//! Serialized: the global cycle and drain flag, cumulative and windowed
//! counters, per-SM scheduler tuples and greedy favourites, complete warp
//! state (with instruction streams represented by their consumed-prefix
//! length and replayed on restore — streams are arbitrary boxed iterators
//! and deterministic by construction), L1 tag stores, MSHR files (entries,
//! merge list, free stack), per-PC counters and bypass flags, per-SM event
//! queues (future completions) and their sequence counters, L2 bank tag
//! stores and service clocks, and DRAM partition clocks.
//!
//! Excluded, because it is either re-derivable or barrier-quiescent by the
//! invariant above: configuration (rebuilt from the spec), per-SM local
//! clocks (equal to the global cycle), per-SM drain cycles (re-detected; an
//! all-drained machine is short-circuited by the drain flag), memory-system
//! ports and front heap (empty), the run loop's frontier heap (scratch)
//! and fast-forward diagnostics (not architectural). Snapshots are therefore
//! **step-mode independent**: a blob taken under one mode restores under
//! any other.
//!
//! ## Format
//!
//! A line-oriented text format headed by `gpu-snapshot v1`. Every writer
//! below exhaustively destructures the struct it encodes (no `..`), so
//! adding a field to [`Gpu`], [`Sm`], [`Warp`], [`MemSystem`], … fails to
//! compile until the author decides whether it is serialized or excluded —
//! the same guard `spec_render` gives the job-spec grammar.

use std::cmp::Reverse;
use std::fmt::Write as _;

use crate::cache::{CacheLineState, Line, SetAssocCache};
use crate::config::GpuConfig;
use crate::gpu::{EventQueue, Gpu, QueuedEvent};
use crate::instruction::{Instr, KernelSource};
use crate::l1::{L1Data, MshrEntry, MshrWaiter, PcStats};
use crate::memsys::{L2Bank, MemSystem, Partition};
use crate::scheduler::WarpScheduler;
use crate::sm::Sm;
use crate::stats::{Counters, GpuStats};
use crate::warp::Warp;
use crate::WarpTuple;

/// First line of every snapshot; bump the version when the format changes.
pub const SNAPSHOT_HEADER: &str = "gpu-snapshot v1";

/// A malformed, truncated or mismatched snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError(msg.into()))
}

fn bool_code(b: bool) -> u8 {
    b as u8
}

fn state_code(s: CacheLineState) -> u8 {
    match s {
        CacheLineState::Invalid => 0,
        CacheLineState::Valid => 1,
        CacheLineState::Reserved => 2,
    }
}

fn state_from_code(c: u64) -> Option<CacheLineState> {
    match c {
        0 => Some(CacheLineState::Invalid),
        1 => Some(CacheLineState::Valid),
        2 => Some(CacheLineState::Reserved),
        _ => None,
    }
}

fn pending_code(p: &Option<Instr>) -> String {
    match p {
        None => "-".into(),
        Some(Instr::Alu) => "a".into(),
        Some(Instr::SyncLoads) => "y".into(),
        Some(Instr::Load { line, pc }) => format!("l:{line}:{pc}"),
        Some(Instr::Store { line, pc }) => format!("s:{line}:{pc}"),
    }
}

fn pending_from_code(s: &str) -> Result<Option<Instr>, SnapshotError> {
    if s == "-" {
        return Ok(None);
    }
    if s == "a" {
        return Ok(Some(Instr::Alu));
    }
    if s == "y" {
        return Ok(Some(Instr::SyncLoads));
    }
    let mut it = s.split(':');
    let kind = it.next().unwrap_or("");
    let line = it.next().and_then(|v| v.parse::<u64>().ok());
    let pc = it.next().and_then(|v| v.parse::<u32>().ok());
    match (kind, line, pc, it.next()) {
        ("l", Some(line), Some(pc), None) => Ok(Some(Instr::Load { line, pc })),
        ("s", Some(line), Some(pc), None) => Ok(Some(Instr::Store { line, pc })),
        _ => err(format!("bad pending instruction {s:?}")),
    }
}

fn u64_list(v: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = v.into_iter().map(|x| x.to_string()).collect();
    if items.is_empty() {
        "-".into()
    } else {
        items.join(",")
    }
}

fn u64_list_parse(s: &str) -> Result<Vec<u64>, SnapshotError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            t.parse::<u64>()
                .map_err(|_| SnapshotError(format!("bad list item {t:?}")))
        })
        .collect()
}

/// A cache line that differs from the pristine slot a fresh tag store
/// holds; pristine slots are omitted from the snapshot.
fn line_is_pristine(l: &Line) -> bool {
    let Line {
        tag,
        state,
        lru,
        touchers,
    } = *l;
    tag == 0 && state == CacheLineState::Invalid && lru == 0 && touchers == 0
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

impl Gpu {
    /// Serialize the full architectural state (see the module docs). Must
    /// be called at a barrier: between [`Gpu::run`] / [`Gpu::resume`]
    /// calls, where the memory system is quiescent by invariant.
    pub fn snapshot(&self) -> String {
        assert_eq!(
            self.mem.pending_requests(),
            0,
            "snapshot requires a barrier-quiesced machine"
        );
        let Gpu {
            cfg: _, // rebuilt from the spec by the restoring side
            sms,
            mem,
            events,
            stats,
            cycle,
            kernel_warps,
            drained,
            clocks: _,        // equal to `cycle` at barriers
            done_at: _,       // re-detected; all-drained ⇒ `drained` flag
            frontier_heap: _, // per-epoch scratch
        } = self;
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        let _ = writeln!(out, "cycle {cycle}");
        let _ = writeln!(out, "drained {}", bool_code(*drained));
        let _ = writeln!(out, "kernel-warps {kernel_warps}");
        let _ = writeln!(
            out,
            "geometry sms={} scheds={} warps={} l1-lines={} mshrs={} pcs={} l2-banks={} l2-lines={} parts={}",
            sms.len(),
            sms.first().map_or(0, |s| s.schedulers.len()),
            kernel_warps,
            sms.first().map_or(0, |s| s.l1.tags.lines.len()),
            sms.first().map_or(0, |s| s.l1.mshrs.len()),
            sms.first().map_or(0, |s| s.l1.pc_stats.len()),
            mem.banks.len(),
            mem.banks.first().map_or(0, |b| b.tags.lines.len()),
            mem.partitions.len(),
        );
        let GpuStats {
            total,
            window,
            fast_forward: _, // diagnostics
        } = stats;
        let _ = writeln!(out, "total {}", total.to_line());
        let _ = writeln!(out, "window {}", window.to_line());
        let EventQueue { queues, seqs } = events;
        for (i, sm) in sms.iter().enumerate() {
            write_sm(&mut out, sm, &queues[i], seqs[i]);
        }
        write_mem(&mut out, mem);
        out.push_str("end-snapshot\n");
        out
    }
}

fn write_sm(
    out: &mut String,
    sm: &Sm,
    queue: &std::collections::BinaryHeap<Reverse<QueuedEvent>>,
    evseq: u64,
) {
    let Sm {
        id,
        schedulers,
        warps,
        l1,
        hit_latency: _,  // from the config
        ready_mask: _,   // recomputed from the warps on restore
        live_warps: _,   // recomputed from the warps on restore
        use_memo: _,     // from the config
        fill_scratch: _, // scratch
    } = sm;
    let _ = writeln!(out, "sm {id}");
    let _ = writeln!(out, "evseq {evseq}");
    let mut evs: Vec<QueuedEvent> = queue.iter().map(|r| r.0).collect();
    evs.sort_unstable();
    for e in evs {
        let QueuedEvent {
            at,
            seq,
            ev_kind,
            ev_a,
            ev_b,
        } = e;
        let _ = writeln!(out, "ev {at} {seq} {ev_kind} {ev_a} {ev_b}");
    }
    for (si, sched) in schedulers.iter().enumerate() {
        let WarpScheduler {
            n_warps: _, // from the kernel/config
            tuple,
            greedy,
            rejected: _,      // reject memo: derived, empty on restore
            merge_limited: _, // reject memo: derived, empty on restore
            rejected_line: _, // reject memo: derived, empty on restore
        } = sched;
        let _ = writeln!(out, "sched {si} {} {} {greedy}", tuple.n, tuple.p);
    }
    for (si, ws) in warps.iter().enumerate() {
        for (wi, w) in ws.iter().enumerate() {
            let Warp {
                stream: _, // replayed via `fetched`
                pending,
                outstanding_loads,
                waiting_sync,
                done,
                instructions,
                since_last_load,
                seen_load,
                fetched,
                reuse_stack,
                seen_lines,
            } = w;
            let _ = writeln!(
                out,
                "warp {si} {wi} {fetched} {} {outstanding_loads} {} {} {instructions} {since_last_load} {}",
                pending_code(pending),
                bool_code(*waiting_sync),
                bool_code(*done),
                bool_code(*seen_load),
            );
            if let Some(stack) = reuse_stack {
                let _ = writeln!(out, "wreuse {si} {wi} {}", u64_list(stack.iter().copied()));
            }
            if !seen_lines.is_empty() {
                let mut v: Vec<u64> = seen_lines.iter().copied().collect();
                v.sort_unstable();
                let _ = writeln!(out, "wseen {si} {wi} {}", u64_list(v));
            }
        }
    }
    write_l1(out, l1);
    let _ = writeln!(out, "end-sm");
}

fn write_l1(out: &mut String, l1: &L1Data) {
    let L1Data {
        tags,
        mshrs,
        in_use,
        free,
        merge_limit: _, // from the config
        pc_stats,
        bypass_pc,
        track_pcs: _, // from the config
    } = l1;
    write_tag_store(out, "l1line", None, tags);
    let _ = writeln!(out, "l1stamp {}", tags.stamp);
    for (idx, e) in mshrs.iter().enumerate() {
        let MshrEntry {
            line,
            target,
            waiters,
            in_use,
        } = e;
        if !*in_use && *line == 0 && target.is_none() && waiters.is_empty() {
            continue; // pristine entry, as a fresh MSHR file holds
        }
        let target_code = match target {
            None => "-".into(),
            Some((s, w)) => format!("{s}:{w}"),
        };
        let waiters_code = if waiters.is_empty() {
            "-".into()
        } else {
            waiters
                .iter()
                .map(|mw| {
                    let MshrWaiter {
                        scheduler,
                        warp,
                        issued_at,
                    } = mw;
                    format!("{scheduler}:{warp}:{issued_at}")
                })
                .collect::<Vec<_>>()
                .join(";")
        };
        let _ = writeln!(
            out,
            "mshr {idx} {} {line} {target_code} {waiters_code}",
            bool_code(*in_use)
        );
    }
    if !in_use.is_empty() {
        let items: Vec<String> = in_use.iter().map(|(l, i)| format!("{l}:{i}")).collect();
        let _ = writeln!(out, "l1used {}", items.join(","));
    }
    let _ = writeln!(out, "l1free {}", u64_list(free.iter().map(|&x| x as u64)));
    for (idx, s) in pc_stats.iter().enumerate() {
        let PcStats {
            accesses,
            hits,
            intra_hits,
        } = s;
        if *accesses == 0 && *hits == 0 && *intra_hits == 0 {
            continue;
        }
        let _ = writeln!(out, "pcstat {idx} {accesses} {hits} {intra_hits}");
    }
    for (idx, b) in bypass_pc.iter().enumerate() {
        if *b {
            let _ = writeln!(out, "bypass {idx}");
        }
    }
}

/// Dump the non-pristine lines of a tag store, one `"<prefix> [bank] <idx>
/// <tag> <state> <lru> <touchers>"` line each.
fn write_tag_store(out: &mut String, prefix: &str, bank: Option<usize>, tags: &SetAssocCache) {
    let SetAssocCache {
        geometry: _, // from the config
        lines,
        stamp: _, // written by the caller (placement differs per store)
    } = tags;
    for (idx, l) in lines.iter().enumerate() {
        if line_is_pristine(l) {
            continue;
        }
        let Line {
            tag,
            state,
            lru,
            touchers,
        } = l;
        match bank {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "{prefix} {b} {idx} {tag} {} {lru} {touchers}",
                    state_code(*state)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{prefix} {idx} {tag} {} {lru} {touchers}",
                    state_code(*state)
                );
            }
        }
    }
}

fn write_mem(out: &mut String, mem: &MemSystem) {
    let MemSystem {
        banks,
        partitions,
        xbar_latency: _, // from the config
        l2_latency: _,
        l2_service: _,
        dram_latency: _,
        dram_service: _,
        ports,
        front_heap: _, // empty at barriers (asserted below)
    } = mem;
    debug_assert!(ports.iter().all(|p| p.is_empty()), "ports empty at barrier");
    for (i, b) in banks.iter().enumerate() {
        let L2Bank { tags, next_free } = b;
        let _ = writeln!(out, "l2bank {i} {next_free} {}", tags.stamp);
        write_tag_store(out, "l2line", Some(i), tags);
    }
    for (i, p) in partitions.iter().enumerate() {
        let Partition { next_free } = p;
        let _ = writeln!(out, "part {i} {next_free}");
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Geom {
    sms: usize,
    scheds: usize,
    warps: usize,
    l1_lines: usize,
    mshrs: usize,
    pcs: usize,
    l2_banks: usize,
    l2_lines: usize,
    parts: usize,
}

#[derive(Debug, Clone, Copy)]
struct LineDoc {
    tag: u64,
    state: CacheLineState,
    lru: u64,
    touchers: u64,
}

#[derive(Debug)]
struct WarpDoc {
    fetched: u64,
    pending: Option<Instr>,
    outstanding: u32,
    sync: bool,
    done: bool,
    instructions: u64,
    gap: u64,
    seen_load: bool,
    reuse: Option<Vec<u64>>,
    seen: Vec<u64>,
}

#[derive(Debug)]
struct MshrDoc {
    idx: usize,
    in_use: bool,
    line: u64,
    target: Option<(usize, usize)>,
    waiters: Vec<MshrWaiter>,
}

#[derive(Debug)]
struct SmDoc {
    id: usize,
    evseq: u64,
    events: Vec<QueuedEvent>,
    scheds: Vec<(usize, usize, usize)>,
    warps: Vec<WarpDoc>,
    l1_lines: Vec<(usize, LineDoc)>,
    l1_stamp: Option<u64>,
    mshrs: Vec<MshrDoc>,
    l1_used: Vec<(u64, u32)>,
    l1_free: Option<Vec<u32>>,
    pc_stats: Vec<(usize, u64, u64, u64)>,
    bypass: Vec<usize>,
}

#[derive(Debug)]
struct BankDoc {
    next_free: u64,
    stamp: u64,
    lines: Vec<(usize, LineDoc)>,
}

#[derive(Debug)]
struct SnapDoc {
    cycle: u64,
    drained: bool,
    kernel_warps: usize,
    geom: Geom,
    total: Counters,
    window: Counters,
    sms: Vec<SmDoc>,
    banks: Vec<BankDoc>,
    parts: Vec<u64>,
}

fn p_u64(s: Option<&str>, what: &str) -> Result<u64, SnapshotError> {
    s.and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| SnapshotError(format!("bad or missing {what}")))
}

fn p_usize(s: Option<&str>, what: &str) -> Result<usize, SnapshotError> {
    Ok(p_u64(s, what)? as usize)
}

fn p_bool(s: Option<&str>, what: &str) -> Result<bool, SnapshotError> {
    match p_u64(s, what)? {
        0 => Ok(false),
        1 => Ok(true),
        v => err(format!("bad {what} flag {v}")),
    }
}

fn parse_line_doc(
    it: &mut std::str::SplitWhitespace,
    max_idx: usize,
) -> Result<(usize, LineDoc), SnapshotError> {
    let idx = p_usize(it.next(), "line index")?;
    if idx >= max_idx {
        return err(format!("line index {idx} out of range {max_idx}"));
    }
    let tag = p_u64(it.next(), "line tag")?;
    let state = state_from_code(p_u64(it.next(), "line state")?)
        .ok_or_else(|| SnapshotError("bad line state".into()))?;
    let lru = p_u64(it.next(), "line lru")?;
    let touchers = p_u64(it.next(), "line touchers")?;
    Ok((
        idx,
        LineDoc {
            tag,
            state,
            lru,
            touchers,
        },
    ))
}

fn parse(text: &str) -> Result<SnapDoc, SnapshotError> {
    let mut lines = text.lines();
    if lines.next() != Some(SNAPSHOT_HEADER) {
        return err(format!("missing header {SNAPSHOT_HEADER:?}"));
    }
    let mut cycle = None;
    let mut drained = None;
    let mut kernel_warps = None;
    let mut geom: Option<Geom> = None;
    let mut total = None;
    let mut window = None;
    let mut sms: Vec<SmDoc> = Vec::new();
    let mut cur: Option<SmDoc> = None;
    let mut banks: Vec<BankDoc> = Vec::new();
    let mut parts: Vec<u64> = Vec::new();
    let mut ended = false;
    for (lineno, raw) in lines.enumerate() {
        let lineno = lineno + 2; // 1-based, after the header
        if ended {
            return err(format!("line {lineno}: content after end-snapshot"));
        }
        let mut it = raw.split_whitespace();
        let Some(tag) = it.next() else {
            return err(format!("line {lineno}: empty line"));
        };
        let ctx = |m: String| SnapshotError(format!("line {lineno}: {m}"));
        let res: Result<(), SnapshotError> = (|| {
            match tag {
                "cycle" => cycle = Some(p_u64(it.next(), "cycle")?),
                "drained" => drained = Some(p_bool(it.next(), "drained")?),
                "kernel-warps" => kernel_warps = Some(p_usize(it.next(), "kernel-warps")?),
                "geometry" => {
                    const FIELDS: [&str; 9] = [
                        "sms", "scheds", "warps", "l1-lines", "mshrs", "pcs", "l2-banks",
                        "l2-lines", "parts",
                    ];
                    let mut vals = [0usize; 9];
                    for (field, dst) in FIELDS.iter().zip(vals.iter_mut()) {
                        let tok = it
                            .next()
                            .ok_or_else(|| SnapshotError(format!("missing geometry {field}")))?;
                        *dst = tok
                            .strip_prefix(field)
                            .and_then(|r| r.strip_prefix('='))
                            .and_then(|v| v.parse::<usize>().ok())
                            .ok_or_else(|| {
                                SnapshotError(format!("bad geometry {field}: {tok:?}"))
                            })?;
                    }
                    let [sms, scheds, warps, l1_lines, mshrs, pcs, l2_banks, l2_lines, parts] =
                        vals;
                    geom = Some(Geom {
                        sms,
                        scheds,
                        warps,
                        l1_lines,
                        mshrs,
                        pcs,
                        l2_banks,
                        l2_lines,
                        parts,
                    });
                }
                "total" | "window" => {
                    let c = Counters::from_words(it)
                        .ok_or_else(|| SnapshotError("bad counters".into()))?;
                    if tag == "total" {
                        total = Some(c);
                    } else {
                        window = Some(c);
                    }
                }
                "sm" => {
                    if cur.is_some() {
                        return err("sm section not closed".to_string());
                    }
                    let id = p_usize(it.next(), "sm id")?;
                    if id != sms.len() {
                        return err(format!("sm sections out of order at id {id}"));
                    }
                    cur = Some(SmDoc {
                        id,
                        evseq: 0,
                        events: Vec::new(),
                        scheds: Vec::new(),
                        warps: Vec::new(),
                        l1_lines: Vec::new(),
                        l1_stamp: None,
                        mshrs: Vec::new(),
                        l1_used: Vec::new(),
                        l1_free: None,
                        pc_stats: Vec::new(),
                        bypass: Vec::new(),
                    });
                }
                "end-sm" => {
                    let sm = cur
                        .take()
                        .ok_or_else(|| SnapshotError("stray end-sm".into()))?;
                    if sm.l1_stamp.is_none() || sm.l1_free.is_none() {
                        return err("sm section missing l1stamp/l1free".to_string());
                    }
                    sms.push(sm);
                }
                "evseq" | "ev" | "sched" | "warp" | "wreuse" | "wseen" | "l1line" | "l1stamp"
                | "mshr" | "l1used" | "l1free" | "pcstat" | "bypass" => {
                    let g = geom.ok_or_else(|| SnapshotError("geometry before sm".into()))?;
                    let sm = cur
                        .as_mut()
                        .ok_or_else(|| SnapshotError(format!("{tag} outside sm section")))?;
                    parse_sm_line(tag, &mut it, g, sm)?;
                }
                "l2bank" => {
                    let idx = p_usize(it.next(), "bank index")?;
                    if idx != banks.len() {
                        return err(format!("l2bank sections out of order at {idx}"));
                    }
                    let next_free = p_u64(it.next(), "bank next_free")?;
                    let stamp = p_u64(it.next(), "bank stamp")?;
                    banks.push(BankDoc {
                        next_free,
                        stamp,
                        lines: Vec::new(),
                    });
                }
                "l2line" => {
                    let g = geom.ok_or_else(|| SnapshotError("geometry before l2line".into()))?;
                    let bank = p_usize(it.next(), "l2line bank")?;
                    if bank + 1 != banks.len() {
                        return err(format!("l2line for bank {bank} out of order"));
                    }
                    let entry = parse_line_doc(&mut it, g.l2_lines)?;
                    banks[bank].lines.push(entry);
                }
                "part" => {
                    let idx = p_usize(it.next(), "partition index")?;
                    if idx != parts.len() {
                        return err(format!("part sections out of order at {idx}"));
                    }
                    parts.push(p_u64(it.next(), "partition next_free")?);
                }
                "end-snapshot" => ended = true,
                other => return err(format!("unknown record {other:?}")),
            }
            Ok(())
        })();
        res.map_err(|e| ctx(e.0))?;
    }
    if !ended {
        return err("truncated snapshot: missing end-snapshot");
    }
    if cur.is_some() {
        return err("truncated snapshot: unclosed sm section");
    }
    let geom = geom.ok_or_else(|| SnapshotError("missing geometry".into()))?;
    let doc = SnapDoc {
        cycle: cycle.ok_or_else(|| SnapshotError("missing cycle".into()))?,
        drained: drained.ok_or_else(|| SnapshotError("missing drained".into()))?,
        kernel_warps: kernel_warps.ok_or_else(|| SnapshotError("missing kernel-warps".into()))?,
        geom,
        total: total.ok_or_else(|| SnapshotError("missing total counters".into()))?,
        window: window.ok_or_else(|| SnapshotError("missing window counters".into()))?,
        sms,
        banks,
        parts,
    };
    // Cross-check section counts against the declared geometry.
    if doc.sms.len() != geom.sms {
        return err(format!(
            "expected {} sm sections, got {}",
            geom.sms,
            doc.sms.len()
        ));
    }
    if doc.banks.len() != geom.l2_banks || doc.parts.len() != geom.parts {
        return err("bank/partition count mismatch with geometry");
    }
    for sm in &doc.sms {
        if sm.scheds.len() != geom.scheds {
            return err(format!("sm {}: scheduler count mismatch", sm.id));
        }
        if sm.warps.len() != geom.scheds * geom.warps {
            return err(format!("sm {}: warp count mismatch", sm.id));
        }
    }
    Ok(doc)
}

fn parse_sm_line(
    tag: &str,
    it: &mut std::str::SplitWhitespace,
    g: Geom,
    sm: &mut SmDoc,
) -> Result<(), SnapshotError> {
    match tag {
        "evseq" => sm.evseq = p_u64(it.next(), "evseq")?,
        "ev" => {
            let at = p_u64(it.next(), "event time")?;
            let seq = p_u64(it.next(), "event seq")?;
            let ev_kind = p_u64(it.next(), "event kind")?;
            if ev_kind > 1 {
                return err(format!("bad event kind {ev_kind}"));
            }
            let ev_a = p_u64(it.next(), "event a")? as u32;
            let ev_b = p_u64(it.next(), "event b")? as u32;
            sm.events.push(QueuedEvent {
                at,
                seq,
                ev_kind: ev_kind as u8,
                ev_a,
                ev_b,
            });
        }
        "sched" => {
            let si = p_usize(it.next(), "scheduler index")?;
            if si != sm.scheds.len() || si >= g.scheds {
                return err(format!("sched {si} out of order or range"));
            }
            let n = p_usize(it.next(), "tuple n")?;
            let p = p_usize(it.next(), "tuple p")?;
            let greedy = p_usize(it.next(), "greedy")?;
            if n == 0 || p == 0 || p > n || n > g.warps {
                return err(format!("bad tuple ({n}, {p}) for {} warps", g.warps));
            }
            sm.scheds.push((n, p, greedy));
        }
        "warp" => {
            let si = p_usize(it.next(), "warp scheduler")?;
            let wi = p_usize(it.next(), "warp index")?;
            let expect = (
                sm.warps.len() / g.warps.max(1),
                sm.warps.len() % g.warps.max(1),
            );
            if (si, wi) != expect {
                return err(format!(
                    "warp ({si}, {wi}) out of order, expected {expect:?}"
                ));
            }
            let fetched = p_u64(it.next(), "fetched")?;
            let pending = pending_from_code(
                it.next()
                    .ok_or_else(|| SnapshotError("missing pending".into()))?,
            )?;
            let outstanding = p_u64(it.next(), "outstanding loads")? as u32;
            let sync = p_bool(it.next(), "waiting_sync")?;
            let done = p_bool(it.next(), "done")?;
            let instructions = p_u64(it.next(), "instructions")?;
            let gap = p_u64(it.next(), "since_last_load")?;
            let seen_load = p_bool(it.next(), "seen_load")?;
            sm.warps.push(WarpDoc {
                fetched,
                pending,
                outstanding,
                sync,
                done,
                instructions,
                gap,
                seen_load,
                reuse: None,
                seen: Vec::new(),
            });
        }
        "wreuse" | "wseen" => {
            let si = p_usize(it.next(), "warp scheduler")?;
            let wi = p_usize(it.next(), "warp index")?;
            let flat = si * g.warps + wi;
            if flat + 1 != sm.warps.len() {
                return err(format!("{tag} ({si}, {wi}) does not follow its warp"));
            }
            let list = u64_list_parse(
                it.next()
                    .ok_or_else(|| SnapshotError(format!("missing {tag} list")))?,
            )?;
            let w = &mut sm.warps[flat];
            if tag == "wreuse" {
                w.reuse = Some(list);
            } else {
                w.seen = list;
            }
        }
        "l1line" => {
            let entry = parse_line_doc(it, g.l1_lines)?;
            sm.l1_lines.push(entry);
        }
        "l1stamp" => sm.l1_stamp = Some(p_u64(it.next(), "l1stamp")?),
        "mshr" => {
            let idx = p_usize(it.next(), "mshr index")?;
            if idx >= g.mshrs {
                return err(format!("mshr index {idx} out of range"));
            }
            let in_use = p_bool(it.next(), "mshr in_use")?;
            let line = p_u64(it.next(), "mshr line")?;
            let target_tok = it
                .next()
                .ok_or_else(|| SnapshotError("missing mshr target".into()))?;
            let target = if target_tok == "-" {
                None
            } else {
                let mut t = target_tok.split(':');
                let s = t.next().and_then(|v| v.parse::<usize>().ok());
                let w = t.next().and_then(|v| v.parse::<usize>().ok());
                match (s, w, t.next()) {
                    (Some(s), Some(w), None) => Some((s, w)),
                    _ => return err(format!("bad mshr target {target_tok:?}")),
                }
            };
            let waiters_tok = it
                .next()
                .ok_or_else(|| SnapshotError("missing mshr waiters".into()))?;
            let mut waiters = Vec::new();
            if waiters_tok != "-" {
                for part in waiters_tok.split(';') {
                    let mut t = part.split(':');
                    let scheduler = t.next().and_then(|v| v.parse::<u8>().ok());
                    let warp = t.next().and_then(|v| v.parse::<u8>().ok());
                    let issued_at = t.next().and_then(|v| v.parse::<u64>().ok());
                    match (scheduler, warp, issued_at, t.next()) {
                        (Some(scheduler), Some(warp), Some(issued_at), None) => {
                            waiters.push(MshrWaiter {
                                scheduler,
                                warp,
                                issued_at,
                            });
                        }
                        _ => return err(format!("bad mshr waiter {part:?}")),
                    }
                }
            }
            sm.mshrs.push(MshrDoc {
                idx,
                in_use,
                line,
                target,
                waiters,
            });
        }
        "l1used" => {
            let tok = it
                .next()
                .ok_or_else(|| SnapshotError("missing l1used list".into()))?;
            for part in tok.split(',') {
                let mut t = part.split(':');
                let line = t.next().and_then(|v| v.parse::<u64>().ok());
                let idx = t.next().and_then(|v| v.parse::<u32>().ok());
                match (line, idx, t.next()) {
                    (Some(line), Some(idx), None) if (idx as usize) < g.mshrs => {
                        sm.l1_used.push((line, idx));
                    }
                    _ => return err(format!("bad l1used entry {part:?}")),
                }
            }
        }
        "l1free" => {
            let list = u64_list_parse(
                it.next()
                    .ok_or_else(|| SnapshotError("missing l1free list".into()))?,
            )?;
            let mut free = Vec::with_capacity(list.len());
            for v in list {
                if v as usize >= g.mshrs {
                    return err(format!("free index {v} out of range"));
                }
                free.push(v as u32);
            }
            if free.len() > g.mshrs {
                return err("free list longer than the MSHR file");
            }
            sm.l1_free = Some(free);
        }
        "pcstat" => {
            let idx = p_usize(it.next(), "pcstat index")?;
            if idx >= g.pcs {
                return err(format!("pcstat index {idx} out of range"));
            }
            let a = p_u64(it.next(), "pcstat accesses")?;
            let h = p_u64(it.next(), "pcstat hits")?;
            let ih = p_u64(it.next(), "pcstat intra_hits")?;
            sm.pc_stats.push((idx, a, h, ih));
        }
        "bypass" => {
            let idx = p_usize(it.next(), "bypass index")?;
            if idx >= g.pcs {
                return err(format!("bypass index {idx} out of range"));
            }
            sm.bypass.push(idx);
        }
        _ => unreachable!("caller dispatches only sm-section tags"),
    }
    Ok(())
}

/// Structurally validate a snapshot without a configuration or kernel:
/// checks the header, the grammar of every record, internal index bounds
/// and the declared-geometry cross-counts. Used by the job cache's `fsck`
/// to decide whether a stored blob is loadable at all.
pub fn validate(text: &str) -> Result<(), SnapshotError> {
    parse(text).map(|_| ())
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

fn apply_tag_store(
    tags: &mut SetAssocCache,
    lines: &[(usize, LineDoc)],
    stamp: u64,
) -> Result<(), SnapshotError> {
    tags.stamp = stamp;
    for &(idx, d) in lines {
        let Some(slot) = tags.lines.get_mut(idx) else {
            return err(format!("line index {idx} out of range for this geometry"));
        };
        let LineDoc {
            tag,
            state,
            lru,
            touchers,
        } = d;
        *slot = Line {
            tag,
            state,
            lru,
            touchers,
        };
    }
    Ok(())
}

impl Gpu {
    /// Reconstruct a GPU from a snapshot, a configuration and the kernel it
    /// was taken from. The configuration's *architectural* parameters must
    /// match the snapshot's geometry (step mode and thread count are free:
    /// snapshots are step-mode independent); the kernel must be the same
    /// deterministic source, whose streams are replayed up to each warp's
    /// consumed prefix. Continue with [`Gpu::resume`], not [`Gpu::run`] —
    /// the kernel-start hook already fired in the run that was snapshotted.
    pub fn restore(
        cfg: GpuConfig,
        kernel: &dyn KernelSource,
        text: &str,
    ) -> Result<Gpu, SnapshotError> {
        let doc = parse(text)?;
        let mut gpu = Gpu::new(cfg, kernel);
        let g = doc.geom;
        let have = Geom {
            sms: gpu.sms.len(),
            scheds: gpu.sms.first().map_or(0, |s| s.schedulers.len()),
            warps: gpu.kernel_warps,
            l1_lines: gpu.sms.first().map_or(0, |s| s.l1.tags.lines.len()),
            mshrs: gpu.sms.first().map_or(0, |s| s.l1.mshrs.len()),
            pcs: gpu.sms.first().map_or(0, |s| s.l1.pc_stats.len()),
            l2_banks: gpu.mem.banks.len(),
            l2_lines: gpu.mem.banks.first().map_or(0, |b| b.tags.lines.len()),
            parts: gpu.mem.partitions.len(),
        };
        if g != have {
            return err(format!(
                "geometry mismatch: snapshot {g:?} vs machine {have:?}"
            ));
        }
        if doc.kernel_warps != gpu.kernel_warps {
            return err(format!(
                "kernel-warps mismatch: snapshot {} vs machine {}",
                doc.kernel_warps, gpu.kernel_warps
            ));
        }
        gpu.cycle = doc.cycle;
        gpu.drained = doc.drained;
        for c in &mut gpu.clocks {
            *c = doc.cycle;
        }
        gpu.stats.total = doc.total;
        gpu.stats.window = doc.window;
        for smdoc in &doc.sms {
            let sm = &mut gpu.sms[smdoc.id];
            gpu.events.seqs[smdoc.id] = smdoc.evseq;
            let q = &mut gpu.events.queues[smdoc.id];
            debug_assert!(q.is_empty());
            for &e in &smdoc.events {
                q.push(Reverse(e));
            }
            for (si, &(n, p, greedy)) in smdoc.scheds.iter().enumerate() {
                let sched = &mut sm.schedulers[si];
                // Written raw (not via `set_tuple`): the saved tuple is
                // already valid for this scheduler by the parse checks.
                sched.tuple = WarpTuple { n, p };
                sched.greedy = greedy;
            }
            for (flat, wd) in smdoc.warps.iter().enumerate() {
                let (si, wi) = (flat / g.warps, flat % g.warps);
                let w = &mut sm.warps[si][wi];
                w.replay_stream(wd.fetched);
                w.pending = wd.pending;
                w.outstanding_loads = wd.outstanding;
                w.waiting_sync = wd.sync;
                w.done = wd.done;
                w.instructions = wd.instructions;
                w.since_last_load = wd.gap;
                w.seen_load = wd.seen_load;
                w.reuse_stack = wd.reuse.clone();
                w.seen_lines = wd.seen.iter().copied().collect();
            }
            apply_tag_store(
                &mut sm.l1.tags,
                &smdoc.l1_lines,
                smdoc.l1_stamp.expect("checked at parse"),
            )?;
            for md in &smdoc.mshrs {
                let e = &mut sm.l1.mshrs[md.idx];
                e.line = md.line;
                e.target = md.target;
                e.waiters = md.waiters.clone();
                e.in_use = md.in_use;
            }
            sm.l1.in_use = smdoc.l1_used.clone();
            sm.l1.free = smdoc.l1_free.clone().expect("checked at parse");
            for &(idx, accesses, hits, intra_hits) in &smdoc.pc_stats {
                sm.l1.pc_stats[idx] = PcStats {
                    accesses,
                    hits,
                    intra_hits,
                };
            }
            for &idx in &smdoc.bypass {
                sm.l1.bypass_pc[idx] = true;
            }
            sm.recompute_activity();
        }
        for (i, bd) in doc.banks.iter().enumerate() {
            let bank = &mut gpu.mem.banks[i];
            bank.next_free = bd.next_free;
            apply_tag_store(&mut bank.tags, &bd.lines, bd.stamp)?;
        }
        for (i, &next_free) in doc.parts.iter().enumerate() {
            gpu.mem.partitions[i].next_free = next_free;
        }
        Ok(gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StepMode;
    use crate::controller::{Controller, FixedTuple};
    use crate::instruction::UniformKernel;

    fn cfg_with(mode: StepMode) -> GpuConfig {
        let mut cfg = GpuConfig::scaled(2);
        cfg.step_mode = mode;
        cfg
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let kernel = UniformKernel::streaming(8, 3);
        let mut gpu = Gpu::new(cfg_with(StepMode::PerSm), &kernel);
        let mut ctrl = FixedTuple::max();
        gpu.run(&mut ctrl, 5_000);
        let snap = gpu.snapshot();
        let restored = Gpu::restore(cfg_with(StepMode::PerSm), &kernel, &snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn snapshot_is_step_mode_independent() {
        let kernel = UniformKernel::streaming(8, 3);
        let mut per_sm = Gpu::new(cfg_with(StepMode::PerSm), &kernel);
        let mut reference = Gpu::new(cfg_with(StepMode::Reference), &kernel);
        let mut ctrl = FixedTuple::max();
        per_sm.run(&mut ctrl, 4_000);
        let mut ctrl = FixedTuple::max();
        reference.run(&mut ctrl, 4_000);
        assert_eq!(per_sm.snapshot(), reference.snapshot());
    }

    #[test]
    fn restore_then_resume_matches_straight_run() {
        let kernel = UniformKernel::streaming(8, 3);
        for mode in [StepMode::PerSm, StepMode::Reference] {
            let mut cold = Gpu::new(cfg_with(mode), &kernel);
            let mut ctrl = FixedTuple::max();
            let full = cold.run(&mut ctrl, 9_000);

            let mut prefix = Gpu::new(cfg_with(mode), &kernel);
            let mut ctrl = FixedTuple::max();
            prefix.run(&mut ctrl, 4_000);
            let snap = prefix.snapshot();
            let mut forked = Gpu::restore(cfg_with(mode), &kernel, &snap).unwrap();
            let mut ctrl2 = FixedTuple::max();
            assert!(ctrl2.load_state(&ctrl.save_state()));
            let resumed = forked.resume(&mut ctrl2, 5_000);

            assert_eq!(resumed.counters, full.counters, "{mode:?}");
            assert_eq!(resumed.completed, full.completed, "{mode:?}");
            assert_eq!(forked.cycle(), cold.cycle(), "{mode:?}");
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let kernel = UniformKernel::streaming(4, 2);
        let mut gpu = Gpu::new(cfg_with(StepMode::PerSm), &kernel);
        let mut ctrl = FixedTuple::max();
        gpu.run(&mut ctrl, 1_000);
        let snap = gpu.snapshot();
        let cut = &snap[..snap.len() / 2];
        let e = Gpu::restore(cfg_with(StepMode::PerSm), &kernel, cut).unwrap_err();
        assert!(e.0.contains("truncated") || e.0.contains("missing"), "{e}");
        assert!(validate(cut).is_err());
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let kernel = UniformKernel::streaming(4, 2);
        let mut gpu = Gpu::new(cfg_with(StepMode::PerSm), &kernel);
        let mut ctrl = FixedTuple::max();
        gpu.run(&mut ctrl, 1_000);
        let snap = gpu.snapshot();
        // Flip a record tag into garbage.
        let bad = snap.replacen("l1free", "l1frXe", 1);
        assert!(validate(&bad).is_err());
        // Geometry mismatch: restore under a different machine scale.
        let other = UniformKernel::streaming(4, 2);
        let e = Gpu::restore(GpuConfig::scaled(4), &other, &snap).unwrap_err();
        assert!(e.0.contains("geometry mismatch"), "{e}");
    }
}
