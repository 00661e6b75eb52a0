//! The trace-driven kernel backend: a compact, versioned per-warp trace
//! format, a replayer ([`TraceKernel`] / [`TraceRef`]), a **recorder**
//! that can dump any [`KernelSource`] to a trace, and an importer for a
//! simple Accel-Sim-style text format.
//!
//! ## Why traces
//!
//! The Poise paper evaluates on real CUDA workloads replayed through
//! GPGPU-Sim. The synthetic generator in [`crate::spec`] covers the
//! paper's characterised locality shapes, but a trace backend opens the
//! simulator to *recorded* workloads: dumps of the synthetic generator
//! itself (a bit-exact regression artefact), hand-written scenarios, or
//! imports of Accel-Sim-style kernel traces.
//!
//! ## The format (`poise trace v1`)
//!
//! Line-oriented text, one file per kernel:
//!
//! ```text
//! # poise trace v1
//! name <kernel name>
//! warps_per_scheduler <w>
//! n_pcs <k>
//! geometry <sms> <schedulers>
//! warp <sm> <scheduler> <warp>
//! a <count>          # run-length-encoded span of ALU instructions
//! l <line-hex> <pc>  # global load of one cache line
//! s <line-hex> <pc>  # global store of one cache line
//! y                  # SyncLoads dependence barrier
//! end
//! ...one block per warp, all sms × schedulers × w of them...
//! end-trace
//! ```
//!
//! The op alphabet is exactly the simulator's [`Instr`] alphabet; ALU
//! spans are run-length encoded because they dominate instruction counts
//! while carrying no payload. The trailing `end-trace` marker makes a
//! truncated file detectable.
//!
//! ## Loading: the header at load, the body on first simulation
//!
//! [`TraceRef::load`] reads a file, hashes its bytes and checks only the
//! five header lines, which carry everything a trace's identity (its
//! `Debug` form, and so every job spec and cache key) and planning read.
//! The op streams are decoded from those same bytes, never from a second
//! read of the file, on the first [`KernelSource::stream_for`] or
//! [`TraceRef::data`], once for the ref and all its clones. So a warm
//! pass, which simulates nothing, never decodes a trace. A file with a
//! valid header over a corrupt body loads and plans like any other, and
//! every simulation of it panics with `<path>: trace parse error at line
//! N: …`. It can never replay as a different workload: its identity is
//! the content digest, and a cache entry under that digest exists only
//! if a decode of identical bytes succeeded.
//!
//! ## Replay semantics
//!
//! A trace records a *finite* stream per warp for a fixed geometry. The
//! replayer maps a requested `(sm, scheduler)` position onto the recorded
//! geometry **modulo**, so a trace recorded at 1 SM can drive a larger
//! machine (every SM replays the recorded SM's streams, sharing its
//! absolute line addresses through the L2 — deterministic, and documented
//! as part of the workload's meaning). Warps whose recorded ops run out
//! simply finish, like a [`crate::KernelSpec`] with a `trace_len`.
//!
//! Replaying a trace recorded from a synthetic kernel at the *same*
//! geometry is **bit-identical** to the live generator for as many
//! instructions as were recorded — the correctness oracle
//! `crates/core/tests/trace_replay.rs` pins this for every shipped
//! controller under both step modes.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use crate::digest::sha256_hex_bytes;
use gpu_sim::{Instr, InstructionStream, KernelSource};

/// Current trace-format version tag (the first line of every file).
pub const TRACE_HEADER: &str = "# poise trace v1";

/// One recorded operation. ALU instructions are run-length encoded; the
/// other variants map 1:1 onto [`Instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// `count` consecutive ALU instructions (`count >= 1`).
    AluRun(u32),
    /// A global load of one cache line.
    Load {
        /// Line address.
        line: u64,
        /// Static load-site identifier.
        pc: u32,
    },
    /// A global store of one cache line.
    Store {
        /// Line address.
        line: u64,
        /// Static store-site identifier.
        pc: u32,
    },
    /// The `SyncLoads` dependence barrier.
    Sync,
}

/// Errors from decoding or loading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The file does not start with the v1 header.
    BadHeader,
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The file ended before the `end-trace` marker (torn write, partial
    /// download, …).
    Truncated,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadHeader => write!(f, "not a poise trace (missing `{TRACE_HEADER}`)"),
            TraceError::Parse { line, msg } => write!(f, "trace parse error at line {line}: {msg}"),
            TraceError::Truncated => write!(f, "trace truncated (missing `end-trace` marker)"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A fully decoded trace: per-warp op streams for a fixed geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Kernel name carried in the file.
    pub name: String,
    /// Warps launched per scheduler.
    pub warps_per_scheduler: usize,
    /// Number of distinct static load/store sites.
    pub n_pcs: usize,
    /// Recorded SM count.
    pub sms: usize,
    /// Recorded schedulers per SM.
    pub schedulers: usize,
    /// `ops[warp_index(sm, sched, warp)]`, dense over the geometry.
    ops: Vec<Vec<TraceOp>>,
}

impl TraceData {
    fn warp_index(&self, sm: usize, scheduler: usize, warp: usize) -> usize {
        let sm = sm % self.sms;
        let scheduler = scheduler % self.schedulers;
        (sm * self.schedulers + scheduler) * self.warps_per_scheduler
            + (warp % self.warps_per_scheduler)
    }

    /// The recorded ops of one warp (geometry folded modulo, like replay).
    pub fn warp_ops(&self, sm: usize, scheduler: usize, warp: usize) -> &[TraceOp] {
        &self.ops[self.warp_index(sm, scheduler, warp)]
    }

    /// Total instructions across all warps (ALU runs expanded).
    pub fn total_instructions(&self) -> u64 {
        self.ops
            .iter()
            .flatten()
            .map(|op| match op {
                TraceOp::AluRun(n) => u64::from(*n),
                _ => 1,
            })
            .sum()
    }

    /// Serialise to the v1 text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{TRACE_HEADER}");
        let _ = writeln!(s, "name {}", self.name);
        let _ = writeln!(s, "warps_per_scheduler {}", self.warps_per_scheduler);
        let _ = writeln!(s, "n_pcs {}", self.n_pcs);
        let _ = writeln!(s, "geometry {} {}", self.sms, self.schedulers);
        for sm in 0..self.sms {
            for sched in 0..self.schedulers {
                for warp in 0..self.warps_per_scheduler {
                    let _ = writeln!(s, "warp {sm} {sched} {warp}");
                    for op in self.warp_ops(sm, sched, warp) {
                        match op {
                            TraceOp::AluRun(n) => {
                                let _ = writeln!(s, "a {n}");
                            }
                            TraceOp::Load { line, pc } => {
                                let _ = writeln!(s, "l {line:x} {pc}");
                            }
                            TraceOp::Store { line, pc } => {
                                let _ = writeln!(s, "s {line:x} {pc}");
                            }
                            TraceOp::Sync => {
                                let _ = writeln!(s, "y");
                            }
                        }
                    }
                    let _ = writeln!(s, "end");
                }
            }
        }
        let _ = writeln!(s, "end-trace");
        s
    }

    /// Decode the v1 text format: the header, then the body. Any
    /// malformed, out-of-range or missing content is an error (a corrupt
    /// trace must never silently replay as a different workload).
    pub fn from_text(text: &str) -> Result<TraceData, TraceError> {
        let mut lines = Lines(text.lines().enumerate());
        Header::parse(&mut lines)?.decode_body(lines)
    }
}

/// The lines of a trace's text, numbered, with empty lines refused.
struct Lines<'a>(std::iter::Enumerate<std::str::Lines<'a>>);

impl<'a> Lines<'a> {
    /// The next line (0-based index, trailing whitespace trimmed), where
    /// the format expects `expect`.
    fn next(&mut self, expect: &str) -> Result<(usize, &'a str), TraceError> {
        let (i, l) = self.0.next().ok_or(TraceError::Truncated)?;
        let l = l.trim_end();
        if l.is_empty() {
            return Err(perr(i, format!("empty line (expected {expect})")));
        }
        Ok((i, l))
    }
}

/// A parse error at the 0-based line `i`.
fn perr(i: usize, msg: String) -> TraceError {
    TraceError::Parse { line: i + 1, msg }
}

/// The value of a `<want> <value>` line.
fn field<'a>(want: &str, (i, l): (usize, &'a str)) -> Result<&'a str, TraceError> {
    l.strip_prefix(want)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| perr(i, format!("expected `{want} ...`, got {l:?}")))
}

fn parse_usize(s: &str, i: usize, what: &str) -> Result<usize, TraceError> {
    s.parse()
        .map_err(|_| perr(i, format!("invalid {what}: {s:?}")))
}

/// The number of header lines: the version tag, `name`,
/// `warps_per_scheduler`, `n_pcs` and `geometry`.
const HEADER_LINES: usize = 5;

/// A trace's header: all that its identity and planning read.
struct Header {
    name: String,
    warps_per_scheduler: usize,
    n_pcs: usize,
    sms: usize,
    schedulers: usize,
}

impl Header {
    fn of(data: &TraceData) -> Header {
        Header {
            name: data.name.clone(),
            warps_per_scheduler: data.warps_per_scheduler,
            n_pcs: data.n_pcs,
            sms: data.sms,
            schedulers: data.schedulers,
        }
    }

    /// Read and check the [`HEADER_LINES`] header lines.
    fn parse(lines: &mut Lines) -> Result<Header, TraceError> {
        let (_, header) = lines.next("header")?;
        if header != TRACE_HEADER {
            return Err(TraceError::BadHeader);
        }
        let name = field("name", lines.next("name")?)?.to_string();
        let got = lines.next("warps_per_scheduler")?;
        let warps_per_scheduler =
            parse_usize(field("warps_per_scheduler", got)?, got.0, "warp count")?;
        let got = lines.next("n_pcs")?;
        let n_pcs = parse_usize(field("n_pcs", got)?, got.0, "pc count")?;
        // Bounded like the geometry below: the simulator allocates per-PC
        // tracking state of this size per SM, so a corrupt header must be
        // a parse error, not an allocation abort.
        if n_pcs > 1 << 16 {
            return Err(perr(got.0, format!("implausible n_pcs ({n_pcs})")));
        }
        let (gi, gl) = lines.next("geometry")?;
        let mut it = field("geometry", (gi, gl))?.split_whitespace();
        let sms = parse_usize(it.next().unwrap_or(""), gi, "SM count")?;
        let schedulers = parse_usize(it.next().unwrap_or(""), gi, "scheduler count")?;
        if it.next().is_some() {
            return Err(perr(gi, "trailing tokens after geometry".into()));
        }
        if warps_per_scheduler == 0 || sms == 0 || schedulers == 0 {
            return Err(perr(gi, "geometry fields must be positive".into()));
        }
        // Checked: a corrupt count must not wrap into a plausible product.
        let n_warps = sms
            .checked_mul(schedulers)
            .and_then(|n| n.checked_mul(warps_per_scheduler));
        if n_warps.is_none_or(|n| n > 1 << 20) {
            return Err(perr(
                gi,
                format!(
                    "implausible geometry ({sms} x {schedulers} x {warps_per_scheduler} warps)"
                ),
            ));
        }
        Ok(Header {
            name,
            warps_per_scheduler,
            n_pcs,
            sms,
            schedulers,
        })
    }

    /// Decode the body that follows this header in `lines`: one block
    /// per warp, then the `end-trace` marker.
    fn decode_body(self, mut lines: Lines) -> Result<TraceData, TraceError> {
        let Header {
            name,
            warps_per_scheduler,
            n_pcs,
            sms,
            schedulers,
        } = self;
        let n_warps = sms * schedulers * warps_per_scheduler;
        let mut ops: Vec<Vec<TraceOp>> = Vec::with_capacity(n_warps);
        for expected in 0..n_warps {
            let (wi, wl) = lines.next("warp")?;
            let mut it = field("warp", (wi, wl))?.split_whitespace();
            let sm = parse_usize(it.next().unwrap_or(""), wi, "warp sm")?;
            let sched = parse_usize(it.next().unwrap_or(""), wi, "warp scheduler")?;
            let warp = parse_usize(it.next().unwrap_or(""), wi, "warp index")?;
            // The index is computed only within the geometry, where it
            // cannot overflow.
            if sm >= sms
                || sched >= schedulers
                || warp >= warps_per_scheduler
                || (sm * schedulers + sched) * warps_per_scheduler + warp != expected
            {
                return Err(perr(
                    wi,
                    format!("warp {sm}/{sched}/{warp} out of order or out of geometry"),
                ));
            }
            let mut warp_ops = Vec::new();
            loop {
                let (oi, ol) = lines.next("op or end")?;
                let mut toks = ol.split_whitespace();
                match toks.next() {
                    Some("end") => break,
                    Some("a") => {
                        let n: u32 = toks
                            .next()
                            .and_then(|t| t.parse().ok())
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| perr(oi, format!("invalid ALU run: {ol:?}")))?;
                        warp_ops.push(TraceOp::AluRun(n));
                    }
                    Some(k @ ("l" | "s")) => {
                        let line = toks
                            .next()
                            .and_then(|t| u64::from_str_radix(t, 16).ok())
                            .ok_or_else(|| perr(oi, format!("invalid line address: {ol:?}")))?;
                        let pc: u32 = toks
                            .next()
                            .and_then(|t| t.parse().ok())
                            .filter(|&pc| (pc as usize) < n_pcs.max(1))
                            .ok_or_else(|| perr(oi, format!("invalid pc: {ol:?}")))?;
                        warp_ops.push(if k == "l" {
                            TraceOp::Load { line, pc }
                        } else {
                            TraceOp::Store { line, pc }
                        });
                    }
                    Some("y") => warp_ops.push(TraceOp::Sync),
                    _ => return Err(perr(oi, format!("unknown op {ol:?}"))),
                }
                if toks.next().is_some() {
                    return Err(perr(oi, format!("trailing tokens in {ol:?}")));
                }
            }
            ops.push(warp_ops);
        }
        let (_, last) = lines.next("end-trace")?;
        if last != "end-trace" {
            return Err(TraceError::Truncated);
        }
        Ok(TraceData {
            name,
            warps_per_scheduler,
            n_pcs,
            sms,
            schedulers,
            ops,
        })
    }
}

// ---------------------------------------------------------------------------
// Recorder.
// ---------------------------------------------------------------------------

/// Record `source` into a trace: pull up to `max_ops_per_warp`
/// instructions from every warp stream of the `sms × schedulers` grid and
/// run-length encode the ALU spans.
///
/// The recorded trace replays **bit-identically** to the live source at
/// the same geometry, for as long as the recording lasts — so
/// `max_ops_per_warp` must exceed what a simulation will consume. A warp
/// can issue at most one instruction per cycle and emits at most one
/// (free) sync per issued instruction, so `2 × cycle_budget + 4` per warp
/// is always enough.
pub fn record_kernel(
    source: &dyn KernelSource,
    name: &str,
    sms: usize,
    schedulers: usize,
    max_ops_per_warp: usize,
) -> TraceData {
    assert!(sms >= 1 && schedulers >= 1 && max_ops_per_warp >= 1);
    let warps = source.warps_per_scheduler();
    let mut ops = Vec::with_capacity(sms * schedulers * warps);
    for sm in 0..sms {
        for sched in 0..schedulers {
            for warp in 0..warps {
                let mut stream = source.stream_for(sm, sched, warp);
                let mut warp_ops: Vec<TraceOp> = Vec::new();
                for _ in 0..max_ops_per_warp {
                    let Some(instr) = stream.next_instr() else {
                        break;
                    };
                    match instr {
                        Instr::Alu => match warp_ops.last_mut() {
                            Some(TraceOp::AluRun(n)) => *n += 1,
                            _ => warp_ops.push(TraceOp::AluRun(1)),
                        },
                        Instr::Load { line, pc } => warp_ops.push(TraceOp::Load { line, pc }),
                        Instr::Store { line, pc } => warp_ops.push(TraceOp::Store { line, pc }),
                        Instr::SyncLoads => warp_ops.push(TraceOp::Sync),
                    }
                }
                ops.push(warp_ops);
            }
        }
    }
    TraceData {
        name: name.to_string(),
        warps_per_scheduler: warps,
        n_pcs: source.n_pcs(),
        sms,
        schedulers,
        ops,
    }
}

// ---------------------------------------------------------------------------
// Replayer.
// ---------------------------------------------------------------------------

/// A loaded, content-addressed trace workload: the replayer plus the
/// identity (`name`, SHA-256 `digest` of the encoded bytes) that keys it
/// in experiment caches. Cheap to clone: clones share the header and the
/// one decode of the op streams (see the module docs, "Loading").
///
/// Equality is by content digest: two `TraceRef`s loaded from identical
/// bytes are the same workload wherever the files live, and editing a
/// trace file yields a different workload (and thus different cache
/// keys) on the next load.
#[derive(Clone)]
pub struct TraceRef {
    /// SHA-256 of the encoded trace bytes.
    pub digest: String,
    /// Where the trace was loaded from (informational; not part of the
    /// workload's identity).
    pub path: PathBuf,
    trace: Arc<Loaded>,
}

/// What the clones of one [`TraceRef`] share.
struct Loaded {
    header: Header,
    /// The bytes [`TraceRef::load`] read and hashed, until the decode
    /// takes them, so a decoded trace does not also hold its text (empty
    /// for data handed over decoded).
    bytes: Mutex<Vec<u8>>,
    decoded: OnceLock<Result<Arc<TraceData>, TraceError>>,
}

impl Loaded {
    /// The op streams, decoded from the loaded bytes on the first call.
    fn decoded(&self) -> &Result<Arc<TraceData>, TraceError> {
        self.decoded.get_or_init(|| {
            let bytes = std::mem::take(&mut *self.bytes.lock().expect("no decode panicked"));
            TraceData::from_text(&String::from_utf8_lossy(&bytes)).map(Arc::new)
        })
    }
}

/// Alias emphasising the `KernelSource` role of a loaded trace.
pub type TraceKernel = TraceRef;

impl TraceRef {
    /// Read a trace file, hash it and check its header. The body is
    /// decoded from the same bytes on first use ([`TraceRef::data`]).
    pub fn load(path: impl AsRef<Path>) -> Result<TraceRef, TraceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        // `\n` never occurs inside a UTF-8 sequence, so the header lines
        // read from this prefix exactly as from the whole file's text.
        let header_end = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(HEADER_LINES - 1)
            .map_or(bytes.len(), |(i, _)| i + 1);
        let prefix = String::from_utf8_lossy(&bytes[..header_end]);
        let header = Header::parse(&mut Lines(prefix.lines().enumerate()))?;
        Ok(TraceRef {
            digest: sha256_hex_bytes(&bytes),
            path: path.to_path_buf(),
            trace: Arc::new(Loaded {
                header,
                bytes: Mutex::new(bytes),
                decoded: OnceLock::new(),
            }),
        })
    }

    /// Wrap in-memory trace data (digesting its canonical encoding), e.g.
    /// straight out of [`record_kernel`] without touching the filesystem.
    pub fn from_data(data: TraceData) -> TraceRef {
        let digest = sha256_hex_bytes(data.to_text().as_bytes());
        TraceRef {
            digest,
            path: PathBuf::new(),
            trace: Arc::new(Loaded {
                header: Header::of(&data),
                bytes: Mutex::default(),
                decoded: OnceLock::from(Ok(Arc::new(data))),
            }),
        }
    }

    /// Encode and write the trace to `path`, returning the loaded-back
    /// reference (whose digest matches what a later [`TraceRef::load`]
    /// will compute, and whose body decodes from the written bytes). The
    /// write is atomic (temp file + rename), so an interrupted re-record
    /// leaves the previous trace intact instead of a truncated file.
    pub fn write(data: &TraceData, path: impl AsRef<Path>) -> Result<TraceRef, TraceError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        std::fs::write(&tmp, data.to_text())?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        TraceRef::load(path)
    }

    /// The kernel name recorded in the trace.
    pub fn name(&self) -> &str {
        &self.trace.header.name
    }

    /// The decoded trace. The first call (or [`KernelSource::stream_for`])
    /// on this ref or any clone decodes the body; `Err` is a corrupt
    /// body, returned by every call.
    pub fn data(&self) -> Result<&TraceData, &TraceError> {
        self.trace.decoded().as_ref().map(|d| &**d)
    }
}

impl fmt::Debug for TraceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Identity only — never the op streams (this repr enters job spec
        // texts and progress labels).
        let h = &self.trace.header;
        f.debug_struct("TraceRef")
            .field("name", &h.name)
            .field("digest", &self.digest)
            .field("warps_per_scheduler", &h.warps_per_scheduler)
            .field("n_pcs", &h.n_pcs)
            .field("geometry", &(h.sms, h.schedulers))
            .finish()
    }
}

impl PartialEq for TraceRef {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest
    }
}

impl KernelSource for TraceRef {
    /// Decodes the body on first use. A corrupt body panics, naming the
    /// file and the line: the job engine records the panic as the
    /// simulating job's failure.
    fn stream_for(&self, sm: usize, scheduler: usize, warp: usize) -> Box<dyn InstructionStream> {
        let data = match self.trace.decoded() {
            Ok(data) => data,
            Err(e) => panic!("{}: {e}", self.path.display()),
        };
        Box::new(TraceStream {
            data: Arc::clone(data),
            warp: data.warp_index(sm, scheduler, warp),
            pos: 0,
            alu_left: 0,
        })
    }

    fn warps_per_scheduler(&self) -> usize {
        self.trace.header.warps_per_scheduler
    }

    fn n_pcs(&self) -> usize {
        self.trace.header.n_pcs.max(1)
    }
}

/// Lazy per-warp replay cursor: an index into the shared decoded ops plus
/// the remaining length of the current ALU run. No per-stream copy of the
/// trace is made.
struct TraceStream {
    data: Arc<TraceData>,
    warp: usize,
    pos: usize,
    alu_left: u32,
}

impl InstructionStream for TraceStream {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.alu_left > 0 {
            self.alu_left -= 1;
            return Some(Instr::Alu);
        }
        let op = self.data.ops[self.warp].get(self.pos)?;
        self.pos += 1;
        Some(match *op {
            TraceOp::AluRun(n) => {
                self.alu_left = n - 1;
                Instr::Alu
            }
            TraceOp::Load { line, pc } => Instr::Load { line, pc },
            TraceOp::Store { line, pc } => Instr::Store { line, pc },
            TraceOp::Sync => Instr::SyncLoads,
        })
    }

    fn alu_run(&self) -> u64 {
        let next_runs = self.data.ops[self.warp][self.pos..]
            .iter()
            .map_while(|op| match *op {
                TraceOp::AluRun(n) => Some(u64::from(n)),
                _ => None,
            });
        u64::from(self.alu_left) + next_runs.sum::<u64>()
    }

    fn skip_alu(&mut self, mut n: u64) {
        while n > 0 {
            if self.alu_left == 0 {
                let TraceOp::AluRun(run) = self.data.ops[self.warp][self.pos] else {
                    unreachable!("skip_alu past the ALU run");
                };
                self.pos += 1;
                self.alu_left = run;
            }
            let k = n.min(u64::from(self.alu_left));
            self.alu_left -= k as u32;
            n -= k;
        }
    }
}

// ---------------------------------------------------------------------------
// Accel-Sim-style importer.
// ---------------------------------------------------------------------------

/// Import a simple Accel-Sim-style kernel trace (the `.traceg` text shape:
/// `warp = <id>` headers followed by instruction lines
/// `PC mask dest_num [regs...] OPCODE src_num [regs...] [width addr...]`).
///
/// The importer understands a documented subset:
///
/// * `-key = value` metadata, `#BEGIN_TB`/`#END_TB`, `thread block = …`
///   and `insts = …` lines are skipped;
/// * opcodes starting `LD`/`LDG`/`LDL` become loads, `ST`/`STG`/`STL`
///   stores — taking the first `0x…` token as the byte address (folded to
///   a 128-byte line) and the instruction PC as the load site;
/// * opcodes containing `BAR` become [`Instr::SyncLoads`];
/// * everything else becomes one ALU instruction.
///
/// Warps are laid out round-robin over `schedulers_per_sm` schedulers of
/// as many SMs as needed, at most `warps_per_scheduler` warps each.
/// Distinct instruction PCs are densely renumbered so per-PC policies
/// (APCM) see a compact site space.
pub fn import_accelsim(
    text: &str,
    name: &str,
    schedulers_per_sm: usize,
    warps_per_scheduler: usize,
) -> Result<TraceData, TraceError> {
    assert!(schedulers_per_sm >= 1 && warps_per_scheduler >= 1);
    let mut warps: Vec<Vec<TraceOp>> = Vec::new();
    let mut current: Option<Vec<TraceOp>> = None;
    let mut pc_map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let dense_pc = |raw: u64, map: &mut std::collections::HashMap<u64, u32>| -> u32 {
        let next = map.len() as u32;
        *map.entry(raw).or_insert(next)
    };

    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with('-')
            || line.starts_with('#')
            || line.starts_with("thread block")
            || line.starts_with("insts")
        {
            continue;
        }
        if let Some(rest) = line.strip_prefix("warp") {
            let rest = rest.trim_start_matches([' ', '=']).trim();
            rest.parse::<u64>().map_err(|_| TraceError::Parse {
                line: i + 1,
                msg: format!("invalid warp header {line:?}"),
            })?;
            if let Some(w) = current.take() {
                warps.push(w);
            }
            current = Some(Vec::new());
            continue;
        }
        let Some(ops) = current.as_mut() else {
            return Err(TraceError::Parse {
                line: i + 1,
                msg: "instruction before any `warp = …` header".into(),
            });
        };
        let toks: Vec<&str> = line.split_whitespace().collect();
        // PC mask dest_num [dest_regs]*dest_num OPCODE ...
        let parse = || -> Option<(u64, &str, Option<u64>)> {
            let pc = u64::from_str_radix(toks.first()?, 16).ok()?;
            let dest_num: usize = toks.get(2)?.parse().ok()?;
            let opcode = toks.get(3 + dest_num)?;
            let addr = toks
                .iter()
                .find(|t| t.starts_with("0x"))
                .and_then(|t| u64::from_str_radix(&t[2..], 16).ok());
            Some((pc, opcode, addr))
        };
        let Some((pc, opcode, addr)) = parse() else {
            return Err(TraceError::Parse {
                line: i + 1,
                msg: format!("unparseable instruction {line:?}"),
            });
        };
        let op = opcode.split('.').next().unwrap_or(opcode);
        if op.starts_with("LD") || op.starts_with("ST") {
            let line_addr = addr.ok_or_else(|| TraceError::Parse {
                line: i + 1,
                msg: format!("memory instruction without an address: {raw:?}"),
            })? >> 7;
            let pc = dense_pc(pc, &mut pc_map);
            ops.push(if op.starts_with("LD") {
                TraceOp::Load {
                    line: line_addr,
                    pc,
                }
            } else {
                TraceOp::Store {
                    line: line_addr,
                    pc,
                }
            });
            // Accel-Sim traces carry no explicit dependence token; treat
            // every load group as immediately consumed (conservative:
            // memory-latency-bound replay).
            if op.starts_with("LD") {
                ops.push(TraceOp::Sync);
            }
        } else if op.contains("BAR") {
            ops.push(TraceOp::Sync);
        } else {
            match ops.last_mut() {
                Some(TraceOp::AluRun(n)) => *n += 1,
                _ => ops.push(TraceOp::AluRun(1)),
            }
        }
    }
    if let Some(w) = current.take() {
        warps.push(w);
    }
    if warps.is_empty() {
        return Err(TraceError::Parse {
            line: 1,
            msg: "no warps found".into(),
        });
    }

    // Lay the imported warps out over the requested machine shape.
    let per_sm = schedulers_per_sm * warps_per_scheduler;
    let sms = warps.len().div_ceil(per_sm);
    let mut ops = vec![Vec::new(); sms * per_sm];
    for (i, w) in warps.into_iter().enumerate() {
        ops[i] = w;
    }
    Ok(TraceData {
        name: name.to_string(),
        warps_per_scheduler,
        n_pcs: pc_map.len().max(1),
        sms,
        schedulers: schedulers_per_sm,
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessMix, KernelSpec};

    fn sample_data() -> TraceData {
        record_kernel(
            &KernelSpec::steady("t", AccessMix::memory_sensitive(), 9).with_warps(2),
            "t",
            1,
            2,
            200,
        )
    }

    #[test]
    fn text_round_trip_is_exact() {
        let data = sample_data();
        let back = TraceData::from_text(&data.to_text()).unwrap();
        assert_eq!(data, back);
    }

    #[test]
    fn replay_matches_live_generator() {
        let spec = KernelSpec::steady("t", AccessMix::memory_sensitive(), 3).with_warps(4);
        let data = record_kernel(&spec, "t", 2, 2, 500);
        let tref = TraceRef::from_data(data);
        for (sm, sched, warp) in [(0, 0, 0), (1, 1, 3), (0, 1, 2)] {
            let mut live = spec.stream_for(sm, sched, warp);
            let mut replay = tref.stream_for(sm, sched, warp);
            for i in 0..500 {
                assert_eq!(
                    replay.next_instr(),
                    live.next_instr(),
                    "divergence at {sm}/{sched}/{warp} instr {i}"
                );
            }
        }
    }

    #[test]
    fn replay_folds_geometry_modulo() {
        let spec = KernelSpec::steady("t", AccessMix::memory_sensitive(), 3).with_warps(2);
        let tref = TraceRef::from_data(record_kernel(&spec, "t", 1, 2, 100));
        let take = |sm: usize| -> Vec<Option<Instr>> {
            let mut s = tref.stream_for(sm, 0, 1);
            (0..50).map(|_| s.next_instr()).collect()
        };
        assert_eq!(take(0), take(5), "SMs beyond the geometry fold modulo");
    }

    #[test]
    fn finite_replay_ends() {
        let tref = TraceRef::from_data(sample_data());
        let mut s = tref.stream_for(0, 0, 0);
        let mut n = 0;
        while s.next_instr().is_some() {
            n += 1;
            assert!(n <= 100_000, "replay must terminate");
        }
        assert!(n >= 200, "recorded 200 ops must expand to >= 200 instrs");
    }

    #[test]
    fn digest_identifies_content_not_location() {
        let data = sample_data();
        let dir = std::env::temp_dir().join(format!("poise-trace-test-{}", std::process::id()));
        let a = TraceRef::write(&data, dir.join("a.trace")).unwrap();
        let b = TraceRef::write(&data, dir.join("sub/b.trace")).unwrap();
        assert_eq!(a, b, "same bytes, same workload");
        assert_eq!(a.digest, TraceRef::from_data(data).digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_traces_error() {
        let text = sample_data().to_text();
        // Truncation: drop the end-trace marker (and some tail).
        let cut = &text[..text.len() - 30];
        assert!(matches!(
            TraceData::from_text(cut),
            Err(TraceError::Truncated) | Err(TraceError::Parse { .. })
        ));
        // Wrong header.
        assert!(matches!(
            TraceData::from_text("# other format\n"),
            Err(TraceError::BadHeader)
        ));
        // Implausible n_pcs is a parse error, not an allocation request
        // forwarded to the simulator's per-PC tracking.
        let huge_pcs = text.replacen("n_pcs 4", "n_pcs 999999999999", 1);
        assert_ne!(huge_pcs, text);
        assert!(matches!(
            TraceData::from_text(&huge_pcs),
            Err(TraceError::Parse { .. })
        ));
        // Counts whose products overflow are parse errors too, in the
        // geometry and in a warp header.
        for (needle, replacement, line) in [
            ("geometry 1 2\n", "geometry 4294967296 4294967296\n", 5),
            ("warp 0 0 0\n", "warp 18446744073709551615 0 0\n", 6),
        ] {
            let bad = text.replacen(needle, replacement, 1);
            assert_ne!(bad, text, "test needle {needle:?} must occur");
            match TraceData::from_text(&bad) {
                Err(TraceError::Parse { line: l, .. }) => assert_eq!(l, line),
                other => panic!("expected a parse error at line {line}, got {other:?}"),
            }
        }
        // Garbage op line: error names the line.
        let garbled = text.replacen("\ny\n", "\nq zzz\n", 1);
        match TraceData::from_text(&garbled) {
            Err(TraceError::Parse { line, .. }) => assert!(line > 4),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Out-of-range pc.
        let bad_pc = text.replacen(" 2\n", " 99\n", 1);
        if bad_pc != text {
            assert!(TraceData::from_text(&bad_pc).is_err());
        }
        // Trailing garbage on any op line — including loads/stores — is
        // rejected, not silently dropped.
        for (needle, replacement) in [("\ny\n", "\ny junk\n"), ("\nl ", "\nl deadbeef 0 junk\nl ")]
        {
            let garbled = text.replacen(needle, replacement, 1);
            assert_ne!(garbled, text, "test needle {needle:?} must occur");
            assert!(
                matches!(
                    TraceData::from_text(&garbled),
                    Err(TraceError::Parse { .. })
                ),
                "trailing tokens in {needle:?} line must be a parse error"
            );
        }
    }

    #[test]
    fn load_checks_the_header_and_decodes_the_body_on_first_use() {
        let text = sample_data().to_text();
        let dir = std::env::temp_dir().join(format!("poise-trace-lazy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let with_line = |i: usize, replacement: &str| -> String {
            let mut lines: Vec<&str> = text.lines().collect();
            lines[i] = replacement;
            lines.iter().map(|l| format!("{l}\n")).collect()
        };

        // A valid header over a corrupt body loads with the header's
        // identity and the file's digest.
        let corrupt = with_line(20, "l zzzz 1");
        std::fs::write(&path, &corrupt).unwrap();
        let t = TraceRef::load(&path).expect("the header is valid");
        assert_eq!(t.name(), "t");
        assert_eq!(KernelSource::warps_per_scheduler(&t), 2);
        assert!(format!("{t:?}").contains("geometry: (1, 2)"), "{t:?}");
        assert_eq!(t.digest, sha256_hex_bytes(corrupt.as_bytes()));
        // Its first decode fails as decoding the whole text does, and
        // every clone sees that one decode.
        let Err(TraceError::Parse { line, msg }) = TraceData::from_text(&corrupt) else {
            panic!("the corrupt body must be a parse error");
        };
        assert_eq!(line, 21);
        for r in [t.clone(), t] {
            match r.data() {
                Err(TraceError::Parse { line: l, msg: m }) => assert_eq!((*l, m), (line, &msg)),
                other => panic!("expected the decode's parse error, got {other:?}"),
            }
        }

        // Any corrupt header line still fails the load itself, with the
        // error a full decode reports.
        for i in 0..HEADER_LINES {
            let bad = with_line(i, "x 1");
            std::fs::write(&path, &bad).unwrap();
            let err = TraceRef::load(&path).expect_err("a corrupt header fails the load");
            let whole = TraceData::from_text(&bad).expect_err("and the full decode");
            assert_eq!(err.to_string(), whole.to_string(), "header line {}", i + 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn importer_understands_accelsim_subset() {
        let text = "\
-kernel name = vecadd
#BEGIN_TB
thread block = 0,0,0
warp = 0
insts = 5
0008 ffffffff 1 R1 IMAD 0
0010 ffffffff 1 R2 LDG.E 1 R1 4 0x7f0000000200
0018 ffffffff 0 BAR.SYNC 0
0020 ffffffff 0 STG.E 1 R2 4 0x7f0000000400
0028 ffffffff 1 R3 EXIT 0
warp = 1
0008 ffffffff 1 R1 IMAD 0
0010 ffffffff 1 R2 LDG.E 1 R1 4 0x7f0000000280
#END_TB
";
        let data = import_accelsim(text, "vecadd", 2, 4).unwrap();
        assert_eq!(data.sms, 1);
        assert_eq!(data.warps_per_scheduler, 4);
        let w0 = data.warp_ops(0, 0, 0);
        assert!(matches!(w0[0], TraceOp::AluRun(1)));
        assert!(matches!(w0[1], TraceOp::Load { line, pc: 0 } if line == 0x7f0000000200 >> 7));
        assert!(matches!(w0[2], TraceOp::Sync)); // implicit load consumer
        assert!(matches!(w0[3], TraceOp::Sync)); // BAR.SYNC
        assert!(matches!(w0[4], TraceOp::Store { pc: 1, .. }));
        assert_eq!(data.n_pcs, 2);
        // Unheadered instructions are an error.
        assert!(import_accelsim("0008 ffffffff 0 NOP 0\n", "x", 2, 4).is_err());
        // Round-trips through the native format.
        let back = TraceData::from_text(&data.to_text()).unwrap();
        assert_eq!(data, back);
    }
}
