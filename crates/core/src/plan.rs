//! Declarative experiment plans: typed sweep axes, a knob overlay, and
//! cartesian expansion into deduplicating [`SimJob`] sets.
//!
//! The paper's headline results are *sensitivity studies* — sweeps over
//! L1 capacity (Fig. 12), Poise's hyperparameters (Figs. 11/16) and
//! machine size — so the experiment API is organised around describing a
//! sweep instead of hand-enumerating its points:
//!
//! * [`Knob`] — every settable experiment parameter (SM count, L1/L2
//!   geometry, cycle budgets, profiling grids, any [`PoiseParams`]
//!   field), with a stable CLI name, a value grammar, and an `apply`
//!   onto [`Setup`];
//! * [`KnobOverlay`] — an ordered list of `knob = value` assignments,
//!   parsed **once** at CLI entry from `--set k=v` arguments and applied
//!   explicitly to a base [`Setup`]. `Setup::default()` itself never
//!   reads the environment, so two jobs built in the same process can
//!   never disagree because a variable changed mid-run;
//! * [`Axis`] — one swept knob with the values it takes
//!   (`--sweep k=a,b,c`);
//! * [`ExperimentPlan`] — a base setup plus axes whose cartesian product
//!   expands ([`ExperimentPlan::expand`]) into per-point
//!   [`SweepPoint`]s and the union of every point's jobs. Jobs whose
//!   canonical spec is identical across points (an offline profile a
//!   `run_cycles` sweep does not disturb, the one base-machine model an
//!   SM sweep deploys everywhere) are *shared*: the engine executes them
//!   once and the expansion reports how many ([`PlanExpansion::shared`]).
//!
//! Jobs unique to one sweep point get the point's display tag (e.g.
//! `sms=16`) so `run_all` progress lines are distinguishable within a
//! sweep; shared jobs stay untagged.

use crate::experiment::Setup;
use crate::jobs::{IdentityTable, SimJob};
use crate::profiler::GridSpec;
use gpu_sim::SetIndexing;
use poise_ml::ScoringWeights;

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Knobs and their values.
// ---------------------------------------------------------------------------

/// Every experiment knob a plan can set or sweep. Each knob has a stable
/// CLI name (`Knob::name`), a typed value grammar (`Knob::parse_value`)
/// and an application onto [`Setup`] (`Knob::apply`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Simulated SM count; rescales the shared L2 banks / DRAM
    /// partitions proportionally, like [`gpu_sim::GpuConfig::scaled`].
    Sms,
    /// L1 capacity as a multiple of the baseline 16 KB geometry
    /// (Fig. 12 sweeps 1/2/4). Absolute like every other knob: a later
    /// assignment replaces an earlier one, it does not compound.
    L1Scale,
    /// L1 set count (absolute).
    L1Sets,
    /// L1 associativity.
    L1Ways,
    /// L1 set-index function: `linear` or `hashed`.
    L1Indexing,
    /// Shared L2 bank count.
    L2Banks,
    /// Cycle budget of evaluation runs.
    RunCycles,
    /// Kernels per evaluation benchmark (deterministic subsample).
    KernelsCap,
    /// Kernels per training benchmark.
    TrainCap,
    /// Profiling warmup cycles.
    ProfileWarmup,
    /// Profiling measurement cycles.
    ProfileMeasure,
    /// Grid profiled for the static schemes: `full:N`, `coarse:N` or
    /// `diagonal:N`.
    EvalGrid,
    /// Grid profiled for training samples (same grammar).
    TrainGrid,
    /// Poise inference epoch length (Table IV `Tperiod`).
    TPeriod,
    /// Poise warmup window (`Twarmup`).
    TWarmup,
    /// Poise feature-sampling window (`Tfeature`).
    TFeature,
    /// Poise search-sampling window (`Tsearch`).
    TSearch,
    /// Poise compute-intensity cut-off (`Imax`).
    IMax,
    /// Local-search strides as a pair `eN:ep` (Fig. 11).
    Strides,
    /// Eq. 12 scoring weights as `w0:w1:w2`.
    Scoring,
}

/// A typed knob value. Produced by [`Knob::parse_value`] (CLI) or
/// the typed [`Axis`] constructors; consumed by [`Knob::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum KnobValue {
    /// A count (SM count, sets, ways, caps, strides).
    Count(usize),
    /// A cycle budget.
    Cycles(u64),
    /// A real-valued parameter.
    Real(f64),
    /// A set-index function.
    Indexing(SetIndexing),
    /// A profiling grid, keeping the literal it was written as.
    Grid(String, GridSpec),
    /// A `(stride_n, stride_p)` pair.
    Pair(usize, usize),
    /// Scoring weights.
    Weights([f64; 3]),
}

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobValue::Count(v) => write!(f, "{v}"),
            KnobValue::Cycles(v) => write!(f, "{v}"),
            KnobValue::Real(v) => write!(f, "{v}"),
            KnobValue::Indexing(SetIndexing::Linear) => write!(f, "linear"),
            KnobValue::Indexing(SetIndexing::Hashed) => write!(f, "hashed"),
            KnobValue::Grid(name, _) => write!(f, "{name}"),
            KnobValue::Pair(n, p) => write!(f, "{n}:{p}"),
            KnobValue::Weights([a, b, c]) => write!(f, "{a}:{b}:{c}"),
        }
    }
}

/// All knobs with their CLI names, in documentation order.
pub const KNOBS: [(Knob, &str); 20] = [
    (Knob::Sms, "sms"),
    (Knob::L1Scale, "l1_scale"),
    (Knob::L1Sets, "l1_sets"),
    (Knob::L1Ways, "l1_ways"),
    (Knob::L1Indexing, "l1_indexing"),
    (Knob::L2Banks, "l2_banks"),
    (Knob::RunCycles, "run_cycles"),
    (Knob::KernelsCap, "kernels_cap"),
    (Knob::TrainCap, "train_cap"),
    (Knob::ProfileWarmup, "profile_warmup"),
    (Knob::ProfileMeasure, "profile_measure"),
    (Knob::EvalGrid, "eval_grid"),
    (Knob::TrainGrid, "train_grid"),
    (Knob::TPeriod, "t_period"),
    (Knob::TWarmup, "t_warmup"),
    (Knob::TFeature, "t_feature"),
    (Knob::TSearch, "t_search"),
    (Knob::IMax, "i_max"),
    (Knob::Strides, "strides"),
    (Knob::Scoring, "scoring"),
];

fn knob_list() -> String {
    KNOBS.iter().map(|(_, n)| *n).collect::<Vec<_>>().join(", ")
}

impl Knob {
    /// The stable CLI name (`--set <name>=<value>`).
    pub fn name(self) -> &'static str {
        KNOBS
            .iter()
            .find(|(k, _)| *k == self)
            .map(|(_, n)| *n)
            .expect("every knob is listed in KNOBS")
    }

    /// Look a knob up by CLI name.
    pub fn from_name(name: &str) -> Option<Knob> {
        KNOBS.iter().find(|(_, n)| *n == name).map(|(k, _)| *k)
    }

    /// Parse one value of this knob's grammar. Errors are loud and name
    /// the offending knob and literal.
    pub fn parse_value(self, s: &str) -> Result<KnobValue, String> {
        let s = s.trim();
        let bad = |what: &str| format!("invalid value `{s}` for knob `{}`: {what}", self.name());
        let count = |min: usize| -> Result<KnobValue, String> {
            let v: usize = s.parse().map_err(|_| bad("expected an integer"))?;
            if v < min {
                return Err(bad(&format!("must be >= {min}")));
            }
            Ok(KnobValue::Count(v))
        };
        match self {
            Knob::Sms | Knob::L1Scale | Knob::L1Sets | Knob::L1Ways | Knob::L2Banks => count(1),
            Knob::KernelsCap | Knob::TrainCap => count(0),
            Knob::RunCycles
            | Knob::ProfileWarmup
            | Knob::ProfileMeasure
            | Knob::TPeriod
            | Knob::TWarmup
            | Knob::TFeature
            | Knob::TSearch => {
                let v: u64 = s.parse().map_err(|_| bad("expected a cycle count"))?;
                Ok(KnobValue::Cycles(v))
            }
            Knob::IMax => {
                let v: f64 = s.parse().map_err(|_| bad("expected a number"))?;
                Ok(KnobValue::Real(v))
            }
            Knob::L1Indexing => match s {
                "linear" => Ok(KnobValue::Indexing(SetIndexing::Linear)),
                "hashed" => Ok(KnobValue::Indexing(SetIndexing::Hashed)),
                _ => Err(bad("expected `linear` or `hashed`")),
            },
            Knob::EvalGrid | Knob::TrainGrid => {
                let (kind, n) = s
                    .split_once(':')
                    .ok_or_else(|| bad("expected `full:N`, `coarse:N` or `diagonal:N`"))?;
                let n: usize = n.parse().map_err(|_| bad("grid size must be an integer"))?;
                if n == 0 {
                    return Err(bad("grid size must be >= 1"));
                }
                let grid = match kind {
                    "full" => GridSpec::full(n),
                    "coarse" => GridSpec::coarse(n),
                    "diagonal" => GridSpec::diagonal(n),
                    _ => return Err(bad("grid kind must be full, coarse or diagonal")),
                };
                Ok(KnobValue::Grid(s.to_string(), grid))
            }
            Knob::Strides => {
                let (n, p) = s
                    .split_once(':')
                    .ok_or_else(|| bad("expected `eN:ep`, e.g. `2:4`"))?;
                let n = n.parse().map_err(|_| bad("stride must be an integer"))?;
                let p = p.parse().map_err(|_| bad("stride must be an integer"))?;
                Ok(KnobValue::Pair(n, p))
            }
            Knob::Scoring => {
                let parts: Vec<&str> = s.split(':').collect();
                if parts.len() != 3 {
                    return Err(bad("expected `w0:w1:w2`"));
                }
                let mut w = [0.0; 3];
                for (i, p) in parts.iter().enumerate() {
                    w[i] = p.parse().map_err(|_| bad("weights must be numbers"))?;
                }
                Ok(KnobValue::Weights(w))
            }
        }
    }

    /// Apply one value of this knob to a [`Setup`]. Values always come
    /// from [`Knob::parse_value`] or the typed [`Axis`] constructors, so
    /// a kind mismatch is a caller bug and panics.
    pub fn apply(self, setup: &mut Setup, value: &KnobValue) {
        let kind_bug = || -> ! {
            panic!(
                "knob `{}` applied with mismatched value {value:?}",
                self.name()
            )
        };
        let as_count = |v: &KnobValue| -> usize {
            match v {
                KnobValue::Count(c) => *c,
                _ => kind_bug(),
            }
        };
        let as_cycles = |v: &KnobValue| -> u64 {
            match v {
                KnobValue::Cycles(c) => *c,
                _ => kind_bug(),
            }
        };
        match self {
            // In place (not `GpuConfig::scaled`, which rebuilds from the
            // baseline), so earlier overlay entries such as an L1
            // geometry override survive a later `sms=` assignment.
            Knob::Sms => setup.cfg.rescale_sms(as_count(value)),
            Knob::L1Scale => {
                // k x the *baseline* set count, not the running value:
                // every knob follows last-wins assignment semantics, so
                // `--set l1_scale=4 --set l1_scale=2` is 2x and a sweep
                // axis over a pre-scaled base does not compound.
                setup.cfg.l1.sets = gpu_sim::GpuConfig::baseline().l1.sets * as_count(value).max(1);
            }
            Knob::L1Sets => setup.cfg.l1.sets = as_count(value),
            Knob::L1Ways => setup.cfg.l1.ways = as_count(value),
            Knob::L1Indexing => match value {
                KnobValue::Indexing(ix) => setup.cfg.l1.indexing = *ix,
                _ => kind_bug(),
            },
            Knob::L2Banks => setup.cfg.l2.banks = as_count(value),
            Knob::RunCycles => setup.run_cycles = as_cycles(value),
            Knob::KernelsCap => setup.kernels_cap = as_count(value),
            Knob::TrainCap => setup.train_cap_per_benchmark = as_count(value),
            Knob::ProfileWarmup => setup.profile_window.warmup = as_cycles(value),
            Knob::ProfileMeasure => setup.profile_window.measure = as_cycles(value),
            Knob::EvalGrid => match value {
                KnobValue::Grid(_, g) => setup.eval_grid = g.clone(),
                _ => kind_bug(),
            },
            Knob::TrainGrid => match value {
                KnobValue::Grid(_, g) => setup.train_grid = g.clone(),
                _ => kind_bug(),
            },
            Knob::TPeriod => setup.params.t_period = as_cycles(value),
            Knob::TWarmup => setup.params.t_warmup = as_cycles(value),
            Knob::TFeature => setup.params.t_feature = as_cycles(value),
            Knob::TSearch => setup.params.t_search = as_cycles(value),
            Knob::IMax => match value {
                KnobValue::Real(v) => setup.params.i_max = *v,
                _ => kind_bug(),
            },
            Knob::Strides => match value {
                KnobValue::Pair(n, p) => {
                    setup.params.stride_n = *n;
                    setup.params.stride_p = *p;
                }
                _ => kind_bug(),
            },
            Knob::Scoring => match value {
                KnobValue::Weights(w) => setup.params.scoring = ScoringWeights(*w),
                _ => kind_bug(),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The knob overlay.
// ---------------------------------------------------------------------------

/// An ordered list of `knob = value` assignments applied to a base
/// [`Setup`]. Parsed exactly once at CLI entry from `--set` arguments
/// and then applied explicitly, so the setup a process runs with is a
/// pure function of its invocation.
#[derive(Debug, Clone, Default)]
pub struct KnobOverlay {
    sets: Vec<(Knob, KnobValue)>,
}

impl KnobOverlay {
    /// Parse `--set`-style assignments (`"knob=value"`). Unknown knobs
    /// and malformed values are loud errors, never silent defaults.
    pub fn parse(assignments: &[String]) -> Result<Self, String> {
        let mut overlay = KnobOverlay::default();
        for a in assignments {
            let (name, value) = a
                .split_once('=')
                .ok_or_else(|| format!("malformed --set `{a}`: expected knob=value"))?;
            let knob = Knob::from_name(name.trim()).ok_or_else(|| {
                format!(
                    "unknown knob `{}`; valid knobs: {}",
                    name.trim(),
                    knob_list()
                )
            })?;
            overlay.sets.push((knob, knob.parse_value(value)?));
        }
        Ok(overlay)
    }

    /// Append one assignment.
    pub fn push(&mut self, knob: Knob, value: KnobValue) {
        self.sets.push((knob, value));
    }

    /// This overlay followed by `later` (later assignments win, because
    /// application is in order).
    pub fn merged(mut self, later: KnobOverlay) -> KnobOverlay {
        self.sets.extend(later.sets);
        self
    }

    /// Whether any assignment is present.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Apply every assignment, in order, to `setup`.
    pub fn apply(&self, setup: &mut Setup) {
        for (knob, value) in &self.sets {
            knob.apply(setup, value);
        }
    }

    /// A copy of `base` with the overlay applied.
    pub fn applied_to(&self, base: &Setup) -> Setup {
        let mut s = base.clone();
        self.apply(&mut s);
        s
    }

    /// One-line `k=v k=v` summary for logs.
    pub fn summary(&self) -> String {
        self.sets
            .iter()
            .map(|(k, v)| format!("{}={v}", k.name()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

// ---------------------------------------------------------------------------
// Axes and plans.
// ---------------------------------------------------------------------------

/// One sweep axis: a knob and the values it takes, in order.
#[derive(Debug, Clone)]
pub struct Axis {
    /// The swept knob.
    pub knob: Knob,
    /// The values, in sweep order. Never empty.
    pub values: Vec<KnobValue>,
}

impl Axis {
    /// A validated axis. Errors on an empty value list.
    pub fn new(knob: Knob, values: Vec<KnobValue>) -> Result<Axis, String> {
        if values.is_empty() {
            return Err(format!("axis `{}` has no values", knob.name()));
        }
        Ok(Axis { knob, values })
    }

    /// Parse a `--sweep`-style axis: `knob=v1,v2,...`.
    pub fn parse(spec: &str) -> Result<Axis, String> {
        let (name, values) = spec
            .split_once('=')
            .ok_or_else(|| format!("malformed --sweep `{spec}`: expected knob=v1,v2,..."))?;
        let knob = Knob::from_name(name.trim()).ok_or_else(|| {
            format!(
                "unknown knob `{}`; valid knobs: {}",
                name.trim(),
                knob_list()
            )
        })?;
        let values = values
            .split(',')
            .map(|v| knob.parse_value(v))
            .collect::<Result<Vec<_>, _>>()?;
        Axis::new(knob, values)
    }

    /// An SM-count axis.
    pub fn sms(values: impl IntoIterator<Item = usize>) -> Axis {
        Axis::new(
            Knob::Sms,
            values.into_iter().map(KnobValue::Count).collect(),
        )
        .expect("non-empty sms axis")
    }

    /// An L1 capacity-scale axis (Fig. 12).
    pub fn l1_scale(values: impl IntoIterator<Item = usize>) -> Axis {
        Axis::new(
            Knob::L1Scale,
            values.into_iter().map(KnobValue::Count).collect(),
        )
        .expect("non-empty l1_scale axis")
    }

    /// An L1 set-indexing axis (a single value pins the function for
    /// every sweep point).
    pub fn l1_indexing(values: impl IntoIterator<Item = SetIndexing>) -> Axis {
        Axis::new(
            Knob::L1Indexing,
            values.into_iter().map(KnobValue::Indexing).collect(),
        )
        .expect("non-empty l1_indexing axis")
    }

    /// A run-cycle-budget axis.
    pub fn run_cycles(values: impl IntoIterator<Item = u64>) -> Axis {
        Axis::new(
            Knob::RunCycles,
            values.into_iter().map(KnobValue::Cycles).collect(),
        )
        .expect("non-empty run_cycles axis")
    }

    /// A Poise epoch-length axis.
    pub fn t_period(values: impl IntoIterator<Item = u64>) -> Axis {
        Axis::new(
            Knob::TPeriod,
            values.into_iter().map(KnobValue::Cycles).collect(),
        )
        .expect("non-empty t_period axis")
    }

    /// A search-stride axis of `(eN, ep)` pairs (Fig. 11).
    pub fn strides(values: impl IntoIterator<Item = (usize, usize)>) -> Axis {
        Axis::new(
            Knob::Strides,
            values
                .into_iter()
                .map(|(n, p)| KnobValue::Pair(n, p))
                .collect(),
        )
        .expect("non-empty strides axis")
    }
}

/// One point of an expanded sweep: the fully-applied [`Setup`] plus the
/// coordinates that produced it.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The setup of this point (base + every axis value applied).
    pub setup: Setup,
    /// `(knob, value)` per axis, in axis order.
    pub coords: Vec<(Knob, KnobValue)>,
    /// Display tag joining the *varied* axes only (`sms=16`, or
    /// `sms=16 t_period=50000`); empty for a single-point plan.
    pub tag: String,
}

/// A declarative experiment: a base [`Setup`] and the axes to sweep.
/// The cartesian product of the axes' values gives the sweep points.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// The setup every point starts from.
    pub base: Setup,
    /// The sweep axes (empty = the single base point).
    pub axes: Vec<Axis>,
}

/// The result of expanding a plan over a figure's job function.
#[derive(Debug)]
pub struct PlanExpansion {
    /// The sweep points, in cartesian order (last axis fastest).
    pub points: Vec<SweepPoint>,
    /// Every point's jobs, concatenated (point-unique `Run` jobs carry
    /// the point's tag). The engine deduplicates them by identity.
    pub jobs: Vec<SimJob>,
    /// Jobs (including dependencies such as offline profiles and model
    /// fits) reached from **two or more** sweep points — the work the
    /// sweep driver executes once instead of once per point. Counted
    /// by identity (see "Job identity" in [`crate::jobs`]).
    pub shared: usize,
}

impl ExperimentPlan {
    /// The trivial single-point plan.
    pub fn single(base: Setup) -> Self {
        ExperimentPlan {
            base,
            axes: Vec::new(),
        }
    }

    /// A plan over `axes`.
    pub fn new(base: Setup, axes: Vec<Axis>) -> Self {
        ExperimentPlan { base, axes }
    }

    /// The cartesian product of the axes, each point's setup built by
    /// applying its coordinates to the base in axis order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = vec![SweepPoint {
            setup: self.base.clone(),
            coords: Vec::new(),
            tag: String::new(),
        }];
        for axis in &self.axes {
            let varied = axis.values.len() > 1;
            let mut next = Vec::with_capacity(points.len() * axis.values.len());
            for point in &points {
                for value in &axis.values {
                    let mut setup = point.setup.clone();
                    axis.knob.apply(&mut setup, value);
                    let mut coords = point.coords.clone();
                    coords.push((axis.knob, value.clone()));
                    let mut tag = point.tag.clone();
                    if varied {
                        if !tag.is_empty() {
                            tag.push(' ');
                        }
                        tag.push_str(&format!("{}={value}", axis.knob.name()));
                    }
                    next.push(SweepPoint { setup, coords, tag });
                }
            }
            points = next;
        }
        points
    }

    /// Expand the plan over a figure's job function: call `jobs` once
    /// per point, tag point-unique `Run` jobs with the point's display
    /// tag, and count the jobs shared between points (over the full
    /// dependency closure, so a model fit a sweep deploys at every
    /// point is counted even though figures declare only the runs).
    /// Jobs intern in `ids`, the plan's identity table, and each point's
    /// closure walks the table's dependency edges, which the table
    /// derives once per entry. Expansion renders no spec text (see "Job
    /// identity" in [`crate::jobs`]).
    pub fn expand(
        &self,
        ids: &mut IdentityTable,
        jobs: impl Fn(&Setup) -> Vec<SimJob>,
    ) -> PlanExpansion {
        let points = self.points();
        // Each point's declared jobs and their table entries.
        let mut per_point: Vec<(Vec<SimJob>, Vec<usize>)> = Vec::with_capacity(points.len());
        // Table entry -> how many points reach it (declared or as a dep).
        let mut points_reaching: HashMap<usize, usize> = HashMap::new();
        for point in &points {
            let declared = jobs(&point.setup);
            let entries: Vec<usize> = declared
                .iter()
                .map(|job| ids.intern(Cow::Borrowed(job)).0)
                .collect();
            for i in ids.closure(&entries) {
                *points_reaching.entry(i).or_default() += 1;
            }
            per_point.push((declared, entries));
        }
        let shared = points_reaching.values().filter(|&&n| n >= 2).count();

        let mut out = Vec::new();
        for ((jobs, entries), point) in per_point.into_iter().zip(&points) {
            for (mut job, i) in jobs.into_iter().zip(entries) {
                // Tag only jobs unique to this point; a job shared across
                // points would otherwise wear the first declaring point's
                // tag, which is misleading.
                if let SimJob::Run(spec) = &mut job {
                    if !point.tag.is_empty() && points_reaching[&i] == 1 {
                        spec.tag = Some(point.tag.clone());
                    }
                }
                out.push(job);
            }
        }

        PlanExpansion {
            points,
            jobs: out,
            shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scheme;
    use crate::jobs::{graph_closure, KernelRunSpec};
    use workloads::{AccessMix, KernelSpec, Workload};

    fn kernel(seed: u64) -> Workload {
        KernelSpec::steady(format!("pk{seed}"), AccessMix::memory_sensitive(), seed).into()
    }

    #[test]
    fn cartesian_point_counts_and_tags() {
        let plan = ExperimentPlan::new(
            Setup::for_tests(),
            vec![
                Axis::sms([1, 2]),
                Axis::run_cycles([10_000, 20_000, 30_000]),
            ],
        );
        let points = plan.points();
        assert_eq!(points.len(), 6);
        // Last axis fastest; tags join both varied axes.
        assert_eq!(points[0].tag, "sms=1 run_cycles=10000");
        assert_eq!(points[1].tag, "sms=1 run_cycles=20000");
        assert_eq!(points[3].tag, "sms=2 run_cycles=10000");
        assert_eq!(points[0].setup.cfg.sms, 1);
        assert_eq!(points[3].setup.cfg.sms, 2);
        assert_eq!(points[5].setup.run_cycles, 30_000);
        // Single-value axes pin but do not enter the tag.
        let pinned = ExperimentPlan::new(
            Setup::for_tests(),
            vec![
                Axis::l1_indexing([SetIndexing::Linear]),
                Axis::l1_scale([1, 2]),
            ],
        );
        let pts = pinned.points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].tag, "l1_scale=1");
        assert!(pts
            .iter()
            .all(|p| p.setup.cfg.l1.indexing == SetIndexing::Linear));
    }

    #[test]
    fn single_point_plan_has_one_untagged_point() {
        let plan = ExperimentPlan::single(Setup::for_tests());
        let points = plan.points();
        assert_eq!(points.len(), 1);
        assert!(points[0].tag.is_empty());
        assert!(points[0].coords.is_empty());
    }

    #[test]
    fn expansion_shares_jobs_the_axis_does_not_disturb() {
        // A run_cycles sweep leaves the offline profile (an SWL
        // dependency) untouched: it must be counted shared, and the SWL
        // runs themselves must be distinct and tagged per point.
        let plan =
            ExperimentPlan::new(Setup::for_tests(), vec![Axis::run_cycles([10_000, 20_000])]);
        let exp = plan.expand(&mut IdentityTable::default(), |setup| {
            vec![SimJob::Run(KernelRunSpec::new(
                &kernel(1),
                Scheme::Swl,
                setup,
                None,
            ))]
        });
        assert_eq!(exp.points.len(), 2);
        assert_eq!(exp.jobs.len(), 2);
        // Closure: 2 distinct runs + 1 shared profile.
        assert_eq!(graph_closure(&exp.jobs).len(), 3);
        assert_eq!(exp.shared, 1, "the profile is reached from both points");
        // Both declared runs are point-unique, so both carry tags.
        let tags: Vec<_> = exp
            .jobs
            .iter()
            .map(|j| match j {
                SimJob::Run(r) => r.tag.clone().unwrap_or_default(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(tags, vec!["run_cycles=10000", "run_cycles=20000"]);
        assert!(exp.jobs[0].label().contains("run_cycles=10000"));
    }

    #[test]
    fn jobs_shared_between_points_stay_untagged() {
        // Sweeping t_period does not reach a GTO run's spec at all, so
        // the same GTO job is declared by both points: shared, untagged.
        let plan = ExperimentPlan::new(Setup::for_tests(), vec![Axis::t_period([5_000, 9_000])]);
        let exp = plan.expand(&mut IdentityTable::default(), |setup| {
            vec![SimJob::Run(KernelRunSpec::new(
                &kernel(2),
                Scheme::Gto,
                setup,
                None,
            ))]
        });
        assert_eq!(exp.jobs.len(), 2);
        assert_eq!(graph_closure(&exp.jobs).len(), 1);
        assert_eq!(exp.shared, 1);
        for j in &exp.jobs {
            let SimJob::Run(r) = j else { unreachable!() };
            assert_eq!(r.tag, None, "shared jobs must not wear one point's tag");
        }
    }

    #[test]
    fn overlay_parses_and_applies_in_order() {
        let overlay = KnobOverlay::parse(&[
            "sms=4".into(),
            "l1_scale=2".into(),
            "run_cycles=123".into(),
            "strides=1:3".into(),
            "eval_grid=diagonal:6".into(),
            "l1_indexing=linear".into(),
            "scoring=1:0.5:0.125".into(),
        ])
        .expect("valid overlay");
        let s = overlay.applied_to(&Setup::for_tests());
        assert_eq!(s.cfg.sms, 4);
        assert_eq!(s.cfg.l1.sets, 64, "2x the baseline 32 sets");
        assert_eq!(s.run_cycles, 123);
        assert_eq!((s.params.stride_n, s.params.stride_p), (1, 3));
        assert_eq!(s.eval_grid, GridSpec::diagonal(6));
        assert_eq!(s.cfg.l1.indexing, SetIndexing::Linear);
        assert_eq!(s.params.scoring.0, [1.0, 0.5, 0.125]);
        assert!(overlay.summary().contains("sms=4"));
        // Later assignments win — including l1_scale, which is anchored
        // to the baseline geometry precisely so it cannot compound.
        let o2 =
            overlay.merged(KnobOverlay::parse(&["sms=2".into(), "l1_scale=2".into()]).unwrap());
        let s2 = o2.applied_to(&Setup::for_tests());
        assert_eq!(s2.cfg.sms, 2);
        assert_eq!(
            s2.cfg.l1.sets, 64,
            "last l1_scale wins, no 2x2x compounding"
        );
    }

    #[test]
    fn sms_knob_matches_gpu_config_scaled() {
        use gpu_sim::GpuConfig;
        for sms in [1, 2, 4, 8, 16, 32] {
            let mut s = Setup::for_tests();
            s.cfg = GpuConfig::scaled(8);
            Knob::Sms.apply(&mut s, &KnobValue::Count(sms));
            assert_eq!(s.cfg, GpuConfig::scaled(sms), "sms={sms}");
        }
    }

    #[test]
    fn overlay_errors_are_loud() {
        for (bad, needle) in [
            ("bogus=1", "unknown knob `bogus`"),
            ("sms", "expected knob=value"),
            ("sms=zero", "invalid value `zero` for knob `sms`"),
            ("sms=0", "must be >= 1"),
            ("l1_indexing=diag", "expected `linear` or `hashed`"),
            ("eval_grid=full", "expected `full:N`"),
            ("eval_grid=cube:4", "grid kind must be"),
            ("strides=4", "expected `eN:ep`"),
            ("scoring=1:2", "expected `w0:w1:w2`"),
        ] {
            let err = KnobOverlay::parse(&[bad.to_string()]).unwrap_err();
            assert!(err.contains(needle), "`{bad}` -> {err}");
        }
        assert!(Axis::parse("sms=").is_err());
        assert!(Axis::parse("nope=1,2").unwrap_err().contains("valid knobs"));
        let axis = Axis::parse("sms=1,2,4").unwrap();
        assert_eq!(axis.values.len(), 3);
    }
}
