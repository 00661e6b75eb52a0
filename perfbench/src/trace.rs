//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory and are written out once, when the
//! run ends, as Chrome trace-event JSON (open it in any trace viewer that
//! reads that format, e.g. Perfetto's or `chrome://tracing`) plus a text
//! rollup of self time per layer. With recording off, [`Tracer::span`]
//! only times the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use poise::fabric::json::{obj, Json};

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Span recorder (single-threaded: every span wraps a call made from the
/// benchmark's main thread).
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, returning its result and wall seconds. When recording,
    /// keep a span named `name` whose parent is the innermost open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us: self.micros(start),
                end_us: f64::NAN,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let r = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_us = self.micros(end);
        }
        (r, (end - start).as_secs_f64())
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn micros(&self, t: Instant) -> f64 {
        (t - self.t0).as_secs_f64() * 1e6
    }

    /// Chrome trace-event JSON ("X" complete events, one thread).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(layer_of(&s.name).to_string())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        obj(vec![
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
        .render()
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover, summed by layer (the span name up to its first `.`).
    pub fn rollup(&self) -> String {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut layers: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let e = layers.entry(layer_of(&s.name)).or_default();
            e.0 += s.end_us - s.start_us - child;
            e.1 += 1;
        }
        let total: f64 = layers.values().map(|v| v.0).sum();
        let mut rows: Vec<_> = layers.into_iter().collect();
        rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
        let mut out =
            String::from("# self time per layer (seconds, share of traced time, spans)\n");
        for (layer, (us, n)) in rows {
            let _ = writeln!(
                out,
                "{layer:<10} {:>10.4} {:>6.1}% {n:>7}",
                us / 1e6,
                100.0 * us / total.max(1e-9)
            );
        }
        out
    }

    /// Write `<stem>.trace.json` and `<stem>.rollup.txt`.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::write(dir.join(format!("{stem}.trace.json")), self.chrome_json())?;
        std::fs::write(dir.join(format!("{stem}.rollup.txt")), self.rollup())
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
