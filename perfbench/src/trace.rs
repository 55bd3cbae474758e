//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the program itself is not instrumented). Each span has a
//! name, a start and an end on one monotonic clock, the index of the span
//! that caused it, and the request it belongs to. Spans live in a flat `Vec`
//! until the run ends and are then written out as TSV.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names: the layer boundaries the benchmark times.
pub const NAMES: &[&str] = &[
    "case",
    "setup",
    "scen.build",
    "mecnet.neighborhood_index",
    "pass",
    "scen.gen",
    "mecnet.admission",
    "relaug.instance",
    "relaug.solve",
    "mecnet.ledger.reserve",
    "mecnet.ledger.commit",
    "relaug.stream.request",
    "sim.run",
];
pub const CASE: u8 = 0;
pub const SETUP: u8 = 1;
pub const BUILD: u8 = 2;
pub const NBHD: u8 = 3;
pub const PASS: u8 = 4;
pub const GEN: u8 = 5;
pub const ADMISSION: u8 = 6;
pub const INSTANCE: u8 = 7;
pub const SOLVE: u8 = 8;
pub const RESERVE: u8 = 9;
pub const COMMIT: u8 = 10;
pub const REQUEST: u8 = 11;
pub const SIM_RUN: u8 = 12;

/// Request id of spans that belong to no single request.
pub const NO_REQUEST: u32 = u32::MAX;
/// Parent index of root spans.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans kept in memory for the trace file. A pass that ends beyond this
/// many is still aggregated, then its spans are dropped, which bounds the
/// traced run's memory on million-request streams.
const RETAIN: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub req: u32,
    pub parent: u32,
    pub name: u8,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), dropped: 0 }
    }

    /// Nanoseconds since the tracer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a closed span and return its index (usable as a parent).
    #[inline]
    pub fn record(&mut self, name: u8, parent: u32, req: u32, start_ns: u64, end_ns: u64) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns).min(u32::MAX as u64) as u32,
            req,
            parent,
            name,
        });
        idx
    }

    /// Open a span whose end [`Tracer::close`] fills in — for spans that
    /// must exist (as a parent) before their children finish.
    pub fn open(&mut self, name: u8, parent: u32, req: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, idx: u32) {
        let now = self.now();
        let span = &mut self.spans[idx as usize];
        span.dur_ns = now.saturating_sub(span.start_ns).min(u32::MAX as u64) as u32;
    }

    /// Total duration (seconds) of the spans named `name` under `parent`.
    /// Children always follow their parent, so the scan starts there.
    pub fn total_s(&self, name: u8, parent: u32) -> f64 {
        self.spans[parent as usize..]
            .iter()
            .filter(|s| s.name == name && s.parent == parent)
            .map(|s| s.dur_ns as f64)
            .sum::<f64>()
            * 1e-9
    }

    /// Durations (ns) of the spans named `name` under `parent`.
    pub fn durations(&self, name: u8, parent: u32) -> impl Iterator<Item = u64> + '_ {
        self.spans[parent as usize..]
            .iter()
            .filter(move |s| s.name == name && s.parent == parent)
            .map(|s| s.dur_ns as u64)
    }

    /// Call once a case's spans are aggregated: drops them if the retained
    /// set has outgrown its budget.
    pub fn finish_case(&mut self, case_span: u32) {
        if self.spans.len() > RETAIN {
            let start = case_span as usize;
            self.dropped += (self.spans.len() - start) as u64;
            self.spans.truncate(start);
        }
    }

    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Write the retained spans as TSV (`index parent name request start_ns
    /// end_ns`); the header states how many were dropped.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "# spans: {} recorded, {} written (whole cases, in order)",
            self.recorded(),
            self.spans.len()
        )?;
        writeln!(w, "index\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let req = if s.req == NO_REQUEST { -1 } else { s.req as i64 };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{req}\t{}\t{}",
                NAMES[s.name as usize],
                s.start_ns,
                s.start_ns + s.dur_ns as u64
            )?;
        }
        w.flush()
    }
}
