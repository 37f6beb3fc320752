//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer (the engine, the server, the cracker column, the base column,
//! persistence). Each span has a name, an optional tag that splits one
//! call site into classes (`crack`/`resolved`), start and end, the span
//! that caused it, and the request it belongs to. Spans stay in memory
//! until the run ends; the per-layer table is derived from them and they
//! are then written out as one tab-separated file.
//!
//! With tracing off every call is a no-op, so the untraced run pays
//! nothing but a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::measure::micros;

/// One recorded span. Ids are 1-based positions in the recorder; parent 0
/// means a root span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    tag: &'static str,
    start: Instant,
    end: Instant,
    parent: usize,
    request: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records a span and returns its id (0 when tracing is off).
    pub fn span(
        &mut self,
        name: &'static str,
        tag: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        request: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            tag,
            start,
            end,
            parent,
            request,
        });
        self.spans.len()
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so that
    /// children recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        let now = Instant::now();
        self.span(name, "", now, now, parent, request)
    }

    pub fn close(&mut self, id: usize) {
        if id > 0 {
            self.spans[id - 1].end = Instant::now();
        }
    }

    /// Durations in microseconds of every span called `name` (and tagged
    /// `tag`, when given), in recording order.
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| micros(s.end - s.start))
            .collect()
    }

    /// Per span name: count, total and self time in microseconds. Self
    /// time is a span's duration minus the part its children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            child_us[s.parent] += micros(s.end - s.start);
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = micros(s.end - s.start);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += (total - child_us[i + 1]).max(0.0);
        }
        out
    }

    /// Writes every span as one tab-separated line: id, parent, request,
    /// name, tag, start and end in nanoseconds since the recorder's origin.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\ttag\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.tag,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let round = tr.open("round", 0, 0);
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(10);
        let outer = tr.span("outer", "", t0, t1, round, 1);
        tr.span(
            "inner",
            "",
            t0,
            t0 + std::time::Duration::from_micros(4),
            outer,
            1,
        );
        tr.close(round);
        let (count, total, own) = tr.summary()["outer"];
        assert_eq!(count, 1);
        assert!((total - 10.0).abs() < 1e-6 && (own - 6.0).abs() < 1e-6);
        assert_eq!(tr.durations_us("inner", None).len(), 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", "", t0, t1, 0, 0), 0);
        assert!(off.durations_us("x", None).is_empty());
    }
}
