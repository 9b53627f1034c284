//! The traced run's span log: one span around each of the benchmark's
//! own calls into a layer, kept in memory and written out at exit.
//!
//! A span records its name, host start and end (ns since the tracer
//! was created), the span open around it (its parent) and the operation
//! it belongs to. A layer's self time is its span's duration minus the
//! durations of its child spans.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use qram::telemetry::host_wall;

use crate::stats::elapsed_ns;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span wraps, e.g. `fleet.submit_at`.
    pub name: &'static str,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Operation (offer, request or shot batch) the span belongs to.
    pub op: u64,
    /// Host ns since the tracer was created.
    pub start_ns: u64,
    /// Host ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Host ns the span lasted.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, closed by [`Tracer::end`]; inert when tracing is off.
#[must_use]
pub struct Open(Option<u32>);

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations in ns.
    pub total_ns: u64,
    /// Summed durations minus the child spans they enclose, in ns.
    pub self_ns: u64,
}

/// The span recorder. Turned off, `begin` and `end` record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer, recording when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            base: host_wall(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the following spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
            start_ns: elapsed_ns(self.base),
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    #[inline]
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            self.spans[id as usize].end_ns = elapsed_ns(self.base);
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let value = f();
        self.end(open);
        value
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per-name totals, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Writes the span log as tab-separated rows
    /// `id parent op name start_ns end_ns` (parent `-` for none).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
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
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 0);
        tracer.span("inner", 0, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tracer.span("inner", 1, || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        tracer.end(outer);
        let totals = tracer.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(tracer.spans()[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("call", 3, || 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
