//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer (name, start, end, parent span, op id), kept in memory and written
//! out as NDJSON once, at exit.  A disabled tracer records nothing and
//! never reads the clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub op: u64,
}

/// Self and total time of one layer, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl SelfTime {
    /// Mean self time per call, in milliseconds (0 without calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `work` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let result = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Records a span measured elsewhere (e.g. a child process's wall time)
    /// that ended now, under the innermost open span.
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
            end_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
    }

    /// Records a top-level span between two instants taken elsewhere (e.g.
    /// on a client thread).
    pub fn record_between(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            op: self.op,
        });
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: call count, total time and self time, i.e. each
    /// span's duration minus the part of it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                span.op
            )?;
        }
        out.flush()
    }
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut layers: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let layer = layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += span.end_ns - span.start_ns;
        layer.self_ns += (span.end_ns - span.start_ns).saturating_sub(covered);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) ⊃ parse [10, 20) and run [20, 90) ⊃ render [30, 40).
        let spans = [
            span("op", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("run", 20, 90, Some(0)),
            span("render", 30, 40, Some(2)),
            span("op", 100, 150, None),
        ];
        let times = self_times(&spans);
        assert_eq!(
            times["op"],
            SelfTime {
                calls: 2,
                self_ns: 20 + 50,
                total_ns: 100 + 50
            }
        );
        assert_eq!(times["parse"].self_ns, 10);
        assert_eq!(times["run"].self_ns, 60);
        assert_eq!(times["render"].self_ns, 10);
        assert_eq!(times["run"].mean_ms(), 60e-6);
    }

    #[test]
    fn the_recorder_nests_and_a_disabled_one_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(7);
        let value = tracer.span("op", |t| {
            t.span("inner", |_| ());
            t.record("child", Duration::from_nanos(1));
            42
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.op == 7 && s.start_ns <= s.end_ns));

        let mut off = Tracer::new(false);
        off.span("op", |t| t.record("child", Duration::from_millis(1)));
        assert!(off.spans().is_empty());
    }
}
