//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out once the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval: a layer boundary crossed by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.offer_round`.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Stream or catalog job the span belongs to, if job-scoped.
    pub job: Option<usize>,
}

impl Span {
    /// Length of the span.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// A span as the scheduler probe captures it, before it is placed in a
/// log: raw instants, no parent yet.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// Layer-qualified name.
    pub name: &'static str,
    /// When the call began.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// Job the call concerned, if any.
    pub job: Option<usize>,
}

/// Every span of one traced run, in recording order.
pub struct SpanLog {
    origin: Instant,
    /// The recorded spans; a span's id is its index.
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Adopt spans captured by a probe as children of `parent`.
    pub fn adopt(&mut self, raw: &[RawSpan], parent: usize) {
        for r in raw {
            self.record(r.name, r.start, r.end, Some(parent), r.job);
        }
    }

    /// Total time of `parent`'s direct children whose name starts with
    /// `prefix`.
    pub fn child_total(&self, parent: usize, prefix: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name.starts_with(prefix))
            .map(Span::duration)
            .sum()
    }

    /// Write the log as CSV (`id,name,parent,job,start_ns,end_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "id,name,parent,job,start_ns,end_ns")?;
        let opt = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_default();
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id},{},{},{},{},{}",
                s.name,
                opt(s.parent),
                opt(s.job),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_total_counts_direct_children_by_prefix() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let run = log.record("sim.run", t0, ms(10), None, None);
        log.record("core.offer_round", ms(1), ms(3), Some(run), None);
        log.record("core.task_finished", ms(4), ms(5), Some(run), Some(7));
        log.record("setup.stream_build", t0, ms(2), None, None);
        assert_eq!(log.child_total(run, "core."), Duration::from_millis(3));
        assert_eq!(log.spans[2].job, Some(7));
    }
}
