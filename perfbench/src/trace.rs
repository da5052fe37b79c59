//! Spans recorded by the benchmark around each call into a layer.
//!
//! Each generator thread owns a [`Recorder`]; spans nest through an
//! explicit stack, so a span's parent is the span open when it began.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. A disabled recorder only runs the closure, so untraced runs pay
//! nothing but a branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unit of work (pass or round) the span belongs to.
    pub unit: usize,
}

/// Per-thread span recorder.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: usize,
    unit: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: usize) -> Recorder {
        Recorder {
            enabled,
            epoch,
            thread,
            unit: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the following spans (a traced run
    /// alternates traced and untraced units to measure the overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Labels the following spans with unit of work `unit`.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            unit: self.unit,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per unit, the self time in seconds of every span name: the span's
    /// duration minus the time its children cover. Children of one span run
    /// on the same thread one after another, so their durations add.
    pub fn self_secs(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.unit)
                .or_default()
                .entry(span.name)
                .or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Appends this recorder's spans to `out` as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.thread, s.name, s.op, s.unit, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes every recorder's spans to `path`, creating its directory.
pub fn write_spans(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for recorder in recorders {
        recorder.write_jsonl(&mut file)?;
    }
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let by_unit = rec.self_secs();
        let names = &by_unit[&0];
        assert!(names["inner"] >= 0.02);
        assert!(names["outer"] < 0.01, "{names:?}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        assert_eq!(rec.span("x", 1, |_| 7), 7);
        assert!(rec.spans().is_empty());
    }
}
