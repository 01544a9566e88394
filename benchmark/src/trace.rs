//! An in-memory span recorder.
//!
//! `bench_traced` wraps every call into a layer in a span — name, start,
//! end, the span that caused it, and the quantum both belong to — keeps
//! them in memory, and writes them out as JSON lines when the run ends.
//! A layer's *self time* is its spans' duration minus the part their
//! child spans cover, so nested spans never count time twice.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `akg.process`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while still open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The quantum being processed — the identifier spans of one unit of
    /// work share.
    pub quantum: u64,
}

/// Records spans in call order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans, so recording does
    /// not reallocate mid-measurement.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, quantum: u64) {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(index);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            quantum,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open.
    pub fn exit(&mut self) {
        let end_ns = self.now();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name and quantum, for the quanta from `first`
    /// on: each span's duration minus the durations of its direct
    /// children, summed per name into slot `quantum - first`.
    pub fn self_times(&self, first: u64, quanta: usize) -> BTreeMap<&'static str, Vec<u64>> {
        let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut own: Vec<u64> = self.spans.iter().map(duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let parent = &mut own[parent as usize];
                *parent = parent.saturating_sub(duration(span));
            }
        }
        let mut totals: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let slot = span.quantum.wrapping_sub(first) as usize;
            if span.quantum >= first && slot < quanta {
                totals.entry(span.name).or_insert_with(|| vec![0; quanta])[slot] += own;
            }
        }
        totals
    }

    /// Whole duration (children included) of the spans called `name`, per
    /// quantum from `first` on.
    pub fn durations(&self, name: &str, first: u64, quanta: usize) -> Vec<u64> {
        let mut totals = vec![0; quanta];
        for span in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.quantum >= first)
        {
            if let Some(slot) = totals.get_mut((span.quantum - first) as usize) {
                *slot += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        totals
    }

    /// Writes one JSON object per span:
    /// `{"name","start_ns","end_ns","parent","quantum"}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"quantum":{}}}"#,
                span.name, span.start_ns, span.end_ns, parent, span.quantum
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::with_capacity(4);
        rec.enter("quantum", 7);
        rec.enter("a.x", 7);
        rec.exit();
        rec.enter("b.y", 7);
        rec.enter("a.x", 7);
        rec.exit();
        rec.exit();
        rec.exit();
        // Replace the clock readings with known values.
        let times = [(0, 100), (10, 30), (40, 90), (50, 70)];
        for (span, (start, end)) in rec.spans.iter_mut().zip(times) {
            span.start_ns = start;
            span.end_ns = end;
        }
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[3].parent, Some(2));
        assert!(rec.spans().iter().all(|s| s.quantum == 7));
        let totals = rec.self_times(7, 1);
        assert_eq!(totals["quantum"], [100 - 20 - 50]);
        assert_eq!(totals["a.x"], [20 + 20]);
        assert_eq!(totals["b.y"], [50 - 20]);
        let sum: u64 = totals.values().map(|v| v[0]).sum();
        assert_eq!(sum, 100, "self times add up to the root");
        assert_eq!(rec.durations("quantum", 7, 1), [100]);
        assert_eq!(rec.durations("a.x", 7, 1), [40]);
        // Quanta before `first` or past the range are left out.
        assert!(rec.self_times(8, 1).is_empty());
        assert_eq!(rec.self_times(6, 3)["b.y"], [0, 30, 0]);
    }

    #[test]
    fn spans_round_trip_through_the_jsonl_file() {
        let mut rec = Recorder::with_capacity(2);
        rec.enter("quantum", 3);
        rec.enter("window.slide", 3);
        rec.exit();
        rec.exit();
        let path = crate::out_dir()
            .unwrap()
            .join(format!("trace-test-{}.jsonl", std::process::id()));
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = dengraph_json::parse(lines[1]).unwrap();
        assert_eq!(child.get("name").unwrap().as_str().unwrap(), "window.slide");
        assert_eq!(child.get("parent").unwrap().as_u64().unwrap(), 0);
        assert_eq!(child.get("quantum").unwrap().as_u64().unwrap(), 3);
        assert!(lines[0].contains(r#""parent":null"#), "{}", lines[0]);
    }
}
