//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the column
//! (request) it belongs to. Spans stay in memory during the run and are
//! written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder; span times are relative to now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span timed by the caller.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent: None, req });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Nanoseconds each span's direct children cover (children of one
    /// span never overlap: the benchmark calls layers one at a time).
    fn covered_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// Self time of every span, in µs, grouped by name.
    pub fn self_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.covered_ns()) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Whole durations, in µs, of the spans named `name`.
    pub fn total_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// For every span named `name`, the µs its direct children cover.
    pub fn children_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.covered_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, c)| c as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON line to
    /// `perfbench/out/trace-<name>.jsonl` under the working directory (the
    /// checkout root); returns the path.
    pub fn save(&self, name: &str) -> Result<String, String> {
        let path = format!("perfbench/out/trace-{name}.jsonl");
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all("perfbench/out")?;
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.req
                )?;
            }
            w.flush()
        };
        write().map_err(|e| format!("write {path}: {e}"))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 1);
        t.time("child", Some(root), 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(root);
        let s = t.self_us();
        let child = s["child"][0];
        let root_self = s["root"][0];
        assert!(child >= 5_000.0);
        assert!(root_self < child, "root self {root_self} should exclude child {child}");
    }
}
