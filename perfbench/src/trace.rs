//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. Every span
//! carries its operation id (all spans of one request or batch share
//! it), its parent span, and start/end offsets. Spans stay in memory
//! until the run ends, then go to a JSON-lines file.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans while enabled; a disabled tracer only runs the closures,
/// so traced and untraced operations execute the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation; later spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.offset_ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.offset_ns(Instant::now());
        out
    }

    /// Self time of every span (its duration minus the time its children
    /// cover), summed per name and operation: `name -> op -> ns`.
    pub fn self_ns_per_op(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            *out.entry(s.name).or_default().entry(s.op).or_insert(0.0) += own as f64;
        }
        out
    }

    /// Median over operations of span `name`'s self time, in milliseconds.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let per_op = self.self_ns_per_op();
        let values: Vec<f64> = per_op.get(name)?.values().copied().collect();
        Some(crate::report::quantile(&values, 0.5) / 1e6)
    }

    /// Median over operations of span `total` minus the spans `stages` of
    /// the same operation: the part of `total` no stage row accounts for.
    pub fn residual_ms(&self, total: &str, stages: &[&str]) -> Option<f64> {
        let per_op = self.self_ns_per_op();
        let residuals: Vec<f64> = per_op
            .get(total)?
            .iter()
            .map(|(op, ns)| {
                let staged: f64 = stages.iter().filter_map(|s| per_op.get(s)?.get(op)).sum();
                ns - staged
            })
            .collect();
        Some(crate::report::quantile(&residuals, 0.5) / 1e6)
    }

    /// Attributes later spans to an earlier operation (deferred replays).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn op(&self) -> u64 {
        self.op
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
