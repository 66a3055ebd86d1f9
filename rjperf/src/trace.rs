//! Spans the benchmark records around its calls into each layer.
//!
//! A span holds its name, a tag (for example the algorithm a query ran),
//! start and end, its parent span, the request it belongs to, and the
//! ledger delta over the same interval. Spans stay in memory and are
//! written out when the run ends. When tracing is off, `begin` returns
//! `None` and nothing is read or stored.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use rj_store::metrics::MetricsSnapshot;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `rj_core.exec`.
    pub name: &'static str,
    /// Refinement known when the span ends (algorithm, write kind).
    pub tag: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
    /// Ledger delta over the span.
    pub delta: MetricsSnapshot,
    start_snap: MetricsSnapshot,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle of an open span (`None` while tracing is off).
pub type SpanId = Option<usize>;

/// The span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host seconds spent inside the recorder itself.
    pub self_s: f64,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            self_s: 0.0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (closed spans are kept).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle between requests only");
        self.on = on;
    }

    /// Opens a span nested in the innermost open one. `ledger` is read
    /// only while tracing.
    pub fn begin(
        &mut self,
        name: &'static str,
        req: u64,
        ledger: impl FnOnce() -> MetricsSnapshot,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let t = Instant::now();
        let start_snap = ledger();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag: "",
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            delta: MetricsSnapshot::default(),
            start_snap,
        });
        self.open.push(id);
        self.self_s += t.elapsed().as_secs_f64();
        Some(id)
    }

    /// Closes a span with its tag.
    pub fn end(&mut self, id: SpanId, tag: &'static str, ledger: impl FnOnce() -> MetricsSnapshot) {
        let Some(id) = id else { return };
        let t = Instant::now();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let end_snap = ledger();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.tag = tag;
        span.delta = end_snap.delta_since(&span.start_snap);
        self.self_s += t.elapsed().as_secs_f64();
    }

    /// Closed spans named `name` (and tagged `tag`, unless `tag` is
    /// `None`): their durations in microseconds.
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::us)
            .collect()
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// time its child spans cover.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Sum of the ledger deltas of the spans named `name`.
    pub fn ledger_sum(&self, name: &str) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            crate::measure::add_ledger(&mut total, &s.delta);
        }
        total
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\treq\tname\ttag\tstart_ns\tend_ns\tkv_reads\tkv_writes\tnet_bytes\trpcs\tsim_s\tadmin_kv_reads"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.9}\t{}",
                s.parent.map_or(-1, |p| p as i64),
                s.req,
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns,
                s.delta.kv_reads,
                s.delta.kv_writes,
                s.delta.network_bytes,
                s.delta.rpc_calls,
                s.delta.sim_seconds,
                s.delta.admin_kv_reads,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("op", 1, MetricsSnapshot::default);
        let child = t.begin("rj_core.exec", 1, MetricsSnapshot::default);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, "isl", MetricsSnapshot::default);
        t.end(root, "", MetricsSnapshot::default);
        let st = t.self_time_s();
        assert!(st["rj_core.exec"] >= 0.002);
        assert!(st["op"] < st["rj_core.exec"]);
        assert_eq!(t.durations_us("rj_core.exec", Some("isl")).len(), 1);
        assert_eq!(t.durations_us("rj_core.exec", Some("bfhm")).len(), 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 1, || panic!("ledger must not be read"));
        t.end(id, "", || panic!("ledger must not be read"));
        assert_eq!(t.len(), 0);
    }
}
