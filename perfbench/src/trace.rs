//! Span recorder for the traced run.
//!
//! The benchmark opens one span around each public runtime call it makes
//! (and one per iteration, pass or job as their parent). Spans are kept in
//! memory and written once at exit as Chrome trace-event JSON, which opens
//! in Perfetto or `chrome://tracing`. Self time is a span's duration minus
//! the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of an open span, used as a parent reference.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Iteration, pass or job the span belongs to.
    id: u64,
    tid: u32,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns): duration minus child coverage.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64) / 1e3
    }
}

/// In-memory span log shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking thread")
    }

    /// Opens a span on thread `tid`; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, id: u64, tid: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut log = self.log();
        log.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            tid,
        });
        log.len() - 1
    }

    /// Closes an open span.
    pub fn close(&self, span: SpanId) {
        let end_ns = self.now_ns();
        self.log()[span].end_ns = end_ns;
    }

    /// Records an already-timed span (instants taken by another thread).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        id: u64,
        tid: u32,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut log = self.log();
        log.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            id,
            tid,
        });
        log.len() - 1
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.log().len()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let log = self.log();
        let mut child_ns = vec![0u64; log.len()];
        for s in log.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in log.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microsecond times).
    pub fn chrome_json(&self) -> String {
        let log = self.log();
        let mut out = String::with_capacity(log.len() * 120 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in log.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            );
            out.push_str(if i + 1 < log.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` inside a span when tracing; plain call otherwise.
pub fn span<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        None => f(),
        Some(t) => {
            let s = t.open(name, parent, id, 0);
            let r = f();
            t.close(s);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let root = t.open("root", None, 0, 0);
        let child = t.open("child", Some(root), 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(root);
        let s = t.summary();
        let (r, c) = (s["root"], s["child"]);
        assert_eq!((r.count, c.count), (1, 1));
        assert!(r.total_ns >= c.total_ns);
        assert_eq!(r.self_ns, r.total_ns - c.total_ns);
        assert_eq!(c.self_ns, c.total_ns);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"parent\":0"));
    }
}
