//! Metric names, per-run outcome and the result line.
//!
//! Every workload prints every end-to-end metric in `E2E` (untraced run)
//! or every per-layer metric in `LAYERS` (traced run); the sets are fixed
//! so results line up across workloads. A per-layer metric of a layer the
//! workload does not use reads 0.

use gmac::Gmac;
use hetsim::Category;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("gbps", "GB/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// The virtual-time ledger categories reported per layer.
pub const LEDGER: [(Category, &str); 8] = [
    (Category::Copy, "hetsim.copy_ms"),
    (Category::Signal, "hetsim.signal_ms"),
    (Category::Launch, "hetsim.launch_ms"),
    (Category::Sync, "hetsim.sync_ms"),
    (Category::Gpu, "hetsim.gpu_ms"),
    (Category::Cpu, "hetsim.cpu_ms"),
    (Category::Malloc, "hetsim.malloc_ms"),
    (Category::Free, "hetsim.free_ms"),
];

/// Applications of the `apps` workload, in run order.
pub const APPS: [&str; 9] = [
    "cp",
    "mri-fhd",
    "mri-q",
    "pns",
    "rpes",
    "sad",
    "tpacf",
    "vecadd",
    "stencil3d",
];

/// Per-layer metrics (traced run): name and unit. Counts and virtual
/// times are per unit of work (one `apps` pass, 1000 data-path
/// iterations, 1000 service jobs at the nominal rate).
pub const LAYERS: &[(&str, &str)] = &[
    ("protocol.release_us", "us"),
    ("protocol.acquire_us", "us"),
    ("protocol.eager_evictions", "count"),
    ("xfer.bytes_flushed", "bytes"),
    ("xfer.bytes_fetched", "bytes"),
    ("xfer.h2d_jobs", "count"),
    ("xfer.d2h_jobs", "count"),
    ("xfer.dma_wait_ms", "ms"),
    ("xfer.jobs_overlapped", "count"),
    ("shard.write_fault_us", "us"),
    ("shard.read_fault_us", "us"),
    ("shard.faults_read", "count"),
    ("shard.faults_write", "count"),
    ("shard.memo_hit_ratio", "ratio"),
    ("softmmu.tlb_hit_ratio", "ratio"),
    ("softmmu.bulk_write_gbps", "GB/s"),
    ("softmmu.bulk_read_gbps", "GB/s"),
    ("softmmu.bulk_write_vs_memcpy", "x"),
    ("softmmu.bulk_read_vs_memcpy", "x"),
    ("service.submit_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.run_us", "us"),
    ("service.handoff_us", "us"),
    ("service.queue_high_water", "count"),
    ("service.rejected", "count"),
    ("service.gen_late_ms", "ms"),
    ("service.open_p50_ms", "ms"),
    ("service.open_p99_ms", "ms"),
    ("service.open_samples", "count"),
    ("service.p50_peak_ms", "ms"),
    ("service.p99_peak_ms", "ms"),
    ("service.peak_samples", "count"),
    ("service.capacity_jobs_s", "1/s"),
    ("service.nominal_rate", "1/s"),
    ("service.max_rate_p99", "1/s"),
    ("hetsim.virtual_s", "sim_s"),
    ("hetsim.copy_ms", "sim_ms"),
    ("hetsim.signal_ms", "sim_ms"),
    ("hetsim.launch_ms", "sim_ms"),
    ("hetsim.sync_ms", "sim_ms"),
    ("hetsim.gpu_ms", "sim_ms"),
    ("hetsim.cpu_ms", "sim_ms"),
    ("hetsim.malloc_ms", "sim_ms"),
    ("hetsim.free_ms", "sim_ms"),
    ("workloads.cp_s", "s"),
    ("workloads.mri-fhd_s", "s"),
    ("workloads.mri-q_s", "s"),
    ("workloads.pns_s", "s"),
    ("workloads.rpes_s", "s"),
    ("workloads.sad_s", "s"),
    ("workloads.tpacf_s", "s"),
    ("workloads.vecadd_s", "s"),
    ("workloads.stencil3d_s", "s"),
    ("evict.evictions", "count"),
    ("floor.memcpy_gbps", "GB/s"),
    ("floor.mprotect_us", "us"),
    ("failed_frac", "ratio"),
    ("latency_samples", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("host.cores", "count"),
    ("host.page_size", "bytes"),
    ("host.mmap_backend", "bool"),
    ("host.seed", "id"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (app runs, iterations, jobs).
    pub attempted: u64,
    /// Operations that failed, mismatched or were refused.
    pub failed: u64,
    /// Broken invariants that make the run incorrect beyond single
    /// operations (non-deterministic virtual time, a stalled generator).
    pub problems: Vec<String>,
    /// End-to-end values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines (sample counts, per-stage splits) for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Records a failed operation with its reason (first few kept).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Records a run-level correctness problem.
    pub fn problem(&mut self, why: String) {
        self.notes.push(format!("PROBLEM: {why}"));
        self.problems.push(why);
    }
}

/// Runtime-side accounting over one measured interval: counters, DMA
/// ledger and the virtual-time ledger, read through `Gmac`'s public
/// introspection.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Work {
    pub faults_read: u64,
    pub faults_write: u64,
    pub eager_evictions: u64,
    pub bytes_flushed: u64,
    pub bytes_fetched: u64,
    pub h2d_jobs: u64,
    pub d2h_jobs: u64,
    pub dma_wait_ns: u64,
    pub jobs_overlapped: u64,
    pub memo_hits: u64,
    pub lookups: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub evictions: u64,
    pub dma_bytes: u64,
    pub virtual_ns: u64,
    pub ledger_ns: [u64; 8],
}

impl Work {
    /// Current totals of a runtime.
    pub fn snapshot(g: &Gmac) -> Work {
        let c = g.counters();
        let t = g.transfers();
        let l = g.ledger();
        Work {
            faults_read: c.faults_read,
            faults_write: c.faults_write,
            eager_evictions: c.eager_evictions,
            bytes_flushed: c.bytes_flushed,
            bytes_fetched: c.bytes_fetched,
            h2d_jobs: t.h2d_count,
            d2h_jobs: t.d2h_count,
            dma_wait_ns: c.dma_wait_ns,
            jobs_overlapped: c.jobs_overlapped,
            memo_hits: c.obj_memo_hits,
            lookups: c.obj_lookups,
            tlb_hits: c.tlb_hits,
            tlb_misses: c.tlb_misses,
            evictions: c.evictions,
            dma_bytes: t.h2d_bytes + t.d2h_bytes,
            virtual_ns: g.elapsed().as_nanos(),
            ledger_ns: LEDGER.map(|(cat, _)| l.get(cat).as_nanos()),
        }
    }

    fn zip(self, o: Work, f: impl Fn(u64, u64) -> u64) -> Work {
        Work {
            faults_read: f(self.faults_read, o.faults_read),
            faults_write: f(self.faults_write, o.faults_write),
            eager_evictions: f(self.eager_evictions, o.eager_evictions),
            bytes_flushed: f(self.bytes_flushed, o.bytes_flushed),
            bytes_fetched: f(self.bytes_fetched, o.bytes_fetched),
            h2d_jobs: f(self.h2d_jobs, o.h2d_jobs),
            d2h_jobs: f(self.d2h_jobs, o.d2h_jobs),
            dma_wait_ns: f(self.dma_wait_ns, o.dma_wait_ns),
            jobs_overlapped: f(self.jobs_overlapped, o.jobs_overlapped),
            memo_hits: f(self.memo_hits, o.memo_hits),
            lookups: f(self.lookups, o.lookups),
            tlb_hits: f(self.tlb_hits, o.tlb_hits),
            tlb_misses: f(self.tlb_misses, o.tlb_misses),
            evictions: f(self.evictions, o.evictions),
            dma_bytes: f(self.dma_bytes, o.dma_bytes),
            virtual_ns: f(self.virtual_ns, o.virtual_ns),
            ledger_ns: std::array::from_fn(|i| f(self.ledger_ns[i], o.ledger_ns[i])),
        }
    }

    /// Accounting accrued since `before`.
    pub fn since(self, before: Work) -> Work {
        self.zip(before, u64::saturating_sub)
    }

    /// Sum of two intervals.
    pub fn plus(self, other: Work) -> Work {
        self.zip(other, u64::wrapping_add)
    }

    /// The simulated part: virtual time and its ledger. Deterministic for
    /// a single-session run of a fixed input.
    pub fn simulated(&self) -> (u64, [u64; 8]) {
        (self.virtual_ns, self.ledger_ns)
    }

    /// Writes the counter-derived per-layer metrics of a total over
    /// `intervals` equal intervals, as `scale` × the per-interval mean
    /// (`evict.evictions` is a plain total: it must be 0). Dividing by the
    /// interval count first keeps deterministic values bit-identical
    /// however many intervals a run fits.
    pub fn emit(&self, out: &mut Outcome, intervals: f64, scale: f64) {
        let per = |v: u64| crate::stats::ratio(v as f64, intervals) * scale;
        out.layer("protocol.eager_evictions", per(self.eager_evictions));
        out.layer("xfer.bytes_flushed", per(self.bytes_flushed));
        out.layer("xfer.bytes_fetched", per(self.bytes_fetched));
        out.layer("xfer.h2d_jobs", per(self.h2d_jobs));
        out.layer("xfer.d2h_jobs", per(self.d2h_jobs));
        out.layer("xfer.dma_wait_ms", per(self.dma_wait_ns) / 1e6);
        out.layer("xfer.jobs_overlapped", per(self.jobs_overlapped));
        out.layer("shard.faults_read", per(self.faults_read));
        out.layer("shard.faults_write", per(self.faults_write));
        out.layer(
            "shard.memo_hit_ratio",
            crate::stats::ratio(
                self.memo_hits as f64,
                (self.memo_hits + self.lookups) as f64,
            ),
        );
        out.layer(
            "softmmu.tlb_hit_ratio",
            crate::stats::ratio(
                self.tlb_hits as f64,
                (self.tlb_hits + self.tlb_misses) as f64,
            ),
        );
        out.layer("evict.evictions", self.evictions as f64);
        out.layer("hetsim.virtual_s", per(self.virtual_ns) / 1e9);
        for (i, (_, name)) in LEDGER.iter().enumerate() {
            out.layer(name, per(self.ledger_ns[i]) / 1e6);
        }
    }
}

/// Checks that every interval's simulated accounting is identical (same
/// input, same session history ⇒ same virtual time, bit for bit).
pub fn check_deterministic(out: &mut Outcome, what: &str, intervals: &[Work]) {
    if let Some(first) = intervals.first() {
        for (i, w) in intervals.iter().enumerate().skip(1) {
            if w.simulated() != first.simulated() {
                out.problem(format!(
                    "{what} {i}: virtual time {} ns differs from {what} 0's {} ns (ledger {:?} vs {:?})",
                    w.virtual_ns, first.virtual_ns, w.ledger_ns, first.ledger_ns
                ));
            }
        }
    }
}

/// Counts the run's refused, failed or mismatched operations plus any
/// eviction (the working sets are sized to fit device memory).
pub fn finish_failures(out: &mut Outcome, evictions: u64) {
    if evictions > 0 {
        out.fail(format!(
            "{evictions} evictions: the working set did not fit"
        ));
    }
    let frac = crate::stats::ratio(out.failed as f64, out.attempted as f64);
    out.layer("failed_frac", frac);
}

/// `struct rusage` on Linux: two `timeval`s, then 14 `long`s, the first
/// of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process in MiB (`ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable value laid out as the C `struct rusage`,
    // and 0 is RUSAGE_SELF; the call writes only within it.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Formats a number for JSON: shortest exact representation, 0 for
/// non-finite values (which also mark the run incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, traced: bool) -> (String, bool) {
    let mut correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let mut metrics = String::new();
    let mut put = |name: &str, unit: &str, v: Option<f64>| {
        let v = match v {
            Some(v) if v.is_finite() => v,
            _ => {
                eprintln!("perfbench: metric {name} missing or not finite");
                correct = false;
                0.0
            }
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        );
    };
    if traced {
        for (name, unit) in LAYERS {
            put(
                name,
                unit,
                Some(out.layers.get(*name).copied().unwrap_or(0.0)),
            );
        }
    } else {
        for (name, unit) in E2E {
            put(name, unit, out.e2e.get(name).copied());
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    (line, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in E2E.iter().chain(LAYERS) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for app in APPS {
            assert!(seen.contains(format!("workloads.{app}_s").as_str()));
        }
        assert!(LEDGER.iter().all(|(_, n)| seen.contains(n)));
    }

    #[test]
    fn result_line_has_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in E2E {
            o.e2e.insert(name, 1.25);
        }
        let (line, ok) = result_line(&o, false);
        assert!(ok);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(E2E.iter().all(|(n, _)| line.contains(&format!("\"{n}\""))));
        let (line, ok) = result_line(&o, true);
        assert!(ok, "absent layers read 0");
        assert!(LAYERS
            .iter()
            .all(|(n, _)| line.contains(&format!("\"{n}\""))));
    }
}
