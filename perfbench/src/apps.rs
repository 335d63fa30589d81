//! `apps`: the paper's suite in one session, closed loop, in sequence — the
//! seven Parboil applications plus `vecadd` and `stencil3d`, at their
//! default (figure) scales. Each pass runs every app once; every pass's
//! virtual time must be bit-identical, and every digest must equal the
//! explicit-copy (CUDA-style) baseline's digest, computed once per run
//! after the timed passes.

use crate::report::{self, Outcome, Work, APPS};
use crate::stats;
use crate::trace::Tracer;
use gmac::{Gmac, GmacConfig, Session};
use hetsim::Platform;
use std::time::{Duration, Instant};
use workloads::{stencil3d::Stencil3d, vecadd::VecAdd, Variant, Workload};

/// Fewest set-ups per run (the reported `setup_s` is their median).
const SETUPS: usize = 9;

fn suite() -> Vec<Box<dyn Workload>> {
    let mut s = workloads::parboil_suite();
    s.push(Box::new(VecAdd::default()));
    s.push(Box::new(Stencil3d::default()));
    s
}

/// One platform with every app's kernels and input files, one runtime
/// under the default configuration and one session on it.
fn build(suite: &[Box<dyn Workload>]) -> workloads::WorkloadResult<(Gmac, Session)> {
    let mut platform = Platform::desktop_g280();
    for w in suite {
        w.register_kernels(&mut platform);
        w.prepare(&mut platform)?;
    }
    let gmac = Gmac::new(platform, GmacConfig::default());
    let session = gmac.session();
    Ok((gmac, session))
}

/// Runs passes for about `budget` (at least two). Each pass runs the
/// suite in a fresh session on a fresh runtime, so every pass starts from
/// the same state and must charge the same virtual time.
pub fn run(budget: Duration, tr: Option<&Tracer>, out: &mut Outcome) {
    let suite = suite();
    debug_assert!(suite.iter().map(|w| w.name()).eq(APPS));
    let mut setups = Vec::with_capacity(SETUPS);
    let timed_build = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let rig = build(&suite);
        setups.push(t.elapsed().as_secs_f64());
        rig
    };

    let begin = Instant::now();
    let mut pass_walls = Vec::new();
    let mut pass_gbps = Vec::new();
    let mut app_s: Vec<Vec<f64>> = vec![Vec::new(); suite.len()];
    let mut digests: Vec<Option<u64>> = vec![None; suite.len()];
    let mut passes: Vec<Work> = Vec::new();
    while passes.len() < 2 || begin.elapsed() < budget {
        let pass = passes.len() as u64;
        let (gmac, session) = match timed_build(&mut setups) {
            Ok(r) => r,
            Err(e) => {
                out.problem(format!("set-up failed: {e}"));
                return;
            }
        };
        let span = tr.map(|t| t.open("pass", None, pass, 0));
        let before = Work::snapshot(&gmac);
        let mut wall = 0.0;
        for (i, w) in suite.iter().enumerate() {
            let app = tr.map(|t| t.open(w.name(), span, pass, 0));
            let t = Instant::now();
            let result = w.run_gmac(&session);
            let secs = t.elapsed().as_secs_f64();
            if let (Some(t), Some(s)) = (tr, app) {
                t.close(s);
            }
            out.attempted += 1;
            wall += secs;
            app_s[i].push(secs);
            match result {
                Ok(d) if digests[i].is_none_or(|prev| prev == d) => digests[i] = Some(d),
                Ok(d) => out.fail(format!("{} pass {pass}: digest {d:#x} changed", w.name())),
                Err(e) => out.fail(format!("{} pass {pass}: {e}", w.name())),
            }
        }
        if let (Some(t), Some(s)) = (tr, span) {
            t.close(s);
        }
        let work = Work::snapshot(&gmac).since(before);
        pass_walls.push(wall);
        pass_gbps.push(stats::ratio(work.dma_bytes as f64, wall * 1e9));
        passes.push(work);
    }
    while setups.len() < SETUPS {
        if let Err(e) = timed_build(&mut setups) {
            out.problem(format!("set-up failed: {e}"));
        }
    }

    // Output check: the explicit-copy baseline must produce the same
    // digests (untimed).
    for (w, got) in suite.iter().zip(&digests) {
        match (workloads::run_variant(w.as_ref(), Variant::Cuda), got) {
            (Ok(base), Some(d)) if base.digest == *d => {}
            (Ok(base), Some(d)) => out.fail(format!(
                "{}: ADSM digest {d:#x} != CUDA baseline {:#x}",
                w.name(),
                base.digest
            )),
            (Ok(_), None) => {}
            (Err(e), _) => out.fail(format!("{}: CUDA baseline failed: {e}", w.name())),
        }
    }
    report::check_deterministic(out, "pass", &passes);

    let all = stats::sorted(&app_s.iter().flatten().copied().collect::<Vec<_>>());
    let wall_s = stats::median(&pass_walls);
    out.e2e.insert("setup_s", stats::median(&setups));
    out.e2e.insert("wall_s", wall_s);
    out.e2e.insert("gbps", stats::median(&pass_gbps));
    out.e2e
        .insert("p50_ms", stats::percentile(&all, 0.50) * 1e3);
    out.e2e
        .insert("p99_ms", stats::percentile(&all, 0.99) * 1e3);
    out.layer("latency_samples", all.len() as f64);
    for (w, s) in suite.iter().zip(&app_s) {
        out.layer(&format!("workloads.{}_s", w.name()), stats::median(s));
    }
    out.notes.push(format!(
        "{} passes of {} apps; p50/p99 over {} app runs (p99 is the slowest run below 1000 samples); virtual time per pass {} ns",
        passes.len(),
        suite.len(),
        all.len(),
        passes[0].virtual_ns
    ));
    let total = passes.iter().fold(Work::default(), |a, w| a.plus(*w));
    total.emit(out, passes.len() as f64, 1.0);
    report::finish_failures(out, total.evictions);
}
