//! perfbench — one benchmark for the GMAC/ADSM runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <apps|upload|readback|service> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload drives the runtime only through its public API
//! (`Session`, `Shared<T>`, `Service`/`ServiceClient`/`Ticket` and
//! `Gmac::{counters, transfers, ledger}`) on the paper's machine
//! (`Platform::desktop_g280`) under the default `GmacConfig`, and checks
//! its outputs. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run first
//! measures untraced for half the time, then traced for the other half,
//! reports per-layer numbers from the traced half and their difference as
//! the tracing overhead, and writes its spans as Chrome trace-event JSON to
//! `.bench_out/`. The per-layer table (span counts, totals, self time) and
//! the host record go to stderr.

mod apps;
mod datapath;
mod floors;
mod host;
mod report;
mod service;
mod stats;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for checking a claim on unseen inputs.
const HELD_OUT_SEED: u64 = 7919;
const WORKLOADS: [&str; 4] = ["apps", "upload", "readback", "service"];
const USAGE: &str = "usage: perfbench --workload <apps|upload|readback|service> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.clamp(1, 120),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Runs one workload for `budget`.
fn measure(args: &Args, budget: Duration, tr: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "apps" => apps::run(budget, tr, &mut out),
        "upload" => datapath::run(datapath::Flow::Upload, args.seed, budget, tr, &mut out),
        "readback" => datapath::run(datapath::Flow::Readback, args.seed, budget, tr, &mut out),
        "service" => service::run(args.seed, budget, tr, &mut out),
        other => unreachable!("workload {other} was validated"),
    }
    out.e2e.insert("peak_rss_mb", report::peak_rss_mb());
    out
}

/// Cores, host page size and the address-space backend the default
/// configuration gets on this host.
fn host_record(out: &mut Outcome, seed: u64, fsize: host::FileSizeLimit) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let page = softmmu::sys::page_size().unwrap_or(0);
    let g = gmac::Gmac::new(
        hetsim::Platform::desktop_g280(),
        gmac::GmacConfig::default(),
    );
    let mmap = g.report().mmap_backing;
    out.layer("host.cores", cores as f64);
    out.layer("host.page_size", page as f64);
    out.layer("host.mmap_backend", f64::from(u8::from(mmap)));
    out.layer("host.seed", seed as f64);
    format!(
        "host: cores={cores} page_size={page} backend={} file_size_limit={fsize} seed={seed} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})",
        if mmap { "mmap" } else { "table-walk" }
    )
}

/// Adds the span-derived per-layer numbers and prints the span table.
fn span_layers(out: &mut Outcome, tr: &Tracer, base_wall: f64) {
    let summary = tr.summary();
    eprintln!(
        "{:<22} {:>9} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "mean_us"
    );
    for (name, s) in &summary {
        eprintln!(
            "{name:<22} {:>9} {:>12.3} {:>12.3} {:>10.2}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.mean_us()
        );
    }
    out.layer("trace.spans", tr.len() as f64);
    let traced_wall = out.e2e.get("wall_s").copied().unwrap_or(0.0);
    let overhead = (stats::ratio(traced_wall, base_wall) - 1.0) * 100.0;
    out.layer("trace.overhead_pct", overhead);
    eprintln!("tracing overhead: wall_s traced {traced_wall:.6} s vs untraced {base_wall:.6} s ({overhead:+.2}%)");
}

fn write_trace(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => eprintln!(
            "spans written to {} (Chrome trace-event JSON)",
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let fsize = host::lift_file_size_limit();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut out = if args.trace {
        let half = budget / 2;
        let base = measure(&args, half, None);
        let tr = Tracer::new();
        let mut traced = measure(&args, half, Some(&tr));
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.problems.extend(base.problems);
        let traced_notes = std::mem::take(&mut traced.notes);
        traced.notes = base
            .notes
            .into_iter()
            .map(|n| format!("untraced half: {n}"))
            .collect();
        traced.notes.extend(
            traced_notes
                .into_iter()
                .map(|n| format!("traced half: {n}")),
        );
        span_layers(
            &mut traced,
            &tr,
            base.e2e.get("wall_s").copied().unwrap_or(0.0),
        );
        write_trace(&args, &tr);
        traced
    } else {
        measure(&args, budget, None)
    };
    let host = host_record(&mut out, args.seed, fsize);
    eprintln!("workload {}: {host}", args.workload);
    for note in &out.notes {
        eprintln!("  {note}");
    }
    let table = if args.trace {
        report::LAYERS
    } else {
        report::E2E
    };
    for (name, unit) in table {
        let v = if args.trace {
            out.layers.get(*name).copied().unwrap_or(0.0)
        } else {
            out.e2e.get(name).copied().unwrap_or(f64::NAN)
        };
        eprintln!("  {name:<30} {v:>16.6} {unit}");
    }
    let (line, correct) = report::result_line(&out, args.trace);
    if !correct {
        eprintln!("perfbench: outputs or invariants did not check out (see FAILED/PROBLEM above)");
    }
    println!("# {host}");
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_run_arguments() {
        let a = parse(&[
            "--workload",
            "upload",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("upload", 7, 3, true)
        );
        let d = parse(&["--workload", "apps"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&["--workload", "evict"]).is_err());
        assert!(parse(&["--workload", "apps", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "apps", "--seed"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
