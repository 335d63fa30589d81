//! `service`: 1000 logical sessions (`ServiceClient`s, spread over the
//! three priority classes) submitting a mix of 90% tiny jobs (alloc 4 KiB,
//! store, `nop` call, sync, load, free), 8% `VecAdd::small()` and 2%
//! `Stencil3d::small()`. One generator thread drives it; tickets are
//! checked once each phase's schedule is done, so nothing waits on a
//! ticket while jobs are offered.
//!
//! Phases: saturation bursts (capacity), closed-loop round trips of tiny
//! jobs (one outstanding: the end-to-end latency), open loop on a seeded
//! Poisson schedule at a nominal and a peak share of capacity (latency
//! timed from when each job was due, so a stall also charges the jobs
//! queued behind it; the benchmark's closure stamps each body's start and
//! end), and a search over a fixed ladder for the highest rate that keeps
//! p99 within the limit without a growing backlog. A refused or failed job
//! counts as a failure and as missing the limit.

use crate::report::{self, Outcome, Work};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use gmac::service::JobFn;
use gmac::{Gmac, GmacConfig, GmacResult, Param, Priority, Service, ServiceClient, Session};
use hetsim::{Args, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform, SimResult};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{stencil3d::Stencil3d, vecadd::VecAdd, Variant, Workload};

const CLIENTS: usize = 1000;
const SETUPS: usize = 15;
/// Bottom rung of the rate ladder (jobs/s).
const LADDER_BASE: f64 = 2000.0;
/// p99 latency limit (ms) the rate search holds.
const LIMIT_MS: f64 = 10.0;
/// Percentiles are taken per window of this many consecutive jobs (ten
/// beyond the p99), then the median window is reported, so one host stall
/// moves one window, not the result.
const WINDOW: usize = 1000;
/// Rate ladder: 10% rungs from [`LADDER_BASE`] up; the search starts at
/// the highest rung not above the peak rate.
const RUNGS: usize = 20;
const PROBE: Duration = Duration::from_millis(500);
/// A phase stops submitting once this many jobs are outstanding: the
/// backlog is growing and the queue (1024 deep) must never refuse.
const MAX_OUTSTANDING: usize = 512;
/// Jobs per saturation burst; capacity is the median over all bursts.
const BURST_JOBS: usize = 2000;
const BURSTS_BEFORE: u64 = 3;
const BURSTS_AFTER: u64 = 2;
/// Offered load of the nominal and peak phases, as shares of the
/// saturation capacity measured in the same run: about 2000 and 3500
/// jobs/s on an idle host, roughly 40% and 75% of the rate an open loop
/// sustains (an idle worker pays wake-ups a full queue does not).
const NOMINAL_LOAD: f64 = 0.30;
const PEAK_LOAD: f64 = 0.55;
/// Shares of the run for the round trips, the nominal rate and the peak
/// rate; the first two run in [`CHUNKS`] chunks spread over the run.
const RTT_SHARE: f64 = 0.2;
const NOMINAL_SHARE: f64 = 0.35;
const PEAK_SHARE: f64 = 0.15;
const CHUNKS: u64 = 3;
/// Jobs per second of round-trip chunk to draw from the schedule: more
/// than one outstanding tiny job completes, so the chunk's time runs out
/// first.
const RTT_JOBS_PER_S: f64 = 40_000.0;
/// The generator counts as fallen behind when its p99 lateness exceeds
/// this (ms); the run is then marked invalid.
const GEN_LATE_LIMIT_MS: f64 = LIMIT_MS;

fn rung(i: usize) -> f64 {
    (LADDER_BASE * 1.1f64.powi(i as i32)).round()
}

#[derive(Debug)]
struct NopKernel;

impl Kernel for NopKernel {
    fn name(&self) -> &str {
        "perfbench_nop"
    }

    fn execute(
        &self,
        _: &mut DeviceMemory,
        _: LaunchDims,
        _: Args<'_>,
    ) -> SimResult<KernelProfile> {
        Ok(KernelProfile::new(1.0, 0.0))
    }
}

fn tiny(s: &Session, token: u64) -> GmacResult<u64> {
    let b = s.alloc(4096)?;
    s.store::<u64>(b, token)?;
    s.call(
        "perfbench_nop",
        LaunchDims::for_elements(1, 1),
        &[Param::Shared(b)],
    )?;
    s.sync()?;
    let v = s.load::<u64>(b)?;
    s.free(b)?;
    Ok(v)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tiny,
    VecAdd,
    Stencil,
}

struct Rig {
    gmac: Gmac,
    service: Service,
    clients: Vec<ServiceClient>,
}

fn build() -> Rig {
    let mut platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(NopKernel));
    VecAdd::small().register_kernels(&mut platform);
    Stencil3d::small().register_kernels(&mut platform);
    let gmac = Gmac::new(platform, GmacConfig::default());
    let service = gmac.service();
    let clients = (0..CLIENTS)
        .map(|i| service.client(Priority::ALL[i % Priority::ALL.len()]))
        .collect();
    Rig {
        gmac,
        service,
        clients,
    }
}

/// The seeded arrival schedule of one phase.
struct Schedule {
    due_ns: Vec<u64>,
    client: Vec<usize>,
    kind: Vec<Kind>,
}

/// Job kinds in one block of [`MIX`]: 45 tiny, 4 `vecadd`, 1 `stencil3d`.
const MIX: [(Kind, usize); 3] = [(Kind::Tiny, 45), (Kind::VecAdd, 4), (Kind::Stencil, 1)];
const MIX_BLOCK: usize = 50;

/// Poisson arrivals at `rate` for `dur`. The mix is exact per block of 50
/// jobs (shuffled within the block), so every seed offers the same work.
fn schedule(seed: u64, stream: u64, rate: f64, dur: Duration) -> Schedule {
    let mut r = Rng::new(seed, stream);
    let end = dur.as_nanos() as f64;
    let mut t = 0.0;
    let mut s = Schedule {
        due_ns: Vec::new(),
        client: Vec::new(),
        kind: Vec::new(),
    };
    let mut block: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    debug_assert_eq!(block.len(), MIX_BLOCK);
    loop {
        t += -(1.0 - r.unit()).ln() / rate * 1e9;
        if t >= end {
            return s;
        }
        let j = s.due_ns.len() % MIX_BLOCK;
        if j == 0 {
            for i in (1..MIX_BLOCK).rev() {
                block.swap(i, r.below(i as u64 + 1) as usize);
            }
        }
        s.due_ns.push(t as u64);
        s.client.push(r.below(CLIENTS as u64) as usize);
        s.kind.push(block[j]);
    }
}

/// Expected digests of the non-tiny jobs (explicit-copy baseline).
#[derive(Debug, Clone, Copy)]
struct Expect {
    vecadd: u64,
    stencil: u64,
}

impl Expect {
    /// What a job of `kind` carrying `token` must return.
    fn value(self, kind: Kind, token: u64) -> u64 {
        match kind {
            Kind::Tiny => token,
            Kind::VecAdd => self.vecadd,
            Kind::Stencil => self.stencil,
        }
    }
}

/// Per-job stamps written by the job closure (ns since the phase epoch).
struct Stamps {
    start: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
    done: AtomicUsize,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    /// Due → body end per job (ns); infinite for refused or failed jobs.
    lat_ns: Vec<f64>,
    due_ns: Vec<u64>,
    late_ns: Vec<f64>,
    submit_ns: Vec<f64>,
    start_ns: Vec<u64>,
    end_ns: Vec<u64>,
    run_ns: Vec<f64>,
    refused: u64,
    failed: u64,
    aborted: bool,
    backlog_at_end: usize,
    wait_ns: u64,
    completed: u64,
    work: Work,
    epoch: Option<Instant>,
}

impl Phase {
    /// Whether the offered rate held: nothing refused, failed or aborted,
    /// no growing backlog, p99 within the limit.
    fn held(&self, rate: f64) -> bool {
        let s = stats::sorted(&self.lat_ns);
        !self.aborted
            && self.refused == 0
            && self.failed == 0
            && (self.backlog_at_end as f64) <= rate * LIMIT_MS / 1e3
            && s.len() >= WINDOW
            && stats::percentile(&s, 0.99) / 1e6 <= LIMIT_MS
    }
}

fn job_body(kind: Kind, token: u64) -> (u64, JobFn) {
    match kind {
        Kind::Tiny => (4096, Box::new(move |s: &Session| tiny(s, token))),
        Kind::VecAdd => {
            let spec = VecAdd::small().job();
            (spec.bytes_hint, spec.job)
        }
        Kind::Stencil => {
            let spec = Stencil3d::small().job();
            (spec.bytes_hint, spec.job)
        }
    }
}

/// Offers `sched` open loop. With `saturate`, every job is due at once
/// and the generator only holds back while [`MAX_OUTSTANDING`] jobs are
/// outstanding; otherwise a phase stops submitting at that backlog.
#[allow(clippy::too_many_lines, clippy::needless_range_loop)]
fn run_phase(rig: &Rig, sched: &Schedule, expect: Expect, salt: u64, saturate: bool) -> Phase {
    let n = sched.due_ns.len();
    let stamps = Arc::new(Stamps {
        start: (0..n).map(|_| AtomicU64::new(0)).collect(),
        end: (0..n).map(|_| AtomicU64::new(0)).collect(),
        done: AtomicUsize::new(0),
    });
    let mut p = Phase {
        due_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        submit_ns: Vec::with_capacity(n),
        ..Phase::default()
    };
    let stats0 = rig.service.stats();
    let before = Work::snapshot(&rig.gmac);
    let mut tickets = Vec::with_capacity(n);
    let mut outcome = vec![true; n];
    let epoch = Instant::now() + Duration::from_millis(2);
    p.epoch = Some(epoch);
    for j in 0..n {
        let due = epoch + Duration::from_nanos(sched.due_ns[j]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let token = salt << 32 | j as u64;
        let (hint, body) = job_body(sched.kind[j], token);
        let want = expect.value(sched.kind[j], token);
        let st = Arc::clone(&stamps);
        let wrapped = move |s: &Session| {
            let a = Instant::now();
            let r = body(s);
            let b = Instant::now();
            st.start[j].store(a.duration_since(epoch).as_nanos() as u64, Ordering::Relaxed);
            st.end[j].store(b.duration_since(epoch).as_nanos() as u64, Ordering::Relaxed);
            // Release pairs with the generator's Acquire load: stamps of
            // counted jobs are visible to it.
            st.done.fetch_add(1, Ordering::Release);
            r
        };
        let s0 = Instant::now();
        let submitted = rig.clients[sched.client[j]].submit(hint, wrapped);
        let s1 = Instant::now();
        p.due_ns.push(sched.due_ns[j]);
        p.late_ns
            .push(s0.saturating_duration_since(due).as_nanos() as f64);
        p.submit_ns.push((s1 - s0).as_nanos() as f64);
        match submitted {
            Ok(t) => tickets.push((j, t, want)),
            Err(_) => {
                p.refused += 1;
                outcome[j] = false;
            }
        }
        let outstanding = || (j + 1) - p.refused as usize - stamps.done.load(Ordering::Acquire);
        while saturate && outstanding() >= MAX_OUTSTANDING {
            std::thread::sleep(Duration::from_micros(100));
        }
        let outstanding = outstanding();
        if outstanding > MAX_OUTSTANDING {
            p.aborted = true;
            break;
        }
        if j + 1 == n {
            p.backlog_at_end = outstanding;
        }
    }
    // Collect after the schedule: nothing waits on a ticket while jobs
    // are being offered, so checking results costs the run no wake-ups.
    for (j, ticket, want) in tickets {
        let why = match ticket.wait() {
            Ok(v) if v == want => continue,
            Ok(v) => format!("returned {v:#x}, expected {want:#x}"),
            Err(e) => e.to_string(),
        };
        outcome[j] = false;
        p.failed += 1;
        if p.failed <= 3 {
            eprintln!("perfbench: service job {j} failed: {why}");
        }
    }
    let submitted = p.due_ns.len();
    for j in 0..submitted {
        let (s, e) = (
            stamps.start[j].load(Ordering::Relaxed),
            stamps.end[j].load(Ordering::Relaxed),
        );
        p.start_ns.push(s);
        p.end_ns.push(e);
        p.run_ns.push(e.saturating_sub(s) as f64);
        p.lat_ns.push(if outcome[j] {
            e.saturating_sub(sched.due_ns[j]) as f64
        } else {
            f64::INFINITY
        });
    }
    let stats1 = rig.service.stats();
    p.wait_ns = stats1.classes.iter().map(|c| c.wait_ns).sum::<u64>()
        - stats0.classes.iter().map(|c| c.wait_ns).sum::<u64>();
    p.completed = stats1.completed() - stats0.completed();
    p.work = Work::snapshot(&rig.gmac).since(before);
    p
}

/// Records a phase's jobs as spans: `job` (due → end) with `submit` on the
/// generator thread and `run` on the service worker as children.
fn trace_phase(tr: &Tracer, p: &Phase, id0: u64) {
    let epoch = p.epoch.expect("phase ran");
    let at = |ns: u64| epoch + Duration::from_nanos(ns);
    for j in 0..p.due_ns.len() {
        let (due, end) = (p.due_ns[j], p.end_ns[j].max(p.due_ns[j]));
        let id = id0 + j as u64;
        let job = tr.record("job", at(due), at(end), None, id, 0);
        let sub = due + p.late_ns[j] as u64;
        tr.record(
            "submit",
            at(sub),
            at(sub + p.submit_ns[j] as u64),
            Some(job),
            id,
            1,
        );
        if p.lat_ns[j].is_finite() {
            tr.record("run", at(p.start_ns[j]), at(p.end_ns[j]), Some(job), id, 2);
        }
    }
}

/// Whether one probe at ladder rung `i` holds.
fn holds(
    rig: &Rig,
    seed: u64,
    expect: Expect,
    i: usize,
    stream: &mut u64,
    out: &mut Outcome,
) -> bool {
    let rate = rung(i);
    *stream += 1;
    let p = run_phase(
        rig,
        &schedule(seed, *stream, rate, PROBE),
        expect,
        *stream,
        false,
    );
    out.attempted += p.due_ns.len() as u64;
    for _ in 0..p.refused + p.failed {
        out.fail(format!(
            "rate probe {rate}/s: job refused, failed or returned a wrong value"
        ));
    }
    p.held(rate)
}

/// Completions per second of one burst that keeps the queue non-empty.
fn burst_capacity(rig: &Rig, seed: u64, expect: Expect, stream: u64, out: &mut Outcome) -> f64 {
    // About BURST_JOBS jobs of the usual mix, all due at once.
    let mut sched = schedule(seed, stream, BURST_JOBS as f64, Duration::from_secs(1));
    sched.due_ns.fill(0);
    let p = run_phase(rig, &sched, expect, stream, true);
    out.attempted += p.due_ns.len() as u64;
    for _ in 0..p.refused + p.failed {
        out.fail("saturation burst: job refused, failed or returned a wrong value".to_string());
    }
    let first = p.start_ns.iter().copied().min().unwrap_or(0);
    let last = p.end_ns.iter().copied().max().unwrap_or(0);
    stats::ratio(
        p.due_ns.len() as f64 * 1e9,
        last.saturating_sub(first) as f64,
    )
}

/// Highest ladder rate that holds: climb from the rung nearest `start`
/// while probes hold, or step down from it until one does.
fn max_rate(rig: &Rig, seed: u64, expect: Expect, start: f64, out: &mut Outcome) -> f64 {
    let mut stream = 100;
    let mut i = (0..RUNGS)
        .take_while(|&i| rung(i) <= start)
        .last()
        .unwrap_or(0);
    if holds(rig, seed, expect, i, &mut stream, out) {
        while i + 1 < RUNGS && holds(rig, seed, expect, i + 1, &mut stream, out) {
            i += 1;
        }
        return rung(i);
    }
    while i > 0 {
        i -= 1;
        if holds(rig, seed, expect, i, &mut stream, out) {
            return rung(i);
        }
    }
    0.0
}

/// Round trips with one job outstanding for `dur`: submit, wait for the
/// ticket, check its value, submit the next. Returns each round trip (ns);
/// a refused or failed job counts as missing the limit.
fn round_trips(
    rig: &Rig,
    sched: &Schedule,
    expect: Expect,
    salt: u64,
    dur: Duration,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut rtt = Vec::with_capacity(sched.kind.len());
    let begin = Instant::now();
    for (j, (&kind, &client)) in sched.kind.iter().zip(&sched.client).enumerate() {
        if begin.elapsed() >= dur {
            break;
        }
        let token = salt << 32 | j as u64;
        let (hint, body) = job_body(kind, token);
        let want = expect.value(kind, token);
        let t0 = Instant::now();
        let got = rig.clients[client]
            .submit_boxed(hint, body)
            .and_then(|t| t.wait());
        let ns = t0.elapsed().as_nanos() as f64;
        out.attempted += 1;
        match got {
            Ok(v) if v == want => rtt.push(ns),
            Ok(v) => {
                out.fail(format!(
                    "round trip {j}: returned {v:#x}, expected {want:#x}"
                ));
                rtt.push(f64::INFINITY);
            }
            Err(e) => {
                out.fail(format!("round trip {j}: {e}"));
                rtt.push(f64::INFINITY);
            }
        }
    }
    rtt
}

/// Medians over all windows of [`WINDOW`] consecutive samples of the
/// per-window p50 and p99 (ms), and the samples behind them.
fn windowed<'a>(series: impl IntoIterator<Item = &'a [f64]>) -> (f64, f64, usize) {
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for w in series.into_iter().flat_map(|s| s.chunks_exact(WINDOW)) {
        let s = stats::sorted(w);
        p50.push(stats::percentile(&s, 0.50) / 1e6);
        p99.push(stats::percentile(&s, 0.99) / 1e6);
    }
    (stats::median(&p50), stats::median(&p99), p50.len() * WINDOW)
}

/// Counts a phase's refused and failed jobs; an aborted phase (the backlog
/// kept growing at a rate meant to be sustainable) makes the run invalid.
fn account(out: &mut Outcome, name: &str, p: &Phase) {
    out.attempted += p.due_ns.len() as u64;
    for _ in 0..p.refused {
        out.fail(format!("{name}: job refused at admission"));
    }
    for _ in 0..p.failed {
        out.fail(format!("{name}: job failed or returned a wrong value"));
    }
    if p.aborted {
        out.problem(format!(
            "{name}: backlog passed {MAX_OUTSTANDING} jobs; phase aborted"
        ));
    }
}

/// Runs the phases in about `budget`: capacity bursts, then round trips
/// and the nominal rate in three chunks each, spread over the run (first,
/// after the peak phase, after the ladder search), so a host disturbance
/// of a few seconds moves a minority of the windows whose median is
/// reported.
pub fn run(seed: u64, budget: Duration, tr: Option<&Tracer>, out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let r = build();
        setups.push(t.elapsed().as_secs_f64());
        drop(rig.replace(r));
    }
    let rig = rig.expect("set-up ran");
    let digest = |w: &dyn Workload| workloads::run_variant(w, Variant::Cuda).map(|r| r.digest);
    let expect = match (digest(&VecAdd::small()), digest(&Stencil3d::small())) {
        (Ok(vecadd), Ok(stencil)) => Expect { vecadd, stencil },
        (Err(e), _) | (_, Err(e)) => {
            out.problem(format!("baseline digests failed: {e}"));
            return;
        }
    };

    let secs = budget.as_secs_f64();
    let phase_dur = |share: f64| Duration::from_secs_f64((secs * share / CHUNKS as f64).max(0.5));
    // Warm-up (discarded): lazy set-up and caches settle.
    burst_capacity(&rig, seed, expect, 1, out);
    // Capacity bursts before the open-loop phases set their rates; more
    // after them spread the reported median over the run.
    let mut caps: Vec<f64> = (0..BURSTS_BEFORE)
        .map(|b| burst_capacity(&rig, seed, expect, 10 + b, out))
        .collect();
    let capacity0 = stats::median(&caps);
    let (nominal_rate, peak_rate) = (NOMINAL_LOAD * capacity0, PEAK_LOAD * capacity0);
    let mut rtt: Vec<Vec<f64>> = Vec::new();
    let mut nominal: Vec<(Schedule, Phase)> = Vec::new();
    let mut peak = None;
    let mut ladder_rate = 0.0;
    for c in 0..CHUNKS {
        // Round trips of tiny jobs from seeded clients; they stop when the
        // chunk's time is up (arrival times are not used).
        let dur = phase_dur(RTT_SHARE);
        let mut trips = schedule(seed, 30 + c, RTT_JOBS_PER_S, dur);
        trips.kind.fill(Kind::Tiny);
        rtt.push(round_trips(&rig, &trips, expect, 30 + c, dur, out));
        let sched = schedule(seed, 2 + c, nominal_rate, phase_dur(NOMINAL_SHARE));
        let p = run_phase(&rig, &sched, expect, 2 + c, false);
        nominal.push((sched, p));
        match c {
            0 => {
                peak = Some(run_phase(
                    &rig,
                    &schedule(seed, 5, peak_rate, phase_dur(PEAK_SHARE) * CHUNKS as u32),
                    expect,
                    5,
                    false,
                ))
            }
            1 => ladder_rate = max_rate(&rig, seed, expect, peak_rate, out),
            _ => {}
        }
    }
    let peak = peak.expect("peak phase ran");
    caps.extend((0..BURSTS_AFTER).map(|b| burst_capacity(&rig, seed, expect, 20 + b, out)));
    let capacity = stats::median(&caps);
    let (scheds, nominal): (Vec<Schedule>, Vec<Phase>) = nominal.into_iter().unzip();

    for p in &nominal {
        account(out, "nominal", p);
    }
    account(out, "peak", &peak);
    let late = stats::sorted(
        &nominal
            .iter()
            .chain([&peak])
            .flat_map(|p| p.late_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    let gen_late_ms = stats::percentile(&late, 0.99) / 1e6;
    if gen_late_ms > GEN_LATE_LIMIT_MS {
        out.problem(format!(
            "generator fell behind: p99 lateness {gen_late_ms:.3} ms > {GEN_LATE_LIMIT_MS} ms; run invalid"
        ));
    }

    let (p50, p99, samples) = windowed(rtt.iter().map(Vec::as_slice));
    let (open_p50, open_p99, open_samples) = windowed(nominal.iter().map(|p| p.lat_ns.as_slice()));
    let (p50_peak, p99_peak, peak_samples) = windowed([peak.lat_ns.as_slice()]);
    // Completed nominal jobs: kind and their per-stage times (ns).
    struct Done {
        kind: Kind,
        lat: f64,
        late: f64,
        submit: f64,
        run: f64,
    }
    let jobs: Vec<Done> = scheds
        .iter()
        .zip(&nominal)
        .flat_map(|(s, p)| {
            (0..p.lat_ns.len())
                .filter(|&j| p.lat_ns[j].is_finite())
                .map(|j| Done {
                    kind: s.kind[j],
                    lat: p.lat_ns[j],
                    late: p.late_ns[j],
                    submit: p.submit_ns[j],
                    run: p.run_ns[j],
                })
        })
        .collect();
    // Busy time per job: the median body time of each kind weighted by the
    // fixed mix (robust to a preempted job; the same work for every seed).
    let busy_ns: f64 = MIX
        .iter()
        .map(|&(kind, n)| {
            let runs: Vec<f64> = jobs
                .iter()
                .filter(|j| j.kind == kind)
                .map(|j| j.run)
                .collect();
            stats::median(&runs) * n as f64 / MIX_BLOCK as f64
        })
        .sum();
    let n = jobs.len().max(1) as f64;
    let mean_us = |f: fn(&Done) -> f64| jobs.iter().map(f).sum::<f64>() / n / 1e3;
    let (lat_us, late_us, submit_us, run_us) = (
        mean_us(|j| j.lat),
        mean_us(|j| j.late),
        mean_us(|j| j.submit),
        mean_us(|j| j.run),
    );
    let wait_ns: u64 = nominal.iter().map(|p| p.wait_ns).sum();
    let completed: u64 = nominal.iter().map(|p| p.completed).sum();
    let wait_us = stats::ratio(wait_ns as f64, completed as f64) / 1e3;
    let handoff_us = lat_us - late_us - wait_us - run_us;
    let work = nominal.iter().fold(Work::default(), |a, p| a.plus(p.work));
    out.e2e.insert("setup_s", stats::median(&setups));
    out.e2e.insert("wall_s", busy_ns * 1000.0 / 1e9);
    out.e2e
        .insert("gbps", stats::ratio(work.dma_bytes as f64 / n, busy_ns));
    out.e2e.insert("p50_ms", p50);
    out.e2e.insert("p99_ms", p99);
    out.layer("service.capacity_jobs_s", capacity);
    out.layer("service.nominal_rate", nominal_rate);
    out.layer("service.max_rate_p99", ladder_rate);
    out.layer("latency_samples", samples as f64);
    out.layer("service.open_p50_ms", open_p50);
    out.layer("service.open_p99_ms", open_p99);
    out.layer("service.open_samples", open_samples as f64);
    out.layer("service.peak_samples", peak_samples as f64);
    out.layer("service.p50_peak_ms", p50_peak);
    out.layer("service.p99_peak_ms", p99_peak);
    out.layer("service.gen_late_ms", gen_late_ms);
    out.layer("service.submit_us", submit_us);
    out.layer("service.queue_wait_us", wait_us);
    out.layer("service.run_us", run_us);
    out.layer("service.handoff_us", handoff_us);
    out.layer(
        "service.queue_high_water",
        rig.service.queue_high_water() as f64,
    );
    out.layer("service.rejected", rig.service.stats().rejected() as f64);
    out.notes.push(format!(
        "round trips (one job outstanding): p50 {p50:.3} ms, p99 {p99:.3} ms over {samples} jobs (medians of {WINDOW}-job windows); capacity {capacity:.0} jobs/s (median of saturation bursts {caps:.0?})"
    ));
    out.notes.push(format!(
        "open loop from due time: nominal {nominal_rate:.0}/s p50 {open_p50:.3} ms, p99 {open_p99:.3} ms over {open_samples} jobs; peak {peak_rate:.0}/s p50 {p50_peak:.3} ms, p99 {p99_peak:.3} ms over {peak_samples} jobs"
    ));
    out.notes.push(format!(
        "nominal mean per-job split: generator late {late_us:.1} us + queue wait {wait_us:.1} us + hand-off {handoff_us:.1} us + run {run_us:.1} us = {lat_us:.1} us; generator p99 lateness {gen_late_ms:.3} ms"
    ));
    out.notes.push(format!(
        "highest ladder rate holding p99 <= {LIMIT_MS} ms without a growing backlog: {ladder_rate} jobs/s"
    ));
    work.emit(out, n, 1000.0);
    report::finish_failures(out, work.plus(peak.work).evictions);
    if let Some(t) = tr {
        for (c, p) in nominal.iter().enumerate() {
            trace_phase(t, p, (c as u64) << 32);
        }
        trace_phase(t, &peak, 3 << 32);
    }
}
