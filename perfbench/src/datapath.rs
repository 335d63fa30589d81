//! `upload` and `readback`: one session, closed loop, over a seeded working
//! set of 64 shared objects (log-uniform 64 KiB .. 8 MiB).
//!
//! * `upload` — the CPU writes one object (whole `write_slice` ½ of the
//!   time, a ⅛-range `write_slice_at` ¼, 4096 random typed `write`s ¼),
//!   then calls a near-free kernel that folds one word per 4 KiB page into
//!   a checksum slot of a small result object (`call_annotated`, write set
//!   = the result), `sync`s and reads the checksum back. Release, flush and
//!   write faults dominate.
//! * `readback` — the reverse: the kernel stamps one word per page of the
//!   object (declared as its write set), `sync`, then the CPU reads the
//!   object back with the same op mix. Acquire invalidation, read faults
//!   and device-to-host fetches dominate.
//!
//! A run is a series of rounds. Each round builds a fresh runtime and
//! working set (the set-up sample) and replays the same seeded 1024
//! iterations, so every round's virtual time must be bit-identical —
//! checked here. Times and counts are reported per 1000 iterations.
//! Outputs are checked against a CPU mirror.

use crate::report::{self, Outcome, Work};
use crate::stats::{self, Rng};
use crate::trace::{self, Tracer};
use gmac::{Gmac, GmacConfig, Param, Session, Shared};
use hetsim::{Args, DevAddr, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform, SimResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OBJECTS: usize = 64;
const MIN_BYTES_LOG2: f64 = 16.0;
const MAX_BYTES_LOG2: f64 = 23.0;
const WORDS_PER_PAGE: usize = 512;
const PAGE_BYTES: u64 = 4096;
const SCALAR_OPS: usize = 4096;
/// Ops per object per round: 8 whole, 4 range, 4 scalar.
const OPS_PER_OBJECT: u8 = 16;
/// Iterations per round (one round replays one seeded op sequence).
const ITERS_PER_ROUND: usize = OBJECTS * OPS_PER_OBJECT as usize;
/// Iterations `wall_s` and the per-layer counts are scaled to.
const UNIT_ITERS: f64 = 1000.0;
const RESULT_SLOTS: usize = WORDS_PER_PAGE;
const POOL_WORDS: usize = 2 << 20;

/// Which way the data flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// CPU writes, device reads.
    Upload,
    /// Device writes, CPU reads.
    Readback,
}

/// Folds one word per page into a checksum: `(obj, result, pages, slot)`.
#[derive(Debug)]
struct ChecksumKernel;

impl Kernel for ChecksumKernel {
    fn name(&self) -> &str {
        "perfbench_checksum"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let (obj, result, pages, slot) = (args.ptr(0)?, args.ptr(1)?, args.u64(2)?, args.u64(3)?);
        let mut h = CHECKSUM_INIT;
        for p in 0..pages {
            let w = mem.slice(obj.add(p * PAGE_BYTES), 8)?;
            h = checksum_step(h, u64::from_le_bytes(w.try_into().expect("8-byte slice")));
        }
        mem.write(result.add(slot * 8), &h.to_le_bytes())?;
        Ok(KernelProfile::new(pages as f64, pages as f64 * 8.0))
    }
}

/// Writes `stamp(base, p)` into the first word of each page: `(obj, pages, base)`.
#[derive(Debug)]
struct StampKernel;

impl Kernel for StampKernel {
    fn name(&self) -> &str {
        "perfbench_stamp"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let (obj, pages, base): (DevAddr, u64, u64) = (args.ptr(0)?, args.u64(1)?, args.u64(2)?);
        for p in 0..pages {
            mem.write(obj.add(p * PAGE_BYTES), &stamp(base, p).to_le_bytes())?;
        }
        Ok(KernelProfile::new(pages as f64, pages as f64 * 8.0))
    }
}

const CHECKSUM_INIT: u64 = 0xcbf2_9ce4_8422_2325;

fn checksum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(17)
}

fn stamp(base: u64, page: u64) -> u64 {
    base ^ page.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Whole,
    Range { start: usize, len: usize },
    Scalar,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    obj: usize,
    kind: Kind,
    /// Pool offset the written data comes from (upload) or stamp base
    /// (readback).
    src: usize,
    stamp: u64,
}

fn shuffle<T>(v: &mut [T], r: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, r.below(i as u64 + 1) as usize);
    }
}

/// The seeded inputs: object sizes, the op sequence and a data pool.
struct Plan {
    words: Vec<usize>,
    ops: Vec<Op>,
    fill: Vec<usize>,
    pool: Vec<u64>,
    seed: u64,
}

impl Plan {
    /// The sizes are fixed quantiles of the log-uniform distribution and
    /// every object gets the same op mix per round (8 whole writes or
    /// reads, 4 range, 4 scalar batches), so the amount of work is the same
    /// for every seed; the seed shuffles which object has which size, the
    /// op order, the ranges, the scalar indices and the data.
    fn new(seed: u64) -> Plan {
        let mut r = Rng::new(seed, 1);
        let mut words: Vec<usize> = (0..OBJECTS)
            .map(|k| {
                let q = (k as f64 + 0.5) / OBJECTS as f64;
                let log2 = MIN_BYTES_LOG2 + (MAX_BYTES_LOG2 - MIN_BYTES_LOG2) * q;
                let pages = (2f64.powf(log2) / PAGE_BYTES as f64).round() as usize;
                pages * WORDS_PER_PAGE
            })
            .collect();
        shuffle(&mut words, &mut r);
        let mut pr = Rng::new(seed, 2);
        let pool: Vec<u64> = (0..POOL_WORDS).map(|_| pr.next_u64()).collect();
        let fill = words
            .iter()
            .map(|&n| r.below((POOL_WORDS - n + 1) as u64) as usize)
            .collect();
        let mut slots: Vec<(usize, u8)> = (0..OBJECTS)
            .flat_map(|obj| (0..OPS_PER_OBJECT).map(move |k| (obj, k)))
            .collect();
        shuffle(&mut slots, &mut r);
        let ops = slots
            .into_iter()
            .map(|(obj, k)| {
                let n = words[obj];
                let (kind, len) = match k {
                    0..=7 => (Kind::Whole, n),
                    8..=11 => {
                        let len = n / 8;
                        let start = r.below((n - len + 1) as u64) as usize;
                        (Kind::Range { start, len }, len)
                    }
                    _ => (Kind::Scalar, 0),
                };
                Op {
                    obj,
                    kind,
                    src: r.below((POOL_WORDS - len + 1) as u64) as usize,
                    stamp: r.next_u64(),
                }
            })
            .collect();
        Plan {
            words,
            ops,
            fill,
            pool,
            seed,
        }
    }

    /// Bytes the CPU moves through the API in op `op`.
    fn op_bytes(&self, op: &Op) -> usize {
        8 * match op.kind {
            Kind::Whole => self.words[op.obj],
            Kind::Range { len, .. } => len,
            Kind::Scalar => SCALAR_OPS,
        }
    }

    /// The random (index, value) pairs of scalar op `i`.
    fn scalars(&self, i: usize, n: usize, idx: &mut Vec<usize>, vals: &mut Vec<u64>) {
        let mut r = Rng::new(self.seed, 1000 + i as u64);
        idx.clear();
        vals.clear();
        for _ in 0..SCALAR_OPS {
            idx.push(r.below(n as u64) as usize);
            vals.push(r.next_u64());
        }
    }
}

/// A built runtime with the working set allocated, filled and released
/// to the device once.
struct Rig {
    gmac: Gmac,
    session: Session,
    objs: Vec<Shared<u64>>,
    result: Shared<u64>,
}

fn build(plan: &Plan) -> gmac::GmacResult<Rig> {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(ChecksumKernel));
    platform.register_kernel(Arc::new(StampKernel));
    let gmac = Gmac::new(platform, GmacConfig::default());
    let session = gmac.session();
    let mut objs = Vec::with_capacity(OBJECTS);
    for (&n, &off) in plan.words.iter().zip(&plan.fill) {
        let o = session.alloc_typed::<u64>(n)?;
        o.write_slice(&plan.pool[off..off + n])?;
        objs.push(o);
    }
    let result = session.alloc_typed::<u64>(RESULT_SLOTS)?;
    result.write_slice(&[0; RESULT_SLOTS])?;
    // One release of everything, so every round starts from the same
    // device-resident state.
    call_checksum(&session, &objs[0], &result, 0)?;
    session.sync()?;
    Ok(Rig {
        gmac,
        session,
        objs,
        result,
    })
}

fn pages(o: &Shared<u64>) -> u64 {
    o.len() as u64 / WORDS_PER_PAGE as u64
}

fn call_checksum(
    s: &Session,
    o: &Shared<u64>,
    result: &Shared<u64>,
    slot: u64,
) -> gmac::GmacResult<()> {
    let p = pages(o);
    s.call_annotated(
        "perfbench_checksum",
        LaunchDims::for_elements(p, 256),
        &[
            Param::from(o),
            Param::from(result),
            Param::U64(p),
            Param::U64(slot),
        ],
        Some(&[result.ptr()]),
    )
}

fn call_stamp(s: &Session, o: &Shared<u64>, base: u64) -> gmac::GmacResult<()> {
    let p = pages(o);
    s.call_annotated(
        "perfbench_stamp",
        LaunchDims::for_elements(p, 256),
        &[Param::from(o), Param::U64(p), Param::U64(base)],
        Some(&[o.ptr()]),
    )
}

/// Host-time totals of one kind of API call.
#[derive(Debug, Default, Clone, Copy)]
struct Part {
    ns: u64,
    bytes: u64,
    /// Faults taken inside scalar batches (traced rounds only).
    faults: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    setup: Duration,
    iter_ns: Vec<f64>,
    bytes: u64,
    bulk: Part,
    scalar: Part,
    call_ns: u64,
    sync_ns: u64,
    work: Work,
}

/// The CPU's copy of what each object should hold: every word for
/// `readback` (reads are compared in full), the first word of each page
/// for `upload` (what the checksum kernel sees).
struct Mirror(Vec<Vec<u64>>);

impl Mirror {
    fn new(flow: Flow, plan: &Plan) -> Mirror {
        Mirror(
            plan.words
                .iter()
                .zip(&plan.fill)
                .map(|(&n, &off)| {
                    let src = &plan.pool[off..off + n];
                    match flow {
                        Flow::Readback => src.to_vec(),
                        Flow::Upload => src.iter().step_by(WORDS_PER_PAGE).copied().collect(),
                    }
                })
                .collect(),
        )
    }

    /// Upload: records the written words that start a page.
    fn wrote(&mut self, obj: usize, start: usize, data: &[u64]) {
        let m = &mut self.0[obj];
        let first = start.div_ceil(WORDS_PER_PAGE) * WORDS_PER_PAGE;
        for w in (first..start + data.len()).step_by(WORDS_PER_PAGE) {
            m[w / WORDS_PER_PAGE] = data[w - start];
        }
    }

    fn checksum(&self, obj: usize) -> u64 {
        self.0[obj]
            .iter()
            .fold(CHECKSUM_INIT, |h, &w| checksum_step(h, w))
    }

    /// Readback: records the kernel's stamps.
    fn stamped(&mut self, obj: usize, base: u64) {
        for (p, w) in self.0[obj].iter_mut().step_by(WORDS_PER_PAGE).enumerate() {
            *w = stamp(base, p as u64);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run_round(
    flow: Flow,
    plan: &Plan,
    out: &mut Outcome,
    tr: Option<&Tracer>,
    round: usize,
) -> Option<Round> {
    let t0 = Instant::now();
    let rig = match build(plan) {
        Ok(r) => r,
        Err(e) => {
            out.problem(format!("round {round} set-up failed: {e}"));
            return None;
        }
    };
    let setup = t0.elapsed();
    let mut mirror = Mirror::new(flow, plan);
    let Rig {
        gmac,
        session,
        objs,
        result,
    } = &rig;
    let mut r = Round {
        setup,
        iter_ns: Vec::with_capacity(ITERS_PER_ROUND),
        ..Round::default()
    };
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    let mut got = Vec::with_capacity(SCALAR_OPS);
    let before = Work::snapshot(gmac);
    for (i, op) in plan.ops.iter().enumerate() {
        let obj = &objs[op.obj];
        let n = plan.words[op.obj];
        if let Kind::Scalar = op.kind {
            plan.scalars(i, n, &mut idx, &mut vals);
        }
        let id = (round * ITERS_PER_ROUND + i) as u64;
        let it = tr.map(|t| t.open("iter", None, id, 0));
        let start = Instant::now();
        let outcome: gmac::GmacResult<(u64, u64)> = (|| match flow {
            Flow::Upload => {
                let d = Instant::now();
                let faults0 = tr.map(|_| gmac.counters().faults_write);
                match op.kind {
                    Kind::Whole => trace::span(tr, "write_slice", it, id, || {
                        obj.write_slice(&plan.pool[op.src..op.src + n])
                    })?,
                    Kind::Range { start, len } => {
                        trace::span(tr, "write_slice_at", it, id, || {
                            obj.write_slice_at(start, &plan.pool[op.src..op.src + len])
                        })?
                    }
                    Kind::Scalar => trace::span(tr, "write_scalar_batch", it, id, || {
                        idx.iter()
                            .zip(&vals)
                            .try_for_each(|(&ix, &v)| obj.write(ix, v))
                    })?,
                }
                let data_ns = d.elapsed().as_nanos() as u64;
                if let (Kind::Scalar, Some(f0)) = (op.kind, faults0) {
                    r.scalar.faults += gmac.counters().faults_write - f0;
                }
                let slot = (i % RESULT_SLOTS) as u64;
                let c = Instant::now();
                trace::span(tr, "call", it, id, || {
                    call_checksum(session, obj, result, slot)
                })?;
                let s = Instant::now();
                trace::span(tr, "sync", it, id, || session.sync())?;
                let e = Instant::now();
                r.call_ns += (s - c).as_nanos() as u64;
                r.sync_ns += (e - s).as_nanos() as u64;
                let v = trace::span(tr, "read_result", it, id, || result.read(slot as usize))?;
                Ok((v, data_ns))
            }
            Flow::Readback => {
                let c = Instant::now();
                trace::span(tr, "call", it, id, || call_stamp(session, obj, op.stamp))?;
                let s = Instant::now();
                trace::span(tr, "sync", it, id, || session.sync())?;
                let d = Instant::now();
                r.call_ns += (s - c).as_nanos() as u64;
                r.sync_ns += (d - s).as_nanos() as u64;
                let faults0 = tr.map(|_| gmac.counters().faults_read);
                got.clear();
                match op.kind {
                    Kind::Whole => {
                        got = trace::span(tr, "read_slice", it, id, || obj.read_slice())?;
                    }
                    Kind::Range { start, len } => {
                        got = trace::span(tr, "read_slice_at", it, id, || {
                            obj.read_slice_at(start, len)
                        })?;
                    }
                    Kind::Scalar => trace::span(tr, "read_scalar_batch", it, id, || {
                        for &ix in &idx {
                            got.push(obj.read(ix)?);
                        }
                        Ok::<(), gmac::GmacError>(())
                    })?,
                }
                let data_ns = d.elapsed().as_nanos() as u64;
                if let (Kind::Scalar, Some(f0)) = (op.kind, faults0) {
                    r.scalar.faults += gmac.counters().faults_read - f0;
                }
                Ok((0, data_ns))
            }
        })();
        let lat = start.elapsed();
        if let Some(s) = it {
            tr.expect("span opened only when tracing").close(s);
        }
        out.attempted += 1;
        let (value, data_ns) = match outcome {
            Ok(v) => v,
            Err(e) => {
                out.fail(format!("round {round} iteration {i}: {e}"));
                continue;
            }
        };
        r.iter_ns.push(lat.as_nanos() as f64);
        let bytes = plan.op_bytes(op) as u64;
        r.bytes += bytes;
        let part = if let Kind::Scalar = op.kind {
            &mut r.scalar
        } else {
            &mut r.bulk
        };
        part.ns += data_ns;
        part.bytes += bytes;
        // Checks (untimed): the device saw exactly what the CPU wrote, or
        // the CPU read exactly what the device stamped.
        let ok = match flow {
            Flow::Upload => {
                match op.kind {
                    Kind::Whole => mirror.wrote(op.obj, 0, &plan.pool[op.src..op.src + n]),
                    Kind::Range { start, len } => {
                        mirror.wrote(op.obj, start, &plan.pool[op.src..op.src + len]);
                    }
                    Kind::Scalar => {
                        for (&ix, &v) in idx.iter().zip(&vals) {
                            mirror.wrote(op.obj, ix, &[v]);
                        }
                    }
                }
                value == mirror.checksum(op.obj)
            }
            Flow::Readback => {
                mirror.stamped(op.obj, op.stamp);
                let m = &mirror.0[op.obj];
                match op.kind {
                    Kind::Whole => got == *m,
                    Kind::Range { start, len } => got == m[start..start + len],
                    Kind::Scalar => idx.iter().zip(&got).all(|(&ix, &v)| m[ix] == v),
                }
            }
        };
        if !ok {
            out.fail(format!(
                "round {round} iteration {i}: output differs from the CPU mirror"
            ));
        }
    }
    r.work = Work::snapshot(gmac).since(before);
    Some(r)
}

/// Runs `upload` or `readback` for about `budget`, at least two rounds.
pub fn run(flow: Flow, seed: u64, budget: Duration, tr: Option<&Tracer>, out: &mut Outcome) {
    let plan = Plan::new(seed);
    let begin = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < 2 || begin.elapsed() < budget {
        match run_round(flow, &plan, out, tr, rounds.len()) {
            Some(r) => rounds.push(r),
            None => break,
        }
    }
    if rounds.is_empty() {
        return;
    }
    report::check_deterministic(
        out,
        "round",
        &rounds.iter().map(|r| r.work).collect::<Vec<_>>(),
    );

    // Each round replays the same ops, so per-round values are samples of
    // one quantity: report their median (one host stall moves one round).
    let per_round =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let round_ns = |r: &Round| r.iter_ns.iter().sum::<f64>();
    let pct = |r: &Round, p: f64| stats::percentile(&stats::sorted(&r.iter_ns), p) / 1e6;
    let iters: usize = rounds.iter().map(|r| r.iter_ns.len()).sum();
    let wall_s =
        per_round(&|r| stats::ratio(round_ns(r), r.iter_ns.len() as f64) * UNIT_ITERS / 1e9);
    out.e2e
        .insert("setup_s", per_round(&|r| r.setup.as_secs_f64()));
    out.e2e.insert("wall_s", wall_s);
    out.e2e.insert(
        "gbps",
        per_round(&|r| stats::ratio(r.bytes as f64, round_ns(r))),
    );
    out.e2e.insert("p50_ms", per_round(&|r| pct(r, 0.50)));
    out.e2e.insert("p99_ms", per_round(&|r| pct(r, 0.99)));
    out.layer("latency_samples", iters as f64);
    out.notes.push(format!(
        "{} rounds x {ITERS_PER_ROUND} iterations; p50/p99 are medians over rounds of each round's {ITERS_PER_ROUND} samples; virtual time per round {} ns",
        rounds.len(),
        rounds[0].work.virtual_ns
    ));

    let total = rounds.iter().fold(Work::default(), |a, r| a.plus(r.work));
    total.emit(
        out,
        rounds.len() as f64,
        UNIT_ITERS / ITERS_PER_ROUND as f64,
    );
    report::finish_failures(out, total.evictions);
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    out.layer(
        "protocol.release_us",
        sum(&|r| r.call_ns) / iters as f64 / 1e3,
    );
    out.layer(
        "protocol.acquire_us",
        sum(&|r| r.sync_ns) / iters as f64 / 1e3,
    );
    let fault_us = stats::ratio(sum(&|r| r.scalar.ns), sum(&|r| r.scalar.faults)) / 1e3;
    let bulk_gbps = stats::ratio(sum(&|r| r.bulk.bytes), sum(&|r| r.bulk.ns));
    let (wr, rd) = match flow {
        Flow::Upload => {
            out.layer("shard.write_fault_us", fault_us);
            (bulk_gbps, 0.0)
        }
        Flow::Readback => {
            out.layer("shard.read_fault_us", fault_us);
            (0.0, bulk_gbps)
        }
    };
    let sizes: Vec<usize> = plan
        .ops
        .iter()
        .filter(|op| !matches!(op.kind, Kind::Scalar))
        .map(|op| plan.op_bytes(op))
        .collect();
    crate::floors::emit(out, crate::floors::measure(&sizes), wr, rd);
}
