//! The fork-join workloads: `fib-fine`, `stress-steal` and `par-data`.
//!
//! A run is a paired phase followed by three client phases. In the
//! paired phase every parallel solve is interleaved with the
//! benchmark's serial reference on the same input, alternating which
//! runs first, so the ratio of the two cancels host drift slower than
//! one pair. In a client phase one client sends a solve, waits for it,
//! thinks for a seeded exponential time, and sends the next; each solve
//! is timed from when it was due. A closed loop, because `Pool::run`
//! takes one region at a time: an open loop would queue solves behind a
//! host gap and measure the gap count rather than the pool.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use wool_core::{cycles, Pool, PoolConfig, Stats, WoolFull, WorkerHandle};
use wool_par::{par_iter, par_iter_mut, par_sort_unstable};

use crate::kernels::{fib_kernel, fib_serial, fib_spawns, fib_value, tree, tree_serial};
use crate::report::{exec_counters, Metrics, Tally};
use crate::rng::Rng;
use crate::spans::{Clock, Tracer, Tree};
use crate::stats::{median, paired_ratios, quantile, windowed_quantile};
use crate::{ledger, panic_msg, Run};

/// Workers of every fork-join pool: the host has two CPUs.
const WORKERS: usize = 2;
/// Shares of the run: the paired phase, then the client phases r1..r3.
/// r2 gets the longest phase, for its windowed p99.
const SHARES: [f64; 4] = [0.3, 0.1, 0.45, 0.15];
/// Window of the paired phase's windowed p10: 60 to 250 pairs.
const P10_WINDOW_S: f64 = 0.25;
/// Window of the windowed p99 at r2. A host gap (one or two per second
/// on the reference host, of up to several milliseconds) delays the solve
/// it hits, near 1% of the solves at r2, so a whole-phase p99 would swing
/// with the gap count. A window of 0.1 s holds 80 to 250 solves, and most
/// windows hold no gap; the median of the window p99s is the tail of an
/// undisturbed interval.
const P99_WINDOW_S: f64 = 0.1;
/// Mean think times of the client phases r1..r3, in µs: 2 ms, 200 µs and
/// 20 µs. At r1 the background worker parks between solves, at r3 it is
/// still polling.
const THINK_US: [f64; 3] = [2_000.0, 200.0, 20.0];

/// One fork-join workload.
pub struct Spec {
    /// Warm-up pairs in each set-up (about 0.15 s).
    pub warmup: usize,
    pub make: fn(u64) -> Box<dyn Solver>,
}

pub const FIB_FINE: Spec = Spec {
    warmup: 120,
    make: |_| Box::new(Fib { n: 25 }),
};
pub const STRESS_STEAL: Spec = Spec {
    warmup: 80,
    make: |_| {
        Box::new(Stress {
            height: 8,
            iters: 256,
            trees: 16,
        })
    },
};
pub const PAR_DATA: Spec = Spec {
    warmup: 25,
    make: |seed| Box::new(ParData::new(seed)),
};

/// The pool, its clock and what was measured at the layer boundaries.
pub struct Ctx {
    pub pool: Pool<WoolFull>,
    pub clock: Clock,
    /// Whether spans are recorded for the current solve.
    pub traced: bool,
    pub total: Stats,
    pub enter_ns: Vec<f64>,
    pub exit_ns: Vec<f64>,
    /// Clock reading when the last `Pool::run` returned.
    pub last_end: u64,
}

impl Ctx {
    /// One `Pool::run` of `f`; returns its result, the call's duration in
    /// ns, and the region's counters. A panic surfaced at the join is an
    /// error naming `what`.
    pub fn run<R: Send>(
        &mut self,
        tree: &mut Tree,
        what: &'static str,
        f: impl FnOnce(&mut WorkerHandle<WoolFull>) -> R + Send,
    ) -> Result<(R, f64, Stats), String> {
        let (clock, traced) = (self.clock, self.traced);
        let t0 = clock.now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            self.pool.run(|h| {
                let b0 = if traced { clock.now() } else { 0 };
                let r = f(h);
                (r, b0, if traced { clock.now() } else { 0 })
            })
        }));
        let t1 = clock.now();
        self.last_end = t1;
        let stats = self.pool.last_report().map(|r| r.total).unwrap_or_default();
        self.total += stats;
        let (r, b0, b1) =
            out.map_err(|p| format!("{what}: panic at the join: {}", panic_msg(&*p)))?;
        if traced {
            let run = tree.add("pool.run", t0, t1, 0);
            tree.add(what, b0, b1, run);
            self.enter_ns.push((b0 - t0) as f64);
            self.exit_ns.push((t1 - b1) as f64);
        }
        Ok((r, (t1 - t0) as f64, stats))
    }

    /// Times the serial reference `f` on this thread.
    pub fn serial<R>(
        &mut self,
        tree: &mut Tree,
        what: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = self.clock.now();
        let r = f();
        let t1 = self.clock.now();
        if self.traced {
            tree.add(what, t0, t1, 0);
        }
        (r, (t1 - t0) as f64)
    }
}

fn check<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: wrong result {got:?}, expected {want:?}"))
    }
}

/// A solve with its serial reference.
pub trait Solver {
    /// Resets the inputs a solve overwrites; not timed.
    fn prepare(&mut self) {}
    /// One parallel solve; returns its duration in ns.
    fn solve(&mut self, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String>;
    /// The serial reference on the same input; returns its duration.
    fn reference(&mut self, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String>;
    /// `(reference ns, parallel ns)`, the reference first when `flip`.
    fn pair(&mut self, cx: &mut Ctx, tree: &mut Tree, flip: bool) -> Result<(f64, f64), String> {
        if flip {
            let r = self.reference(cx, tree)?;
            Ok((r, self.solve(cx, tree)?))
        } else {
            let p = self.solve(cx, tree)?;
            Ok((self.reference(cx, tree)?, p))
        }
    }
    /// Spawns of one solve, when fixed by the input.
    fn spawns(&self) -> Option<u64> {
        None
    }
    /// Layer metrics only this workload measures.
    fn layer_metrics(&self, _m: &mut Metrics) {}
}

/// `fib-fine`: fib(n) without cutoff, one `Pool::run` per solve.
struct Fib {
    n: u64,
}

impl Solver for Fib {
    fn solve(&mut self, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String> {
        let n = self.n;
        let (v, ns, _) = cx.run(tree, "fib", move |h| fib_kernel(h, black_box(n)))?;
        check("fib solve", v, fib_value(n))?;
        Ok(ns)
    }

    fn reference(&mut self, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String> {
        let n = self.n;
        let (v, ns) = cx.serial(tree, "ref", || fib_serial(black_box(n)));
        check("fib reference", v, fib_value(n))?;
        Ok(ns)
    }

    fn spawns(&self) -> Option<u64> {
        Some(fib_spawns(self.n))
    }
}

/// `stress-steal`: `trees` §IV-A stress trees serialised in one solve.
struct Stress {
    height: u32,
    iters: u64,
    trees: u32,
}

impl Stress {
    fn want(&self) -> u64 {
        let one = tree_serial(self.height, self.iters);
        (0..self.trees).fold(0u64, |a, _| a.wrapping_add(one))
    }
}

impl Solver for Stress {
    fn solve(&mut self, cx: &mut Ctx, tree_: &mut Tree) -> Result<f64, String> {
        let (h_, it, r) = (self.height, self.iters, self.trees);
        let (v, ns, _) = cx.run(tree_, "stress", move |h| {
            (0..r).fold(0u64, |a, _| a.wrapping_add(tree(h, h_, black_box(it))))
        })?;
        check("stress solve", v, self.want())?;
        Ok(ns)
    }

    fn reference(&mut self, cx: &mut Ctx, tree_: &mut Tree) -> Result<f64, String> {
        let (h_, it, r) = (self.height, self.iters, self.trees);
        let (v, ns) = cx.serial(tree_, "ref", || {
            (0..r).fold(0u64, |a, _| a.wrapping_add(tree_serial(h_, black_box(it))))
        });
        check("stress reference", v, self.want())?;
        Ok(ns)
    }

    fn spawns(&self) -> Option<u64> {
        Some(u64::from(self.trees) * ((1u64 << self.height) - 1))
    }
}

/// Items of each `par-data` op. Sized so that no op takes more than half
/// of the serial solve on the reference host.
const MAP_N: usize = 1 << 18;
const DOT_N: usize = 1 << 17;
const SORT_N: usize = 1 << 13;

/// The map op's element function.
#[inline(always)]
fn mix(x: u64) -> u64 {
    x.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17) ^ x
}

/// Per-op measurements of `par-data`.
#[derive(Default)]
struct OpLog {
    par_ns: Vec<f64>,
    pairs: Vec<(f64, f64)>,
    stats: Stats,
    calls: u64,
    items: u64,
}

/// `par-data`: an in-place map, a dot-product reduce and a sort over
/// seeded `u64` inputs.
struct ParData {
    map_in: Vec<u64>,
    map_want: Vec<u64>,
    dot_in: Vec<[u64; 2]>,
    dot_want: u64,
    dot_got: u64,
    sort_in: Vec<u64>,
    sort_want: Vec<u64>,
    map_buf: Vec<u64>,
    sort_buf: Vec<u64>,
    seq_buf: Vec<u64>,
    logs: [OpLog; 3],
}

impl ParData {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let map_in: Vec<u64> = (0..MAP_N).map(|_| rng.next_u64()).collect();
        let dot_in: Vec<[u64; 2]> = (0..DOT_N)
            .map(|_| [rng.next_u64(), rng.next_u64()])
            .collect();
        let sort_in: Vec<u64> = (0..SORT_N).map(|_| rng.next_u64()).collect();
        let mut sort_want = sort_in.clone();
        sort_want.sort_unstable();
        ParData {
            map_want: map_in.iter().map(|&x| mix(x)).collect(),
            dot_got: 0,
            dot_want: dot_in
                .iter()
                .fold(0u64, |a, p| a.wrapping_add(p[0].wrapping_mul(p[1]))),
            map_buf: vec![0; MAP_N],
            sort_buf: vec![0; SORT_N],
            seq_buf: vec![0; MAP_N],
            map_in,
            dot_in,
            sort_in,
            sort_want,
            logs: Default::default(),
        }
    }

    /// Checks the output of parallel op `k`.
    fn verify(&self, k: usize) -> Result<(), String> {
        match k {
            0 => check("par map", self.map_buf == self.map_want, true),
            1 => check("par dot", self.dot_got, self.dot_want),
            _ => check("par sort", self.sort_buf == self.sort_want, true),
        }
    }

    /// Op `k` (0 map, 1 dot, 2 sort) in parallel on the prepared inputs.
    fn par_op(&mut self, k: usize, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String> {
        let (ns, stats) = match k {
            0 => {
                let buf = &mut self.map_buf;
                let ((), ns, s) = cx.run(tree, "par.map", |h| {
                    par_iter_mut(buf).for_each(h, |x| *x = mix(*x))
                })?;
                (ns, s)
            }
            1 => {
                let xs = &self.dot_in;
                let (v, ns, s) = cx.run(tree, "par.dot", |h| {
                    par_iter(xs)
                        .map(|p| p[0].wrapping_mul(p[1]))
                        .reduce(h, || 0, u64::wrapping_add)
                })?;
                self.dot_got = v;
                (ns, s)
            }
            _ => {
                let buf = &mut self.sort_buf;
                let ((), ns, s) = cx.run(tree, "par.sort", |h| par_sort_unstable(h, buf))?;
                (ns, s)
            }
        };
        let log = &mut self.logs[k];
        log.par_ns.push(ns);
        log.stats += stats;
        log.calls += 1;
        log.items += [MAP_N, DOT_N, SORT_N][k] as u64;
        Ok(ns)
    }

    /// Op `k` sequentially, checked.
    fn seq_op(&mut self, k: usize, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String> {
        match k {
            0 => {
                let buf = &mut self.seq_buf[..MAP_N];
                buf.copy_from_slice(&self.map_in);
                let ((), ns) = cx.serial(tree, "ref.map", || {
                    buf.iter_mut().for_each(|x| *x = mix(*x))
                });
                check(
                    "serial map",
                    &self.seq_buf[..MAP_N] == self.map_want.as_slice(),
                    true,
                )?;
                Ok(ns)
            }
            1 => {
                let xs = &self.dot_in;
                let (v, ns) = cx.serial(tree, "ref.dot", || {
                    black_box(xs)
                        .iter()
                        .fold(0u64, |a, p| a.wrapping_add(p[0].wrapping_mul(p[1])))
                });
                check("serial dot", v, self.dot_want)?;
                Ok(ns)
            }
            _ => {
                let buf = &mut self.seq_buf[..SORT_N];
                buf.copy_from_slice(&self.sort_in);
                let ((), ns) = cx.serial(tree, "ref.sort", || buf.sort_unstable());
                check(
                    "serial sort",
                    &self.seq_buf[..SORT_N] == self.sort_want.as_slice(),
                    true,
                )?;
                Ok(ns)
            }
        }
    }
}

impl Solver for ParData {
    fn prepare(&mut self) {
        self.map_buf.copy_from_slice(&self.map_in);
        self.sort_buf.copy_from_slice(&self.sort_in);
    }

    /// The three ops back to back, then their checks, so that an
    /// open-loop solve ends with the last `Pool::run`.
    fn solve(&mut self, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String> {
        let ns = (0..3).try_fold(0.0, |acc, k| {
            Ok::<f64, String>(acc + self.par_op(k, cx, tree)?)
        })?;
        (0..3).try_for_each(|k| self.verify(k))?;
        Ok(ns)
    }

    fn reference(&mut self, cx: &mut Ctx, tree: &mut Tree) -> Result<f64, String> {
        (0..3).try_fold(0.0, |acc, k| Ok(acc + self.seq_op(k, cx, tree)?))
    }

    /// Pairs each op with its own sequential op, so the per-op speed-ups
    /// are paired too.
    fn pair(&mut self, cx: &mut Ctx, tree: &mut Tree, flip: bool) -> Result<(f64, f64), String> {
        self.prepare();
        let (mut r, mut p) = (0.0, 0.0);
        for k in 0..3 {
            let (rk, pk) = if flip {
                let rk = self.seq_op(k, cx, tree)?;
                (rk, self.par_op(k, cx, tree)?)
            } else {
                let pk = self.par_op(k, cx, tree)?;
                (self.seq_op(k, cx, tree)?, pk)
            };
            self.verify(k)?;
            self.logs[k].pairs.push((rk, pk));
            r += rk;
            p += pk;
        }
        Ok((r, p))
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        for (k, op) in ["map", "dot", "sort"].iter().enumerate() {
            m.put(
                &format!("par.{op}_ms"),
                median(&self.logs[k].par_ns) / 1e6,
                "ms",
            );
        }
        for (k, op) in ["map", "dot", "sort"].iter().enumerate() {
            m.put(
                &format!("par.{op}_speedup"),
                median(&paired_ratios(&self.logs[k].pairs)),
                "ratio",
            );
        }
        let mut s = Stats::default();
        let (mut calls, mut items) = (0, 0);
        for l in &self.logs {
            s += l.stats;
            calls += l.calls;
            items += l.items;
        }
        let per = |x: u64| x as f64 / calls.max(1) as f64;
        m.put("par.splits_per_call", per(s.spawns), "count");
        m.put(
            "par.leaf_items",
            items as f64 / (s.spawns + calls).max(1) as f64,
            "count",
        );
        m.put(
            "par.steals_per_call",
            per(s.steals + s.leap_steals),
            "count",
        );
        m.put("par.failed_steals_per_call", per(s.failed_steals), "count");
    }
}

/// Builds the pool and the inputs and warms both up.
fn setup(spec: &Spec, seed: u64, clock: Clock) -> Result<(Ctx, Box<dyn Solver>), String> {
    let mut cx = Ctx {
        pool: Pool::with_config(PoolConfig::with_workers(WORKERS)),
        clock,
        traced: false,
        total: Stats::default(),
        enter_ns: Vec::new(),
        exit_ns: Vec::new(),
        last_end: 0,
    };
    let mut solver = (spec.make)(seed);
    let mut tree = Tree::new(0);
    for i in 0..spec.warmup {
        solver.pair(&mut cx, &mut tree, i % 2 == 1)?;
    }
    cx.total = Stats::default();
    Ok((cx, solver))
}

/// Runs one fork-join workload for `seconds` and fills `run`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, run: &mut Run) -> Result<(), String> {
    let clock = run.clock;
    let (mut cx, mut solver) = run.setup(|| setup(spec, seed, clock))?;
    let mut tr = Tracer::new(trace);
    let mut tally = Tally::default();
    let mut solves = 0u64;

    // Paired phase. In a traced run, pairs alternate two by two between
    // traced and untraced, which gives the tracing overhead.
    let (mut pairs, mut pairs_traced) = (Vec::new(), Vec::new());
    let mut ratio_at = Vec::new();
    let start = clock.now();
    let end = start + (seconds * SHARES[0] * 1e9) as u64;
    let mut i = 0u64;
    while clock.now() < end {
        cx.traced = trace && (i / 2) % 2 == 1;
        let mut t = Tree::new(i);
        let t0 = clock.now();
        t.add("pair", t0, 0, usize::MAX);
        let out = solver.pair(&mut cx, &mut t, i % 2 == 1);
        t.spans[0].end = clock.now();
        solves += 1;
        match out {
            Ok(p) => {
                ratio_at.push(((t0 - start) as f64 / 1e9, p.0 / p.1));
                if cx.traced {
                    &mut pairs_traced
                } else {
                    &mut pairs
                }
                .push(p);
            }
            Err(e) => tally.record(Err(format!("pair {i}: {e}"))),
        }
        if cx.traced {
            tr.commit(t);
        }
        i += 1;
    }
    tally.attempted += pairs.len() as u64 + pairs_traced.len() as u64;

    // Client phases: one solve in flight, each sent after a seeded
    // exponential think time.
    cx.traced = trace;
    let mut lat: [Vec<(f64, f64)>; 3] = Default::default();
    let mut gen_late = Vec::new();
    for (r, &think_us) in THINK_US.iter().enumerate() {
        let mut rng = Rng::new(seed, 10 + r as u64);
        let start = clock.now();
        let end = start + (seconds * SHARES[r + 1] * 1e9) as u64;
        let mut j = 0u64;
        while clock.now() < end {
            solver.prepare();
            let due = clock.now() + (rng.exp() * think_us * 1e3) as u64;
            run.wait_until(due);
            gen_late.push((clock.now() - due) as f64 / 1e3);
            let mut tree = Tree::new(j);
            tree.add("solve", due, 0, usize::MAX);
            let out = solver.solve(&mut cx, &mut tree);
            tree.spans[0].end = cx.last_end;
            tr.commit(tree);
            solves += 1;
            tally.record(
                out.map(|_| ())
                    .map_err(|e| format!("think {think_us} us, solve {j}: {e}")),
            );
            lat[r].push(((due - start) as f64 / 1e9, (cx.last_end - due) as f64 / 1e3));
            j += 1;
        }
    }

    // End-to-end metrics.
    let all: Vec<(f64, f64)> = pairs.iter().chain(&pairs_traced).copied().collect();
    let ratios = paired_ratios(if trace { &all } else { &pairs });
    let par_ns: Vec<f64> = all.iter().map(|p| p.1).collect();
    let ref_ns: Vec<f64> = all.iter().map(|p| p.0).collect();
    let lat_only = |r: usize| lat[r].iter().map(|s| s.1).collect::<Vec<f64>>();
    let m = &mut run.e2e;
    m.put("speedup_vs_serial", median(&ratios), "ratio");
    m.put(
        "speedup_vs_serial.p10",
        windowed_quantile(&ratio_at, P10_WINDOW_S, 20, 0.1),
        "ratio",
    );
    for r in 0..3 {
        m.put(
            &format!("lat_p50_us.r{}", r + 1),
            median(&lat_only(r)),
            "us",
        );
    }
    m.put(
        "lat_p99_us.r2",
        windowed_quantile(&lat[1], P99_WINDOW_S, 20, 0.99),
        "us",
    );
    m.put("sat_jobs_per_s", 1e9 / median(&par_ns), "1/s");
    run.tally = tally;
    run.note(format!(
        "{} pairs, {} solves; think times {:?} us; solves/s at r1..r3 {:?}",
        all.len(),
        solves,
        THINK_US,
        (0..3)
            .map(|r| (lat[r].len() as f64 / (seconds * SHARES[r + 1])).round())
            .collect::<Vec<_>>()
    ));

    // Host-noise diagnostics and per-layer metrics.
    let m = &mut run.layer;
    m.put("bench.ref_ms_p50", median(&ref_ns) / 1e6, "ms");
    m.put(
        "bench.ref_spread",
        quantile(&ref_ns, 0.9) / quantile(&ref_ns, 0.1),
        "ratio",
    );
    m.put("bench.gaps_over_1ms", run.gaps as f64, "count");
    m.put("serve.gen_late_us_p99", quantile(&gen_late, 0.99), "us");
    if !trace {
        return Ok(());
    }
    let overhead = median(&paired_ratios(&pairs)) / median(&paired_ratios(&pairs_traced)) - 1.0;
    m.put("bench.trace_overhead_frac", overhead, "ratio");
    if let Some(n) = solver.spawns() {
        let per = cx.total.spawns as f64 / solves as f64;
        if per != n as f64 {
            run.tally
                .record(Err(format!("exec.spawns: {per} per solve, expected {n}")));
        }
    }
    let (private, public) = ledger::task_cycles();
    let m = &mut run.layer;
    m.put("exec.private_task_cycles", private, "cycles");
    m.put("exec.public_task_cycles", public, "cycles");
    exec_counters(m, &cx.total, solves);
    let s = &cx.total;
    let steals = (s.steals + s.leap_steals) as f64 / solves as f64;
    let tasks = s.spawns as f64 / solves as f64;
    let work = WORKERS as f64 * median(&par_ns)
        - median(&ref_ns)
        - tasks * private / cycles::ticks_per_ns();
    m.put(
        "exec.overhead_per_steal_ns",
        if steals > 0.0 { work / steals } else { 0.0 },
        "ns",
    );
    m.put("pool.enter_us", median(&cx.enter_ns) / 1e3, "us");
    m.put("pool.exit_us", median(&cx.exit_ns) / 1e3, "us");
    m.put("pool.solve_ms_p50", median(&par_ns) / 1e6, "ms");
    solver.layer_metrics(m);
    let every: Vec<f64> = (0..3).flat_map(lat_only).collect();
    m.put("serve.lat_p99_us.r1", quantile(&lat_only(0), 0.99), "us");
    m.put("serve.lat_p99_us.r3", quantile(&lat_only(2), 0.99), "us");
    m.put("serve.lat_max_us", quantile(&every, 1.0), "us");
    m.put(
        "serve.stall_jobs",
        every.iter().filter(|&&l| l > 1e3).count() as f64,
        "count",
    );
    run.trace = Some(tr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_solver_agrees_with_its_reference() {
        for spec in [&FIB_FINE, &STRESS_STEAL, &PAR_DATA] {
            let (mut cx, mut s) = setup(spec, 1, Clock::new()).unwrap();
            let mut t = Tree::new(0);
            let (r, p) = s.pair(&mut cx, &mut t, false).unwrap();
            assert!(r > 0.0 && p > 0.0);
            s.prepare();
            s.solve(&mut cx, &mut t).unwrap();
            if let Some(n) = s.spawns() {
                assert_eq!(cx.total.spawns, 2 * n);
            }
        }
    }
}
