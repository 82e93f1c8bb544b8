//! The `serve-open` workload: a one-worker `ServePool` fed by a
//! generator on the main thread.
//!
//! Three open-loop phases send fib(k) jobs at seeded Poisson times at
//! fixed rates; each job is timed from its scheduled send time to the
//! moment the generator sees its `JobHandle` finished. A closed-loop
//! phase then keeps `OUTSTANDING` jobs in flight, in batches that are
//! each paired with the serial reference of the same jobs.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use wool_core::{PoolConfig, WoolFull};
use wool_serve::{JobHandle, ServePool};

use crate::kernels::{fib_kernel, fib_serial, fib_value};
use crate::report::{exec_counters, Tally};
use crate::rng::{poisson_times, Rng};
use crate::spans::{Clock, Tracer, Tree};
use crate::stats::{median, quantile, windowed_quantile};
use crate::{ledger, panic_msg, Run};

/// Open-loop rates in jobs per second. At the first the worker parks
/// between jobs, so the wake path dominates; at the last the injector and
/// queueing do. Closed-loop capacity was 210k–390k/s on the reference
/// host, moving with host load; the last rate stays under half of its
/// low end, so that a slow period does not push the queue towards
/// saturation, where latency swings with capacity.
const RATES: [f64; 3] = [1_000.0, 50_000.0, 100_000.0];
/// Window of the windowed p99: about 1000 jobs at the second rate, so a
/// window holds ten jobs beyond its p99, and short enough that most
/// windows hold no host gap (one or two per second on the reference
/// host, each disturbing a few milliseconds).
const P99_WINDOW_S: f64 = 0.02;
/// Shares of the run: the three open-loop phases, then saturation.
const SHARES: [f64; 4] = [0.2, 0.3, 0.2, 0.3];
/// Jobs in flight in the closed loop, below the injector's 1024 slots.
const OUTSTANDING: usize = 64;
/// Jobs per closed-loop batch.
const BATCH: usize = 2000;
/// Job sizes: fib(k) for k drawn uniformly from this range.
const K_RANGE: (u64, u64) = (10, 13);
/// A phase's jobs still unfinished this long after its last send fail.
const DRAIN_NS: u64 = 1_000_000_000;
/// Warm-up jobs in each set-up.
const WARMUP_JOBS: usize = 40_000;
/// Trace alternation period in a traced run, by scheduled send time.
const TRACE_FLIP_S: f64 = 0.5;

type Out = (u64, u64, u64);

/// What the generator knows of a job in flight.
#[derive(Clone, Copy)]
struct Meta {
    k: u64,
    id: u64,
    due: u64,
    /// Scheduled send time within the phase, in seconds.
    t: f64,
    submit: (u64, u64),
    traced: bool,
}

/// What one finished job measured.
struct Done {
    p: Meta,
    body: (u64, u64),
    observe: (u64, u64),
}

/// Per-job layer timings of the traced jobs.
#[derive(Default)]
struct Layers {
    submit_ns: Vec<f64>,
    queue_us: Vec<f64>,
    body_us: Vec<f64>,
    handoff_us: Vec<f64>,
    pending_max: usize,
    rejected: u64,
}

struct Gen {
    pool: ServePool<WoolFull>,
    clock: Clock,
    pending: Vec<(JobHandle<Out>, Meta)>,
    next_id: u64,
    tally: Tally,
    layers: Layers,
    tracer: Tracer,
}

impl Gen {
    fn submit(&mut self, k: u64, due: u64, t: f64, traced: bool) {
        let clock = self.clock;
        let s0 = clock.now();
        let h = if traced {
            self.pool.submit(move |h| {
                let b0 = clock.now();
                let v = fib_kernel(h, k);
                (v, b0, clock.now())
            })
        } else {
            self.pool.submit(move |h| (fib_kernel(h, k), 0, 0))
        };
        let s1 = clock.now();
        let id = self.next_id;
        self.next_id += 1;
        match h {
            Ok(h) => {
                if traced {
                    self.layers.submit_ns.push((s1 - s0) as f64);
                    self.layers.pending_max = self.layers.pending_max.max(self.pool.pending_jobs());
                }
                self.pending.push((
                    h,
                    Meta {
                        k,
                        id,
                        due,
                        t,
                        submit: (s0, s1),
                        traced,
                    },
                ));
            }
            Err(e) => {
                self.layers.rejected += 1;
                self.tally
                    .record(Err(format!("job {id}: submit failed: {e}")));
            }
        }
    }

    /// Collects every finished job; returns how many finished.
    fn poll(&mut self, out: &mut Vec<Done>) -> usize {
        let before = out.len();
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].0.is_finished() {
                i += 1;
                continue;
            }
            let o0 = self.clock.now();
            let (h, p) = self.pending.swap_remove(i);
            let (k, id) = (p.k, p.id);
            let res = catch_unwind(AssertUnwindSafe(|| h.try_join()));
            let o1 = self.clock.now();
            let outcome = match res {
                Ok(Ok((v, b0, b1))) if v == fib_value(k) => {
                    out.push(Done {
                        p,
                        body: (b0, b1),
                        observe: (o0, o1),
                    });
                    Ok(())
                }
                Ok(Ok((v, _, _))) => Err(format!("job {id}: fib({k}) returned {v}")),
                Ok(Err(_)) => Err(format!("job {id}: finished handle would not join")),
                Err(e) => Err(format!("job {id}: panic at the join: {}", panic_msg(&*e))),
            };
            self.tally.record(outcome);
        }
        out.len() - before
    }

    /// Fails every job still in flight.
    fn abandon(&mut self, phase: &str) {
        for (_, p) in self.pending.drain(..) {
            self.tally.record(Err(format!(
                "{phase}: job {} unfinished when the phase ended",
                p.id
            )));
        }
    }

    /// Layer timings and spans of a finished traced job.
    fn trace_job(&mut self, d: &Done) {
        if !d.p.traced {
            return;
        }
        let (s0, s1) = d.p.submit;
        let (b0, b1) = d.body;
        let (o0, o1) = d.observe;
        self.layers
            .queue_us
            .push(b0.saturating_sub(s1) as f64 / 1e3);
        self.layers.body_us.push((b1 - b0) as f64 / 1e3);
        self.layers
            .handoff_us
            .push(o0.saturating_sub(b1) as f64 / 1e3);
        let mut t = Tree::new(d.p.id);
        let root = t.add("job", d.p.due.min(s0), o1, usize::MAX);
        t.add("submit", s0, s1, root);
        t.add("job.body", b0, b1, root);
        t.add("observe", o0, o1, root);
        self.tracer.commit(t);
    }
}

/// Job sizes of one phase.
fn sizes(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.range(K_RANGE.0, K_RANGE.1)).collect()
}

fn setup(
    seed: u64,
    seconds: f64,
    clock: Clock,
    trace: bool,
) -> Result<(Gen, Vec<Vec<f64>>), String> {
    let mut g = Gen {
        pool: ServePool::with_config(PoolConfig::with_workers(1)),
        clock,
        pending: Vec::new(),
        next_id: 0,
        tally: Tally::default(),
        layers: Layers::default(),
        tracer: Tracer::new(trace),
    };
    let schedules = (0..3)
        .map(|r| {
            poisson_times(
                &mut Rng::new(seed, 20 + r as u64),
                RATES[r],
                seconds * SHARES[r],
            )
        })
        .collect();
    let ks = sizes(seed, 30, WARMUP_JOBS);
    let mut done = Vec::new();
    closed_batch(&mut g, &ks, &mut done);
    if let Some(e) = g.tally.first.take() {
        return Err(format!("warm-up: {e}"));
    }
    g.tally = Tally::default();
    Ok((g, schedules))
}

/// Runs the jobs `ks` with `OUTSTANDING` in flight; returns the elapsed ns.
fn closed_batch(g: &mut Gen, ks: &[u64], done: &mut Vec<Done>) -> u64 {
    let t0 = g.clock.now();
    let mut sent = 0;
    let mut finished = 0;
    while finished < ks.len() {
        while g.pending.len() < OUTSTANDING && sent < ks.len() {
            g.submit(ks[sent], g.clock.now(), 0.0, false);
            sent += 1;
        }
        done.clear();
        let n = g.poll(done);
        finished += n;
        if n == 0 {
            std::thread::yield_now();
        }
        if g.pending.is_empty() && sent == ks.len() {
            break;
        }
    }
    g.clock.now() - t0
}

pub fn run(seed: u64, seconds: f64, trace: bool, run: &mut Run) -> Result<(), String> {
    let clock = run.clock;
    let (mut g, schedules) = run.setup(|| setup(seed, seconds, clock, trace))?;
    // Sized up front, so that the peak RSS does not depend on where a
    // vector happened to double.
    let mut lat: [Vec<(f64, f64)>; 3] =
        std::array::from_fn(|r| Vec::with_capacity(schedules[r].len()));
    let mut lat_traced: [Vec<f64>; 3] = Default::default();
    let mut gen_late = Vec::with_capacity(schedules.iter().map(Vec::len).sum());
    let mut done = Vec::new();

    for r in 0..3 {
        let times = &schedules[r];
        let ks = sizes(seed, 40 + r as u64, times.len());
        let start = clock.now();
        let mut i = 0;
        let mut last_due = start;
        loop {
            let mut busy = false;
            while i < times.len() {
                let due = start + (times[i] * 1e9) as u64;
                let now = clock.now();
                if now < due {
                    break;
                }
                gen_late.push((now - due) as f64 / 1e3);
                let traced = trace && (times[i] / TRACE_FLIP_S) as u64 % 2 == 1;
                g.submit(ks[i], due, times[i], traced);
                last_due = due;
                i += 1;
                busy = true;
            }
            done.clear();
            if g.poll(&mut done) > 0 {
                busy = true;
                for d in &done {
                    let l = (d.observe.0 - d.p.due) as f64 / 1e3;
                    lat[r].push((d.p.t, l));
                    if d.p.traced {
                        lat_traced[r].push(l);
                    }
                    g.trace_job(d);
                }
            }
            if i == times.len() && g.pending.is_empty() {
                break;
            }
            if i == times.len() && clock.now() > last_due + DRAIN_NS {
                g.abandon(&format!("rate {}/s", RATES[r]));
                break;
            }
            if !busy {
                run.idle_step();
            }
        }
    }

    // Saturation: batches paired with the serial reference of the same
    // jobs, alternating which runs first.
    let (mut ratios, mut rates, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut ratio_at = Vec::new();
    let sat_start = clock.now();
    let end = sat_start + (seconds * SHARES[3] * 1e9) as u64;
    let mut b = 0u64;
    while clock.now() < end {
        let t_b = (clock.now() - sat_start) as f64 / 1e9;
        let ks = sizes(seed, 1000 + b, BATCH);
        let serial = |ks: &[u64]| {
            let t0 = clock.now();
            let ok = ks.iter().all(|&k| fib_serial(black_box(k)) == fib_value(k));
            (ok, clock.now() - t0)
        };
        let (ok, tr, tp) = if b.is_multiple_of(2) {
            let tp = closed_batch(&mut g, &ks, &mut done);
            let (ok, tr) = serial(&ks);
            (ok, tr, tp)
        } else {
            let (ok, tr) = serial(&ks);
            (ok, tr, closed_batch(&mut g, &ks, &mut done))
        };
        g.tally.record(if ok {
            Ok(())
        } else {
            Err(format!("batch {b}: serial reference disagrees"))
        });
        ratios.push(tr as f64 / tp as f64);
        ratio_at.push((t_b, tr as f64 / tp as f64));
        rates.push(BATCH as f64 / (tp as f64 / 1e9));
        refs.push(tr as f64);
        b += 1;
    }
    g.abandon("saturation");
    let report = g
        .pool
        .shutdown()
        .ok_or("serve pool was already shut down")?;

    let lat_only = |r: usize| lat[r].iter().map(|s| s.1).collect::<Vec<f64>>();
    let m = &mut run.e2e;
    m.put("speedup_vs_serial", median(&ratios), "ratio");
    m.put(
        "speedup_vs_serial.p10",
        windowed_quantile(&ratio_at, 1.0, 20, 0.1),
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
        windowed_quantile(&lat[1], P99_WINDOW_S, 500, 0.99),
        "us",
    );
    m.put("sat_jobs_per_s", median(&rates), "1/s");
    run.note(format!(
        "{} open-loop jobs at {:?}/s, {} saturation batches of {BATCH}, {} jobs run by the pool",
        lat.iter().map(Vec::len).sum::<usize>(),
        RATES,
        ratios.len(),
        report.jobs
    ));

    let m = &mut run.layer;
    m.put("bench.ref_ms_p50", median(&refs) / 1e6, "ms");
    m.put(
        "bench.ref_spread",
        quantile(&refs, 0.9) / quantile(&refs, 0.1),
        "ratio",
    );
    m.put("bench.gaps_over_1ms", run.gaps as f64, "count");
    m.put("serve.gen_late_us_p99", quantile(&gen_late, 0.99), "us");
    run.tally = std::mem::take(&mut g.tally);
    if !trace {
        return Ok(());
    }
    let untraced: Vec<f64> = lat[1]
        .iter()
        .filter(|s| ((s.0 / TRACE_FLIP_S) as u64).is_multiple_of(2))
        .map(|s| s.1)
        .collect();
    m.put(
        "bench.trace_overhead_frac",
        median(&lat_traced[1]) / median(&untraced) - 1.0,
        "ratio",
    );
    let (private, public) = ledger::task_cycles();
    m.put("exec.private_task_cycles", private, "cycles");
    m.put("exec.public_task_cycles", public, "cycles");
    exec_counters(m, &report.total, report.jobs);
    let l = &g.layers;
    m.put("serve.submit_ns.p50", median(&l.submit_ns), "ns");
    m.put("serve.submit_ns.p99", quantile(&l.submit_ns, 0.99), "ns");
    m.put("serve.queue_us.p50", median(&l.queue_us), "us");
    m.put("serve.queue_us.p99", quantile(&l.queue_us, 0.99), "us");
    m.put("serve.body_us", median(&l.body_us), "us");
    m.put("serve.handoff_us", median(&l.handoff_us), "us");
    m.put("serve.pending_max", l.pending_max as f64, "count");
    let every: Vec<f64> = (0..3).flat_map(lat_only).collect();
    m.put(
        "serve.stall_jobs",
        every.iter().filter(|&&l| l > 1e3).count() as f64,
        "count",
    );
    m.put("serve.lat_p99_us.r1", quantile(&lat_only(0), 0.99), "us");
    m.put("serve.lat_p99_us.r3", quantile(&lat_only(2), 0.99), "us");
    m.put("serve.lat_max_us", quantile(&every, 1.0), "us");
    m.put("serve.rejected", l.rejected as f64, "count");
    run.trace = Some(std::mem::replace(&mut g.tracer, Tracer::new(false)));
    Ok(())
}
