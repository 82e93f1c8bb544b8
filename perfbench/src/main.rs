//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <fib-fine|stress-steal|par-data|serve-open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod forkjoin;
mod kernels;
mod ledger;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

use report::{rss_peak_mb, Metrics, Tally};
use spans::{Clock, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A pause of the benchmark's own polling loop longer than this counts
/// as a host gap.
pub const GAP_NS: u64 = 1_000_000;

/// Every end-to-end metric, in output order.
const END_TO_END: [&str; 9] = [
    "speedup_vs_serial",
    "speedup_vs_serial.p10",
    "lat_p50_us.r1",
    "lat_p50_us.r2",
    "lat_p50_us.r3",
    "lat_p99_us.r2",
    "sat_jobs_per_s",
    "setup_s",
    "rss_peak_mb",
];

/// Every per-layer metric with its unit. A layer a workload leaves idle
/// reports 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("exec.private_task_cycles", "cycles"),
    ("exec.public_task_cycles", "cycles"),
    ("exec.fib_insns", "count"),
    ("exec.fib_atomic_insns", "count"),
    ("exec.spawns", "count"),
    ("exec.private_join_frac", "ratio"),
    ("exec.public_joins", "count"),
    ("exec.stolen_joins", "count"),
    ("exec.steals", "count"),
    ("exec.leap_steals", "count"),
    ("exec.failed_steals", "count"),
    ("exec.lost_races", "count"),
    ("exec.backoffs", "count"),
    ("exec.steal_success_frac", "ratio"),
    ("exec.backoff_frac", "ratio"),
    ("exec.publishes", "count"),
    ("exec.publish_requests", "count"),
    ("exec.overflow_inlines", "count"),
    ("exec.overhead_per_steal_ns", "ns"),
    ("pool.enter_us", "us"),
    ("pool.exit_us", "us"),
    ("pool.solve_ms_p50", "ms"),
    ("par.map_ms", "ms"),
    ("par.dot_ms", "ms"),
    ("par.sort_ms", "ms"),
    ("par.map_speedup", "ratio"),
    ("par.dot_speedup", "ratio"),
    ("par.sort_speedup", "ratio"),
    ("par.splits_per_call", "count"),
    ("par.leaf_items", "count"),
    ("par.steals_per_call", "count"),
    ("par.failed_steals_per_call", "count"),
    ("serve.submit_ns.p50", "ns"),
    ("serve.submit_ns.p99", "ns"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.body_us", "us"),
    ("serve.handoff_us", "us"),
    ("serve.pending_max", "count"),
    ("serve.stall_jobs", "count"),
    ("serve.lat_p99_us.r1", "us"),
    ("serve.lat_p99_us.r3", "us"),
    ("serve.lat_max_us", "us"),
    ("serve.gen_late_us_p99", "us"),
    ("serve.rejected", "count"),
    ("bench.ref_ms_p50", "ms"),
    ("bench.ref_spread", "ratio"),
    ("bench.gaps_over_1ms", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// What one run measured.
pub struct Run {
    pub clock: Clock,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub tally: Tally,
    /// Host gaps seen by the benchmark's own polling loops.
    pub gaps: u64,
    last_poll: u64,
    setup_s: Vec<f64>,
    notes: Vec<String>,
    pub trace: Option<Tracer>,
}

impl Run {
    /// Runs `make` `SETUP_REPS` times, timing each, keeps the last, and
    /// pins its threads.
    pub fn setup<T>(&mut self, mut make: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let t0 = self.clock.now();
            kept = Some(make()?);
            self.setup_s.push((self.clock.now() - t0) as f64 / 1e9);
        }
        self.note(pin_threads());
        Ok(kept.expect("SETUP_REPS > 0"))
    }

    /// One step of a wait loop: yields the CPU (a spinning generator
    /// starves the co-located worker) and counts host gaps.
    pub fn idle_step(&mut self) {
        std::thread::yield_now();
        let now = self.clock.now();
        if self.last_poll != 0 && now - self.last_poll > GAP_NS {
            self.gaps += 1;
        }
        self.last_poll = now;
    }

    /// Waits until the clock reads `due`.
    pub fn wait_until(&mut self, due: u64) {
        self.last_poll = 0;
        while self.clock.now() < due {
            self.idle_step();
        }
        self.last_poll = 0;
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }
}

/// Pins this (the main) thread to CPU 0 and every other thread of the
/// process to CPU 1 with `taskset`. Without it the scheduler sometimes
/// keeps worker 0 and the background worker on one CPU for a whole run
/// (a parked worker is woken onto its waker's CPU), which halves the
/// parallel speed-up of that run only. Returns a note for the output.
pub fn pin_threads() -> String {
    let main = std::process::id().to_string();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return "threads not pinned: /proc/self/task unreadable".into();
    };
    let mut pinned = Vec::new();
    for tid in tasks
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
    {
        let cpu = if tid == main { "0" } else { "1" };
        let ok = std::process::Command::new("taskset")
            .args(["-p", "-c", cpu, &tid])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            return format!("threads not pinned: taskset failed for thread {tid}");
        }
        pinned.push(format!("{tid}->cpu{cpu}"));
    }
    format!("threads pinned: {}", pinned.join(" "))
}

/// The message of a panic payload.
pub fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.5..=120.0).contains(&seconds) {
        return Err("--seconds must be within 0.5..=120".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        clock: Clock::new(),
        e2e: Metrics::default(),
        layer: Metrics::default(),
        tally: Tally::default(),
        gaps: 0,
        last_poll: 0,
        setup_s: Vec::new(),
        notes: Vec::new(),
        trace: None,
    };
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let out = match args.workload.as_str() {
        "fib-fine" => forkjoin::run(&forkjoin::FIB_FINE, seed, secs, trace, &mut run),
        "stress-steal" => forkjoin::run(&forkjoin::STRESS_STEAL, seed, secs, trace, &mut run),
        "par-data" => forkjoin::run(&forkjoin::PAR_DATA, seed, secs, trace, &mut run),
        "serve-open" => serve::run(seed, secs, trace, &mut run),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = out {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    run.e2e.put("setup_s", stats::median(&run.setup_s), "s");
    run.e2e.put("rss_peak_mb", rss_peak_mb(), "MiB");
    if trace {
        if let Some((n, atomic)) = ledger::fib_insns() {
            run.layer.put("exec.fib_insns", n as f64, "count");
            run.layer
                .put("exec.fib_atomic_insns", atomic as f64, "count");
        }
        for (name, unit) in PER_LAYER {
            let absent = name.starts_with("exec.fib_");
            if run.layer.get(name).is_none() && !absent {
                run.layer.put(name, 0.0, unit);
            }
        }
    }
    for name in END_TO_END {
        assert!(
            run.e2e.get(name).is_some(),
            "end-to-end metric {name} was not measured"
        );
    }

    let t = &run.tally;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        seed,
        secs,
        u8::from(trace)
    );
    for n in &run.notes {
        println!("  {n}");
    }
    println!("end-to-end:");
    print!("{}", run.e2e.table());
    let fail_frac = t.failed as f64 / t.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.6} ratio ({} of {} operations)",
        "fail_frac", fail_frac, t.failed, t.attempted
    );
    if let Some(f) = &t.first {
        println!("  first failure: {f}");
    }
    println!(
        "{}:",
        if trace {
            "per-layer"
        } else {
            "host-noise diagnostics"
        }
    );
    print!("{}", run.layer.table());
    if let Some(tr) = &run.trace {
        println!("spans (self time = span minus the part its children cover):");
        print!("{}", tr.summary());
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, seed);
        match std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, tr.to_json()))
        {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    let metrics = if trace { &run.layer } else { &run.e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
