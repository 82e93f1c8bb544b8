//! Named metrics and the result line.

use std::fmt::Write as _;
use wool_core::Stats;

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// A human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, v, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<28} {v:>16.6} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Failure accounting over every operation of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failing operation, named.
    pub first: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first.get_or_insert(e);
        }
    }
}

/// Scheduler counters accumulated over `ops` operations (solves, calls
/// or jobs), reported per operation.
pub fn exec_counters(m: &mut Metrics, s: &Stats, ops: u64) {
    let per = |x: u64| x as f64 / ops.max(1) as f64;
    let joins = s.inlined_private + s.inlined_public + s.rts_joins;
    let steals = s.steals + s.leap_steals;
    let attempts = steals + s.failed_steals + s.lost_races + s.backoffs;
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.put("exec.spawns", per(s.spawns), "count");
    m.put(
        "exec.private_join_frac",
        frac(s.inlined_private, joins),
        "ratio",
    );
    m.put(
        "exec.public_joins",
        per(s.inlined_public + s.rts_joins),
        "count",
    );
    m.put("exec.stolen_joins", per(s.stolen_joins), "count");
    m.put("exec.steals", per(s.steals), "count");
    m.put("exec.leap_steals", per(s.leap_steals), "count");
    m.put("exec.failed_steals", per(s.failed_steals), "count");
    m.put("exec.lost_races", per(s.lost_races), "count");
    m.put("exec.backoffs", per(s.backoffs), "count");
    m.put("exec.steal_success_frac", frac(steals, attempts), "ratio");
    m.put("exec.backoff_frac", frac(s.backoffs, steals), "ratio");
    m.put("exec.publishes", per(s.publishes), "count");
    m.put("exec.publish_requests", per(s.publish_requests), "count");
    m.put("exec.overflow_inlines", per(s.overflow_inlines), "count");
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_order() {
        let mut m = Metrics::default();
        m.put("b", 1.2345678912345, "ms");
        m.put("a", 3.0, "count");
        assert_eq!(
            m.json(),
            "{\"b\": {\"value\": 1.2345678912345, \"unit\": \"ms\"}, \"a\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    fn tally_names_the_first_failure() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("solve 3: wrong result".into()));
        t.record(Err("solve 4: panic".into()));
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.first.as_deref(), Some("solve 3: wrong result"));
    }
}
