//! In-memory spans recorded by the benchmark around its calls into each
//! layer. One tree per solve or job; self time is a span's duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the dump file; aggregates cover every span.
const KEEP_SPANS: usize = 50_000;

/// One closed span. `parent` indexes the same tree (`usize::MAX` for
/// the root).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: usize,
}

/// The spans of one solve or job, root first.
#[derive(Default)]
pub struct Tree {
    pub id: u64,
    pub spans: Vec<Span>,
}

impl Tree {
    pub fn new(id: u64) -> Self {
        Tree {
            id,
            spans: Vec::with_capacity(8),
        }
    }

    /// Adds a closed span and returns its index, the parent of later ones.
    pub fn add(&mut self, name: &'static str, start: u64, end: u64, parent: usize) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }
}

/// Self time of every span of `spans`, in the same order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    (0..spans.len())
        .map(|i| {
            let s = spans[i];
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == i)
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|&(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// The benchmark's clock: nanoseconds since it was made. `Copy`, so
/// jobs on other threads read the same time base.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Collects span trees; records nothing in untraced runs.
pub struct Tracer {
    pub on: bool,
    kept: Vec<(u64, Span)>,
    agg: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            kept: Vec::new(),
            agg: BTreeMap::new(),
        }
    }

    /// Adds a finished tree to the aggregates and, while there is room,
    /// to the dump.
    pub fn commit(&mut self, tree: Tree) {
        if !self.on {
            return;
        }
        for (s, own) in tree.spans.iter().zip(self_times(&tree.spans)) {
            let a = self.agg.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end - s.start;
            a.self_ns += own;
        }
        if self.kept.len() < KEEP_SPANS {
            self.kept.extend(tree.spans.iter().map(|&s| (tree.id, s)));
        }
    }

    /// A table of count, total and self time per span name.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:<16} {:>10} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, a) in &self.agg {
            let _ = writeln!(
                out,
                "{:<16} {:>10} {:>12.3} {:>12.3}",
                name,
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
        out
    }

    /// The kept spans and the aggregates as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (id, s)) in self.kept.iter().enumerate() {
            let parent = if s.parent == usize::MAX {
                -1
            } else {
                s.parent as i64
            };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out.push_str("],\"summary\":{");
        for (i, (name, a)) in self.agg.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tree::new(1);
        let root = t.add("run", 0, 100, usize::MAX);
        let body = t.add("body", 10, 90, root);
        t.add("a", 20, 50, body);
        t.add("b", 40, 70, body); // overlaps `a`
        t.add("c", 85, 120, body); // sticks out of its parent
        assert_eq!(self_times(&t.spans), vec![20, 25, 30, 30, 35]);
    }

    #[test]
    fn tracer_aggregates_only_when_on() {
        let mut off = Tracer::new(false);
        let mut t = Tree::new(0);
        t.add("x", 0, 5, usize::MAX);
        off.commit(t);
        assert!(off.to_json().starts_with("{\"spans\":[]"));
        let mut on = Tracer::new(true);
        let mut t = Tree::new(3);
        let r = t.add("x", 0, 5, usize::MAX);
        t.add("y", 1, 2, r);
        on.commit(t);
        let j = on.to_json();
        assert!(
            j.contains("\"x\":{\"count\":1,\"total_ns\":5,\"self_ns\":4}"),
            "{j}"
        );
        assert!(j.contains("{\"id\":3,\"name\":\"y\",\"start_ns\":1,\"end_ns\":2,\"parent\":0}"));
    }
}
