//! A lightweight hierarchical span profiler for the simulator's *own*
//! performance: [`Profiler`] is the enter/exit seam, [`NoopProfiler`] the
//! statically-monomorphized free default (the same zero-cost idiom as
//! [`crate::NoopProbe`]), and [`SpanProfiler`] the real sink that aggregates
//! named scopes into a call tree with host-time totals and call counts.
//!
//! The aggregated tree exports two ways:
//!
//! * [`SpanProfiler::text_summary`] — a flame-style indented text report
//!   (total time, share of the root, self time, call count per node);
//! * [`SpanProfiler::chrome_trace`] — a Chrome `trace_event` document
//!   (`chrome://tracing` / Perfetto). Because the profiler stores
//!   *aggregates*, not raw events, timestamps are synthesized: each node is
//!   laid out as one complete (`"ph":"X"`) event whose children occupy
//!   consecutive sub-ranges — a flame chart of where host time went, not a
//!   timeline of when.
//!
//! Spans measure **host** (wall-clock) time spent inside the simulator's
//! code, never simulated cycles; they exist to attribute the cost of the
//! cycle loop to pipeline stages, which is what the data-oriented core
//! rewrite will be judged against.

use crate::json::JsonValue;
use std::time::{Duration, Instant};

/// A sink for hierarchical enter/exit scope events.
///
/// Like [`crate::Probe`], implementors are statically monomorphized into
/// the instrumented code: with the default [`NoopProfiler`] every
/// `enter`/`exit` pair inlines to nothing, so the cycle loop pays no branch
/// and no timestamp when profiling is off. The `throughput` binary's
/// probe-overhead table times a live [`SpanProfiler`] against a plain run,
/// which uses this default.
pub trait Profiler {
    /// Open a named scope. The default implementation discards it.
    #[inline(always)]
    fn enter(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Close the innermost open scope. The default implementation does
    /// nothing.
    #[inline(always)]
    fn exit(&mut self) {}

    /// Close the innermost open scope and open `name` in its place, as
    /// consecutive scopes at one instant (the next stage of a loop). The
    /// default implementation exits and enters.
    #[inline(always)]
    fn next(&mut self, name: &'static str) {
        self.exit();
        self.enter(name);
    }
}

/// The default profiler: discards every scope at zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProfiler;

impl Profiler for NoopProfiler {}

/// Mutable references forward, so a caller can keep ownership of its
/// profiler while the instrumented code drives it.
impl<F: Profiler> Profiler for &mut F {
    #[inline(always)]
    fn enter(&mut self, name: &'static str) {
        (**self).enter(name);
    }

    #[inline(always)]
    fn exit(&mut self) {
        (**self).exit();
    }

    #[inline(always)]
    fn next(&mut self, name: &'static str) {
        (**self).next(name);
    }
}

/// One aggregated node of the span tree.
#[derive(Clone, Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    /// Total time inside this scope (including children), in nanoseconds.
    total_ns: u64,
}

/// Aggregating span profiler: records enter/exit of named scopes and folds
/// them into a call tree keyed by (parent, name).
///
/// Re-entering the same name under the same parent accumulates into one
/// node (the cycle loop enters `"issue"` once per cycle; the tree holds a
/// single `issue` node with `calls` = cycles). Recursion is supported —
/// a name nested under itself is a distinct child node.
#[derive(Clone, Debug)]
pub struct SpanProfiler {
    /// Node 0 is the synthetic root; it never has a timestamp of its own.
    nodes: Vec<Node>,
    /// Open scopes: (node index, enter time).
    stack: Vec<(usize, Instant)>,
    /// Exits with an empty stack (always a bug in the instrumentation).
    unbalanced_exits: u64,
}

impl SpanProfiler {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> SpanProfiler {
        SpanProfiler {
            nodes: vec![Node {
                name: "",
                children: Vec::new(),
                calls: 0,
                total_ns: 0,
            }],
            stack: Vec::new(),
            unbalanced_exits: 0,
        }
    }

    /// Whether every entered scope has been exited.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty() && self.unbalanced_exits == 0
    }

    /// Total recorded time across the top-level scopes.
    #[must_use]
    pub fn total(&self) -> Duration {
        Duration::from_nanos(
            self.nodes[0]
                .children
                .iter()
                .map(|&c| self.nodes[c].total_ns)
                .sum(),
        )
    }

    /// Sum of total time over every node named `name`, wherever it appears
    /// in the tree.
    #[must_use]
    pub fn total_of(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.nodes
                .iter()
                .filter(|n| n.name == name)
                .map(|n| n.total_ns)
                .sum(),
        )
    }

    /// Sum of call counts over every node named `name`.
    #[must_use]
    pub fn calls_of(&self, name: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.calls)
            .sum()
    }

    /// `(name, total, calls)` for each top-level scope, in first-entry
    /// order.
    #[must_use]
    pub fn roots(&self) -> Vec<(&'static str, Duration, u64)> {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| {
                let n = &self.nodes[c];
                (n.name, Duration::from_nanos(n.total_ns), n.calls)
            })
            .collect()
    }

    fn self_ns(&self, idx: usize) -> u64 {
        let n = &self.nodes[idx];
        let child_sum: u64 = n.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        n.total_ns.saturating_sub(child_sum)
    }

    /// Flame-style indented text report. Each line shows the node's total
    /// time, its share of the whole recording, its self time (total minus
    /// children), and its call count.
    #[must_use]
    pub fn text_summary(&self) -> String {
        let whole = self.total().as_nanos().max(1) as f64;
        let mut out = format!(
            "span tree (total {:.1}ms):\n",
            self.total().as_secs_f64() * 1e3
        );
        let mut work: Vec<(usize, usize)> = self.nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| (c, 0))
            .collect();
        while let Some((idx, depth)) = work.pop() {
            let n = &self.nodes[idx];
            out.push_str(&format!(
                "{:indent$}{:<width$} {:>9.1}ms {:>5.1}%  self {:>9.1}ms  calls {}\n",
                "",
                n.name,
                n.total_ns as f64 / 1e6,
                100.0 * n.total_ns as f64 / whole,
                self.self_ns(idx) as f64 / 1e6,
                n.calls,
                indent = 2 * depth,
                width = 24usize.saturating_sub(2 * depth),
            ));
            for &c in n.children.iter().rev() {
                work.push((c, depth + 1));
            }
        }
        if !self.is_balanced() {
            out.push_str(&format!(
                "warning: unbalanced spans ({} still open, {} stray exits)\n",
                self.stack.len(),
                self.unbalanced_exits
            ));
        }
        out
    }

    /// A Chrome `trace_event` document of the aggregated tree.
    ///
    /// One complete (`"ph":"X"`) event per node; children are laid out
    /// sequentially inside their parent's range starting at the parent's
    /// synthesized timestamp, so the result renders as a flame chart of
    /// aggregate host time. Load via `chrome://tracing` or Perfetto.
    #[must_use]
    pub fn chrome_trace(&self) -> JsonValue {
        let mut events = Vec::new();
        // (node, synthesized start in µs)
        let mut work: Vec<(usize, u64)> = Vec::new();
        let mut cursor = 0u64;
        for &c in &self.nodes[0].children {
            work.push((c, cursor));
            cursor += self.nodes[c].total_ns / 1_000;
        }
        while let Some((idx, ts)) = work.pop() {
            let n = &self.nodes[idx];
            events.push(JsonValue::obj([
                ("name", JsonValue::from(n.name)),
                ("ph", "X".into()),
                ("ts", ts.into()),
                ("dur", (n.total_ns / 1_000).into()),
                ("pid", 1u64.into()),
                ("tid", 1u64.into()),
                (
                    "args",
                    JsonValue::obj([
                        ("calls", JsonValue::from(n.calls)),
                        ("self_us", JsonValue::from(self.self_ns(idx) / 1_000)),
                    ]),
                ),
            ]));
            let mut child_ts = ts;
            for &c in &n.children {
                work.push((c, child_ts));
                child_ts += self.nodes[c].total_ns / 1_000;
            }
        }
        JsonValue::obj([
            ("traceEvents", JsonValue::Arr(events)),
            ("displayTimeUnit", JsonValue::from("ms")),
        ])
    }
}

impl Default for SpanProfiler {
    fn default() -> Self {
        SpanProfiler::new()
    }
}

impl SpanProfiler {
    /// Open `name` under the innermost open scope, started at `at`.
    fn open(&mut self, name: &'static str, at: Instant) {
        let parent = self.stack.last().map_or(0, |&(idx, _)| idx);
        // Linear scan: stage trees are a handful of children wide, and the
        // pointer comparison catches the common static-str case first.
        let found = self.nodes[parent].children.iter().copied().find(|&c| {
            let n = self.nodes[c].name;
            std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name
        });
        let idx = match found {
            Some(idx) => idx,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    name,
                    children: Vec::new(),
                    calls: 0,
                    total_ns: 0,
                });
                self.nodes[parent].children.push(idx);
                idx
            }
        };
        self.stack.push((idx, at));
    }

    /// Close the innermost open scope at `at`.
    fn close(&mut self, at: Instant) {
        match self.stack.pop() {
            Some((idx, started)) => {
                let n = &mut self.nodes[idx];
                n.calls += 1;
                n.total_ns += u64::try_from((at - started).as_nanos()).unwrap_or(u64::MAX);
            }
            None => self.unbalanced_exits += 1,
        }
    }
}

impl Profiler for SpanProfiler {
    #[inline]
    fn enter(&mut self, name: &'static str) {
        self.open(name, Instant::now());
    }

    #[inline]
    fn exit(&mut self) {
        self.close(Instant::now());
    }

    /// One clock read serves both the close and the open.
    #[inline]
    fn next(&mut self, name: &'static str) {
        let now = Instant::now();
        self.close(now);
        self.open(name, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn busy(prof: &mut SpanProfiler, name: &'static str) {
        prof.enter(name);
        std::hint::black_box((0..100).sum::<u64>());
        prof.exit();
    }

    #[test]
    fn noop_profiler_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<NoopProfiler>(), 0);
        let mut p = NoopProfiler;
        p.enter("x");
        p.exit();
        p.exit(); // unbalanced exit is also free
    }

    #[test]
    fn mut_ref_forwards() {
        let mut p = SpanProfiler::new();
        let mut by_ref = &mut p;
        Profiler::enter(&mut by_ref, "a");
        Profiler::exit(&mut by_ref);
        assert_eq!(p.calls_of("a"), 1);
        assert!(p.is_balanced());
    }

    #[test]
    fn next_replaces_the_innermost_scope_with_a_sibling() {
        let mut p = SpanProfiler::new();
        for _ in 0..3 {
            p.enter("cycle");
            p.enter("issue");
            p.next("retire");
            p.next("issue");
            p.exit();
            p.exit();
        }
        assert!(p.is_balanced());
        assert_eq!(p.calls_of("issue"), 6);
        assert_eq!(p.calls_of("retire"), 3);
        assert_eq!(p.roots().len(), 1);
        // Siblings under `cycle`, not nested in each other.
        assert!(p.text_summary().contains("\n  retire"));
        assert!(p.total_of("cycle") >= p.total_of("issue") + p.total_of("retire"));
        // The default method exits and enters, so a no-op stays silent.
        let mut q = NoopProfiler;
        q.next("x");
    }

    #[test]
    fn aggregates_repeated_scopes_into_one_node() {
        let mut p = SpanProfiler::new();
        for _ in 0..10 {
            p.enter("cycle");
            busy(&mut p, "issue");
            busy(&mut p, "retire");
            p.exit();
        }
        assert!(p.is_balanced());
        assert_eq!(p.calls_of("cycle"), 10);
        assert_eq!(p.calls_of("issue"), 10);
        assert_eq!(p.roots().len(), 1);
        // Parent time includes children.
        assert!(p.total_of("cycle") >= p.total_of("issue") + p.total_of("retire"));
        assert_eq!(p.total(), p.total_of("cycle"));
    }

    #[test]
    fn recursion_nests_rather_than_cycling() {
        let mut p = SpanProfiler::new();
        p.enter("f");
        p.enter("f"); // recursive call: child node, not the same node
        p.exit();
        p.exit();
        assert_eq!(p.calls_of("f"), 2);
        let roots = p.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].2, 1); // outer f called once
    }

    #[test]
    fn unbalanced_exits_are_counted_not_fatal() {
        let mut p = SpanProfiler::new();
        p.exit();
        assert!(!p.is_balanced());
        assert!(p.text_summary().contains("unbalanced"));
    }

    #[test]
    fn text_summary_is_shaped() {
        let mut p = SpanProfiler::new();
        p.enter("run");
        busy(&mut p, "fetch");
        busy(&mut p, "issue");
        p.exit();
        let text = p.text_summary();
        assert!(text.contains("span tree"));
        for name in ["run", "fetch", "issue"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        // Children are indented under the parent.
        let fetch_line = text.lines().find(|l| l.contains("fetch")).unwrap();
        assert!(fetch_line.starts_with("  "));
    }

    #[test]
    fn chrome_trace_round_trips_and_is_well_formed() {
        let mut p = SpanProfiler::new();
        p.enter("run");
        for _ in 0..3 {
            busy(&mut p, "fetch");
            busy(&mut p, "issue");
        }
        p.exit();
        busy(&mut p, "report");
        let doc = p.chrome_trace();
        let text = doc.render();
        let back = parse(&text).expect("emitted Chrome trace parses back");
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        // One event per tree node: run, fetch, issue, report.
        assert_eq!(events.len(), 4);
        let find = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap_or_else(|| panic!("no event named {name}"))
        };
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_i64().unwrap() >= 0);
            assert!(e.get("dur").unwrap().as_i64().unwrap() >= 0);
        }
        // Children lie inside the parent's [ts, ts+dur] range.
        let run = find("run");
        let run_ts = run.get("ts").unwrap().as_i64().unwrap();
        let run_end = run_ts + run.get("dur").unwrap().as_i64().unwrap();
        for child in ["fetch", "issue"] {
            let c = find(child);
            let ts = c.get("ts").unwrap().as_i64().unwrap();
            let end = ts + c.get("dur").unwrap().as_i64().unwrap();
            assert!(ts >= run_ts && end <= run_end, "{child} outside parent");
        }
        assert_eq!(
            find("fetch")
                .get("args")
                .unwrap()
                .get("calls")
                .unwrap()
                .as_i64(),
            Some(3)
        );
        // Siblings at the top level do not overlap.
        let report_ts = find("report").get("ts").unwrap().as_i64().unwrap();
        assert!(report_ts >= run_end);
    }
}
