//! Counters, fixed-bucket histograms, a named metrics registry, and the
//! standard [`MetricsProbe`] that distills the event stream into the
//! distributions the paper's tables summarize.

use crate::json::JsonValue;
use crate::probe::{Event, EventKind, Probe};
use std::collections::BTreeMap;

/// Per-[`EventKind`] event counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventCounters {
    counts: [u64; EventKind::ALL.len()],
}

impl EventCounters {
    /// Count one event.
    #[inline]
    pub fn bump(&mut self, kind: EventKind) {
        self.counts[kind.index()] += 1;
    }

    /// Events of `kind` seen so far.
    #[must_use]
    pub fn get(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// `(kind, count)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKind, u64)> + '_ {
        EventKind::ALL.into_iter().map(|k| (k, self.get(k)))
    }

    /// The raw counts in [`EventKind::ALL`] declaration order.
    #[must_use]
    pub fn raw_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuild counters from [`EventCounters::raw_counts`] output. Returns
    /// `None` if `counts` has the wrong length.
    #[must_use]
    pub fn from_raw_counts(counts: &[u64]) -> Option<EventCounters> {
        let counts: [u64; EventKind::ALL.len()] = counts.try_into().ok()?;
        Some(EventCounters { counts })
    }
}

/// A histogram over `u64` values with caller-fixed bucket bounds.
///
/// Bucket `i` counts values `v` with `v <= bounds[i]` (and greater than the
/// previous bound); values above the last bound land in an implicit
/// overflow bucket. Exact min/max/sum are tracked alongside, so `mean` and
/// the extreme quantiles do not suffer bucket quantization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given strictly-increasing upper bucket bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must strictly increase"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Power-of-two bounds `0, 1, 2, 4, … , 2^max_pow2`.
    #[must_use]
    pub fn exponential(max_pow2: u32) -> Histogram {
        let mut bounds = vec![0u64];
        bounds.extend((0..=max_pow2).map(|p| 1u64 << p));
        Histogram::new(&bounds)
    }

    /// `n` linear bounds `step, 2*step, … , n*step`.
    #[must_use]
    pub fn linear(step: u64, n: usize) -> Histogram {
        assert!(step > 0 && n > 0);
        let bounds: Vec<u64> = (1..=n as u64).map(|i| i * step).collect();
        Histogram::new(&bounds)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`). The overflow bucket reports the exact maximum, and
    /// the answer is clamped to the exact observed min/max so a quantile is
    /// never outside the observed range. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based ceil like classic
        // nearest-rank definition (q=0 → first observation).
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bucket_top = self.bounds.get(i).copied().unwrap_or(self.max);
                return bucket_top.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The complete internal state as
    /// `(bounds, counts, total, sum, min, max)` — `counts` includes the
    /// overflow bucket. Together with [`Histogram::from_raw_parts`] this
    /// round-trips a histogram losslessly.
    #[must_use]
    pub fn raw_parts(&self) -> (&[u64], &[u64], u64, u128, u64, u64) {
        (
            &self.bounds,
            &self.counts,
            self.total,
            self.sum,
            self.min,
            self.max,
        )
    }

    /// Rebuild a histogram from [`Histogram::raw_parts`] output. Returns
    /// `None` if the parts are structurally inconsistent (bad bounds, wrong
    /// count vector length, or a total that disagrees with the counts).
    #[must_use]
    pub fn from_raw_parts(
        bounds: &[u64],
        counts: &[u64],
        total: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Option<Histogram> {
        if bounds.is_empty()
            || !bounds.windows(2).all(|w| w[0] < w[1])
            || counts.len() != bounds.len() + 1
            || counts.iter().sum::<u64>() != total
        {
            return None;
        }
        Some(Histogram {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
            total,
            sum,
            min,
            max,
        })
    }

    /// `(upper_bound, count)` pairs including the overflow bucket, whose
    /// bound is reported as `u64::MAX`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// Compact one-line summary: `n=.. mean=.. p50=.. p90=.. p99=.. max=..`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.2} p50={} p90={} p99={} max={}",
            self.total,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max()
        )
    }

    /// JSON object with the summary statistics and non-empty buckets.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let buckets: Vec<JsonValue> = self
            .buckets()
            .filter(|&(_, c)| c > 0)
            .map(|(le, c)| {
                JsonValue::obj([
                    (
                        "le",
                        if le == u64::MAX {
                            JsonValue::Str("inf".into())
                        } else {
                            le.into()
                        },
                    ),
                    ("count", c.into()),
                ])
            })
            .collect();
        JsonValue::obj([
            ("count", self.total.into()),
            ("mean", self.mean().into()),
            ("min", self.min().into()),
            ("p50", self.quantile(0.50).into()),
            ("p90", self.quantile(0.90).into()),
            ("p99", self.quantile(0.99).into()),
            ("max", self.max().into()),
            ("buckets", JsonValue::Arr(buckets)),
        ])
    }
}

/// A named collection of counters and histograms, exportable as JSON lines.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `by` to the named counter (created at zero on first use).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Insert a pre-built histogram under `name` (replacing any existing).
    pub fn insert_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_owned(), h);
    }

    /// Value of a counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// One JSON line per metric: counters as
    /// `{"metric":name,"type":"counter","value":v}` and histograms as
    /// `{"metric":name,"type":"histogram", ...summary}`. Extra `labels`
    /// pairs are attached to every line.
    #[must_use]
    pub fn to_jsonl(&self, labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let mut fields: Vec<(&str, JsonValue)> = vec![
                ("metric", JsonValue::Str(name.clone())),
                ("type", "counter".into()),
                ("value", (*v).into()),
            ];
            fields.extend(labels.iter().map(|&(k, v)| (k, JsonValue::from(v))));
            out.push_str(&JsonValue::obj(fields).render());
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let mut fields: Vec<(&str, JsonValue)> = vec![
                ("metric", JsonValue::Str(name.clone())),
                ("type", "histogram".into()),
                ("histogram", h.to_json()),
            ];
            fields.extend(labels.iter().map(|&(k, v)| (k, JsonValue::from(v))));
            out.push_str(&JsonValue::obj(fields).render());
            out.push('\n');
        }
        out
    }
}

/// The standard metrics sink: counts every event kind and accumulates the
/// paper's distributional quantities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsProbe {
    /// Event counts by kind.
    pub counters: EventCounters,
    /// Cycles each completed restart sequence occupied the sequencer.
    pub restart_length: Histogram,
    /// Correct-path instructions inserted per completed restart.
    pub restart_inserted: Histogram,
    /// Incorrect control-dependent instructions removed per reconverged
    /// recovery — the distance to the reconvergent point along the wrong
    /// path.
    pub recon_distance: Histogram,
    /// Window occupancy sampled every cycle.
    pub occupancy: Histogram,
    /// Reissues per retired instruction (`issues - 1`; 0 for the common
    /// case of exactly one issue).
    pub reissues: Histogram,
}

impl MetricsProbe {
    /// A probe with the standard bucket layout.
    #[must_use]
    pub fn new() -> MetricsProbe {
        MetricsProbe {
            counters: EventCounters::default(),
            restart_length: Histogram::exponential(12),
            restart_inserted: Histogram::exponential(10),
            recon_distance: Histogram::exponential(10),
            occupancy: Histogram::linear(16, 64),
            reissues: Histogram::exponential(8),
        }
    }

    /// Export everything as a named [`Registry`].
    #[must_use]
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new();
        for (k, v) in self.counters.iter() {
            r.inc(&format!("events.{}", k.name()), v);
        }
        r.insert_histogram("restart_length_cycles", self.restart_length.clone());
        r.insert_histogram("restart_inserted", self.restart_inserted.clone());
        r.insert_histogram("recon_distance", self.recon_distance.clone());
        r.insert_histogram("window_occupancy", self.occupancy.clone());
        r.insert_histogram("reissues_per_retired", self.reissues.clone());
        r
    }
}

impl Default for MetricsProbe {
    fn default() -> Self {
        MetricsProbe::new()
    }
}

impl Probe for MetricsProbe {
    #[inline]
    fn record(&mut self, _cycle: u64, event: Event) {
        self.counters.bump(event.kind());
        match event {
            Event::Retire { issues, .. } => {
                self.reissues.record(u64::from(issues.saturating_sub(1)))
            }
            Event::RestartBegin {
                reconverged: true,
                removed,
                ..
            } => {
                self.recon_distance.record(u64::from(removed));
            }
            Event::RestartEnd {
                inserted, cycles, ..
            } => {
                self.restart_length.record(cycles);
                self.restart_inserted.record(inserted);
            }
            Event::CycleEnd { occupancy } => self.occupancy.record(u64::from(occupancy)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ReissueKind;

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[0, 1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        let counts: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(counts[0], (0, 1)); // v=0
        assert_eq!(counts[1], (1, 1)); // v=1
        assert_eq!(counts[2], (4, 2)); // v=2,4
        assert_eq!(counts[3], (16, 2)); // v=5,16
        assert_eq!(counts[4], (u64::MAX, 2)); // v=17,1000 overflow
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new(&[1, 2]);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.summary().contains("n=0"));
    }

    #[test]
    fn single_sample_histogram_quantiles_all_return_the_sample() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.record(42);
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42, "q={q}");
        }
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.count(), 1);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-1.0), 42);
        assert_eq!(h.quantile(2.0), 42);
        assert_eq!(h.quantile(f64::NAN), 42);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        h.record(7); // bucket bound 10, but observed max is 7
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(1.0), 7);
        // Overflow values report the exact maximum.
        h.record(5000);
        assert_eq!(h.quantile(1.0), 5000);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::new(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        for v in 1..=10 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.1), 1);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.9), 9);
        assert_eq!(h.quantile(1.0), 10);
        assert!((h.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotone_bounds_rejected() {
        let _ = Histogram::new(&[3, 3]);
    }

    #[test]
    fn constructors() {
        let e = Histogram::exponential(3); // 0,1,2,4,8
        assert_eq!(e.buckets().count(), 6);
        let l = Histogram::linear(5, 3); // 5,10,15
        assert_eq!(
            l.buckets().map(|(b, _)| b).take(3).collect::<Vec<_>>(),
            vec![5, 10, 15]
        );
    }

    #[test]
    fn metrics_probe_accumulates() {
        let mut m = MetricsProbe::new();
        m.record(1, Event::Fetch { pc: 4 });
        m.record(1, Event::Retire { pc: 4, issues: 3 });
        m.record(
            1,
            Event::RestartBegin {
                branch_pc: 4,
                redirect_pc: 8,
                reconverged: true,
                removed: 6,
            },
        );
        m.record(
            1,
            Event::RestartBegin {
                branch_pc: 4,
                redirect_pc: 8,
                reconverged: false,
                removed: 0,
            },
        );
        m.record(
            9,
            Event::RestartEnd {
                branch_pc: 4,
                inserted: 5,
                cycles: 7,
            },
        );
        m.record(9, Event::CycleEnd { occupancy: 33 });
        m.record(
            9,
            Event::Reissue {
                pc: 4,
                kind: ReissueKind::Memory,
            },
        );
        assert_eq!(m.counters.get(EventKind::Fetch), 1);
        assert_eq!(m.counters.get(EventKind::RestartBegin), 2);
        assert_eq!(m.reissues.count(), 1);
        assert_eq!(m.reissues.max(), 2);
        assert_eq!(m.recon_distance.count(), 1); // only the reconverged one
        assert_eq!(m.restart_length.max(), 7);
        assert_eq!(m.restart_inserted.max(), 5);
        assert_eq!(m.occupancy.max(), 33);

        let r = m.registry();
        assert_eq!(r.counter("events.fetch"), 1);
        assert_eq!(r.counter("events.reissue"), 1);
        assert_eq!(r.histogram("window_occupancy").unwrap().count(), 1);
        let jsonl = r.to_jsonl(&[("workload", "go")]);
        assert!(jsonl.lines().count() >= 5);
        for line in jsonl.lines() {
            assert!(crate::json::parse(line).is_ok(), "invalid line: {line}");
        }
    }

    #[test]
    fn registry_counters_add_up_and_default_to_zero() {
        let mut r = Registry::new();
        r.inc("a", 2);
        r.inc("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert!(r.histogram("missing").is_none());
    }
}
