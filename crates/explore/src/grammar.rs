//! The declarative sweep grammar: `axis=values` clauses and named presets.
//!
//! A sweep spec is a comma-separated sequence of clauses. A clause is
//! either a **preset name** (`paper-grid`, `full-grid`, `smoke-grid`) or an
//! **axis assignment** `axis=v1,v2,...`; values after an assignment belong
//! to that axis until the next `=` token. Presets expand to ordinary axis
//! assignments, and a later assignment of the same axis replaces the
//! earlier one — so `full-grid,window=64,128` sweeps the full preset but
//! only at those two window sizes.
//!
//! Numeric axes also accept range forms:
//!
//! - `16..=512:x2` — geometric: 16, 32, 64, ..., 512
//! - `0..=12:+4` — arithmetic: 0, 4, 8, 12
//! - `1..=4` — arithmetic with step 1
//!
//! Axes (absent axes take the defaults in brackets):
//!
//! | axis         | values                                    | default      |
//! |--------------|-------------------------------------------|--------------|
//! | `window`     | instruction-window sizes ≥ 17              | `256`        |
//! | `fetch`      | machine widths ≥ 1                         | `16`         |
//! | `conf`       | confidence thresholds 0..=15 (0 = off)     | `0`          |
//! | `machine`    | `base`, `ci`, `ci_i`                       | `base,ci`    |
//! | `preempt`    | `simple`, `optimal`                        | `simple`     |
//! | `completion` | `nonspec`, `specd`, `specc`, `spec`        | `specc`      |
//! | `recon`      | `postdom`, `return`, `loop`, `ltb`, `hwall`| `postdom`    |
//! | `workload`   | `gcc`, `go`, `compress`, `jpeg`, `vortex`  | all five     |
//!
//! Expansion takes the cross product and then **normalizes**: axes that
//! cannot affect the BASE machine (`conf`, `preempt`, `recon`) are forced
//! to their defaults for BASE configs, so the grid never contains two
//! configurations whose simulations would be bit-identical under different
//! names. The window floor of 17 mirrors the detailed pipeline's minimum
//! (a 16-wide fetch group plus one).

use ci_core::{CompletionModel, PipelineConfig, Preemption, ReconStrategy};
use ci_runner::{CellSpec, SpecHash};
use ci_workloads::Workload;
use std::collections::HashSet;
use std::fmt;

/// Which of the paper's three detailed machines a config models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MachineKind {
    /// Complete squash on every misprediction.
    Base,
    /// Selective squash with pipelined redispatch.
    Ci,
    /// Selective squash with single-cycle redispatch (CI-I).
    CiInstant,
}

impl MachineKind {
    /// The grammar token (and report label) for this machine.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Base => "base",
            MachineKind::Ci => "ci",
            MachineKind::CiInstant => "ci_i",
        }
    }
}

/// How reconvergent points are identified (the `recon` axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HeuristicKind {
    /// Software immediate post-dominators (the paper's primary CI config).
    Postdom,
    /// `return` hardware heuristic only.
    Return,
    /// `loop` hardware heuristic only.
    Loop,
    /// `ltb` hardware heuristic only.
    Ltb,
    /// All three hardware heuristics combined.
    HwAll,
}

impl HeuristicKind {
    /// The grammar token (and report label) for this heuristic.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Postdom => "postdom",
            HeuristicKind::Return => "return",
            HeuristicKind::Loop => "loop",
            HeuristicKind::Ltb => "ltb",
            HeuristicKind::HwAll => "hwall",
        }
    }

    /// The core [`ReconStrategy`] this heuristic selects.
    #[must_use]
    pub fn strategy(self) -> ReconStrategy {
        match self {
            HeuristicKind::Postdom => ReconStrategy::software(),
            HeuristicKind::Return => ReconStrategy::hardware(true, false, false),
            HeuristicKind::Loop => ReconStrategy::hardware(false, true, false),
            HeuristicKind::Ltb => ReconStrategy::hardware(false, false, true),
            HeuristicKind::HwAll => ReconStrategy::hardware(true, true, true),
        }
    }
}

/// One fully-determined grid configuration (workload excluded — every
/// config runs on every swept workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Machine model.
    pub machine: MachineKind,
    /// Instruction window size.
    pub window: usize,
    /// Fetch/dispatch/issue/retire width.
    pub fetch: usize,
    /// Confidence threshold (0 = ungated).
    pub conf: u8,
    /// Restart preemption policy.
    pub preemption: Preemption,
    /// Branch completion model.
    pub completion: CompletionModel,
    /// Reconvergence heuristic.
    pub heuristic: HeuristicKind,
}

impl SweepConfig {
    /// The full pipeline configuration this grid point simulates.
    #[must_use]
    pub fn pipeline_config(&self) -> PipelineConfig {
        let preset = match self.machine {
            MachineKind::Base => PipelineConfig::base(self.window),
            MachineKind::Ci => PipelineConfig::ci(self.window),
            MachineKind::CiInstant => PipelineConfig::ci_instant(self.window),
        };
        PipelineConfig {
            width: self.fetch,
            preemption: self.preemption,
            completion: self.completion,
            recon: self.heuristic.strategy(),
            conf_threshold: self.conf,
            ..preset
        }
    }

    /// Hardware cost proxy for Pareto reduction: window size × machine
    /// width (both scale the wakeup/select and bypass hardware).
    #[must_use]
    pub fn cost(&self) -> f64 {
        (self.window * self.fetch) as f64
    }

    /// Compact deterministic label, e.g. `ci/w256/f16/c4/optimal/specc/postdom`.
    #[must_use]
    pub fn label(&self) -> String {
        let preempt = match self.preemption {
            Preemption::Simple => "simple",
            Preemption::Optimal => "optimal",
        };
        format!(
            "{}/w{}/f{}/c{}/{}/{}/{}",
            self.machine.name(),
            self.window,
            self.fetch,
            self.conf,
            preempt,
            completion_name(self.completion),
            self.heuristic.name(),
        )
    }
}

impl fmt::Display for SweepConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

fn completion_name(c: CompletionModel) -> &'static str {
    match c {
        CompletionModel::NonSpec => "nonspec",
        CompletionModel::SpecD => "specd",
        CompletionModel::SpecC => "specc",
        CompletionModel::Spec => "spec",
    }
}

/// A parsed sweep: one value list per axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sweep {
    /// `window` axis values.
    pub windows: Vec<usize>,
    /// `fetch` axis values.
    pub fetches: Vec<usize>,
    /// `conf` axis values.
    pub confs: Vec<u8>,
    /// `machine` axis values.
    pub machines: Vec<MachineKind>,
    /// `preempt` axis values.
    pub preemptions: Vec<Preemption>,
    /// `completion` axis values.
    pub completions: Vec<CompletionModel>,
    /// `recon` axis values.
    pub heuristics: Vec<HeuristicKind>,
    /// `workload` axis values.
    pub workloads: Vec<Workload>,
}

/// The named presets, as ordinary sweep texts.
pub const PRESETS: [(&str, &str); 3] = [
    // The paper's own evaluation grid: three machines over the Figure 5
    // window sweep at the fixed 16-wide fetch.
    (
        "paper-grid",
        "machine=base,ci,ci_i,window=32..=512:x2,fetch=16,conf=0,\
         preempt=simple,completion=specc,recon=postdom",
    ),
    // The full exploration grid: every axis opened up (≥ 1000 distinct
    // cells across the five workloads).
    (
        "full-grid",
        "machine=base,ci,window=32..=512:x2,fetch=2,4,8,16,conf=0,4,8,\
         preempt=simple,optimal,completion=specc,recon=postdom,hwall",
    ),
    // A deliberately tiny 3 (windows) × 3 (fetches) × 2 (machines) grid
    // for golden pins and CI smoke runs.
    (
        "smoke-grid",
        "machine=base,ci,window=32,64,128,fetch=4,8,16,conf=0,\
         preempt=simple,completion=specc,recon=postdom",
    ),
];

/// The sweep text behind a preset name, if `name` is one.
#[must_use]
pub fn preset(name: &str) -> Option<&'static str> {
    PRESETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, text)| text)
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            windows: vec![256],
            fetches: vec![16],
            confs: vec![0],
            machines: vec![MachineKind::Base, MachineKind::Ci],
            preemptions: vec![Preemption::Simple],
            completions: vec![CompletionModel::SpecC],
            heuristics: vec![HeuristicKind::Postdom],
            workloads: Workload::ALL.to_vec(),
        }
    }
}

impl Sweep {
    /// Parse a sweep spec (see the module docs for the grammar).
    ///
    /// # Errors
    /// A malformed spec is always an error with a message naming the axis
    /// and the offending text — never a silent fallback.
    pub fn parse(spec: &str) -> Result<Sweep, String> {
        let mut sweep = Sweep::default();
        let mut axis: Option<(String, Vec<String>)> = None;
        let flush = |sweep: &mut Sweep, axis: Option<(String, Vec<String>)>| match axis {
            Some((name, values)) => sweep.assign(&name, &values),
            None => Ok(()),
        };
        for raw in spec.split(',') {
            let token = raw.trim();
            if token.is_empty() {
                return Err("sweep spec contains an empty clause (stray comma?)".to_owned());
            }
            // A token starts a new axis only when the text before `=` is an
            // identifier — `128..=256:x2` is a range *value*, not an axis.
            let assignment = token.split_once('=').filter(|(name, _)| {
                name.trim()
                    .chars()
                    .all(|c| c.is_ascii_alphabetic() || c == '_')
            });
            if let Some((name, first)) = assignment {
                flush(&mut sweep, axis.take())?;
                let name = name.trim();
                if name.is_empty() {
                    return Err(format!("`{token}`: missing axis name before `=`"));
                }
                axis = Some((name.to_owned(), vec![first.trim().to_owned()]));
            } else if let Some((_, values)) = &mut axis {
                values.push(token.to_owned());
            } else if let Some(text) = preset(token) {
                // Presets splice in before any explicit axis clause; later
                // clauses override their assignments.
                let expanded = Sweep::parse(text)?;
                sweep = expanded;
            } else {
                return Err(format!(
                    "`{token}`: not a preset ({}) and no axis is open — \
                     expected `axis=value,...`",
                    PRESETS.map(|(n, _)| n).join("/"),
                ));
            }
        }
        flush(&mut sweep, axis.take())?;
        Ok(sweep)
    }

    /// Assign one axis from its textual value list.
    fn assign(&mut self, axis: &str, values: &[String]) -> Result<(), String> {
        if values.iter().all(|v| v.is_empty()) {
            return Err(format!("`{axis}`: empty value list"));
        }
        match axis {
            "window" => {
                self.windows = parse_numeric(axis, values)?;
                if let Some(w) = self.windows.iter().find(|&&w| w < 17) {
                    return Err(format!(
                        "`window`: {w} is below the detailed pipeline's minimum window of 17"
                    ));
                }
            }
            "fetch" => {
                self.fetches = parse_numeric(axis, values)?;
                if self.fetches.contains(&0) {
                    return Err("`fetch`: width 0 is not a machine".to_owned());
                }
            }
            "conf" => {
                let parsed = parse_numeric(axis, values)?;
                if let Some(c) = parsed.iter().find(|&&c| c > 15) {
                    return Err(format!(
                        "`conf`: threshold {c} out of range (resetting counters saturate at 15)"
                    ));
                }
                self.confs = parsed.into_iter().map(|c| c as u8).collect();
            }
            "machine" => {
                self.machines = parse_named(
                    axis,
                    values,
                    &[
                        ("base", MachineKind::Base),
                        ("ci", MachineKind::Ci),
                        ("ci_i", MachineKind::CiInstant),
                    ],
                )?;
            }
            "preempt" => {
                self.preemptions = parse_named(
                    axis,
                    values,
                    &[
                        ("simple", Preemption::Simple),
                        ("optimal", Preemption::Optimal),
                    ],
                )?;
            }
            "completion" => {
                self.completions = parse_named(
                    axis,
                    values,
                    &[
                        ("nonspec", CompletionModel::NonSpec),
                        ("specd", CompletionModel::SpecD),
                        ("specc", CompletionModel::SpecC),
                        ("spec", CompletionModel::Spec),
                    ],
                )?;
            }
            "recon" => {
                self.heuristics = parse_named(
                    axis,
                    values,
                    &[
                        ("postdom", HeuristicKind::Postdom),
                        ("return", HeuristicKind::Return),
                        ("loop", HeuristicKind::Loop),
                        ("ltb", HeuristicKind::Ltb),
                        ("hwall", HeuristicKind::HwAll),
                    ],
                )?;
            }
            "workload" => {
                let named: Vec<(&str, Workload)> =
                    Workload::ALL.into_iter().map(|w| (w.name(), w)).collect();
                self.workloads = parse_named(axis, values, &named)?;
            }
            other => {
                return Err(format!(
                    "`{other}`: unknown axis (expected window/fetch/conf/machine/\
                     preempt/completion/recon/workload)"
                ))
            }
        }
        Ok(())
    }

    /// The normalized, deduplicated grid configurations, in deterministic
    /// machine → window → fetch → completion → conf → preempt → recon
    /// nesting order.
    #[must_use]
    pub fn configs(&self) -> Vec<SweepConfig> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for &machine in &self.machines {
            for &window in &self.windows {
                for &fetch in &self.fetches {
                    for &completion in &self.completions {
                        // Axes that cannot affect the BASE machine collapse
                        // to their defaults so the grid never carries two
                        // names for one simulation.
                        let (confs, preempts, heuristics): (
                            &[u8],
                            &[Preemption],
                            &[HeuristicKind],
                        ) = if machine == MachineKind::Base {
                            (&[0], &[Preemption::Simple], &[HeuristicKind::Postdom])
                        } else {
                            (&self.confs, &self.preemptions, &self.heuristics)
                        };
                        for &conf in confs {
                            for &preemption in preempts {
                                for &heuristic in heuristics {
                                    let c = SweepConfig {
                                        machine,
                                        window,
                                        fetch,
                                        conf,
                                        preemption,
                                        completion,
                                        heuristic,
                                    };
                                    if seen.insert(c.label()) {
                                        out.push(c);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Expand the sweep into simulation cells at this scale: every config ×
    /// every swept workload, duplicates removed by value (the engine would
    /// dedup anyway, but the count reported to the user should be honest).
    #[must_use]
    pub fn expand(&self, instructions: u64, seed: u64) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        let mut seen = HashSet::with_hasher(SpecHash::default());
        for config in self.configs() {
            for &workload in &self.workloads {
                let cell = CellSpec::Detailed {
                    workload,
                    config: config.pipeline_config(),
                    instructions,
                    seed,
                };
                if seen.insert(cell.clone()) {
                    cells.push(cell);
                }
            }
        }
        cells
    }

    /// Canonical re-rendering of the sweep's axes (stable across parses of
    /// equivalent specs; used in reports).
    #[must_use]
    pub fn canonical(&self) -> String {
        fn list<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
            items.iter().map(f).collect::<Vec<_>>().join(",")
        }
        format!(
            "machine={} window={} fetch={} conf={} preempt={} completion={} recon={} workload={}",
            list(&self.machines, |m| m.name().to_owned()),
            list(&self.windows, ToString::to_string),
            list(&self.fetches, ToString::to_string),
            list(&self.confs, ToString::to_string),
            list(&self.preemptions, |p| match p {
                Preemption::Simple => "simple".to_owned(),
                Preemption::Optimal => "optimal".to_owned(),
            }),
            list(&self.completions, |c| completion_name(*c).to_owned()),
            list(&self.heuristics, |h| h.name().to_owned()),
            list(&self.workloads, |w| w.name().to_owned()),
        )
    }
}

/// Parse one numeric axis value list; each element is a plain integer or a
/// range form `a..=b[:+step|:xfactor]`.
fn parse_numeric(axis: &str, values: &[String]) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for v in values {
        if v.is_empty() {
            return Err(format!("`{axis}`: empty value in list"));
        }
        if v.contains("..") {
            out.extend(parse_range(axis, v)?);
        } else {
            out.push(parse_int(axis, v)?);
        }
    }
    Ok(out)
}

fn parse_int(axis: &str, text: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .map_err(|_| format!("`{axis}`: `{text}` is not a non-negative integer"))
}

/// `a..=b`, `a..=b:+step`, or `a..=b:xfactor` — inclusive, ascending.
fn parse_range(axis: &str, text: &str) -> Result<Vec<usize>, String> {
    let (range, step) = match text.split_once(':') {
        Some((r, s)) => (r, Some(s)),
        None => (text, None),
    };
    let (lo, hi) = range
        .split_once("..=")
        .ok_or_else(|| format!("`{axis}`: `{text}` — ranges must use `a..=b` (inclusive)"))?;
    let lo = parse_int(axis, lo.trim())?;
    let hi = parse_int(axis, hi.trim())?;
    if lo > hi {
        return Err(format!(
            "`{axis}`: `{text}` is an inverted range (start {lo} > end {hi})"
        ));
    }
    let mut out = Vec::new();
    match step {
        None => out.extend(lo..=hi),
        Some(s) if s.starts_with('+') => {
            let step = parse_int(axis, &s[1..])?;
            if step == 0 {
                return Err(format!(
                    "`{axis}`: `{text}` has step +0 (would never advance)"
                ));
            }
            let mut v = lo;
            while v <= hi {
                out.push(v);
                v += step;
            }
        }
        Some(s) if s.starts_with('x') => {
            let factor = parse_int(axis, &s[1..])?;
            if factor < 2 {
                return Err(format!(
                    "`{axis}`: `{text}` has factor x{factor} (needs x2 or more to advance)"
                ));
            }
            if lo == 0 {
                return Err(format!(
                    "`{axis}`: `{text}` — a geometric range cannot start at 0"
                ));
            }
            let mut v = lo;
            while v <= hi {
                out.push(v);
                v *= factor;
            }
        }
        Some(s) => {
            return Err(format!(
                "`{axis}`: `{text}` — unknown step form `:{s}` (expected `:+n` or `:xn`)"
            ))
        }
    }
    Ok(out)
}

/// Parse an enum-valued axis against its name table.
fn parse_named<T: Copy>(
    axis: &str,
    values: &[String],
    table: &[(&str, T)],
) -> Result<Vec<T>, String> {
    values
        .iter()
        .map(|v| {
            table
                .iter()
                .find(|(name, _)| *name == v)
                .map(|&(_, t)| t)
                .ok_or_else(|| {
                    let known: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
                    format!(
                        "`{axis}`: unknown value `{v}` (expected {})",
                        known.join("/")
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_forms_expand() {
        let s = Sweep::parse("window=32..=512:x2").unwrap();
        assert_eq!(s.windows, [32, 64, 128, 256, 512]);
        let s = Sweep::parse("window=32..=96:+32").unwrap();
        assert_eq!(s.windows, [32, 64, 96]);
        let s = Sweep::parse("conf=0..=3").unwrap();
        assert_eq!(s.confs, [0, 1, 2, 3]);
        let s = Sweep::parse("window=64,128..=256:x2,17").unwrap();
        assert_eq!(s.windows, [64, 128, 256, 17]);
    }

    #[test]
    fn list_and_named_axes_parse() {
        let s = Sweep::parse(
            "machine=ci_i,fetch=1,2,4,8,preempt=optimal,completion=spec,nonspec,\
             recon=ltb,hwall,workload=go,vortex,conf=0,8",
        )
        .unwrap();
        assert_eq!(s.machines, [MachineKind::CiInstant]);
        assert_eq!(s.fetches, [1, 2, 4, 8]);
        assert_eq!(s.preemptions, [Preemption::Optimal]);
        assert_eq!(
            s.completions,
            [CompletionModel::Spec, CompletionModel::NonSpec]
        );
        assert_eq!(s.heuristics, [HeuristicKind::Ltb, HeuristicKind::HwAll]);
        assert_eq!(s.workloads, [Workload::GoLike, Workload::VortexLike]);
        assert_eq!(s.confs, [0, 8]);
    }

    #[test]
    fn presets_expand_and_are_overridable() {
        for (name, _) in PRESETS {
            let s = Sweep::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!s.configs().is_empty(), "{name} expands to nothing");
        }
        let full = Sweep::parse("full-grid").unwrap();
        let narrowed = Sweep::parse("full-grid,window=64").unwrap();
        assert_eq!(narrowed.windows, [64]);
        assert_eq!(narrowed.fetches, full.fetches);
    }

    #[test]
    fn distinct_cells_get_distinct_labels() {
        for spec in [
            "machine=base,ci,window=32,64,fetch=4,8,workload=go,jpeg",
            "full-grid",
        ] {
            let cells = Sweep::parse(spec).unwrap().expand(4000, 0x5EED);
            let labels: HashSet<String> = cells.iter().map(CellSpec::label).collect();
            assert_eq!(labels.len(), cells.len(), "{spec}");
        }
    }

    #[test]
    fn full_grid_reaches_a_thousand_cells() {
        let s = Sweep::parse("full-grid").unwrap();
        let cells = s.expand(10_000, 0x5EED);
        assert!(
            cells.len() >= 1000,
            "full-grid must expand to ≥ 1000 distinct cells, got {}",
            cells.len()
        );
        // Distinctness: canonical texts are unique by construction.
        let canon: HashSet<String> = cells.iter().map(CellSpec::canonical).collect();
        assert_eq!(canon.len(), cells.len());
    }

    #[test]
    fn smoke_grid_is_3x3x2() {
        let s = Sweep::parse("smoke-grid").unwrap();
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.fetches.len(), 3);
        assert_eq!(s.machines.len(), 2);
        assert_eq!(s.configs().len(), 18);
        assert_eq!(s.expand(10_000, 0x5EED).len(), 90);
    }

    #[test]
    fn base_machine_axes_are_normalized() {
        // conf/preempt/recon cannot affect BASE, so the BASE side of the
        // grid must collapse to one config per (window, fetch, completion).
        let s = Sweep::parse("machine=base,conf=0,4,8,preempt=simple,optimal,recon=postdom,hwall")
            .unwrap();
        assert_eq!(s.configs().len(), 1);
        let s = Sweep::parse("machine=ci,conf=0,4,preempt=simple,optimal").unwrap();
        assert_eq!(s.configs().len(), 4);
    }

    #[test]
    fn duplicate_values_dedup() {
        let s = Sweep::parse("machine=ci,window=64,64,fetch=8,8").unwrap();
        assert_eq!(s.configs().len(), 1);
        assert_eq!(s.expand(5_000, 1).len(), 5);
    }

    #[test]
    fn malformed_axes_error_clearly() {
        for (spec, needle) in [
            ("window=", "empty"),
            ("window=512..=16", "inverted"),
            ("gadget=3", "unknown axis"),
            ("window=abc", "not a non-negative integer"),
            ("window=64..=128:x1", "x2 or more"),
            ("window=64..=128:+0", "+0"),
            ("window=64..=128:~3", "unknown step form"),
            ("window=0..=16:x2", "cannot start at 0"),
            ("window=16..128", "a..=b"),
            ("window=8", "minimum window"),
            ("fetch=0", "width 0"),
            ("conf=16", "out of range"),
            ("machine=turbo", "unknown value `turbo`"),
            ("workload=doom", "unknown value `doom`"),
            ("bogus-preset", "not a preset"),
            ("", "empty clause"),
            ("machine=ci,,window=64", "empty clause"),
            ("=4", "missing axis name"),
        ] {
            let e = Sweep::parse(spec).unwrap_err();
            assert!(
                e.contains(needle),
                "`{spec}`: error `{e}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn canonical_is_stable() {
        let a = Sweep::parse("window=32..=64:x2,machine=ci,base").unwrap();
        let b = Sweep::parse("machine=ci,base,window=32,64").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().contains("window=32,64"));
    }

    #[test]
    fn labels_round_trip_the_axes() {
        let s = Sweep::parse("machine=ci,window=64,fetch=8,conf=4,preempt=optimal,recon=hwall")
            .unwrap();
        let c = s.configs()[0];
        assert_eq!(c.label(), "ci/w64/f8/c4/optimal/specc/hwall");
        let pc = c.pipeline_config();
        assert_eq!(pc.window, 64);
        assert_eq!(pc.width, 8);
        assert_eq!(pc.conf_threshold, 4);
        assert_eq!(pc.preemption, Preemption::Optimal);
        assert!(pc.recon.returns && pc.recon.loops && pc.recon.ltb && !pc.recon.postdominator);
    }
}
