//! One function per table and figure of the paper's evaluation.
//!
//! Each function runs the necessary simulations at a caller-chosen
//! [`Scale`] and returns a [`Table`] whose rows mirror the paper's
//! presentation, so output can be compared side by side with the original
//! (see `EXPERIMENTS.md` at the workspace root). [`tables`] maps the names
//! the `repro` binary takes (`table1`, `fig5`, ..., `all`) to these
//! functions.
//!
//! # Cells and the engine
//!
//! Every builder is split into two phases: a `*_cells` function *declares*
//! the simulation [cells](CellSpec) the table needs — (workload, config,
//! budget, seed) tuples — and the builder itself *assembles* rows from the
//! memoized results held by an [`Engine`]. The engine computes each
//! distinct cell exactly once (on `--workers N` threads) and shares it
//! across tables: the window-256 CI run, for example, feeds Tables 2-4,
//! Figure 8 and the distributions table but is simulated a single time per
//! run. Because cells are pure functions of their specs and assembly is
//! serial, rendered output is byte-identical for every worker count.
//!
//! Absolute IPC numbers differ from the paper (different ISA, workload
//! substitutes and memory system); the comparisons of interest — who wins,
//! by roughly what factor, where the crossovers are — are the reproduction
//! targets.

use ci_core::{CompletionModel, PipelineConfig, Preemption, ReconStrategy, RepredictMode, Stats};
use ci_ideal::ModelKind;
use ci_obs::{Histogram, MetricsProbe};
use ci_report::{f, pct, Table};
use ci_runner::{CellSpec, Engine};
use ci_workloads::Workload;

/// The window sweep of Figure 3.
pub const FIGURE3_WINDOWS: [usize; 5] = [32, 64, 128, 256, 512];

/// The window sweep of Figures 5 and 6.
pub const FIGURE5_WINDOWS: [usize; 3] = [128, 256, 512];

/// How much dynamic work each experiment simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Target dynamic instructions per workload run.
    pub instructions: u64,
    /// Workload data seed.
    pub seed: u64,
}

impl Scale {
    /// The default experiment scale (fast enough for the whole suite to run
    /// in minutes).
    #[must_use]
    pub fn default_scale() -> Scale {
        Scale {
            instructions: 60_000,
            seed: 0x5EED,
        }
    }

    /// Build a scale from the raw textual values of the
    /// `CI_REPRO_INSTRUCTIONS` / `CI_REPRO_SEED` environment variables
    /// (`None` = unset, keep the default). The instruction count must be a
    /// positive decimal integer; the seed accepts decimal or `0x`-prefixed
    /// hex.
    ///
    /// # Errors
    /// A malformed value is an error, never a silent fallback — a typo'd
    /// scale would otherwise quietly run the wrong experiment.
    pub fn parse(instructions: Option<&str>, seed: Option<&str>) -> Result<Scale, String> {
        let mut s = Scale::default_scale();
        if let Some(v) = instructions {
            s.instructions = v
                .trim()
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    format!(
                        "CI_REPRO_INSTRUCTIONS: `{v}` is not a valid instruction count \
                         (expected a positive decimal integer)"
                    )
                })?;
        }
        if let Some(v) = seed {
            let t = v.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => t.parse::<u64>().ok(),
            };
            s.seed = parsed.ok_or_else(|| {
                format!(
                    "CI_REPRO_SEED: `{v}` is not a valid seed \
                     (expected a decimal or 0x-prefixed hex integer)"
                )
            })?;
        }
        Ok(s)
    }

    /// Read the scale from the `CI_REPRO_INSTRUCTIONS` / `CI_REPRO_SEED`
    /// environment variables, falling back to the default when unset.
    ///
    /// # Errors
    /// Malformed (or non-UTF-8) values are rejected with a descriptive
    /// message — see [`Scale::parse`].
    pub fn from_env() -> Result<Scale, String> {
        let read = |name: &str| -> Result<Option<String>, String> {
            match std::env::var(name) {
                Ok(v) => Ok(Some(v)),
                Err(std::env::VarError::NotPresent) => Ok(None),
                Err(std::env::VarError::NotUnicode(_)) => {
                    Err(format!("{name}: value is not valid UTF-8"))
                }
            }
        };
        let instructions = read("CI_REPRO_INSTRUCTIONS")?;
        let seed = read("CI_REPRO_SEED")?;
        Scale::parse(instructions.as_deref(), seed.as_deref())
    }

    /// [`Scale::from_env`] for binaries: print the error and exit 2.
    #[must_use]
    pub fn from_env_or_exit() -> Scale {
        Scale::from_env().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_scale()
    }
}

/// A detailed-pipeline cell at this scale.
fn dcell(w: Workload, config: PipelineConfig, scale: &Scale) -> CellSpec {
    CellSpec::Detailed {
        workload: w,
        config,
        instructions: scale.instructions,
        seed: scale.seed,
    }
}

/// An idealized-model cell at this scale.
fn icell(w: Workload, model: ModelKind, window: usize, scale: &Scale) -> CellSpec {
    CellSpec::Ideal {
        workload: w,
        model,
        window,
        instructions: scale.instructions,
        seed: scale.seed,
    }
}

/// A study-input summary cell at this scale.
fn scell(w: Workload, scale: &Scale) -> CellSpec {
    CellSpec::Study {
        workload: w,
        instructions: scale.instructions,
        seed: scale.seed,
    }
}

fn stats(eng: &Engine, w: Workload, config: PipelineConfig, scale: &Scale) -> Stats {
    eng.stats(w, config, scale.instructions, scale.seed)
}

fn probed(
    eng: &Engine,
    w: Workload,
    config: PipelineConfig,
    scale: &Scale,
) -> (Stats, MetricsProbe) {
    eng.probed(w, config, scale.instructions, scale.seed)
}

/// Cells for [`table1`].
#[must_use]
pub fn table1_cells(scale: &Scale) -> Vec<CellSpec> {
    Workload::ALL.into_iter().map(|w| scell(w, scale)).collect()
}

/// Table 1: benchmark information (dynamic instruction counts and
/// misprediction rates under the paper's predictor configuration).
#[must_use]
pub fn table1(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&table1_cells(scale));
    let mut t = Table::new("TABLE 1. Benchmark information.");
    t.headers(&[
        "benchmark",
        "instruction count",
        "misprediction rate",
        "paper",
    ]);
    let paper = ["8.3%", "16.7%", "9.1%", "6.8%", "1.4%"];
    for (w, paper_rate) in Workload::ALL.into_iter().zip(paper) {
        let (len, predictions, mispredictions) = eng.study(w, scale.instructions, scale.seed);
        let rate = if predictions == 0 {
            0.0
        } else {
            mispredictions as f64 / predictions as f64
        };
        t.row(vec![
            w.name().to_owned(),
            len.to_string(),
            pct(rate),
            paper_rate.to_owned(),
        ]);
    }
    t
}

const FIGURE3_MODELS: [ModelKind; 6] = [
    ModelKind::Oracle,
    ModelKind::NwrNfd,
    ModelKind::NwrFd,
    ModelKind::WrNfd,
    ModelKind::WrFd,
    ModelKind::Base,
];

/// Cells for [`figure3`] over `windows`.
#[must_use]
pub fn figure3_cells(scale: &Scale, windows: &[usize]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for &window in windows {
            for model in FIGURE3_MODELS {
                cells.push(icell(w, model, window, scale));
            }
        }
    }
    cells
}

/// Figure 3: IPC of the six idealized models as a function of window size.
#[must_use]
pub fn figure3(eng: &Engine, scale: &Scale, windows: &[usize]) -> Table {
    eng.prefetch(&figure3_cells(scale, windows));
    let mut t = Table::new("FIGURE 3. Performance of the six control independence models (IPC).");
    t.headers(&[
        "benchmark",
        "window",
        "oracle",
        "nWR-nFD",
        "nWR-FD",
        "WR-nFD",
        "WR-FD",
        "base",
    ]);
    for w in Workload::ALL {
        for &window in windows {
            let mut row = vec![w.name().to_owned(), window.to_string()];
            for model in FIGURE3_MODELS {
                let r = eng.ideal(w, model, window, scale.instructions, scale.seed);
                row.push(f(r.ipc(), 2));
            }
            t.row(row);
        }
    }
    t
}

/// Cells for [`figure5_6`] over `windows`.
#[must_use]
pub fn figure5_6_cells(scale: &Scale, windows: &[usize]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for &window in windows {
            cells.push(dcell(w, PipelineConfig::base(window), scale));
            cells.push(dcell(w, PipelineConfig::ci(window), scale));
            cells.push(dcell(w, PipelineConfig::ci_instant(window), scale));
        }
    }
    cells
}

/// Figures 5 and 6: BASE vs CI vs CI-I IPC for several window sizes, and the
/// percentage improvement of CI over BASE.
#[must_use]
pub fn figure5_6(eng: &Engine, scale: &Scale, windows: &[usize]) -> (Table, Table) {
    eng.prefetch(&figure5_6_cells(scale, windows));
    let mut ipc = Table::new("FIGURE 5. Performance with and without control independence (IPC).");
    ipc.headers(&["benchmark", "window", "BASE", "CI", "CI-I"]);
    let mut imp = Table::new("FIGURE 6. Percent improvement in IPC due to control independence.");
    imp.headers(&["benchmark", "window", "CI vs BASE", "CI-I vs CI"]);
    for w in Workload::ALL {
        for &window in windows {
            let b = stats(eng, w, PipelineConfig::base(window), scale);
            let c = stats(eng, w, PipelineConfig::ci(window), scale);
            let i = stats(eng, w, PipelineConfig::ci_instant(window), scale);
            ipc.row(vec![
                w.name().to_owned(),
                window.to_string(),
                f(b.ipc(), 2),
                f(c.ipc(), 2),
                f(i.ipc(), 2),
            ]);
            imp.row(vec![
                w.name().to_owned(),
                window.to_string(),
                pct(c.ipc() / b.ipc() - 1.0),
                pct(i.ipc() / c.ipc() - 1.0),
            ]);
        }
    }
    (ipc, imp)
}

/// Cells for [`table2`].
#[must_use]
pub fn table2_cells(scale: &Scale) -> Vec<CellSpec> {
    Workload::ALL
        .into_iter()
        .map(|w| dcell(w, PipelineConfig::ci(256), scale))
        .collect()
}

/// Table 2: restart/redispatch sequence statistics (window 256).
#[must_use]
pub fn table2(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&table2_cells(scale));
    let mut t = Table::new("TABLE 2. Statistics for restart/redispatch sequences (window 256).");
    t.headers(&[
        "benchmark",
        "% reconverge",
        "avg removed",
        "avg inserted",
        "avg CI instr",
        "avg CI renamed",
        "restart p50",
        "restart p90",
    ]);
    for w in Workload::ALL {
        let (s, probe) = probed(eng, w, PipelineConfig::ci(256), scale);
        t.row(vec![
            w.name().to_owned(),
            pct(s.reconvergence_rate()),
            f(s.avg_removed(), 1),
            f(s.avg_inserted(), 1),
            f(s.avg_ci(), 1),
            f(s.avg_ci_renamed(), 2),
            probe.restart_length.quantile(0.5).to_string(),
            probe.restart_length.quantile(0.9).to_string(),
        ]);
    }
    t
}

/// Cells for [`table3`].
#[must_use]
pub fn table3_cells(scale: &Scale) -> Vec<CellSpec> {
    table2_cells(scale) // the same window-256 CI runs
}

/// Table 3: work saved by control independence, as fractions of retired
/// instructions (window 256).
#[must_use]
pub fn table3(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&table3_cells(scale));
    let mut t = Table::new("TABLE 3. Work saved by exploiting control independence (window 256).");
    t.headers(&[
        "benchmark",
        "fetch saved",
        "work saved",
        "work discarded",
        "had only fetched",
    ]);
    for w in Workload::ALL {
        let s = stats(eng, w, PipelineConfig::ci(256), scale);
        let (fs, ws, wd, of) = s.work_saved_fractions();
        t.row(vec![
            w.name().to_owned(),
            pct(fs),
            pct(ws),
            pct(wd),
            pct(of),
        ]);
    }
    t
}

/// Cells for [`table4`].
#[must_use]
pub fn table4_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        cells.push(dcell(w, PipelineConfig::base(256), scale));
        cells.push(dcell(w, PipelineConfig::ci(256), scale));
    }
    cells
}

/// Table 4: instruction issues per retired instruction, with and without
/// control independence (window 256).
#[must_use]
pub fn table4(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&table4_cells(scale));
    let mut t = Table::new("TABLE 4. Instruction issues per retired instruction (window 256).");
    t.headers(&[
        "benchmark",
        "base total",
        "base mem",
        "CI total",
        "CI mem",
        "CI reg",
        "CI max issues",
    ]);
    for w in Workload::ALL {
        let b = stats(eng, w, PipelineConfig::base(256), scale);
        let (c, probe) = probed(eng, w, PipelineConfig::ci(256), scale);
        // `reissues` records (issues - 1) per retired instruction, so the
        // worst-case issue count is its maximum plus the original issue.
        let max_issues = if probe.reissues.is_empty() {
            0
        } else {
            probe.reissues.max() + 1
        };
        t.row(vec![
            w.name().to_owned(),
            f(b.issues_per_retired(), 2),
            f(b.mem_violations_per_retired(), 3),
            f(c.issues_per_retired(), 2),
            f(c.mem_violations_per_retired(), 3),
            f(c.reg_violations_per_retired(), 3),
            max_issues.to_string(),
        ]);
    }
    t
}

fn figure8_configs() -> [(Preemption, PipelineConfig); 2] {
    [
        (
            Preemption::Simple,
            PipelineConfig {
                preemption: Preemption::Simple,
                ..PipelineConfig::ci(256)
            },
        ),
        (
            Preemption::Optimal,
            PipelineConfig {
                preemption: Preemption::Optimal,
                ..PipelineConfig::ci(256)
            },
        ),
    ]
}

/// Cells for [`figure8`].
#[must_use]
pub fn figure8_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for (_, cfg) in figure8_configs() {
            cells.push(dcell(w, cfg, scale));
        }
    }
    cells
}

/// Figure 8: simple vs optimal preemption of restart sequences (window 256).
#[must_use]
pub fn figure8(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure8_cells(scale));
    let mut t = Table::new("FIGURE 8. Simple vs optimal preemption (window 256).");
    t.headers(&[
        "benchmark",
        "simple IPC",
        "optimal IPC",
        "optimal gain",
        "avg restart cycles",
    ]);
    let [(_, simple_cfg), (_, optimal_cfg)] = figure8_configs();
    for w in Workload::ALL {
        let s = stats(eng, w, simple_cfg, scale);
        let o = stats(eng, w, optimal_cfg, scale);
        t.row(vec![
            w.name().to_owned(),
            f(s.ipc(), 2),
            f(o.ipc(), 2),
            pct(o.ipc() / s.ipc() - 1.0),
            f(s.avg_restart_cycles(), 1),
        ]);
    }
    t
}

const FIGURE9_MODELS: [(CompletionModel, bool); 7] = [
    (CompletionModel::NonSpec, false),
    (CompletionModel::SpecD, false),
    (CompletionModel::SpecD, true),
    (CompletionModel::SpecC, false),
    (CompletionModel::SpecC, true),
    (CompletionModel::Spec, false),
    (CompletionModel::Spec, true),
];

fn figure9_config(completion: CompletionModel, hfm: bool) -> PipelineConfig {
    PipelineConfig {
        completion,
        hide_false_mispredictions: hfm,
        ..PipelineConfig::ci(256)
    }
}

/// Cells for [`figure9`].
#[must_use]
pub fn figure9_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        for (m, hfm) in FIGURE9_MODELS {
            cells.push(dcell(w, figure9_config(m, hfm), scale));
        }
    }
    cells
}

/// Figure 9: the branch completion models of Appendix A.2, with and without
/// oracle suppression of false mispredictions (window 256).
#[must_use]
pub fn figure9(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure9_cells(scale));
    let mut t = Table::new(
        "FIGURE 9. Branch completion models and false mispredictions (IPC, window 256).",
    );
    t.headers(&[
        "benchmark",
        "non-spec",
        "spec-D",
        "spec-D-HFM",
        "spec-C",
        "spec-C-HFM",
        "spec",
        "spec-HFM",
    ]);
    for w in Workload::ALL {
        let mut row = vec![w.name().to_owned()];
        for (m, hfm) in FIGURE9_MODELS {
            let s = stats(eng, w, figure9_config(m, hfm), scale);
            row.push(f(s.ipc(), 2));
        }
        t.row(row);
    }
    t
}

fn figure10_config() -> PipelineConfig {
    PipelineConfig {
        completion: CompletionModel::Spec,
        ..PipelineConfig::ci(256)
    }
}

/// Cells for [`figure10`].
#[must_use]
pub fn figure10_cells(scale: &Scale) -> Vec<CellSpec> {
    Workload::ALL
        .into_iter()
        .map(|w| dcell(w, figure10_config(), scale))
        .collect()
}

/// Figure 10: cumulative fraction of false mispredictions detectable while
/// delaying at most 10% / 20% of true mispredictions, per detection scheme.
///
/// Runs under the `spec` completion model, where false mispredictions are
/// most frequent.
#[must_use]
pub fn figure10(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure10_cells(scale));
    let mut t = Table::new(
        "FIGURE 10. Detecting false mispredictions from true/false history (spec model, window 256).",
    );
    t.headers(&[
        "benchmark",
        "true/false mispred",
        "static@10%",
        "static@20%",
        "dyn(pc)@10%",
        "dyn(pc)@20%",
        "dyn(xor)@10%",
        "dyn(xor)@20%",
    ]);
    for w in Workload::ALL {
        let s = stats(eng, w, figure10_config(), scale);
        t.row(vec![
            w.name().to_owned(),
            format!("{}/{}", s.true_mispredictions, s.false_mispredictions),
            pct(s.tfr_static.false_coverage_at(0.10)),
            pct(s.tfr_static.false_coverage_at(0.20)),
            pct(s.tfr_dynamic_pc.false_coverage_at(0.10)),
            pct(s.tfr_dynamic_pc.false_coverage_at(0.20)),
            pct(s.tfr_dynamic_xor.false_coverage_at(0.10)),
            pct(s.tfr_dynamic_xor.false_coverage_at(0.20)),
        ]);
    }
    t
}

fn figure12_oracle_config() -> PipelineConfig {
    PipelineConfig {
        oracle_ghr: true,
        ..PipelineConfig::ci(256)
    }
}

/// Cells for [`figure12`].
#[must_use]
pub fn figure12_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        cells.push(dcell(w, PipelineConfig::ci(256), scale));
        cells.push(dcell(w, figure12_oracle_config(), scale));
    }
    cells
}

/// Figure 12: impact of predicting with the architecturally correct
/// ("oracle") global branch history (window 256).
#[must_use]
pub fn figure12(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure12_cells(scale));
    let mut t = Table::new("FIGURE 12. Impact of oracle global branch history (window 256).");
    t.headers(&["benchmark", "CI IPC", "CI + oracle GHR", "delta"]);
    for w in Workload::ALL {
        let c = stats(eng, w, PipelineConfig::ci(256), scale);
        let o = stats(eng, w, figure12_oracle_config(), scale);
        t.row(vec![
            w.name().to_owned(),
            f(c.ipc(), 2),
            f(o.ipc(), 2),
            pct(o.ipc() / c.ipc() - 1.0),
        ]);
    }
    t
}

const FIGURE13_MODES: [RepredictMode; 3] = [
    RepredictMode::None,
    RepredictMode::Heuristic,
    RepredictMode::Oracle,
];

fn figure13_config(repredict: RepredictMode) -> PipelineConfig {
    PipelineConfig {
        repredict,
        ..PipelineConfig::ci(256)
    }
}

/// Cells for [`figure13`].
#[must_use]
pub fn figure13_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        cells.push(dcell(w, PipelineConfig::base(256), scale));
        for rp in FIGURE13_MODES {
            cells.push(dcell(w, figure13_config(rp), scale));
        }
    }
    cells
}

/// Figure 13: the value of re-predict sequences — BASE, CI with no
/// re-prediction (CI-NR), the CI heuristic, and oracle re-prediction (CI-OR)
/// (window 256).
#[must_use]
pub fn figure13(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure13_cells(scale));
    let mut t = Table::new("FIGURE 13. Evaluation of re-predictions (IPC, window 256).");
    t.headers(&["benchmark", "base", "CI-NR", "CI", "CI-OR"]);
    for w in Workload::ALL {
        let b = stats(eng, w, PipelineConfig::base(256), scale);
        let mut row = vec![w.name().to_owned(), f(b.ipc(), 2)];
        for rp in FIGURE13_MODES {
            let s = stats(eng, w, figure13_config(rp), scale);
            row.push(f(s.ipc(), 2));
        }
        t.row(row);
    }
    t
}

const FIGURE14_SEGMENTS: [usize; 3] = [1, 4, 16];

fn figure14_config(segment: usize) -> PipelineConfig {
    PipelineConfig {
        segment,
        ..PipelineConfig::ci(256)
    }
}

/// Cells for [`figure14`].
#[must_use]
pub fn figure14_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        cells.push(dcell(w, PipelineConfig::base(256), scale));
        for seg in FIGURE14_SEGMENTS {
            cells.push(dcell(w, figure14_config(seg), scale));
        }
    }
    cells
}

/// Figure 14: ROB segment size (1/4/16 instructions, 256-instruction window).
#[must_use]
pub fn figure14(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure14_cells(scale));
    let mut t = Table::new("FIGURE 14. Varying ROB segment size (window 256).");
    t.headers(&[
        "benchmark",
        "base",
        "seg=1",
        "seg=4",
        "seg=16",
        "imp@1",
        "imp@4",
        "imp@16",
    ]);
    for w in Workload::ALL {
        let b = stats(eng, w, PipelineConfig::base(256), scale);
        let ipcs: Vec<f64> = FIGURE14_SEGMENTS
            .into_iter()
            .map(|seg| stats(eng, w, figure14_config(seg), scale).ipc())
            .collect();
        t.row(vec![
            w.name().to_owned(),
            f(b.ipc(), 2),
            f(ipcs[0], 2),
            f(ipcs[1], 2),
            f(ipcs[2], 2),
            pct(ipcs[0] / b.ipc() - 1.0),
            pct(ipcs[1] / b.ipc() - 1.0),
            pct(ipcs[2] / b.ipc() - 1.0),
        ]);
    }
    t
}

const FIGURE17_COMBOS: [(&str, ReconStrategy); 7] = [
    ("return", ReconStrategy::hardware(true, false, false)),
    ("loop", ReconStrategy::hardware(false, true, false)),
    ("ltb", ReconStrategy::hardware(false, false, true)),
    ("return/loop", ReconStrategy::hardware(true, true, false)),
    ("return/ltb", ReconStrategy::hardware(true, false, true)),
    ("loop/ltb", ReconStrategy::hardware(false, true, true)),
    ("all", ReconStrategy::hardware(true, true, true)),
];

fn figure17_config(recon: ReconStrategy) -> PipelineConfig {
    PipelineConfig {
        recon,
        ..PipelineConfig::ci(256)
    }
}

/// Cells for [`figure17`].
#[must_use]
pub fn figure17_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        cells.push(dcell(w, PipelineConfig::base(256), scale));
        for (_, recon) in FIGURE17_COMBOS {
            cells.push(dcell(w, figure17_config(recon), scale));
        }
        cells.push(dcell(w, PipelineConfig::ci(256), scale));
    }
    cells
}

/// Figure 17: hardware heuristics for identifying reconvergent points,
/// as percentage IPC improvement over the BASE machine (window 256).
#[must_use]
pub fn figure17(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&figure17_cells(scale));
    let mut t = Table::new(
        "FIGURE 17. Instruction-type heuristics for reconvergent points (% IPC improvement over base, window 256).",
    );
    t.headers(&[
        "benchmark",
        "return",
        "loop",
        "ltb",
        "return/loop",
        "return/ltb",
        "loop/ltb",
        "all",
        "CI (postdom)",
    ]);
    for w in Workload::ALL {
        let b = stats(eng, w, PipelineConfig::base(256), scale);
        let mut row = vec![w.name().to_owned()];
        for (_, recon) in FIGURE17_COMBOS {
            let s = stats(eng, w, figure17_config(recon), scale);
            row.push(pct(s.ipc() / b.ipc() - 1.0));
        }
        let sw = stats(eng, w, PipelineConfig::ci(256), scale);
        row.push(pct(sw.ipc() / b.ipc() - 1.0));
        t.row(row);
    }
    t
}

/// Cells for [`distributions`].
#[must_use]
pub fn distributions_cells(scale: &Scale) -> Vec<CellSpec> {
    table2_cells(scale) // the same window-256 CI runs
}

/// Distribution summaries from the observability layer: restart-sequence
/// length, distance to the reconvergent point, window occupancy and reissue
/// counts, per workload (CI machine, window 256).
///
/// These go beyond the paper's averages — the per-event histograms expose
/// the long tails that the means in Tables 2 and 4 hide.
#[must_use]
pub fn distributions(eng: &Engine, scale: &Scale) -> Table {
    eng.prefetch(&distributions_cells(scale));
    let mut t = Table::new(
        "DISTRIBUTIONS. Restart, reconvergence, occupancy and reissue histograms (CI, window 256).",
    );
    t.headers(&["benchmark", "metric", "n", "mean", "p50", "p90", "max"]);
    for w in Workload::ALL {
        let (_, probe) = probed(eng, w, PipelineConfig::ci(256), scale);
        let metrics: [(&str, &Histogram); 4] = [
            ("restart length (cycles)", &probe.restart_length),
            ("recon distance (instr)", &probe.recon_distance),
            ("window occupancy", &probe.occupancy),
            ("reissues per retired", &probe.reissues),
        ];
        for (name, h) in metrics {
            t.row(vec![
                w.name().to_owned(),
                name.to_owned(),
                h.count().to_string(),
                f(h.mean(), 2),
                h.quantile(0.5).to_string(),
                h.quantile(0.9).to_string(),
                h.max().to_string(),
            ]);
        }
    }
    t
}

/// Every cell of the full evaluation ([`run_all`]) at this scale, duplicates
/// included (the engine dedups).
#[must_use]
pub fn all_experiment_cells(scale: &Scale) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    cells.extend(table1_cells(scale));
    cells.extend(figure3_cells(scale, &FIGURE3_WINDOWS));
    cells.extend(figure5_6_cells(scale, &FIGURE5_WINDOWS));
    cells.extend(table2_cells(scale));
    cells.extend(table3_cells(scale));
    cells.extend(table4_cells(scale));
    cells.extend(figure8_cells(scale));
    cells.extend(figure9_cells(scale));
    cells.extend(figure10_cells(scale));
    cells.extend(figure12_cells(scale));
    cells.extend(figure13_cells(scale));
    cells.extend(figure14_cells(scale));
    cells.extend(figure17_cells(scale));
    cells.extend(distributions_cells(scale));
    cells
}

/// Every name [`tables`] accepts: each table or figure in publication
/// order, then `"all"` for the full evaluation.
pub const NAMES: [&str; 15] = [
    "table1",
    "fig3",
    "fig5",
    "table2",
    "table3",
    "table4",
    "fig8",
    "fig9",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "fig17",
    "distributions",
    "all",
];

/// The tables a name in [`NAMES`] regenerates, in print order (`"fig5"` is
/// Figures 5 and 6, `"all"` is [`run_all`]); `None` for an unknown name.
#[must_use]
pub fn tables(name: &str, eng: &Engine, scale: &Scale) -> Option<Vec<Table>> {
    Some(match name {
        "table1" => vec![table1(eng, scale)],
        "fig3" => vec![figure3(eng, scale, &FIGURE3_WINDOWS)],
        "fig5" => {
            let (ipc, improvement) = figure5_6(eng, scale, &FIGURE5_WINDOWS);
            vec![ipc, improvement]
        }
        "table2" => vec![table2(eng, scale)],
        "table3" => vec![table3(eng, scale)],
        "table4" => vec![table4(eng, scale)],
        "fig8" => vec![figure8(eng, scale)],
        "fig9" => vec![figure9(eng, scale)],
        "fig10" => vec![figure10(eng, scale)],
        "fig12" => vec![figure12(eng, scale)],
        "fig13" => vec![figure13(eng, scale)],
        "fig14" => vec![figure14(eng, scale)],
        "fig17" => vec![figure17(eng, scale)],
        "distributions" => vec![distributions(eng, scale)],
        "all" => run_all(eng, scale),
        _ => return None,
    })
}

/// The full evaluation: every table and figure, in publication order.
///
/// Prefetches the union of all cells first so the engine's workers see one
/// big batch (maximum overlap, cross-table sharing), then assembles each
/// table from the cache. Output is byte-identical for every worker count.
#[must_use]
pub fn run_all(eng: &Engine, scale: &Scale) -> Vec<Table> {
    eng.prefetch(&all_experiment_cells(scale));
    NAMES
        .iter()
        .filter(|&&name| name != "all")
        .flat_map(|name| tables(name, eng, scale).expect("every listed name resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            instructions: 4_000,
            seed: 7,
        }
    }

    #[test]
    fn table1_has_five_rows() {
        let t = table1(&Engine::serial(), &tiny());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn figure3_covers_models_and_windows() {
        let t = figure3(&Engine::serial(), &tiny(), &[32, 64]);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn figure5_6_consistent() {
        let (ipc, imp) = figure5_6(&Engine::serial(), &tiny(), &[64]);
        assert_eq!(ipc.len(), 5);
        assert_eq!(imp.len(), 5);
    }

    #[test]
    fn table2_reports_restart_quantiles() {
        let t = table2(&Engine::serial(), &tiny());
        assert_eq!(t.len(), 5);
        assert_eq!(t.header_cells().len(), 8);
        let row = &t.data_rows()[0];
        let p50: u64 = row[6].parse().expect("p50 is integral");
        let p90: u64 = row[7].parse().expect("p90 is integral");
        assert!(p90 >= p50);
    }

    #[test]
    fn distributions_covers_all_workloads_and_metrics() {
        let t = distributions(&Engine::serial(), &tiny());
        assert_eq!(t.len(), 5 * 4);
        assert!(t.data_rows().iter().all(|r| r.len() == 7));
    }

    #[test]
    fn shared_cells_are_computed_once_across_tables() {
        let eng = Engine::serial();
        let scale = tiny();
        // Tables 2, 3 and the distributions table all reference the same
        // five window-256 CI cells.
        let t2 = table2(&eng, &scale);
        let computed_after_t2 = eng.cells_computed();
        let t3 = table3(&eng, &scale);
        let d = distributions(&eng, &scale);
        assert_eq!(t2.len(), 5);
        assert_eq!(t3.len(), 5);
        assert_eq!(d.len(), 20);
        assert_eq!(
            eng.cells_computed(),
            computed_after_t2,
            "table3/distributions must reuse table2's cells"
        );
    }

    #[test]
    fn every_name_resolves_and_all_is_the_names_in_order() {
        let eng = Engine::serial();
        let scale = tiny();
        let rendered = |t: &[Table]| -> Vec<(String, String)> {
            t.iter().map(|t| (t.render(), t.to_jsonl())).collect()
        };
        let mut concatenated = Vec::new();
        for name in &NAMES[..NAMES.len() - 1] {
            let t = tables(name, &eng, &scale)
                .unwrap_or_else(|| panic!("{name} must resolve to tables"));
            assert!(!t.is_empty(), "{name} resolved to no tables");
            concatenated.extend(rendered(&t));
        }
        assert!(tables("table9", &eng, &scale).is_none());
        // A fresh engine: the one prefetched batch of `run_all` computes
        // (and serves siblings) in another order than the per-name calls.
        let all = tables("all", &Engine::serial(), &scale).expect("all resolves");
        assert_eq!(rendered(&all), concatenated);
    }

    #[test]
    fn scale_from_env_defaults() {
        // The test runner does not set the scale variables, so the default
        // comes back.
        let s = Scale::from_env().expect("absent variables are not an error");
        assert!(s.instructions > 0);
    }

    #[test]
    fn scale_parse_accepts_valid_values() {
        let s = Scale::parse(Some("150000"), Some("42")).unwrap();
        assert_eq!(s.instructions, 150_000);
        assert_eq!(s.seed, 42);
        let s = Scale::parse(Some(" 5000 "), Some("0x5EED")).unwrap();
        assert_eq!(s.instructions, 5_000);
        assert_eq!(s.seed, 0x5EED);
        let s = Scale::parse(None, Some("0XFF")).unwrap();
        assert_eq!(s.instructions, Scale::default_scale().instructions);
        assert_eq!(s.seed, 0xFF);
    }

    #[test]
    fn scale_parse_defaults_when_absent() {
        assert_eq!(Scale::parse(None, None).unwrap(), Scale::default_scale());
    }

    #[test]
    fn scale_parse_rejects_malformed_values() {
        for bad in ["abc", "", "12x", "-5", "1.5", "0x10"] {
            let e = Scale::parse(Some(bad), None).unwrap_err();
            assert!(
                e.contains("CI_REPRO_INSTRUCTIONS") && e.contains(bad),
                "unhelpful error: {e}"
            );
        }
        assert!(Scale::parse(Some("0"), None)
            .unwrap_err()
            .contains("positive"));
        for bad in ["seed", "", "0x", "0xZZ", "-1", "3.7"] {
            let e = Scale::parse(None, Some(bad)).unwrap_err();
            assert!(e.contains("CI_REPRO_SEED"), "unhelpful error: {e}");
        }
    }
}
