//! Reduction of a swept grid into the explorer's deliverables: per-workload
//! Pareto fronts, knees, pruning statistics, and the `explore_report/v1`
//! artifact in JSON, table, and markdown form.
//!
//! Everything here is assembled *serially* from memoized cell outputs, so a
//! report is byte-identical for every engine worker count and for cold
//! versus warm disk caches — the same guarantee the rest of the experiment
//! harness makes, extended to thousand-cell grids.

use crate::grammar::{MachineKind, Sweep, SweepConfig};
use crate::pareto::{knee, pareto_front, FrontStats};
use ci_obs::json::JsonValue;
use ci_report::{f, pct, Table};
use ci_runner::{CellSpec, Engine};
use ci_workloads::Workload;

/// One measured grid point: a configuration × workload with its reduced
/// metrics.
#[derive(Clone, Debug)]
pub struct ExplorePoint {
    /// The grid configuration.
    pub config: SweepConfig,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Architectural misprediction rate over predicted control
    /// instructions.
    pub mispred_rate: f64,
    /// Hardware cost proxy (window × fetch width).
    pub cost: f64,
    /// IPC improvement over the *matching* BASE configuration in the same
    /// grid (same window/fetch/completion), when one was swept:
    /// `ipc / base_ipc − 1`. `None` for BASE points and for grids without
    /// the matching BASE.
    pub ci_benefit: Option<f64>,
}

/// One workload's reduction: its points and the two fronts over them.
#[derive(Clone, Debug)]
pub struct WorkloadFront {
    /// The workload.
    pub workload: Workload,
    /// Every grid point for this workload, in sweep (config) order.
    pub points: Vec<ExplorePoint>,
    /// Indices into `points` on the IPC-versus-cost front (minimize cost,
    /// maximize IPC), ascending cost.
    pub cost_front: Vec<usize>,
    /// Index into `points` of the cost front's knee, if the front bends.
    pub cost_knee: Option<usize>,
    /// Pruning statistics of the cost front.
    pub cost_stats: FrontStats,
    /// Indices into `points` on the CI-benefit-versus-misprediction-rate
    /// front (minimize rate, maximize benefit), over points with a
    /// measured benefit.
    pub benefit_front: Vec<usize>,
}

impl WorkloadFront {
    fn reduce(workload: Workload, points: Vec<ExplorePoint>) -> WorkloadFront {
        let cost_pts: Vec<(f64, f64)> = points.iter().map(|p| (p.cost, p.ipc)).collect();
        let cost_front = pareto_front(&cost_pts);
        let cost_knee = knee(&cost_pts, &cost_front);
        let cost_stats = FrontStats::of(&cost_pts, &cost_front);
        // The benefit front reduces only CI points with a matching BASE;
        // others get a sentinel the reducer prunes as non-finite.
        let benefit_pts: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.mispred_rate, p.ci_benefit.unwrap_or(f64::NAN)))
            .collect();
        let benefit_front = pareto_front(&benefit_pts);
        WorkloadFront {
            workload,
            points,
            cost_front,
            cost_knee,
            cost_stats,
            benefit_front,
        }
    }
}

/// The complete reduction of one sweep at one scale.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Canonical sweep text (stable across equivalent spellings).
    pub sweep: String,
    /// Dynamic instructions per cell.
    pub instructions: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Distinct grid configurations.
    pub configs: usize,
    /// Distinct simulation cells (configs × workloads, deduplicated).
    pub cells: usize,
    /// Per-workload reductions, in sweep workload order.
    pub workloads: Vec<WorkloadFront>,
}

impl ExploreReport {
    /// Run `sweep` through `engine` (batched through the engine's pool, so
    /// repeat cells are memo hits) and reduce the grid.
    #[must_use]
    pub fn build(engine: &Engine, sweep: &Sweep, instructions: u64, seed: u64) -> ExploreReport {
        let cells = sweep.expand(instructions, seed);
        engine.prefetch(&cells);
        let configs = sweep.configs();
        let workloads = sweep
            .workloads
            .iter()
            .map(|&workload| {
                let points: Vec<ExplorePoint> = configs
                    .iter()
                    .map(|&config| {
                        let output = engine.output(&CellSpec::Detailed {
                            workload,
                            config: config.pipeline_config(),
                            instructions,
                            seed,
                        });
                        let stats = output.stats();
                        let mispred_rate = if stats.predictions == 0 {
                            0.0
                        } else {
                            stats.arch_mispredictions as f64 / stats.predictions as f64
                        };
                        ExplorePoint {
                            config,
                            ipc: stats.ipc(),
                            mispred_rate,
                            cost: config.cost(),
                            ci_benefit: None, // filled in below
                        }
                    })
                    .collect();
                let points = attach_benefits(points);
                WorkloadFront::reduce(workload, points)
            })
            .collect();
        ExploreReport {
            sweep: sweep.canonical(),
            instructions,
            seed,
            configs: configs.len(),
            cells: cells.len(),
            workloads,
        }
    }

    /// Grid points pruned as dominated across all workloads' cost fronts.
    #[must_use]
    pub fn pruned(&self) -> FrontStats {
        let mut total = FrontStats {
            total: 0,
            on_front: 0,
            dominated: 0,
        };
        for w in &self.workloads {
            total.total += w.cost_stats.total;
            total.on_front += w.cost_stats.on_front;
            total.dominated += w.cost_stats.dominated;
        }
        total
    }

    /// The report as one JSON object (schema `explore_report/v1`). Floats
    /// render with Rust's shortest-roundtrip formatting, so the rendered
    /// text is byte-identical whenever the underlying cells are.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let workloads: Vec<JsonValue> = self
            .workloads
            .iter()
            .map(|w| {
                let points: Vec<JsonValue> = w
                    .points
                    .iter()
                    .map(|p| {
                        JsonValue::obj([
                            ("config", JsonValue::Str(p.config.label())),
                            ("ipc", p.ipc.into()),
                            ("mispred_rate", p.mispred_rate.into()),
                            ("cost", p.cost.into()),
                            (
                                "ci_benefit",
                                p.ci_benefit.map_or(JsonValue::Null, JsonValue::F64),
                            ),
                        ])
                    })
                    .collect();
                JsonValue::obj([
                    ("workload", JsonValue::from(w.workload.name())),
                    ("points", JsonValue::Arr(points)),
                    (
                        "cost_front",
                        JsonValue::Arr(w.cost_front.iter().map(|&i| i.into()).collect()),
                    ),
                    (
                        "cost_knee",
                        w.cost_knee.map_or(JsonValue::Null, |i| i.into()),
                    ),
                    (
                        "benefit_front",
                        JsonValue::Arr(w.benefit_front.iter().map(|&i| i.into()).collect()),
                    ),
                    ("dominated", w.cost_stats.dominated.into()),
                ])
            })
            .collect();
        JsonValue::obj([
            ("schema", JsonValue::from("explore_report/v1")),
            ("sweep", JsonValue::Str(self.sweep.clone())),
            ("instructions", self.instructions.into()),
            ("seed", self.seed.into()),
            ("configs", self.configs.into()),
            ("cells", self.cells.into()),
            ("workloads", JsonValue::Arr(workloads)),
        ])
    }

    /// The report as `ci-report` text tables: one front table per workload
    /// plus the cross-workload knee/pruning summary.
    #[must_use]
    pub fn tables(&self) -> Vec<Table> {
        let mut tables = Vec::new();
        for w in &self.workloads {
            let mut t = Table::new(&format!(
                "EXPLORE {}: IPC/cost Pareto front ({} of {} configs; {} dominated)",
                w.workload.name(),
                w.cost_front.len(),
                w.points.len(),
                w.cost_stats.dominated,
            ));
            t.headers(&["config", "cost", "IPC", "mispred", "CI benefit", "knee"]);
            for &i in &w.cost_front {
                let p = &w.points[i];
                t.row(vec![
                    p.config.label(),
                    f(p.cost, 0),
                    f(p.ipc, 3),
                    pct(p.mispred_rate),
                    p.ci_benefit.map_or_else(|| "-".to_owned(), pct),
                    if w.cost_knee == Some(i) {
                        "*".to_owned()
                    } else {
                        String::new()
                    },
                ]);
            }
            tables.push(t);
        }
        let mut summary = Table::new("EXPLORE summary: knees and pruning per workload");
        summary.headers(&[
            "workload",
            "points",
            "on front",
            "pruned",
            "knee config",
            "knee IPC",
        ]);
        for w in &self.workloads {
            let knee = w.cost_knee.map(|i| &w.points[i]);
            summary.row(vec![
                w.workload.name().to_owned(),
                w.cost_stats.total.to_string(),
                w.cost_stats.on_front.to_string(),
                pct(w.cost_stats.pruned_fraction()),
                knee.map_or_else(|| "-".to_owned(), |p| p.config.label()),
                knee.map_or_else(|| "-".to_owned(), |p| f(p.ipc, 3)),
            ]);
        }
        tables.push(summary);
        tables
    }

    /// The report as a markdown writeup (the `results/EXPLORE_*.md`
    /// deliverable).
    #[must_use]
    pub fn markdown(&self) -> String {
        let pruned = self.pruned();
        let mut md = String::new();
        md.push_str("# Design-space exploration\n\n");
        md.push_str(&format!(
            "Sweep `{}` — {} configurations × {} workloads = {} cells at {} \
             instructions (seed {:#x}).\n\n",
            self.sweep,
            self.configs,
            self.workloads.len(),
            self.cells,
            self.instructions,
            self.seed,
        ));
        md.push_str(&format!(
            "Pareto reduction pruned **{} of {} grid points ({})** as dominated; \
             the tables below list only the frontier.\n\n",
            pruned.dominated,
            pruned.total,
            pct(pruned.pruned_fraction()),
        ));
        for w in &self.workloads {
            md.push_str(&format!("## {}\n\n", w.workload.name()));
            md.push_str(&format!(
                "{} of {} configurations survive on the IPC/cost front \
                 ({} dominated).",
                w.cost_front.len(),
                w.points.len(),
                w.cost_stats.dominated,
            ));
            match w.cost_knee {
                Some(i) => {
                    let p = &w.points[i];
                    md.push_str(&format!(
                        " Knee: **`{}`** at IPC {} for cost {} — the point of \
                         diminishing returns on window/width scaling.\n\n",
                        p.config.label(),
                        f(p.ipc, 3),
                        f(p.cost, 0),
                    ));
                }
                None => md.push_str(" The front is too flat or too small for a knee.\n\n"),
            }
            md.push_str("| config | cost | IPC | mispred | CI benefit |\n");
            md.push_str("|---|---:|---:|---:|---:|\n");
            for &i in &w.cost_front {
                let p = &w.points[i];
                let star = if w.cost_knee == Some(i) { " ★" } else { "" };
                md.push_str(&format!(
                    "| `{}`{} | {} | {} | {} | {} |\n",
                    p.config.label(),
                    star,
                    f(p.cost, 0),
                    f(p.ipc, 3),
                    pct(p.mispred_rate),
                    p.ci_benefit.map_or_else(|| "-".to_owned(), pct),
                ));
            }
            md.push('\n');
            if !w.benefit_front.is_empty() {
                md.push_str(
                    "CI benefit versus misprediction rate (which CI configurations \
                     buy the most over their matching BASE):\n\n",
                );
                md.push_str("| config | mispred | CI benefit |\n");
                md.push_str("|---|---:|---:|\n");
                for &i in &w.benefit_front {
                    let p = &w.points[i];
                    md.push_str(&format!(
                        "| `{}` | {} | {} |\n",
                        p.config.label(),
                        pct(p.mispred_rate),
                        p.ci_benefit.map_or_else(|| "-".to_owned(), pct),
                    ));
                }
                md.push('\n');
            }
        }
        md
    }
}

/// Fill each CI point's `ci_benefit` from the matching BASE point in the
/// same workload's grid (same window, fetch and completion), when swept.
fn attach_benefits(mut points: Vec<ExplorePoint>) -> Vec<ExplorePoint> {
    let bases: Vec<(SweepConfig, f64)> = points
        .iter()
        .filter(|p| p.config.machine == MachineKind::Base)
        .map(|p| (p.config, p.ipc))
        .collect();
    for p in &mut points {
        if p.config.machine == MachineKind::Base {
            continue;
        }
        let matching = bases.iter().find(|(b, _)| {
            b.window == p.config.window
                && b.fetch == p.config.fetch
                && b.completion == p.config.completion
        });
        if let Some(&(_, base_ipc)) = matching {
            if base_ipc > 0.0 {
                p.ci_benefit = Some(p.ipc / base_ipc - 1.0);
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Sweep;

    fn tiny_report() -> ExploreReport {
        let sweep = Sweep::parse("machine=base,ci,window=32,64,fetch=4,workload=go").unwrap();
        let engine = Engine::serial();
        ExploreReport::build(&engine, &sweep, 3_000, 0x5EED)
    }

    #[test]
    fn build_reduces_the_grid() {
        let r = tiny_report();
        assert_eq!(r.configs, 4);
        assert_eq!(r.cells, 4);
        assert_eq!(r.workloads.len(), 1);
        let w = &r.workloads[0];
        assert_eq!(w.points.len(), 4);
        assert!(!w.cost_front.is_empty());
        assert!(w.cost_front.len() <= w.points.len());
        // CI points have a benefit against their matching base.
        for p in &w.points {
            match p.config.machine {
                MachineKind::Base => assert!(p.ci_benefit.is_none()),
                _ => assert!(p.ci_benefit.is_some(), "{}", p.config.label()),
            }
        }
        // Benefit front only carries CI points.
        for &i in &w.benefit_front {
            assert!(w.points[i].ci_benefit.is_some());
        }
    }

    #[test]
    fn json_tables_and_markdown_agree_on_shape() {
        let r = tiny_report();
        let v = ci_obs::json::parse(&r.to_json().render()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("explore_report/v1"));
        assert_eq!(v.get("configs").unwrap().as_i64(), Some(4));
        let wl = v.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(wl.len(), 1);
        assert_eq!(wl[0].get("points").unwrap().as_array().unwrap().len(), 4);
        let tables = r.tables();
        assert_eq!(tables.len(), 2, "one front table + the summary");
        assert!(tables[1].title().contains("knees and pruning"));
        let md = r.markdown();
        assert!(md.contains("# Design-space exploration"));
        assert!(md.contains("## go"));
        assert!(md.contains("| config | cost | IPC"));
    }

    #[test]
    fn report_is_deterministic_across_engines() {
        let sweep = Sweep::parse("smoke-grid,workload=compress").unwrap();
        let a = ExploreReport::build(&Engine::serial(), &sweep, 2_000, 1)
            .to_json()
            .render();
        let b = ExploreReport::build(&Engine::with_workers(4), &sweep, 2_000, 1)
            .to_json()
            .render();
        assert_eq!(a, b);
    }
}
