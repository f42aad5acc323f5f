//! Design-space explorer: expands a sweep spec into a grid of simulation
//! cells, runs them through the memoized engine, and reduces the grid into
//! Pareto fronts, knees, and pruning statistics.
//!
//! ```text
//! explore [--sweep <spec> | <spec>] [--out <report.json>] [--md <report.md>]
//! ```
//!
//! `<spec>` is the declarative sweep grammar of `ci_explore::Sweep::parse`
//! (axes `window/fetch/conf/machine/preempt/completion/recon/workload`,
//! range forms `a..=b[:+n|:xn]`, presets `paper-grid`/`full-grid`/
//! `smoke-grid`); the default is `smoke-grid`. The spec is given once:
//! after `--sweep` or as the one positional argument. A flag without its
//! value, a stray flag, a second spec or one that does not parse is a
//! usage error (exit 2). Cell scale comes from `CI_REPRO_INSTRUCTIONS` /
//! `CI_REPRO_SEED` as in every other binary, and the shared flags
//! (`--json`, `--workers`, `--cache-dir`, `--metrics`) are documented in
//! `ci_bench::cli` — with `--cache-dir`, growing a grid recomputes only
//! the new cells.
//!
//! `--out` writes the `explore_report/v1` JSON object (deterministic:
//! byte-identical across worker counts and cache states); `--md` writes
//! the markdown writeup.

use ci_bench::cli::{end_quietly_on_closed_pipe, usage_error, Cli, SHARED_FLAGS};
use control_independence::ci_explore::{ExploreReport, Sweep};
use control_independence::ci_runner::SweepSummary;
use control_independence::experiments::Scale;
use std::path::PathBuf;

fn main() {
    end_quietly_on_closed_pipe();
    let mut cli = Cli::from_args("explore");
    let usage = format!(
        "usage: explore [--sweep <spec> | <spec>] [--out <report.json>] [--md <report.md>] \
         {SHARED_FLAGS}"
    );
    let flag = cli.rest.take_flag("--sweep", &usage);
    let out = cli.rest.take_flag("--out", &usage).map(PathBuf::from);
    let md = cli.rest.take_flag("--md", &usage).map(PathBuf::from);
    let positional = cli.rest.positionals(1, &usage).first().cloned();
    let spec = match (flag, positional) {
        (Some(_), Some(positional)) => {
            eprintln!("the sweep is given twice: after --sweep and as `{positional}`");
            usage_error(&usage)
        }
        (flag, positional) => flag
            .or(positional)
            .unwrap_or_else(|| "smoke-grid".to_owned()),
    };
    let sweep = Sweep::parse(&spec).unwrap_or_else(|e| {
        eprintln!("bad sweep `{spec}`: {e}");
        usage_error(&usage)
    });
    let scale = Scale::from_env_or_exit();

    let cells = sweep.expand(scale.instructions, scale.seed);
    let configs = sweep.configs();
    eprintln!(
        "exploring {} configurations × {} workloads = {} cells at {} instructions",
        configs.len(),
        sweep.workloads.len(),
        cells.len(),
        scale.instructions,
    );
    cli.engine.note_sweep(SweepSummary {
        spec: sweep.canonical(),
        configs: configs.len() as u64,
        cells: cells.len() as u64,
        workloads: sweep.workloads.len() as u64,
    });

    let report = ExploreReport::build(&cli.engine, &sweep, scale.instructions, scale.seed);
    for table in report.tables() {
        cli.table(&table);
    }
    if let Some(path) = out {
        let mut body = report.to_json().render();
        body.push('\n');
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    if let Some(path) = md {
        std::fs::write(&path, report.markdown())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    cli.finish();
}
