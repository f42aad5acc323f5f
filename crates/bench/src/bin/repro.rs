//! `repro <name>`: regenerates one table or figure of the paper, or the
//! full evaluation with `repro all`. The names are those of
//! `experiments::NAMES` (`table1`..`table4`, `fig3`, `fig5`, ..., `fig17`,
//! `distributions`, `all`). Scale with `CI_REPRO_INSTRUCTIONS`; the shared
//! flags (`--json`, `--workers`, `--cache-dir`, `--timing`, `--metrics`)
//! are documented in `ci_bench::cli`.
//!
//! `repro all` prefetches the union of every table's cells on the
//! `--workers` pool, computes each distinct cell once, and assembles the
//! tables serially from the memo, so stdout and the `--json` export are
//! byte-identical for every worker count.

use ci_bench::cli::{end_quietly_on_closed_pipe, usage_error, Cli, SHARED_FLAGS};
use control_independence::experiments as ex;

fn main() {
    end_quietly_on_closed_pipe();
    let mut cli = Cli::from_args("repro");
    let usage = format!(
        "usage: repro <name> {SHARED_FLAGS}\nnames: {}",
        ex::NAMES.join(" ")
    );
    let name = match cli.rest.positionals(1, &usage) {
        [name] if ex::NAMES.contains(&name.as_str()) => name.clone(),
        _ => usage_error(&usage),
    };
    let scale = ex::Scale::from_env_or_exit();
    if name == "all" {
        println!("# Control-independence reproduction — full evaluation");
        println!(
            "# instructions per workload: {}, seed: {:#x}\n",
            scale.instructions, scale.seed
        );
    }
    for t in ex::tables(&name, &cli.engine, &scale).expect("a listed name resolves") {
        cli.table(&t);
    }
    cli.finish();
}
