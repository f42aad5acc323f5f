//! Experiment binaries and Criterion benchmarks.
//!
//! `repro <name>` regenerates one table or figure of the paper (`table1`,
//! `fig5`, ...; see `DESIGN.md` for the index), or all of them with
//! `repro all`. `explore`, `fuzz`, `inspect`, `profile` and `throughput`
//! drive the explorer, the differential fuzzer and the host profilers; the
//! Criterion benches under `benches/` track the *simulator's own*
//! performance. Scale the experiments with `CI_REPRO_INSTRUCTIONS=<n>`.
//!
//! Every binary accepts the shared flags of [`cli::Cli`]:
//!
//! - `--json <path>`: export every printed table as JSON lines.
//! - `--workers <n>` / `-j <n>`: simulation-cell parallelism (default:
//!   `CI_WORKERS` or the machine's available parallelism; `1` = serial
//!   reference mode; printed output is byte-identical for every value).
//! - `--cache-dir <dir>`: persist computed cells to `<dir>/cells.jsonl` and
//!   reuse them on the next run.
//! - `--timing <path>`: export per-cell wall times and cache counters as
//!   JSON lines through the `ci-obs` metrics layer; each cell line carries
//!   its workload, configuration family, and cache disposition.
//! - `--metrics <path>`: export a run-level `run_metrics/v1` JSON report
//!   (cache hit rates, pool utilization, slowest cells).

pub mod cli {
    //! Shared command-line plumbing for the experiment binaries: the common
    //! flags, the [`Engine`] behind `--workers`/`--cache-dir`, and the table
    //! emitter behind `--json`.

    use control_independence::ci_report::Table;
    use control_independence::ci_runner::{Engine, EngineOptions};
    use std::io::Write;
    use std::path::{Path, PathBuf};

    /// Prints tables to stdout and, when `--json <path>` was given,
    /// accumulates their JSON-lines export for writing at [`Emitter::finish`].
    #[derive(Debug, Default)]
    pub struct Emitter {
        path: Option<PathBuf>,
        buf: String,
    }

    impl Emitter {
        /// An emitter writing JSON lines to `path` at finish (`None` prints
        /// tables only).
        #[must_use]
        pub fn new(path: Option<PathBuf>) -> Emitter {
            Emitter {
                path,
                buf: String::new(),
            }
        }

        /// Whether `--json` was requested.
        #[must_use]
        pub fn json_enabled(&self) -> bool {
            self.path.is_some()
        }

        /// Print `table` to stdout and stage its JSON-lines export.
        pub fn table(&mut self, table: &Table) {
            println!("{table}");
            if self.path.is_some() {
                self.buf.push_str(&table.to_jsonl());
            }
        }

        /// Stage raw, pre-rendered JSON lines (metric registries and other
        /// non-tabular exports). Ignored unless `--json` was requested.
        pub fn raw_jsonl(&mut self, lines: &str) {
            if self.path.is_some() {
                self.buf.push_str(lines);
                if !lines.ends_with('\n') {
                    self.buf.push('\n');
                }
            }
        }

        /// Write the staged JSON lines to the `--json` path, if any.
        /// Panics on I/O failure — these are batch experiment binaries and a
        /// silently dropped export would defeat the point.
        pub fn finish(&mut self) {
            if let Some(path) = self.path.take() {
                write_file(&path, self.buf.as_bytes());
            }
        }
    }

    fn write_file(path: &Path, bytes: &[u8]) {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        f.write_all(bytes)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }

    /// The shared flags, as they appear on every binary's usage line.
    pub const SHARED_FLAGS: &str =
        "[--json PATH] [--workers N] [--cache-dir DIR] [--timing PATH] [--metrics PATH]";

    /// Print `usage` on stderr and exit 2.
    pub fn usage_error(usage: &str) -> ! {
        eprintln!("{usage}");
        std::process::exit(2);
    }

    /// Parsed shared flags: the table [`Emitter`], the cell [`Engine`], and
    /// the remaining positional arguments.
    pub struct Cli {
        /// Table printer / JSON-lines exporter (`--json`).
        pub out: Emitter,
        /// Memoizing parallel cell executor (`--workers`, `--cache-dir`).
        pub engine: Engine,
        /// Positional arguments left after flag parsing.
        pub rest: Vec<String>,
        timing: Option<PathBuf>,
        metrics: Option<PathBuf>,
        label: &'static str,
    }

    impl Cli {
        /// Parse the process arguments. `label` names the binary in timing
        /// exports. Exits with a usage message on a malformed flag.
        #[must_use]
        pub fn from_args(label: &'static str) -> Cli {
            let mut opts = EngineOptions::from_env();
            let mut json = None;
            let mut timing = None;
            let mut metrics = None;
            let mut rest = Vec::new();
            let mut args = std::env::args().skip(1);
            fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
                args.next().unwrap_or_else(|| {
                    eprintln!("{flag} requires an argument");
                    std::process::exit(2);
                })
            }
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--json" => json = Some(PathBuf::from(value(&mut args, "--json"))),
                    "--timing" => timing = Some(PathBuf::from(value(&mut args, "--timing"))),
                    "--metrics" => metrics = Some(PathBuf::from(value(&mut args, "--metrics"))),
                    "--cache-dir" => {
                        opts.cache_dir = Some(PathBuf::from(value(&mut args, "--cache-dir")));
                    }
                    "--workers" | "-j" => {
                        let v = value(&mut args, "--workers");
                        opts.workers = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                            eprintln!("--workers must be a positive integer, got `{v}`");
                            std::process::exit(2);
                        });
                    }
                    _ => rest.push(a),
                }
            }
            Cli {
                out: Emitter::new(json),
                engine: Engine::new(opts),
                rest,
                timing,
                metrics,
                label,
            }
        }

        /// Take one of the binary's own `flag <value>` pairs out of
        /// [`Cli::rest`] and return the value. Exits 2 when the flag has no
        /// value.
        pub fn take_flag(&mut self, flag: &str) -> Option<String> {
            let i = self.rest.iter().position(|a| a == flag)?;
            if i + 1 >= self.rest.len() {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            }
            let value = self.rest.remove(i + 1);
            self.rest.remove(i);
            Some(value)
        }

        /// The positional arguments, once the binary has taken its own
        /// flags out of [`Cli::rest`]. A leftover flag or a positional past
        /// the first `max` is a usage error: it is named on stderr with the
        /// `usage` line, and the process exits 2.
        pub fn positionals(&self, max: usize, usage: &str) -> &[String] {
            let stray = self
                .rest
                .iter()
                .find(|a| a.starts_with('-'))
                .or_else(|| self.rest.get(max));
            if let Some(arg) = stray {
                eprintln!("unexpected argument `{arg}`");
                usage_error(usage);
            }
            &self.rest
        }

        /// Print `table` (and stage its JSON export).
        pub fn table(&mut self, table: &Table) {
            self.out.table(table);
        }

        /// Finish the run: flush the `--json` export, write the `--timing`
        /// JSON lines and the `--metrics` run report (host-side wall times
        /// are nondeterministic, so neither ever goes into the byte-compared
        /// `--json` artifact), persist the cell cache, and print a one-line
        /// cache/timing summary to stderr.
        pub fn finish(mut self) {
            self.out.finish();
            if let Some(path) = &self.timing {
                let jsonl = self.engine.timing_jsonl(self.label);
                write_file(path, jsonl.as_bytes());
            }
            if let Some(path) = &self.metrics {
                let report = self.engine.run_metrics(self.label);
                let mut body = report.to_json().render();
                body.push('\n');
                write_file(path, body.as_bytes());
                eprint!("{}", report.summary());
            }
            if let Err(e) = self.engine.save_cache() {
                panic!("cannot persist cell cache: {e}");
            }
            eprint!("{}", self.engine.timing_summary(5));
        }
    }
}
