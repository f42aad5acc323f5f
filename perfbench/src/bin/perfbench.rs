//! The end-to-end runner (tracing off):
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace 0 [--root <dir>] [--work-dir <dir>]
//! ```
//!
//! Sets the workload up several times (see `setup`), runs the golden
//! preflight once, runs the closed loop for `--seconds`, checks every pass,
//! and prints the end-to-end metrics as the last line of standard output.

use perfbench::{
    end_to_end, hermetic_env, median, preflight, print_result, reference_seconds, reset_peak_rss,
    setup, timed_phase, Args, Gate, Meter, ScratchDir, Tally,
};

fn main() {
    hermetic_env();
    // Make the reference table before anything else (see `peak_rss_mb`).
    let _ = reference_seconds();
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if args.trace {
        eprintln!("perfbench: the traced run is the perfbench-layers binary");
        std::process::exit(2);
    }
    let scratch = ScratchDir::new(&args.work_dir).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: scratch dir under {}: {e}",
            args.work_dir.display()
        );
        std::process::exit(2);
    });
    let mut gate = Gate::default();
    // Set-ups are timed first, in a fresh process: after the preflight the
    // short ones spread about twice as much from run to run.
    let (prepared, setup_times) = setup(&args, &scratch, &mut gate);
    preflight(&args.root, &mut gate);
    // `peak_rss_mb` is the timed phase's own peak, not the set-up's.
    if let Err(e) = reset_peak_rss() {
        gate.check(false, || format!("reset the peak resident set: {e}"));
    }
    let phase = timed_phase(
        &args,
        &prepared,
        &scratch,
        args.seconds,
        Meter::default(),
        Tally::default(),
        &mut gate,
    );
    let tally = &phase.tally;
    eprintln!(
        "perfbench: {} {} passes, median {:.3}s = {:.2} ref (ref {:.4}s); {} set-ups, median {:.4e}s at reference speed",
        args.workload.name(),
        tally.times.len(),
        tally.wall(),
        tally.norm(),
        median(&tally.samples),
        setup_times.len(),
        median(&setup_times),
    );
    let metrics = end_to_end(tally, &setup_times);
    let (attempted, failed) = (tally.attempted, tally.failed);
    drop(phase);
    drop(prepared);
    drop(scratch);
    print_result(&mut gate, attempted, failed, &metrics);
}
