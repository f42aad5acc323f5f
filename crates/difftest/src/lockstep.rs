//! Lockstep execution of one detailed-pipeline configuration against the
//! functional emulator, with panic capture and retirement-stream logging.

use ci_core::{ArchRef, Pipeline, PipelineConfig, Stats};
use ci_emu::Trace;
use ci_isa::Program;
use ci_obs::{CoverageRecorder, CoverageSignature, Event, FlightRecorder, NoopProfiler, Probe};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Probe used by every lockstep run: a bounded flight recorder (for failure
/// transcripts), an independent log of retired PCs (so the harness
/// re-verifies the retirement stream itself instead of trusting the
/// pipeline's internal checker alone), and a coverage recorder feeding the
/// corpus-guided fuzzer's novelty signal.
#[derive(Debug, Default)]
pub(crate) struct DiffProbe {
    pub flight: FlightRecorder,
    pub retired_pcs: Vec<u32>,
    pub coverage: CoverageRecorder,
}

impl DiffProbe {
    fn with_salt(salt: u64) -> DiffProbe {
        DiffProbe {
            coverage: CoverageRecorder::with_salt(salt),
            ..DiffProbe::default()
        }
    }
}

impl Probe for DiffProbe {
    #[inline]
    fn record(&mut self, cycle: u64, event: Event) {
        if let Event::Retire { pc, .. } = event {
            self.retired_pcs.push(pc);
        }
        self.coverage.record(cycle, event);
        self.flight.record(cycle, event);
    }

    fn dump(&self) -> Option<String> {
        self.flight.dump()
    }
}

/// Outcome of one detailed-pipeline run under a lockstep check.
#[derive(Debug)]
pub struct LockstepRun {
    /// Statistics, when the run completed without panicking.
    pub stats: Option<Stats>,
    /// Retired PC stream observed through the probe.
    pub retired_pcs: Vec<u32>,
    /// Panic message, when the run died (oracle-checker divergence, forward
    /// progress failure, or any internal invariant violation).
    pub panic: Option<String>,
    /// Flight-recorder transcript (the machine's final cycles).
    pub flight: String,
    /// Coverage signature observed through the probe (empty when the run
    /// panicked — the probe dies with the unwound pipeline).
    pub coverage: CoverageSignature,
    /// Deepest restart nesting the run reached (0 when it panicked).
    pub max_restart_depth: u32,
}

impl LockstepRun {
    /// Whether the run completed and its retired PC stream is bit-identical
    /// to the emulator's correct-path trace.
    #[must_use]
    pub fn matches(&self, trace: &Trace) -> bool {
        self.panic.is_none() && self.divergence(trace).is_none()
    }

    /// First divergence between the retired PC stream and the trace, as a
    /// human-readable report; `None` when the streams are identical.
    #[must_use]
    pub fn divergence(&self, trace: &Trace) -> Option<String> {
        let want = trace.insts();
        if self.retired_pcs.len() != want.len() {
            return Some(format!(
                "retired {} instructions, emulator executed {}",
                self.retired_pcs.len(),
                want.len()
            ));
        }
        for (i, (got, want)) in self.retired_pcs.iter().zip(want).enumerate() {
            if *got != want.pc.0 {
                return Some(format!(
                    "retirement {i}: pipeline retired pc {got}, emulator executed {}",
                    want.summary()
                ));
            }
        }
        None
    }
}

/// Run `program` through the detailed pipeline under `config`, capturing
/// panics (the built-in oracle checker panics on divergence) instead of
/// aborting the fuzzing process. `corrupt` optionally poisons one
/// architectural-reference entry before the run — the test hook used to
/// exercise the failure and shrinking paths on demand.
///
/// # Panics
/// Panics if the program's correct path leaves the program.
#[must_use]
pub fn run_locked(
    program: &Program,
    config: PipelineConfig,
    max_insts: u64,
    corrupt: Option<usize>,
) -> LockstepRun {
    let reference =
        ArchRef::build(program.clone(), max_insts).expect("trial programs have valid traces");
    run_locked_salted(&reference, config, corrupt, 0)
}

/// [`run_locked`] over an already built architectural reference, with an
/// explicit coverage salt: every edge the run's coverage recorder sets
/// folds `salt` in, so different machine variants and handling modes land
/// in distinct regions of the campaign map. `corrupt` poisons only this
/// run's copy of the reference.
#[must_use]
pub fn run_locked_salted(
    reference: &ArchRef,
    config: PipelineConfig,
    corrupt: Option<usize>,
    salt: u64,
) -> LockstepRun {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut p = Pipeline::new(reference, config, DiffProbe::with_salt(salt), NoopProfiler);
        if let Some(idx) = corrupt {
            p.corrupt_oracle_entry(idx);
        }
        let stats = p.run();
        let probe = p.into_probe();
        (stats, probe)
    }));
    match result {
        Ok((stats, probe)) => LockstepRun {
            stats: Some(stats),
            retired_pcs: probe.retired_pcs,
            panic: None,
            flight: probe.flight.render(),
            max_restart_depth: probe.coverage.max_depth(),
            coverage: probe.coverage.into_signature(),
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            LockstepRun {
                stats: None,
                retired_pcs: Vec::new(),
                panic: Some(msg),
                flight: String::new(),
                coverage: CoverageSignature::new(),
                max_restart_depth: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_core::PipelineConfig;
    use ci_emu::run_trace;
    use ci_workloads::random_program;

    #[test]
    fn clean_runs_match_the_trace() {
        let p = random_program(11, 60);
        let trace = run_trace(&p, 25_000).unwrap();
        let run = run_locked(&p, PipelineConfig::ci(64), 25_000, None);
        assert!(run.panic.is_none(), "{:?}", run.panic);
        assert!(run.matches(&trace));
        assert_eq!(run.stats.unwrap().retired, trace.len() as u64);
    }

    #[test]
    fn corrupted_oracle_is_caught_not_fatal() {
        crate::fuzz::silence_panics();
        let p = random_program(11, 60);
        let run = run_locked(&p, PipelineConfig::ci(64), 25_000, Some(3));
        let msg = run
            .panic
            .expect("corrupted reference must trip the checker");
        assert!(msg.contains("diverges from the emulator"), "{msg}");
    }
}
