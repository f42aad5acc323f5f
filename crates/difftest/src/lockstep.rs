//! Lockstep execution of one detailed-pipeline configuration against the
//! functional emulator, with panic capture and retirement-stream logging,
//! and the flight-recorded replay that explains a failing run.

use ci_core::{ArchRef, Pipeline, PipelineConfig, Stats};
use ci_emu::Trace;
use ci_isa::Program;
use ci_obs::{CoverageRecorder, CoverageSignature, Event, FlightRecorder, NoopProfiler, Probe};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Probe used by every lockstep run: an independent log of retired PCs (so
/// the harness re-verifies the retirement stream itself instead of trusting
/// the pipeline's internal checker alone) and a coverage recorder feeding
/// the corpus-guided fuzzer's novelty signal. It keeps no flight recorder:
/// only a failing run needs a transcript, and [`replay_flight`] produces it.
#[derive(Debug, Default)]
struct DiffProbe {
    retired_pcs: Vec<u32>,
    coverage: CoverageRecorder,
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
    }
}

/// Outcome of one detailed-pipeline run under a lockstep check: what the
/// harness checks (statistics, retired PC stream, panic) and the coverage
/// it feeds the fuzzer, but no flight-recorder transcript.
#[derive(Debug)]
pub struct LockstepRun {
    /// Statistics, when the run completed without panicking.
    pub stats: Option<Stats>,
    /// Retired PC stream observed through the probe.
    pub retired_pcs: Vec<u32>,
    /// Panic message, when the run died (oracle-checker divergence, forward
    /// progress failure, or any internal invariant violation). The run kept
    /// no flight recorder, so the message carries no transcript of the final
    /// cycles; the harness replays a failing machine with one.
    pub panic: Option<String>,
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
/// exercise the failure and shrinking paths on demand. The run records
/// retired PCs and coverage only; the harness takes a failing run's
/// transcript from a flight-recorded replay of it.
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
    match run_caught(reference, config, corrupt, DiffProbe::with_salt(salt)) {
        Ok((stats, probe)) => LockstepRun {
            stats: Some(stats),
            retired_pcs: probe.retired_pcs,
            panic: None,
            max_restart_depth: probe.coverage.max_depth(),
            coverage: probe.coverage.into_signature(),
        },
        Err(msg) => LockstepRun {
            stats: None,
            retired_pcs: Vec::new(),
            panic: Some(msg),
            coverage: CoverageSignature::new(),
            max_restart_depth: 0,
        },
    }
}

/// Replay one lockstep run with a [`FlightRecorder`] as its only probe, to
/// explain a run that failed a check. The pipeline is deterministic and a
/// probe only observes, so over the same `reference`, `config` and
/// `corrupt` index the replay retires the same stream and fails the same
/// way as the run it repeats. Returns the rendered transcript of the final
/// cycles when the replay completes, or its panic message when it dies (the
/// oracle checker embeds the transcript in that message).
pub(crate) fn replay_flight(
    reference: &ArchRef,
    config: PipelineConfig,
    corrupt: Option<usize>,
) -> Result<String, String> {
    run_caught(reference, config, corrupt, FlightRecorder::new()).map(|(_, flight)| flight.render())
}

/// Run one pipeline to completion under `probe`, turning a panic into its
/// message.
fn run_caught<P: Probe>(
    reference: &ArchRef,
    config: PipelineConfig,
    corrupt: Option<usize>,
    probe: P,
) -> Result<(Stats, P), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut p = Pipeline::new(reference, config, probe, NoopProfiler);
        if let Some(idx) = corrupt {
            p.corrupt_oracle_entry(idx);
        }
        let stats = p.run();
        (stats, p.into_probe())
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// The message of a caught panic.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_core::{simulate_probed, PipelineConfig};
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

    #[test]
    fn replay_reproduces_a_corrupted_run_with_its_transcript() {
        crate::fuzz::silence_panics();
        let p = random_program(11, 60);
        let config = PipelineConfig::ci(64);
        let run = run_locked(&p, config, 25_000, Some(3));
        let msg = run.panic.expect("corrupted reference trips the checker");
        let reference = ArchRef::build(p, 25_000).unwrap();
        let replayed = replay_flight(&reference, config, Some(3))
            .expect_err("the replay corrupts the same entry and fails the same way");
        assert!(
            replayed.contains("diverges from the emulator"),
            "{replayed}"
        );
        assert!(replayed.contains("flight recorder:"), "{replayed}");
        assert_eq!(replayed.lines().next(), msg.lines().next());
    }

    #[test]
    fn replay_transcript_of_a_clean_run_is_the_flight_recorders() {
        let p = random_program(11, 60);
        let config = PipelineConfig::ci(64);
        let (_, recorder) = simulate_probed(&p, config, 25_000, FlightRecorder::new()).unwrap();
        let reference = ArchRef::build(p, 25_000).unwrap();
        let transcript = replay_flight(&reference, config, None).expect("a clean run completes");
        assert_eq!(transcript, recorder.render());
    }
}
