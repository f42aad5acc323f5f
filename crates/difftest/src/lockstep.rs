//! Lockstep execution of one detailed-pipeline configuration against the
//! functional emulator, with panic capture and retirement-stream logging,
//! and the flight-recorded replay that explains a failing run.

use ci_core::{ArchRef, Pipeline, PipelineConfig, Stats};
use ci_emu::Trace;
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

/// Run the detailed pipeline over `reference` under `config`, capturing
/// panics (the built-in oracle checker panics on divergence) instead of
/// aborting the fuzzing process. `corrupt` optionally poisons one entry of
/// this run's copy of the reference before the run — the test hook used to
/// exercise the failure and shrinking paths on demand. The run records
/// retired PCs and coverage only; the harness takes a failing run's
/// transcript from a flight-recorded replay of it. Every edge the run's
/// coverage recorder sets folds `salt` in, so different machine variants
/// and handling modes land in distinct regions of the campaign map.
#[must_use]
pub fn run_locked(
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
    use ci_workloads::random_program;

    fn reference() -> ArchRef {
        ArchRef::build(random_program(11, 60), 25_000).unwrap()
    }

    #[test]
    fn clean_runs_match_the_trace() {
        let reference = reference();
        let trace = reference.trace();
        let run = run_locked(&reference, PipelineConfig::ci(64), None, 0);
        assert!(run.panic.is_none(), "{:?}", run.panic);
        assert_eq!(run.divergence(trace), None);
        assert_eq!(run.stats.unwrap().retired, trace.len() as u64);
    }

    #[test]
    fn corrupted_oracle_is_caught_not_fatal() {
        crate::fuzz::silence_panics();
        let run = run_locked(&reference(), PipelineConfig::ci(64), Some(3), 0);
        let msg = run
            .panic
            .expect("corrupted reference must trip the checker");
        assert!(msg.contains("diverges from the emulator"), "{msg}");
    }

    #[test]
    fn replay_reproduces_a_corrupted_run_with_its_transcript() {
        crate::fuzz::silence_panics();
        let reference = reference();
        let config = PipelineConfig::ci(64);
        let run = run_locked(&reference, config, Some(3), 0);
        let msg = run.panic.expect("corrupted reference trips the checker");
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
        let transcript = replay_flight(&reference(), config, None).expect("a clean run completes");
        assert_eq!(transcript, recorder.render());
    }
}
