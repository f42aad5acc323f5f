//! Observability-layer guarantees, end to end:
//!
//! - probes are *observers*: a run with a metrics-collecting probe attached
//!   produces bit-identical [`Stats`] to the default no-op run;
//! - a retirement/emulator divergence produces an actionable post-mortem:
//!   the panic names the divergent pc and, when a flight recorder is
//!   attached, includes the final cycles of pipeline events.

use control_independence::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn probed_stats_bit_identical_to_noop(seed in 0u64..10_000, size in 8usize..100) {
        let p = random_program(seed, size);
        for cfg in [PipelineConfig::base(64), PipelineConfig::ci(64)] {
            let plain = simulate(&p, cfg, 12_000).unwrap();
            let (probed, probe) =
                simulate_probed(&p, cfg, 12_000, MetricsProbe::new()).unwrap();
            prop_assert_eq!(&plain, &probed);
            // The probe actually observed the run it did not perturb.
            prop_assert_eq!(probe.counters.get(EventKind::Retire), plain.retired);
            prop_assert_eq!(probe.counters.get(EventKind::CycleEnd), plain.cycles);
        }
    }

    #[test]
    fn flight_recorder_is_also_inert(seed in 0u64..10_000) {
        let p = random_program(seed, 60);
        let plain = simulate(&p, PipelineConfig::ci(64), 12_000).unwrap();
        let (probed, rec) =
            simulate_probed(&p, PipelineConfig::ci(64), 12_000, FlightRecorder::new()).unwrap();
        prop_assert_eq!(&plain, &probed);
        prop_assert!(rec.events().count() > 0);
    }
}

#[test]
fn forced_mismatch_dumps_flight_recorder() {
    let reference = ArchRef::build(random_program(11, 40), 5_000).unwrap();
    let mut pipe = Pipeline::new(
        &reference,
        PipelineConfig::ci(64),
        FlightRecorder::new(),
        NoopProfiler,
    );
    pipe.corrupt_oracle_entry(20);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipe.run()))
        .expect_err("corrupted oracle entry must trip the retirement checker");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload is a string");
    assert!(
        msg.contains("retired pc diverges from the emulator at instruction 20"),
        "message should name the divergent field and index:\n{msg}"
    );
    assert!(
        msg.contains("retired:"),
        "message should show the retired instruction:\n{msg}"
    );
    assert!(
        msg.contains("emulator:"),
        "message should show the reference instruction:\n{msg}"
    );
    // Both the retired pc and the corrupted reference pc (high bit
    // flipped, so >= 2^31) appear in the divergence line.
    assert!(
        msg.contains(" != @"),
        "message should show both pcs:\n{msg}"
    );
    assert!(
        msg.contains("@21474836"),
        "message should include the bogus pc:\n{msg}"
    );
    assert!(
        msg.contains("flight recorder:"),
        "attached recorder's final cycles should be dumped:\n{msg}"
    );
    assert!(
        msg.contains("cycle "),
        "dump should list per-cycle events:\n{msg}"
    );
}

#[test]
fn mismatch_without_recorder_suggests_one() {
    let reference = ArchRef::build(random_program(11, 40), 5_000).unwrap();
    let mut pipe = Pipeline::new(&reference, PipelineConfig::ci(64), NoopProbe, NoopProfiler);
    pipe.corrupt_oracle_entry(20);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipe.run()))
        .expect_err("corrupted oracle entry must trip the retirement checker");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is a string");
    assert!(
        msg.contains("FlightRecorder"),
        "no-probe failure should point at the flight recorder:\n{msg}"
    );
}
