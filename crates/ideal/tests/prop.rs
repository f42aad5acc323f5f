//! Property tests: the idealized models complete and respect dominance
//! relations on random structured programs.

use ci_ideal::{simulate, IdealConfig, ModelKind, StudyInput};
use ci_isa::LatencyModel;
use ci_workloads::{random_program, random_structured};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn all_models_retire_everything(seed in 0u64..2_000, size in 8usize..100) {
        let p = random_program(seed, size);
        let input = StudyInput::build(&p, 20_000).unwrap();
        for model in ModelKind::ALL {
            for window in [24usize, 128] {
                let r = simulate(&input, &IdealConfig { model, window, ..IdealConfig::default() });
                prop_assert_eq!(r.retired, input.len() as u64, "{} w{}", model, window);
            }
        }
    }

    #[test]
    fn oracle_is_fastest_and_base_is_slowest_ci(seed in 0u64..2_000) {
        let p = random_program(seed, 80);
        let input = StudyInput::build(&p, 20_000).unwrap();
        let cycles = |m| {
            simulate(&input, &IdealConfig { model: m, window: 128, ..IdealConfig::default() }).cycles
        };
        let oracle = cycles(ModelKind::Oracle);
        let base = cycles(ModelKind::Base);
        prop_assert!(oracle <= base, "oracle {oracle} > base {base}");
        // nWR-nFD can only beat base (more information, same constraints),
        // modulo the fetch-reordering exception the paper notes — allow 5%.
        let nwr = cycles(ModelKind::NwrNfd);
        prop_assert!(nwr as f64 <= base as f64 * 1.05, "nWR-nFD {nwr} vs base {base}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Machines far from the paper's: any width, tiny windows (evictions),
    /// and latencies long enough that wake-ups wait hundreds of cycles.
    #[test]
    fn all_models_retire_everything_on_any_machine(
        seed in 0u64..2_000,
        width in 1usize..=16,
        window in 4usize..=64,
        int_mul in 1u64..=300,
        int_div in 1u64..=300,
        cache_latency in 0u64..=300,
    ) {
        // One random body runs ~1k instructions; repeating it gives 5k.
        let mut sp = random_structured(seed, 400);
        sp.body = std::iter::repeat_n(sp.body, 8).flatten().collect();
        let input = StudyInput::build(&sp.emit(), 5_000).unwrap();
        prop_assert_eq!(input.len(), 5_000);
        let latencies = LatencyModel { int_mul, int_div, ..LatencyModel::new() };
        for model in ModelKind::ALL {
            let cfg = IdealConfig { model, window, width, latencies, cache_latency };
            let r = simulate(&input, &cfg);
            prop_assert_eq!(r.retired, input.len() as u64, "{} {:?}", model, cfg);
        }
    }
}
