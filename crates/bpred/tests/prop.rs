//! Property tests: predictor learning, history handling and TFR-curve
//! invariants.

use ci_bpred::{GlobalHistory, Gshare, RasTop, ReturnAddressStack, TfrStats};
use ci_isa::Pc;
use proptest::prelude::*;

proptest! {
    #[test]
    fn gshare_learns_any_fixed_direction(pc in 0u32..10_000, hist in any::<u64>(), dir in any::<bool>()) {
        let mut g = Gshare::new(14);
        let h = GlobalHistory::from(hist);
        for _ in 0..4 {
            g.update(Pc(pc), h, dir);
        }
        prop_assert_eq!(g.predict(Pc(pc), h), dir);
    }

    #[test]
    fn history_bits_mask_raw(hist in any::<u64>(), n in 0u32..=64) {
        let h = GlobalHistory::from(hist);
        let bits = h.bits(n);
        if n == 0 {
            prop_assert_eq!(bits, 0);
        } else if n < 64 {
            prop_assert_eq!(bits, hist & ((1u64 << n) - 1));
        } else {
            prop_assert_eq!(bits, hist);
        }
    }

    #[test]
    fn ras_is_lifo(pushes in prop::collection::vec(0u32..1_000_000, 0..40)) {
        let mut ras = ReturnAddressStack::perfect();
        let mut top = RasTop::EMPTY;
        for &p in &pushes {
            ras.push(&mut top, Pc(p));
        }
        for &p in pushes.iter().rev() {
            prop_assert_eq!(ras.pop(&mut top), Some(Pc(p)));
        }
        prop_assert_eq!(ras.pop(&mut top), None);
    }

    /// Pushes, pops, checkpoints and restores, mostly pushes so the stack
    /// runs past the 64-entry bound, agree with a `Vec` that drops its
    /// oldest entry on a full push and is copied whole to checkpoint it.
    #[test]
    fn ras_checkpoints_match_a_copied_vec(
        ops in prop::collection::vec((0u8..10, 0u32..1_000_000), 0..400),
        perfect in any::<bool>(),
    ) {
        let bound = if perfect { usize::MAX } else { 64 };
        let mut ras = if perfect {
            ReturnAddressStack::perfect()
        } else {
            ReturnAddressStack::bounded(bound)
        };
        let mut top = RasTop::EMPTY;
        let mut model: Vec<Pc> = Vec::new();
        let mut saved: Vec<(RasTop, Vec<Pc>)> = Vec::new();
        for &(op, v) in &ops {
            match op {
                0..=5 => {
                    ras.push(&mut top, Pc(v));
                    if model.len() == bound {
                        model.remove(0);
                    }
                    model.push(Pc(v));
                }
                6 | 7 => prop_assert_eq!(ras.pop(&mut top), model.pop()),
                8 => saved.push((top, model.clone())),
                _ => {
                    if !saved.is_empty() {
                        let (t, m) = &saved[v as usize % saved.len()];
                        top = *t;
                        model.clone_from(m);
                    }
                }
            }
            prop_assert_eq!(top.depth(), model.len());
        }
        // Every checkpoint still reads back exactly what it saved.
        for (t, m) in &saved {
            let mut t = *t;
            for &pc in m.iter().rev() {
                prop_assert_eq!(ras.pop(&mut t), Some(pc));
            }
            prop_assert_eq!(ras.pop(&mut t), None);
        }
    }

    #[test]
    fn coverage_curve_is_monotone_and_complete(
        events in prop::collection::vec((0u64..30, any::<bool>()), 1..300)
    ) {
        let mut s = TfrStats::new();
        for (key, is_false) in &events {
            s.record(*key, *is_false);
        }
        let curve = s.coverage_curve();
        prop_assert!(!curve.is_empty());
        // Monotone non-decreasing in both axes.
        for w in curve.windows(2) {
            prop_assert!(w[1].cum_true >= w[0].cum_true - 1e-12);
            prop_assert!(w[1].cum_false >= w[0].cum_false - 1e-12);
        }
        // The full prefix covers everything that exists.
        let last = curve.last().unwrap();
        let (t, f) = s.totals();
        if t > 0 {
            prop_assert!((last.cum_true - 1.0).abs() < 1e-9);
        }
        if f > 0 {
            prop_assert!((last.cum_false - 1.0).abs() < 1e-9);
        }
        // Budgeted coverage is monotone in the budget.
        prop_assert!(s.false_coverage_at(0.5) >= s.false_coverage_at(0.1) - 1e-12);
    }
}
