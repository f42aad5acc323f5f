//! Edge-case tests for the predictor structures: RAS depth-bound behavior,
//! CTB index aliasing, and confidence-counter saturation.

use ci_bpred::{
    ConfidenceEstimator, CorrelatedTargetBuffer, GlobalHistory, RasTop, ReturnAddressStack,
};
use ci_isa::Pc;

#[test]
fn ras_underflow_is_empty_not_garbage() {
    let mut r = ReturnAddressStack::perfect();
    let mut t = RasTop::EMPTY;
    for _ in 0..8 {
        assert_eq!(r.pop(&mut t), None);
    }
    // A stack that underflowed still accepts pushes normally.
    r.push(&mut t, Pc(7));
    assert_eq!(r.pop(&mut t), Some(Pc(7)));
    assert_eq!(r.pop(&mut t), None);
}

#[test]
fn ras_overflow_keeps_newest_in_lifo_order() {
    // Push far past the bound: the stack must retain exactly the newest
    // `depth` addresses, popped newest-first (a hardware RAS overwrites the
    // oldest slot circularly).
    let mut r = ReturnAddressStack::bounded(4);
    let mut t = RasTop::EMPTY;
    for i in 0..100u32 {
        r.push(&mut t, Pc(i));
    }
    assert_eq!(t.depth(), 4);
    for i in (96..100u32).rev() {
        assert_eq!(r.pop(&mut t), Some(Pc(i)));
    }
    assert_eq!(r.pop(&mut t), None);
}

#[test]
fn ras_alternating_wraparound_tracks_matched_pairs() {
    // call/return pairs interleaved with overflow: as long as the nesting
    // depth stays within the bound, predictions stay exact even after the
    // stack has wrapped many times.
    let mut r = ReturnAddressStack::bounded(3);
    let mut t = RasTop::EMPTY;
    for round in 0..50u32 {
        let base = round * 10;
        r.push(&mut t, Pc(base));
        r.push(&mut t, Pc(base + 1));
        assert_eq!(r.pop(&mut t), Some(Pc(base + 1)));
        assert_eq!(r.pop(&mut t), Some(Pc(base)));
        assert_eq!(t.depth(), 0);
    }
}

#[test]
fn ras_checkpoint_rewinds_across_overflow() {
    let mut r = ReturnAddressStack::bounded(2);
    let mut t = RasTop::EMPTY;
    r.push(&mut t, Pc(1));
    r.push(&mut t, Pc(2));
    let checkpoint = t;
    // Overflow after the checkpoint: Pc(1) is dropped from the live stack.
    r.push(&mut t, Pc(3));
    r.push(&mut t, Pc(4));
    assert_eq!(t.depth(), 2);
    // Copying the checkpoint back rewinds the contents.
    t = checkpoint;
    assert_eq!(r.pop(&mut t), Some(Pc(2)));
    assert_eq!(r.pop(&mut t), Some(Pc(1)));
    assert_eq!(r.pop(&mut t), None);
}

#[test]
fn ras_zero_depth_checkpoint_stays_empty() {
    let mut r = ReturnAddressStack::bounded(0);
    let mut t = RasTop::EMPTY;
    r.push(&mut t, Pc(1));
    let checkpoint = t;
    assert_eq!(checkpoint, RasTop::EMPTY);
    assert_eq!(t.depth(), 0);
    assert_eq!(r.pop(&mut t), None);
}

#[test]
fn ctb_aliased_pcs_clobber_each_other() {
    // A tag-less table: two PCs that differ only above the index bits map to
    // the same entry, so training one retrains the other.
    let ctb_bits = 4;
    let mut ctb = CorrelatedTargetBuffer::new(ctb_bits);
    let h = GlobalHistory::new();
    let a = Pc(3);
    let b = Pc(3 + (1 << ctb_bits));
    ctb.update(a, h, Pc(100));
    assert_eq!(ctb.predict(a, h), Some(Pc(100)));
    // The alias reads the same slot...
    assert_eq!(ctb.predict(b, h), Some(Pc(100)));
    // ...and writing it clobbers the original.
    ctb.update(b, h, Pc(200));
    assert_eq!(ctb.predict(a, h), Some(Pc(200)));
}

#[test]
fn ctb_history_xor_can_dealias() {
    // The same static jump under different global histories occupies
    // different slots, so a history that differs inside the index window
    // separates the two paths to an indirect jump.
    let mut ctb = CorrelatedTargetBuffer::new(4);
    let h0 = GlobalHistory::from(0b0001u64);
    let h1 = GlobalHistory::from(0b0010u64);
    ctb.update(Pc(5), h0, Pc(60));
    ctb.update(Pc(5), h1, Pc(70));
    assert_eq!(ctb.predict(Pc(5), h0), Some(Pc(60)));
    assert_eq!(ctb.predict(Pc(5), h1), Some(Pc(70)));
}

#[test]
fn confidence_saturates_and_single_reset_clears() {
    let h = GlobalHistory::new();
    let mut c = ConfidenceEstimator::new(6, 8);
    // Far past saturation: the counter must pin at its ceiling, not wrap.
    for _ in 0..1000 {
        c.update(Pc(42), h, true);
    }
    assert!(c.high_confidence(Pc(42), h));
    // One misprediction resets to zero regardless of how saturated it was.
    c.update(Pc(42), h, false);
    assert!(!c.high_confidence(Pc(42), h));
    // And it takes the full threshold count to become confident again.
    for i in 0..8 {
        assert!(!c.high_confidence(Pc(42), h), "confident after only {i}");
        c.update(Pc(42), h, true);
    }
    assert!(c.high_confidence(Pc(42), h));
}

#[test]
fn confidence_threshold_boundary_exact() {
    let h = GlobalHistory::new();
    for threshold in 1..=15u8 {
        let mut c = ConfidenceEstimator::new(4, threshold);
        for _ in 0..threshold - 1 {
            c.update(Pc(9), h, true);
        }
        assert!(!c.high_confidence(Pc(9), h), "threshold {threshold}");
        c.update(Pc(9), h, true);
        assert!(c.high_confidence(Pc(9), h), "threshold {threshold}");
    }
}

#[test]
fn confidence_aliasing_shares_counters() {
    // Like the CTB, the estimator is tag-less: an aliased branch inherits
    // (and can destroy) another branch's confidence.
    let h = GlobalHistory::new();
    let bits = 4;
    let mut c = ConfidenceEstimator::new(bits, 4);
    let a = Pc(1);
    let b = Pc(1 + (1 << bits));
    for _ in 0..4 {
        c.update(a, h, true);
    }
    assert!(c.high_confidence(b, h), "alias reads the same counter");
    c.update(b, h, false);
    assert!(!c.high_confidence(a, h), "alias reset destroys confidence");
}
