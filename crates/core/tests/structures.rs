//! Focused tests for the pipeline's supporting structures and smaller
//! behaviours that the end-to-end tests exercise only indirectly.

use ci_core::rob::{Rob, SegCursor};
use ci_core::{simulate, CacheModel, DataCache, MapTable, PhysReg, PhysRegFile, PipelineConfig};
use ci_isa::{Addr, Asm, Reg};

#[test]
fn rob_interleaved_insert_remove_keeps_order() {
    let mut rob: Rob<u32> = Rob::new(1);
    let ids: Vec<_> = (0..20).map(|i| rob.push_back(i)).collect();
    // Remove every third, then insert between the survivors.
    for (i, id) in ids.iter().enumerate() {
        if i % 3 == 0 {
            rob.remove(*id);
        }
    }
    let mut cur = SegCursor::default();
    let survivors: Vec<_> = rob.iter().collect();
    for (n, id) in survivors.iter().enumerate() {
        rob.insert_after(*id, 100 + n as u32, &mut cur);
    }
    // Keys must remain strictly increasing along the list.
    let keys: Vec<u64> = rob.iter().map(|id| rob.key(id)).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(rob.len(), survivors.len() * 2);
}

#[test]
fn rob_randomized_against_vec_model() {
    // Model-based test: the ROB must behave like a plain Vec under a
    // deterministic pseudo-random op sequence.
    let mut rob: Rob<u64> = Rob::new(1);
    let mut model: Vec<(ci_core::rob::InstId, u64)> = Vec::new();
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cursor = SegCursor::default();
    for step in 0..2_000u64 {
        match rng() % 4 {
            0 | 1 => {
                let id = rob.push_back(step);
                model.push((id, step));
            }
            2 if !model.is_empty() => {
                let pos = (rng() % model.len() as u64) as usize;
                let (at, _) = model[pos];
                let id = rob.insert_after(at, step + 1_000_000, &mut cursor);
                model.insert(pos + 1, (id, step + 1_000_000));
            }
            _ if !model.is_empty() => {
                let pos = (rng() % model.len() as u64) as usize;
                let (id, v) = model.remove(pos);
                assert_eq!(*rob.get(id), v);
                rob.remove(id);
            }
            _ => {}
        }
        assert_eq!(rob.len(), model.len());
    }
    let got: Vec<u64> = rob.iter().map(|id| *rob.get(id)).collect();
    let want: Vec<u64> = model.iter().map(|(_, v)| *v).collect();
    assert_eq!(got, want);
}

#[test]
fn phys_regfile_versions_monotonic() {
    let mut f = PhysRegFile::new();
    let p = f.alloc();
    let mut last = f.version(p);
    for i in 0..100 {
        f.write(p, i, false);
        let v = f.version(p);
        assert!(v != last);
        last = v;
    }
}

#[test]
fn map_table_clone_isolation() {
    let mut a = MapTable::initial();
    let b = a.clone();
    a.set(Reg::R4, PhysReg(99));
    assert_eq!(a.get(Reg::R4), PhysReg(99));
    assert_eq!(b.get(Reg::R4), PhysReg(4));
}

#[test]
fn cache_capacity_behaviour() {
    // Working set fits: after warmup, everything hits.
    let mut c = DataCache::new(CacheModel::paper_realistic());
    for round in 0..3 {
        for a in 0..1000u64 {
            let lat = c.access(Addr(a));
            if round > 0 {
                assert_eq!(lat, 2, "addr {a} should hit after warmup");
            }
        }
    }
    // Working set 100x the cache: mostly misses.
    let mut c2 = DataCache::new(CacheModel::paper_realistic());
    for a in 0..800_000u64 {
        c2.access(Addr(a * 7));
    }
    let (h, m) = c2.stats();
    assert!(m > h, "streaming should mostly miss: {h} hits {m} misses");
}

#[test]
fn division_heavy_code_verifies() {
    // Long-latency units interacting with branches and reissue.
    let mut a = Asm::new();
    a.li(Reg::R1, 60);
    a.li(Reg::R2, 7);
    a.label("top").unwrap();
    a.div(Reg::R3, Reg::R1, Reg::R2);
    a.mul(Reg::R4, Reg::R3, Reg::R2);
    a.sub(Reg::R5, Reg::R1, Reg::R4); // remainder
    a.beq(Reg::R5, Reg::R0, "skip");
    a.addi(Reg::R6, Reg::R6, 1);
    a.label("skip").unwrap();
    a.addi(Reg::R1, Reg::R1, -1);
    a.bne(Reg::R1, Reg::R0, "top");
    a.halt();
    let p = a.assemble().unwrap();
    let s = simulate(&p, PipelineConfig::ci(64), 10_000).unwrap();
    assert!(s.retired > 300);
}

#[test]
fn zero_register_semantics_through_the_pipeline() {
    let mut a = Asm::new();
    a.addi(Reg::R0, Reg::R0, 99); // discarded
    a.add(Reg::R1, Reg::R0, Reg::R0); // 0
    a.store(Reg::R1, Reg::R0, 0x10);
    a.load(Reg::R2, Reg::R0, 0x10);
    a.beq(Reg::R2, Reg::R0, "ok");
    a.li(Reg::R3, 1); // must never execute architecturally
    a.label("ok").unwrap();
    a.halt();
    let p = a.assemble().unwrap();
    // The checker validates every retired value; completing is the proof.
    let s = simulate(&p, PipelineConfig::ci(32), 100).unwrap();
    assert_eq!(s.retired, 6);
}

#[test]
fn window_of_width_one_segment_still_works() {
    // Segment size equal to the whole window: maximal fragmentation.
    let p = ci_workloads::random_program(77, 60);
    let s = simulate(
        &p,
        PipelineConfig {
            segment: 32,
            ..PipelineConfig::ci(32)
        },
        10_000,
    )
    .unwrap();
    assert!(s.retired > 0);
}
