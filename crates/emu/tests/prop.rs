//! Property tests: execution semantics and wrong-path isolation.

use ci_emu::exec::{alu_result, branch_taken, effective_addr};
use ci_emu::{run_trace, Emulator, Memory};
use ci_isa::{Addr, Op, Pc, Reg};
use ci_workloads::random_program;
use proptest::prelude::*;

proptest! {
    #[test]
    fn alu_algebra(a in any::<u64>(), b in any::<u64>(), imm in any::<i64>()) {
        // Commutativity.
        prop_assert_eq!(alu_result(Op::Add, a, b, 0), alu_result(Op::Add, b, a, 0));
        prop_assert_eq!(alu_result(Op::Mul, a, b, 0), alu_result(Op::Mul, b, a, 0));
        prop_assert_eq!(alu_result(Op::Xor, a, b, 0), alu_result(Op::Xor, b, a, 0));
        // Xor is self-inverse.
        prop_assert_eq!(alu_result(Op::Xor, alu_result(Op::Xor, a, b, 0), b, 0), a);
        // Comparison results are boolean.
        prop_assert!(alu_result(Op::Slt, a, b, 0) <= 1);
        prop_assert!(alu_result(Op::Sltu, a, b, 0) <= 1);
        prop_assert!(alu_result(Op::Slti, a, 0, imm) <= 1);
        // Immediate forms agree with register forms.
        prop_assert_eq!(alu_result(Op::Addi, a, 0, imm), alu_result(Op::Add, a, imm as u64, 0));
    }

    #[test]
    fn branch_conditions_partition(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(branch_taken(Op::Beq, a, b), branch_taken(Op::Bne, a, b));
        prop_assert_ne!(branch_taken(Op::Blt, a, b), branch_taken(Op::Bge, a, b));
    }

    #[test]
    fn effective_addr_is_wrapping_add(base in any::<u64>(), imm in any::<i64>()) {
        prop_assert_eq!(effective_addr(base, imm).0, base.wrapping_add(imm as u64));
    }

    #[test]
    fn wrong_path_forks_never_mutate_parent(seed in 0u64..500, steps in 0usize..200, fork_pc in 0u32..50) {
        let p = random_program(seed, 60);
        let mut emu = Emulator::new(&p);
        for _ in 0..steps {
            if emu.halted() || emu.step().is_err() {
                break;
            }
        }
        let regs_before: Vec<u64> = Reg::all().map(|r| emu.reg(r)).collect();
        let pc_before = emu.pc();
        let mut wp = emu.fork_wrong_path(Pc(fork_pc));
        let _ = wp.run_until(|_| false, 300);
        let regs_after: Vec<u64> = Reg::all().map(|r| emu.reg(r)).collect();
        prop_assert_eq!(regs_before, regs_after);
        prop_assert_eq!(pc_before, emu.pc());
    }

    #[test]
    fn wrong_path_forks_never_mutate_parent_memory(
        seed in 0u64..500, steps in 0usize..200, fork_pc in 0u32..50
    ) {
        // The fork overlays its stores on the parent memory copy-on-write;
        // however much the wrong path writes, every parent address must read
        // back unchanged (random programs store to small absolute
        // addresses, so scanning a prefix of the address space sees them).
        let p = random_program(seed, 60);
        let mut emu = Emulator::new(&p);
        for _ in 0..steps {
            if emu.halted() || emu.step().is_err() {
                break;
            }
        }
        let mem_before: Vec<u64> = (0..256).map(|a| emu.memory().read(Addr(a))).collect();
        let pages_before = emu.memory().resident_pages();
        let mut wp = emu.fork_wrong_path(Pc(fork_pc));
        let _ = wp.run_until(|_| false, 300);
        let mem_after: Vec<u64> = (0..256).map(|a| emu.memory().read(Addr(a))).collect();
        prop_assert_eq!(mem_before, mem_after);
        prop_assert_eq!(pages_before, emu.memory().resident_pages());
    }

    #[test]
    fn random_program_is_deterministic(seed in any::<u64>(), size in 4usize..200) {
        // Same (seed, size_hint) → bit-identical program: fuzz artifacts and
        // property-test counterexamples replay from the two integers alone.
        prop_assert_eq!(random_program(seed, size), random_program(seed, size));
    }

    #[test]
    fn trace_is_deterministic(seed in 0u64..500, max in 1u64..5_000) {
        // Two independent emulations of the same program must retire the
        // identical dynamic instruction stream (the pipeline's oracle
        // depends on this).
        let p = random_program(seed, 80);
        let t1 = run_trace(&p, max);
        let t2 = run_trace(&p, max);
        match (t1, t2) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn image_fill_matches_word_by_word_writes(
        words in prop::collection::vec((0usize..3, 0u64..1500, any::<u64>()), 0..200)
    ) {
        // Three bases (one at the top of the address space) and 1500-word
        // spans cross page boundaries, so an image mixes same-page runs,
        // duplicate addresses and pages revisited out of order; the bulk
        // fill must agree with sequential writes, last write winning.
        let bases = [0u64, 0x4000, u64::MAX - 1499];
        let image: Vec<(Addr, u64)> = words
            .iter()
            .map(|&(b, off, v)| (Addr(bases[b] + off), v))
            .collect();
        let filled = Memory::with_image(&image);
        let mut written = Memory::new();
        for &(a, v) in &image {
            written.write(a, v);
        }
        prop_assert_eq!(filled.resident_pages(), written.resident_pages());
        for base in bases {
            for off in 0..1500 {
                let a = Addr(base + off);
                prop_assert_eq!(filled.read(a), written.read(a));
            }
        }
    }
}
