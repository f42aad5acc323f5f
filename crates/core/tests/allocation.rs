//! The cycle loop's allocation census: a detailed run performs a bounded
//! number of heap allocations per retired instruction.
//!
//! A counting global allocator wraps the system one for this test binary
//! only; the libraries keep `forbid(unsafe_code)`. The file holds a single
//! test, so no other test thread allocates while a run is being counted.

use ci_core::{ArchRef, Pipeline, PipelineConfig};
use ci_obs::{NoopProbe, NoopProfiler};
use ci_workloads::{Workload, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic with no other effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations (including reallocations) one detailed run may
/// make per retired instruction, counting the pipeline's construction. The
/// per-instruction structures are pooled, so what remains is the growth of
/// the per-run tables (physical registers, return-address nodes) and the
/// set-up itself.
const MAX_PER_RETIRED: f64 = 0.05;

#[test]
fn detailed_runs_allocate_little_per_retired_instruction() {
    for w in [Workload::GccLike, Workload::GoLike] {
        let n = 20_000;
        let program = w.build(&WorkloadParams {
            scale: w.scale_for(n),
            seed: 0x5EED,
        });
        let reference = ArchRef::build(program, n).expect("workload runs");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats =
            Pipeline::new(&reference, PipelineConfig::ci(256), NoopProbe, NoopProfiler).run();
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let per = made as f64 / stats.retired as f64;
        eprintln!(
            "{w}: {made} allocations over {} retired ({per:.4} per instruction)",
            stats.retired
        );
        assert!(
            per <= MAX_PER_RETIRED,
            "{w}: {per:.4} allocations per retired instruction (at most {MAX_PER_RETIRED})"
        );
    }
}
