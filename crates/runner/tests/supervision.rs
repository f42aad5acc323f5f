//! Supervision-layer guarantees of the runner primitives: the memo's
//! panic-unpoisoning protocol under concurrent waiters, panic isolation in
//! `prefetch_isolated`, cache quarantine of corrupt files, and cache-write
//! errors surfacing as values.

use ci_core::PipelineConfig;
use ci_runner::engine::parse_cache_line;
use ci_runner::{CellSpec, Engine, EngineOptions, Memo, CACHE_FILE};
use ci_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ci-supervision-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tiny_spec(seed: u64) -> CellSpec {
    CellSpec::Study {
        workload: Workload::CompressLike,
        instructions: 400,
        seed,
    }
}

/// Satellite: the memo panic-unpoisoning race under concurrent waiters.
/// N threads pile onto one cell whose computation panics transiently; every
/// waiter must observe either the failure (its own retry panics) or the
/// eventual value — never a deadlock — and a subsequent compute succeeds.
#[test]
fn concurrent_waiters_survive_transient_compute_panics() {
    const THREADS: usize = 8;
    for round in 0..20 {
        let memo: Memo<u32, u64> = Memo::new();
        // The first `fails` compute attempts panic, later ones succeed.
        let fails = AtomicI64::new(3);
        let panics_seen = AtomicUsize::new(0);
        let gate = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    gate.wait();
                    loop {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            memo.get_or_compute(7, || {
                                // Hold the in-flight slot long enough for the
                                // other threads to pile up on the condvar.
                                std::thread::sleep(Duration::from_millis(2));
                                if fails.fetch_sub(1, Ordering::SeqCst) > 0 {
                                    panic!("transient compute failure");
                                }
                                42
                            })
                        }));
                        match r {
                            Ok((v, _)) => {
                                assert_eq!(v, 42, "round {round}");
                                return;
                            }
                            Err(_) => {
                                panics_seen.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            panics_seen.load(Ordering::SeqCst),
            3,
            "round {round}: exactly the budgeted failures must be observed"
        );
        assert_eq!(memo.len(), 1, "round {round}");
        // The slot is clean: a later lookup is a plain hit.
        let (v, computed) = memo.get_or_compute(7, || unreachable!());
        assert_eq!((v, computed), (42, false), "round {round}");
    }
}

/// With a persistently panicking computation, *every* concurrent waiter
/// observes the failure (no waiter sleeps forever on a poisoned slot), and
/// the key still accepts a successful compute afterwards.
#[test]
fn every_waiter_observes_a_persistent_failure() {
    const THREADS: usize = 8;
    let memo: Memo<u32, u64> = Memo::new();
    let observed = AtomicUsize::new(0);
    let gate = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                gate.wait();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    memo.get_or_compute(3, || -> u64 {
                        std::thread::sleep(Duration::from_millis(2));
                        panic!("persistent failure")
                    })
                }));
                assert!(r.is_err(), "a poisoned slot must fail, not hang");
                observed.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(observed.load(Ordering::SeqCst), THREADS);
    assert!(memo.is_empty(), "no value may be published by a failure");
    let (v, computed) = memo.get_or_compute(3, || 11);
    assert_eq!((v, computed), (11, true), "the key must recover");
}

/// A detailed cell the core rejects when it builds the pipeline: a
/// reorder-buffer segment of size zero.
fn panicking_cell() -> CellSpec {
    CellSpec::Detailed {
        workload: Workload::CompressLike,
        config: PipelineConfig {
            segment: 0,
            ..PipelineConfig::default()
        },
        instructions: 400,
        seed: 0,
    }
}

/// `prefetch_isolated` completes a batch in which one cell panics: the
/// panic is counted, every other cell lands in the memo with the serial
/// engine's output, and the panicked cell's key is unpoisoned, so asking
/// for it again panics again instead of hanging.
#[test]
fn prefetch_isolated_contains_a_panicking_cell() {
    let eng = Engine::with_workers(2);
    let mut specs: Vec<CellSpec> = (0..6).map(tiny_spec).collect();
    specs.insert(3, panicking_cell());
    specs.push(CellSpec::Detailed {
        workload: Workload::GoLike,
        config: PipelineConfig::ci(64),
        instructions: 400,
        seed: 0,
    });
    let stats = eng.prefetch_isolated(&specs);
    assert_eq!(stats.jobs, specs.len());
    assert_eq!(stats.panicked, 1);
    let reference = Engine::serial();
    for spec in specs.iter().filter(|&s| *s != panicking_cell()) {
        assert_eq!(eng.cell(spec), reference.cell(spec));
    }
    let again = catch_unwind(AssertUnwindSafe(|| eng.cell(&panicking_cell())));
    assert!(again.is_err(), "the bad cell must panic again, not hang");
}

/// Satellite: a cache file with corrupt lines is quarantined with a reason
/// header instead of silently rewritten; valid lines still load, and the
/// corrupt-line counter is surfaced through `RunMetrics`.
#[test]
fn corrupt_cache_file_is_quarantined_with_reason() {
    let tmp = TempDir::new("quarantine");
    let spec = tiny_spec(3);
    // Warm the cache with one valid cell.
    {
        let eng = Engine::new(EngineOptions {
            workers: 1,
            cache_dir: Some(tmp.0.clone()),
        });
        let _ = eng.cell(&spec);
        eng.save_cache().unwrap();
    }
    // Corrupt the file: keep the valid line, append garbage.
    let cache = tmp.0.join(CACHE_FILE);
    let mut text = std::fs::read_to_string(&cache).unwrap();
    let valid_line = text.lines().next().unwrap().to_owned();
    text.push_str("{\"key\":\"feedfacefeedface\",\"spec\":\"tampered\"}\n");
    text.push_str("not json at all\n");
    std::fs::write(&cache, &text).unwrap();

    let eng = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(tmp.0.clone()),
    });
    // The valid cell loaded; the corrupt lines were counted.
    assert_eq!(eng.cells_loaded(), 1);
    assert_eq!(eng.corrupt_lines(), 2);
    let quarantined = eng.quarantined_files();
    assert_eq!(quarantined.len(), 1, "one file quarantined");
    let qpath = &quarantined[0];
    assert!(qpath.starts_with(tmp.0.join("quarantine")));
    let qbody = std::fs::read_to_string(qpath).unwrap();
    assert!(qbody.starts_with("# quarantined cache file"));
    assert!(qbody.contains("# reason: 2 corrupt line(s), first at line 2"));
    assert!(
        qbody.contains("not json at all"),
        "the evidence is preserved verbatim"
    );
    // The original was moved out of the way...
    assert!(!cache.exists(), "corrupt cache must not stay in place");
    // ...the loaded cell still round-trips from memory...
    let (loaded_spec, loaded_out) = parse_cache_line(&valid_line).unwrap();
    assert_eq!(loaded_spec, spec.canonical());
    assert_eq!(eng.cell(&spec), loaded_out);
    // ...RunMetrics surfaces the event...
    let m = eng.run_metrics("test");
    assert_eq!((m.corrupt_lines, m.quarantined_files), (2, 1));
    let json = m.to_json().render();
    assert!(json.contains("\"corrupt_lines\":2"));
    assert!(json.contains("\"quarantined_files\":1"));
    // ...and a save rebuilds a clean cache that loads without complaint.
    eng.save_cache().unwrap();
    let eng2 = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(tmp.0.clone()),
    });
    assert_eq!(eng2.cells_loaded(), 1);
    assert_eq!(eng2.corrupt_lines(), 0);
    assert!(eng2.quarantined_files().is_empty());
}

/// A cache directory that cannot be created (the path is a regular file)
/// makes `save_cache` return the I/O error instead of panicking.
#[test]
fn cache_write_errors_are_returned() {
    let tmp = TempDir::new("writeerror");
    let not_a_dir = tmp.0.join("cells-dir");
    std::fs::write(&not_a_dir, "a regular file").unwrap();
    let eng = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(not_a_dir.clone()),
    });
    let _ = eng.cell(&tiny_spec(0));
    eng.save_cache()
        .expect_err("a file in place of the cache directory must fail the save");
    assert_eq!(
        std::fs::read_to_string(&not_a_dir).unwrap(),
        "a regular file",
        "the file in the way is left alone"
    );
}
