//! Chaos tests for the checkpoint store under deterministic fault
//! injection: torn writes, ENOSPC, failed renames, and EINTR storms
//! must all degrade to warn-and-recompute — never a panic, never a
//! frame a reader mistakes for valid data.
//!
//! Each test faults only its own store handle, writing through a
//! handle armed with a plan and checking repair through a clean handle
//! of the same directory, so the tests run in parallel.

use phaselab::core::faults::FaultPlan;
use phaselab::core::{BenchCharacterization, BenchOutcome, CheckpointStore};
use phaselab::mica::{FeatureVector, NUM_FEATURES};
use phaselab::Suite;

fn temp_store(tag: &str) -> (CheckpointStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("phaselab-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store opens");
    (store, dir)
}

/// A second handle on the store in `dir`, with `spec`'s faults injected
/// into its I/O.
fn faulty(dir: &std::path::Path, spec: &str) -> CheckpointStore {
    let plan = FaultPlan::parse(spec).expect("valid spec");
    CheckpointStore::open(dir)
        .expect("store opens")
        .with_faults(plan)
}

fn outcome(marker: f64) -> BenchOutcome {
    let mut v = [0.0f64; NUM_FEATURES];
    for (i, x) in v.iter_mut().enumerate() {
        *x = marker + i as f64;
    }
    BenchOutcome::Characterized(BenchCharacterization {
        per_input: vec![vec![FeatureVector::from_slice(&v)]],
        total_instructions: 1234,
    })
}

fn first_value(out: &BenchOutcome) -> f64 {
    match out {
        BenchOutcome::Characterized(c) => c.per_input[0][0].as_slice()[0],
        BenchOutcome::Quarantined(q) => panic!("unexpected quarantine: {q}"),
    }
}

#[test]
fn torn_writes_never_surface_as_valid_data() {
    let (store, dir) = temp_store("torn");
    let fp = 0xFEED;
    {
        let store = faulty(&dir, "seed=3,torn=1.0");
        store.store_benchmark(fp, Suite::Bmw, "torn-bench", &outcome(1.0));
        // Every write was torn: the loader must classify the prefix as
        // damage and recompute, not decode garbage.
        assert!(store.load_benchmark(fp, Suite::Bmw, "torn-bench").is_none());
    }
    // Through the clean handle, the same slot repairs cleanly.
    store.store_benchmark(fp, Suite::Bmw, "torn-bench", &outcome(2.0));
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "torn-bench")
        .expect("clean rewrite loads");
    assert!((first_value(&loaded) - 2.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_leaves_no_file_behind() {
    let (store, dir) = temp_store("enospc");
    let fp = 0xD15C;
    {
        let store = faulty(&dir, "seed=5,enospc=1.0");
        store.store_benchmark(fp, Suite::Bmw, "full-disk", &outcome(1.0));
        assert!(store.load_benchmark(fp, Suite::Bmw, "full-disk").is_none());
    }
    // The failed write is invisible: no checkpoint file, no tmp file
    // masquerading as one.
    let path = store.benchmark_path(fp, Suite::Bmw, "full-disk");
    assert!(!path.exists(), "ENOSPC write must not leave a frame behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_renames_are_recovered_after_disarm() {
    let (store, dir) = temp_store("rename");
    let fp = 0x4E4E;
    {
        let store = faulty(&dir, "seed=9,rename=1.0");
        store.store_benchmark(fp, Suite::Bmw, "rn", &outcome(1.0));
        assert!(store.load_benchmark(fp, Suite::Bmw, "rn").is_none());
    }
    store.store_benchmark(fp, Suite::Bmw, "rn", &outcome(3.0));
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "rn")
        .expect("recovers after the fault clears");
    assert!((first_value(&loaded) - 3.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eintr_storm_exhausts_the_retry_budget_gracefully() {
    let (store, dir) = temp_store("eintr");
    let fp = 0xE1;
    store.store_benchmark(fp, Suite::Bmw, "eintr", &outcome(1.0));
    {
        // Every read is interrupted, forever: the bounded retry loop
        // must give up and classify the slot as recompute, not spin.
        let store = faulty(&dir, "seed=11,eintr=1.0");
        assert!(store.load_benchmark(fp, Suite::Bmw, "eintr").is_none());
    }
    // The file itself was never damaged; it loads once the storm ends.
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "eintr")
        .expect("undamaged file loads after the storm");
    assert!((first_value(&loaded) - 1.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bounded_retries_outlast_a_bounded_eintr_burst() {
    let (store, dir) = temp_store("eintr-burst");
    let fp = 0xE2;
    store.store_benchmark(fp, Suite::Bmw, "burst", &outcome(7.0));
    {
        // Two injected EINTRs, then the filesystem behaves: the retry
        // loop (budget 3) must ride out the burst and return the data.
        let store = faulty(&dir, "seed=13,eintr=1.0,max=2");
        let loaded = store
            .load_benchmark(fp, Suite::Bmw, "burst")
            .expect("retries outlast the burst");
        assert!((first_value(&loaded) - 7.0).abs() < 1e-12);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_reads_are_retried_then_classified_as_damage() {
    let (store, dir) = temp_store("shortread");
    let fp = 0x5404;
    store.store_benchmark(fp, Suite::Bmw, "sr", &outcome(4.0));
    {
        let store = faulty(&dir, "seed=17,shortread=1.0");
        assert!(store.load_benchmark(fp, Suite::Bmw, "sr").is_none());
    }
    // A short read truncates the returned bytes, not the file.
    let loaded = store
        .load_benchmark(fp, Suite::Bmw, "sr")
        .expect("file intact once reads complete");
    assert!((first_value(&loaded) - 4.0).abs() < 1e-12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_low_probability_chaos_converges_to_a_full_store() {
    let (store, dir) = temp_store("mixed");
    let fp = 0x1357;
    let names: Vec<String> = (0..16).map(|i| format!("bench-{i}")).collect();
    {
        let store = faulty(
            &dir,
            "seed=21,torn=0.3,enospc=0.2,rename=0.2,eintr=0.2,shortread=0.2",
        );
        // Write-until-readable, exactly the study's recompute loop: a
        // slot whose write was eaten by a fault is simply written again
        // next round.
        for (i, name) in names.iter().enumerate() {
            for _attempt in 0..64 {
                if store.load_benchmark(fp, Suite::Bmw, name).is_some() {
                    break;
                }
                store.store_benchmark(fp, Suite::Bmw, name, &outcome(i as f64));
            }
        }
    }
    for (i, name) in names.iter().enumerate() {
        let loaded = store
            .load_benchmark(fp, Suite::Bmw, name)
            .unwrap_or_else(|| panic!("slot {name} must converge"));
        assert!((first_value(&loaded) - i as f64).abs() < 1e-12);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
