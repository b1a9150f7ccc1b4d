//! Structural determinism of the `phaselab-obs` run manifest.
//!
//! The manifest's structural sections (config, counters, gauges,
//! histograms, series, events) are a pure function of the study config
//! and seed: running the same study at 1, 2, and 4 threads must render
//! them byte-for-byte identically. Only the trailing `timings` section
//! may differ between runs.
//!
//! The obs registry is process-global, so every test here takes the
//! same mutex and resets the registry before running a study.

use std::sync::Mutex;

use phaselab::{run_study, run_study_resumable, CheckpointStore, StudyConfig, Suite};
use phaselab_obs::{manifest_json, structural_prefix, Json, Registry};

static OBS: Mutex<()> = Mutex::new(());

fn lock_obs() -> std::sync::MutexGuard<'static, ()> {
    OBS.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn smoke_cfg(threads: usize) -> StudyConfig {
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
    cfg.threads = threads;
    cfg
}

/// Runs the smoke study at the given thread count and renders the full
/// manifest (timings included) from a freshly reset registry.
fn study_manifest(threads: usize) -> (String, &'static Registry) {
    let reg = phaselab_obs::install();
    reg.reset();
    let cfg = smoke_cfg(threads);
    run_study(&cfg).expect("study runs");
    let config = vec![
        ("experiment".to_string(), Json::Str("obs-test".to_string())),
        ("seed".to_string(), Json::U64(cfg.seed)),
    ];
    (manifest_json(reg, &config, true), reg)
}

#[test]
fn structural_manifest_is_identical_across_thread_counts() {
    let _guard = lock_obs();
    let (reference, _) = study_manifest(1);
    assert!(
        reference.contains("\n  \"timings\":"),
        "full manifest must include timings"
    );
    let reference_structural = structural_prefix(&reference).to_string();
    assert!(
        !reference_structural.contains("\"timings\":"),
        "structural prefix must exclude timings"
    );
    for threads in [2, 4] {
        let (manifest, _) = study_manifest(threads);
        assert_eq!(
            structural_prefix(&manifest),
            reference_structural,
            "structural manifest diverged at {threads} threads"
        );
    }
}

#[test]
fn counters_reflect_the_study_shape() {
    let _guard = lock_obs();
    let (_, reg) = study_manifest(2);
    let benches = reg
        .counter_value("study.benchmarks.total")
        .expect("total counter");
    assert!(benches > 0, "study must select benchmarks");
    assert_eq!(reg.counter_value("study.benchmarks.done"), Some(benches));
    assert_eq!(
        reg.counter_value("study.benchmarks.characterized"),
        Some(benches),
        "smoke suites have no quarantine candidates"
    );
    assert_eq!(reg.counter_value("study.benchmarks.quarantined"), Some(0));
    // Every retired instruction is counted exactly once by the VM loop
    // and once by the pipeline summary.
    assert_eq!(
        reg.counter_value("vm.instructions"),
        reg.counter_value("study.instructions")
    );
}

#[test]
fn runaway_quarantine_is_structurally_deterministic() {
    // A study with the watchdog armed tightly enough to trip records the
    // quarantine in structural counters/events, and those sections stay
    // identical across thread counts too.
    let _guard = lock_obs();
    let run = |threads: usize| -> String {
        let reg = phaselab_obs::install();
        reg.reset();
        let mut cfg = smoke_cfg(threads);
        cfg.max_inst_per_bench = Some(1 << 40);
        run_study(&cfg).expect("study runs");
        manifest_json(reg, &[], true)
    };
    let reference = run(1);
    assert!(
        reference.contains("bench.budget_used_frac["),
        "armed watchdog must record budget gauges"
    );
    for threads in [2, 4] {
        let manifest = run(threads);
        assert_eq!(
            structural_prefix(&manifest),
            structural_prefix(&reference),
            "budget gauges diverged at {threads} threads"
        );
    }
}

/// The space's rows are grouped for k-means only when a restart misses
/// the store: a study whose every clustering loads from the store
/// records one hit per restart and no `kmeans.group` span.
#[test]
fn stored_clusterings_skip_the_row_grouping() {
    let _guard = lock_obs();
    let dir = std::env::temp_dir().join(format!("phaselab-obs-group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store opens");
    let cfg = smoke_cfg(2);
    let run = || -> (String, &'static Registry) {
        let reg = phaselab_obs::install();
        reg.reset();
        run_study_resumable(&cfg, Some(&store), None).expect("study runs");
        (manifest_json(reg, &[], true), reg)
    };
    let (filled, reg) = run();
    assert_eq!(reg.counter_value("checkpoint.clustering.hits"), None);
    assert!(filled.contains("kmeans.group"), "a cold store groups rows");
    let (warm, reg) = run();
    assert_eq!(
        reg.counter_value("checkpoint.clustering.hits"),
        Some(cfg.kmeans_restarts as u64)
    );
    assert_eq!(reg.counter_value("checkpoint.clustering.misses"), None);
    assert!(
        !warm.contains("kmeans.group"),
        "stored restarts need no grouping"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
