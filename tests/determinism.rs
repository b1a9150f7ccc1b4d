//! Reproducibility: every stage of the system is deterministic in its
//! seeds, end to end — including a study that is interrupted, then
//! resumed from its checkpoints.

use phaselab::{
    catalog, characterize_program, run_study, run_study_resumable, CancelToken, CheckpointStore,
    Scale, StudyConfig, StudyError, StudyResult, Suite,
};

/// Every sampled row's raw features, read through the accessor.
fn feature_rows(r: &StudyResult) -> Vec<&[f64]> {
    (0..r.sampled.len()).map(|row| r.feature_row(row)).collect()
}

#[test]
fn program_builds_are_bit_identical() {
    let all = catalog();
    for bench in all.iter().take(10) {
        let a = bench.build(Scale::Tiny, 0);
        let b = bench.build(Scale::Tiny, 0);
        assert_eq!(a, b, "{} build differs", bench.name());
    }
}

#[test]
fn characterization_is_bit_identical() {
    let all = catalog();
    let program = all[5].build(Scale::Tiny, 0);
    let (a, ia) = characterize_program(&program, 10_000, 1 << 40).expect("runs");
    let (b, ib) = characterize_program(&program, 10_000, 1 << 40).expect("runs");
    assert_eq!(ia, ib);
    assert_eq!(a, b);
}

#[test]
fn full_study_is_deterministic_across_thread_counts() {
    // The work queue distributes benchmarks across threads, but results
    // land by index, so parallelism must not affect the outcome.
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
    cfg.threads = 1;
    let serial = run_study(&cfg).expect("study runs");
    cfg.threads = 4;
    let parallel = run_study(&cfg).expect("study runs");
    assert_eq!(
        serial.clustering.assignments,
        parallel.clustering.assignments
    );
    assert_eq!(serial.key_characteristics, parallel.key_characteristics);
    assert_eq!(serial.ga_fitness, parallel.ga_fitness);
    assert_eq!(feature_rows(&serial), feature_rows(&parallel));
}

#[test]
fn interrupted_study_resumes_bit_identically() {
    // The tentpole acceptance bar: interrupt a checkpointing study
    // mid-characterization, resume it, and get bit-identical results to
    // a study that was never interrupted — at every thread count.
    let mut base = StudyConfig::smoke();
    base.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
    let mut reference_cfg = base.clone();
    reference_cfg.threads = 1;
    let reference = run_study(&reference_cfg).expect("uninterrupted study");

    for threads in [1usize, 2, 4] {
        let mut cfg = base.clone();
        cfg.threads = threads;
        let dir =
            std::env::temp_dir().join(format!("phaselab-resume-{}-t{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");

        // Trip the cancel token after four completed benchmark
        // characterizations: a deterministic stand-in for Ctrl-C
        // arriving mid-study. (12 benchmarks are selected, so the study
        // cannot finish before the trip.)
        let token = CancelToken::after(4);
        match run_study_resumable(&cfg, Some(&store), Some(&token)) {
            Err(StudyError::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }

        // Resume without a token: completes, and matches the
        // uninterrupted reference bit for bit.
        let resumed = run_study_resumable(&cfg, Some(&store), None).expect("resume completes");
        assert_eq!(feature_rows(&resumed), feature_rows(&reference));
        assert_eq!(resumed.sampled, reference.sampled);
        assert_eq!(
            resumed.clustering.assignments,
            reference.clustering.assignments
        );
        assert_eq!(
            resumed.clustering.bic.to_bits(),
            reference.clustering.bic.to_bits()
        );
        assert_eq!(resumed.key_characteristics, reference.key_characteristics);
        assert_eq!(resumed.ga_fitness.to_bits(), reference.ga_fitness.to_bits());
        assert_eq!(
            resumed
                .benchmarks
                .iter()
                .map(|b| b.name.clone())
                .collect::<Vec<_>>(),
            reference
                .benchmarks
                .iter()
                .map(|b| b.name.clone())
                .collect::<Vec<_>>()
        );

        // A second resume over the fully-populated store is pure reload
        // and still identical.
        let reloaded = run_study_resumable(&cfg, Some(&store), None).expect("full reload");
        assert_eq!(feature_rows(&reloaded), feature_rows(&resumed));
        assert_eq!(
            reloaded.clustering.assignments,
            resumed.clustering.assignments
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn different_seeds_change_sampling_but_not_characterization() {
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(vec![Suite::Bmw]);
    let a = run_study(&cfg).expect("study runs");
    cfg.seed = 1234;
    let b = run_study(&cfg).expect("study runs");
    // Same benchmarks, same interval counts (characterization is
    // seed-independent)…
    assert_eq!(
        a.benchmarks
            .iter()
            .map(phaselab::core::BenchmarkRun::total_intervals)
            .collect::<Vec<_>>(),
        b.benchmarks
            .iter()
            .map(phaselab::core::BenchmarkRun::total_intervals)
            .collect::<Vec<_>>(),
    );
    // …but a different interval sample.
    assert_ne!(a.sampled, b.sampled);
}
