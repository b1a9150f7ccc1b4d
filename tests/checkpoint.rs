//! Checkpoint robustness: bit-exact roundtrips under arbitrary data,
//! and graceful skip-and-recompute under every kind of damage —
//! corruption, truncation, version drift, fingerprint mismatch. No
//! checkpoint state, however mangled, may ever panic the loader or
//! change a study's result.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use phaselab::core::{
    characterization_fingerprint, run_study_with_resumable, BenchCharacterization, BenchOutcome,
    CheckpointStore,
};
use phaselab::mica::{FeatureVector, NUM_FEATURES};
use phaselab::{catalog, Benchmark, StudyConfig, StudyResult, Suite};

/// Every sampled row's raw features, read through the accessor.
fn feature_rows(r: &StudyResult) -> Vec<&[f64]> {
    (0..r.sampled.len()).map(|row| r.feature_row(row)).collect()
}

fn temp_store(tag: &str) -> (CheckpointStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("phaselab-ckpt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store opens");
    (store, dir)
}

/// A deterministic 64-bit mixer (splitmix64) for reproducible "random"
/// corruption without a seeded RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any NaN-free characterization roundtrips through the store with
    /// every f64 bit preserved.
    #[test]
    fn characterization_roundtrip_is_bit_exact(
        fingerprint in 0u64..u64::MAX,
        n_inputs in 1usize..4,
        n_intervals in 1usize..6,
        scale in -1.0e12f64..1.0e12,
        total in 0u64..u64::MAX,
    ) {
        let per_input: Vec<Vec<FeatureVector>> = (0..n_inputs)
            .map(|i| {
                (0..n_intervals)
                    .map(|j| {
                        let mut v = [0.0f64; NUM_FEATURES];
                        for (f, x) in v.iter_mut().enumerate() {
                            // Deterministic, irregular, sign-mixed values.
                            *x = scale * ((i * 31 + j * 7 + f) as f64 * 0.618_033).sin();
                        }
                        FeatureVector::from_slice(&v)
                    })
                    .collect()
            })
            .collect();
        let outcome = BenchOutcome::Characterized(BenchCharacterization {
            per_input: per_input.clone(),
            total_instructions: total,
        });

        let (store, dir) = temp_store("prop-roundtrip");
        store.store_benchmark(fingerprint, Suite::Bmw, "prop", &outcome);
        let loaded = store
            .load_benchmark(fingerprint, Suite::Bmw, "prop")
            .expect("present");
        let BenchOutcome::Characterized(l) = loaded else {
            panic!("wrong variant");
        };
        prop_assert_eq!(l.total_instructions, total);
        prop_assert_eq!(l.per_input.len(), per_input.len());
        for (li, oi) in l.per_input.iter().zip(&per_input) {
            for (lf, of) in li.iter().zip(oi) {
                for (a, b) in lf.as_slice().iter().zip(of.as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit of a checkpoint file makes the loader
    /// return `None` (skip + warn) — never a panic, never garbage data
    /// accepted as valid.
    #[test]
    fn single_bit_flips_never_panic_or_pass(seed in 0u64..u64::MAX) {
        let (store, dir) = temp_store(&format!("bitflip-{seed:016x}"));
        let mut v = [0.0f64; NUM_FEATURES];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as f64).cos() * 3.5;
        }
        let outcome = BenchOutcome::Characterized(BenchCharacterization {
            per_input: vec![vec![FeatureVector::from_slice(&v); 2]],
            total_instructions: 77,
        });
        store.store_benchmark(5, Suite::Bmw, "victim", &outcome);
        let path = store.benchmark_path(5, Suite::Bmw, "victim");
        let pristine = fs::read(&path).expect("written");

        let mut state = seed;
        for _ in 0..32 {
            let bit = (splitmix(&mut state) as usize) % (pristine.len() * 8);
            let mut damaged = pristine.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &damaged).expect("rewritten");
            // Must not panic; must not accept the damaged payload unless
            // the flip landed somewhere the decoder legitimately cannot
            // see (there is no such place: header, payload and CRC cover
            // every byte) — so the load must be None.
            prop_assert!(store.load_benchmark(5, Suite::Bmw, "victim").is_none());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating a checkpoint at any length is skipped, never a panic.
    #[test]
    fn truncations_never_panic(cut_fraction in 0.0f64..1.0) {
        let (store, dir) = temp_store("truncate");
        let outcome = BenchOutcome::Characterized(BenchCharacterization {
            per_input: vec![vec![FeatureVector::zeros(); 3]],
            total_instructions: 9,
        });
        store.store_benchmark(8, Suite::BioPerf, "short", &outcome);
        let path = store.benchmark_path(8, Suite::BioPerf, "short");
        let pristine = fs::read(&path).expect("written");
        let cut = ((pristine.len() as f64) * cut_fraction) as usize;
        fs::write(&path, &pristine[..cut]).expect("rewritten");
        prop_assert!(store.load_benchmark(8, Suite::BioPerf, "short").is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn version_mismatch_is_skipped_with_warning_not_crash() {
    let (store, dir) = temp_store("version-skip");
    let outcome = BenchOutcome::Characterized(BenchCharacterization {
        per_input: vec![vec![FeatureVector::zeros(); 1]],
        total_instructions: 1,
    });
    store.store_benchmark(3, Suite::Bmw, "old-format", &outcome);
    let path = store.benchmark_path(3, Suite::Bmw, "old-format");
    let mut bytes = fs::read(&path).expect("written");
    // The version field sits at offset 4 (after the 4-byte magic) and is
    // outside the payload CRC, so this simulates a genuine old file.
    bytes[4] = bytes[4].wrapping_add(1);
    fs::write(&path, bytes).expect("rewritten");
    assert!(store.load_benchmark(3, Suite::Bmw, "old-format").is_none());
    let _ = fs::remove_dir_all(&dir);
}

fn two_suite_benches() -> Vec<Benchmark> {
    catalog()
        .into_iter()
        .filter(|b| matches!(b.suite(), Suite::Bmw))
        .collect()
}

#[test]
fn corrupted_store_degrades_to_recompute_with_identical_results() {
    // End-to-end never-crash guarantee: populate a store, mangle every
    // file in it, and re-run. The study must complete (exit path: warn,
    // recompute, rewrite) and match a checkpoint-free run bit for bit.
    let mut cfg = StudyConfig::smoke();
    cfg.threads = 2;
    let benches = two_suite_benches();
    let clean = run_study_with_resumable(&cfg, &benches, None, None).expect("clean study");

    let (store, dir) = temp_store("corrupt-study");
    run_study_with_resumable(&cfg, &benches, Some(&store), None).expect("populating run");

    // Mangle every checkpoint file: flip a byte in the middle.
    let mut mangled = 0;
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("readable") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let mut bytes = fs::read(&path).expect("readable file");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                fs::write(&path, bytes).expect("rewritten");
                mangled += 1;
            }
        }
    }
    assert!(mangled > 0, "the populating run wrote no checkpoints");

    let recovered = run_study_with_resumable(&cfg, &benches, Some(&store), None).expect("recovers");
    assert_eq!(feature_rows(&recovered), feature_rows(&clean));
    assert_eq!(recovered.sampled, clean.sampled);
    assert_eq!(
        recovered.clustering.assignments,
        clean.clustering.assignments
    );
    assert_eq!(
        recovered.clustering.bic.to_bits(),
        clean.clustering.bic.to_bits()
    );
    assert_eq!(recovered.key_characteristics, clean.key_characteristics);

    // The recovery rewrote good checkpoints: a further run reloads them.
    let reloaded =
        run_study_with_resumable(&cfg, &benches, Some(&store), None).expect("reload run");
    assert_eq!(feature_rows(&reloaded), feature_rows(&clean));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ablation_configs_share_only_compatible_checkpoints() {
    // The fingerprint must separate what differs and share what does
    // not: changing the sampling seed keeps the characterization
    // fingerprint (characterizations are seed-independent); changing the
    // interval length changes it.
    let a = StudyConfig::smoke();
    let mut seed_only = a.clone();
    seed_only.seed ^= 0xDEAD;
    let mut interval = a.clone();
    interval.interval_len *= 2;
    assert_eq!(
        characterization_fingerprint(&a),
        characterization_fingerprint(&seed_only)
    );
    assert_ne!(
        characterization_fingerprint(&a),
        characterization_fingerprint(&interval)
    );
}
