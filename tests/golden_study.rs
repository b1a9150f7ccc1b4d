//! Golden study: pins an FNV-1a digest of one smoke study's analysis
//! outputs — the first normalization, the PCA variances, the rescaled
//! PCA space, the cluster assignments and the GA's key characteristics
//! and fitness.
//!
//! The statistics and GA kernels get rewritten for speed, and every
//! such rewrite must be exact. The relative tests (thread counts,
//! analysis modes, resume) compare two runs of the *same*
//! kernels, so a change that moves both sides alike passes them. The
//! digest below was recorded from the straightforward kernels, so a
//! change that moves a single output bit fails `cargo test`.

use std::fs;

use phaselab::core::CheckpointStore;
use phaselab::{run_study, run_study_resumable, AnalysisMode, StudyConfig, StudyResult, Suite};

const GOLDEN: u64 = 0x03a5394686fb3322;

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn config() -> StudyConfig {
    let mut cfg = StudyConfig::smoke();
    cfg.suites = Some(vec![Suite::Bmw, Suite::MediaBench2]);
    cfg
}

fn digest(r: &StudyResult) -> u64 {
    let norm = r.feature_norm();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut words = Vec::new();
    words.extend(bits(&norm.means));
    words.extend(bits(&norm.stds));
    words.extend(bits(r.pca().variances()));
    words.extend([r.space().rows() as u64, r.space().cols() as u64]);
    for row in r.space().iter_rows() {
        words.extend(bits(row));
    }
    words.extend(r.clustering.assignments.iter().map(|&a| a as u64));
    words.extend(r.key_characteristics.iter().map(|&k| k as u64));
    words.push(r.ga_fitness.to_bits());
    fnv1a(words)
}

#[test]
fn smoke_study_matches_golden_digest_in_ram_and_streaming() {
    let in_ram = run_study(&config()).expect("in-RAM study");
    assert!(in_ram.prominent.len() >= 3, "the GA must run");

    let dir = std::env::temp_dir().join(format!("phaselab-golden-study-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("store opens");
    let mut cfg = config();
    cfg.analysis = AnalysisMode::Streaming;
    let streamed = run_study_resumable(&cfg, Some(&store), None);
    let _ = fs::remove_dir_all(&dir);
    let streamed = streamed.expect("streaming study");

    let (a, b) = (digest(&in_ram), digest(&streamed));
    assert_eq!(a, b, "in-RAM and streaming studies diverged");
    assert_eq!(a, GOLDEN, "study outputs changed: {a:#018x}");
}
