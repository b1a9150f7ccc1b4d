//! Golden characterization: pins an FNV-1a digest of the interval
//! features of a fixed set of catalog programs at `Scale::Tiny`.
//!
//! The MICA analyzers are performance-critical and get rewritten for
//! speed; every such rewrite must be exact. The digests below were
//! recorded from the straightforward analyzer implementations, so any
//! analyzer change that moves a single feature bit of these programs
//! fails `cargo test`, not only the benchmark's reference check.

use phaselab::{catalog, characterize_program, Scale, Suite};

/// (suite, name, input, interval length, digest). The programs span
/// branch-heavy integer code, pointer chasing, streaming floating point
/// and media kernels; the interval lengths include one below the ILP
/// ring size and the study's 10k.
const GOLDEN: [(Suite, &str, &str, u64, u64); 6] = [
    (Suite::SpecInt2000, "mcf", "ref", 10_000, 0x8cbee154323180fc),
    (Suite::SpecInt2000, "gcc", "166", 10_000, 0x75dd208f9955e6a9),
    (Suite::SpecFp2006, "lbm", "ref", 10_000, 0x1a0b8e82b5fbd622),
    (
        Suite::MediaBench2,
        "jpeg",
        "enc",
        10_000,
        0x69b71fab7529bf17,
    ),
    (Suite::BioPerf, "hmmer", "ref", 7_000, 0xe9b16464d203d793),
    (Suite::Bmw, "face", "s100", 200, 0xe755ef626cbecd2c),
];

fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in bits {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn interval_features_match_golden_digests() {
    let all = catalog();
    let mut mismatches = Vec::new();
    for (suite, name, input, interval, want) in GOLDEN {
        let bench = all
            .iter()
            .find(|b| b.suite() == suite && b.name() == name)
            .unwrap_or_else(|| panic!("{name} is in the catalog"));
        let index = bench
            .input_names()
            .iter()
            .position(|i| *i == input)
            .unwrap_or_else(|| panic!("{name} has input {input}"));
        let program = bench.build(Scale::Tiny, index);
        let (intervals, instructions) =
            characterize_program(&program, interval, u64::MAX).expect("workloads never fault");
        assert!(
            intervals.len() >= 2,
            "{name}: {} intervals",
            intervals.len()
        );
        let got = fnv1a(
            std::iter::once(instructions).chain(
                intervals
                    .iter()
                    .flat_map(|fv| fv.as_slice().iter().map(|x| x.to_bits())),
            ),
        );
        if got != want {
            mismatches.push(format!("{name}/{input} @{interval}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "interval features changed: {mismatches:?}"
    );
}
