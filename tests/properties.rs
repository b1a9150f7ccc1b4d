//! Property-based tests over the VM, the characterizer and the
//! statistics substrate.

use proptest::prelude::*;

use phaselab::mica::{IntervalCharacterizer, NUM_FEATURES};
use phaselab::stats::{
    jacobi_eigen, kmeans, kmeans_reference, normalize_columns, pearson, KmeansConfig, Matrix, Pca,
    RunningColumnStats, RunningCovariance,
};
use phaselab::trace::TraceSink;
use phaselab::vm::{regs::*, Asm, DataBuilder, Vm};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any arithmetic-loop program halts, and the characterizer emits
    /// bounded features for it.
    #[test]
    fn arbitrary_loops_characterize_cleanly(
        iters in 1u64..2_000,
        stride in 1i64..64,
        seed in 0u64..1_000,
    ) {
        let mut data = DataBuilder::new();
        // The walker below reaches buf + 0x7FFF + 0xFFF8 at most.
        let buf = data.alloc_bytes(128 * 1024);
        let mut asm = Asm::new();
        asm.li(T0, iters as i64);
        asm.li(T1, buf as i64);
        asm.li(T2, seed as i64);
        asm.label("loop");
        // Mix of ALU, memory (stride-bounded) and branch work.
        asm.muli(T2, T2, 6364136223846793005);
        asm.addi(T2, T2, 1442695040888963407);
        asm.srli(T3, T2, 40);
        asm.andi(T3, T3, 0xFFF8);
        asm.add(T4, T1, T3);
        asm.ld(T5, T4, 0);
        asm.xor(T5, T5, T2);
        asm.sd(T5, T4, 0);
        asm.addi(T1, T1, stride * 8 % 4096);
        asm.andi(T1, T1, 0x7FFF);
        asm.addi(T0, T0, -1);
        asm.bne(T0, ZERO, "loop");
        asm.halt();
        let program = asm.assemble(data).unwrap();

        let mut chr = IntervalCharacterizer::new(500).keep_tail(true);
        let mut vm = Vm::new(&program);
        let out = vm.run(&mut chr, 10_000_000).unwrap();
        prop_assert!(out.halted);
        chr.finish();
        for fv in chr.features() {
            let f = fv.as_slice();
            prop_assert_eq!(f.len(), NUM_FEATURES);
            prop_assert!(f.iter().all(|v| v.is_finite()));
            let mix: f64 = f[0..20].iter().sum();
            prop_assert!((mix - 1.0).abs() < 1e-9);
        }
    }

    /// PCA on random matrices: variance is preserved and components are
    /// ordered.
    #[test]
    fn pca_variance_accounting(rows in 4usize..24, cols in 2usize..8, seed in 0u64..500) {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| next()).collect())
            .collect();
        let m = Matrix::from_rows(&data);
        let pca = Pca::fit(&m);
        // Ordered variances.
        for w in pca.variances().windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // Total variance preserved (trace of covariance).
        let cov = m.covariance();
        let trace: f64 = (0..cols).map(|i| cov.get(i, i)).sum();
        let sum: f64 = pca.variances().iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
    }

    /// Jacobi eigenvalues of A + A^T (symmetric) sum to its trace.
    #[test]
    fn eigen_trace_identity(vals in proptest::collection::vec(-10.0f64..10.0, 9)) {
        let a = Matrix::from_vec(3, 3, vals);
        let mut sym = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                sym.set(i, j, f64::midpoint(a.get(i, j), a.get(j, i)));
            }
        }
        let eig = jacobi_eigen(&sym);
        let trace: f64 = (0..3).map(|i| sym.get(i, i)).sum();
        let sum: f64 = eig.eigenvalues.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-9 * trace.abs().max(1.0));
    }

    /// k-means: assignments always index valid clusters and sizes add up.
    #[test]
    fn kmeans_partition_invariants(
        n in 4usize..40,
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()])
            .collect();
        let m = Matrix::from_rows(&rows);
        let k = k.min(n);
        let c = kmeans(&m, &KmeansConfig::new(k).with_seed(seed));
        prop_assert_eq!(c.assignments.len(), n);
        prop_assert!(c.assignments.iter().all(|&a| a < k));
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), n);
        prop_assert!(c.inertia >= 0.0);
    }

    /// The bound-pruned, parallel k-means is bit-identical to the naive
    /// full-scan reference — same assignments, sizes and centroids, same
    /// inertia and BIC down to the last bit — for any thread count.
    #[test]
    fn kmeans_pruned_matches_naive_reference(
        n in 5usize..60,
        cols in 1usize..6,
        k in 1usize..8,
        restarts in 1usize..3,
        seed in 0u64..1_000,
    ) {
        // Deterministic pseudo-random matrix derived from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        };
        let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..cols).map(|_| next()).collect()).collect();
        let m = Matrix::from_rows(&rows);
        let k = k.min(n);
        let base = KmeansConfig::new(k)
            .with_restarts(restarts)
            .with_max_iters(30)
            .with_seed(seed);
        let reference = kmeans_reference(&m, &base);
        for threads in [1usize, 2, 4] {
            let pruned = kmeans(&m, &base.clone().with_threads(threads));
            prop_assert_eq!(&pruned.assignments, &reference.assignments, "threads = {}", threads);
            prop_assert_eq!(&pruned.sizes, &reference.sizes, "threads = {}", threads);
            for (got, want) in pruned.centroids.iter_rows().zip(reference.centroids.iter_rows()) {
                let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got), bits(want), "threads = {}", threads);
            }
            prop_assert_eq!(pruned.inertia.to_bits(), reference.inertia.to_bits(), "threads = {}", threads);
            prop_assert_eq!(pruned.bic.to_bits(), reference.bic.to_bits(), "threads = {}", threads);
        }
    }

    /// Normalization then Pearson self-correlation is exactly 1 for any
    /// non-constant column.
    #[test]
    fn normalize_then_self_correlate(vals in proptest::collection::vec(-100.0f64..100.0, 8)) {
        prop_assume!(vals.iter().any(|&v| (v - vals[0]).abs() > 1e-6));
        let m = Matrix::from_rows(&vals.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let (normed, _) = normalize_columns(&m);
        let col = normed.column(0);
        let r = pearson(&col, &vals);
        prop_assert!((r - 1.0).abs() < 1e-9);
    }

    /// One-pass Welford column statistics match the two-pass textbook
    /// reference within relative 1e-9, for any row order, and a
    /// two-accumulator merge matches pushing everything into one.
    #[test]
    fn streaming_column_stats_match_two_pass_reference(
        rows in 2usize..40,
        cols in 1usize..8,
        seed in 0u64..1_000,
        split_frac in 0.0f64..1.0,
    ) {
        let data = pseudo_matrix(rows, cols, seed);
        let perm = pseudo_permutation(rows, seed ^ 0xA5A5);

        // Two-pass reference on the original data (order-free).
        let (ref_means, ref_stds) = two_pass_stats(&data);

        // One accumulator, rows pushed in permuted order.
        let mut acc = RunningColumnStats::new(cols);
        for &r in &perm {
            acc.push(&data[r]);
        }
        let one = acc.finalize();

        // Two accumulators over a split of the permutation, merged.
        let split = ((rows as f64 * split_frac) as usize).min(rows);
        let mut left = RunningColumnStats::new(cols);
        let mut right = RunningColumnStats::new(cols);
        for &r in &perm[..split] {
            left.push(&data[r]);
        }
        for &r in &perm[split..] {
            right.push(&data[r]);
        }
        left.merge(&right);
        let merged = left.finalize();

        for j in 0..cols {
            prop_assert!(close(one.means[j], ref_means[j], 1e-9), "mean[{}]", j);
            prop_assert!(close(one.stds[j], ref_stds[j], 1e-9), "std[{}]", j);
            prop_assert!(close(merged.means[j], ref_means[j], 1e-9), "merged mean[{}]", j);
            prop_assert!(close(merged.stds[j], ref_stds[j], 1e-9), "merged std[{}]", j);
        }
    }

    /// The one-pass covariance accumulator matches the two-pass
    /// reference within relative 1e-9, under row permutations and
    /// accumulator merges.
    #[test]
    fn streaming_covariance_matches_two_pass_reference(
        rows in 2usize..40,
        cols in 1usize..6,
        seed in 0u64..1_000,
        split_frac in 0.0f64..1.0,
    ) {
        let data = pseudo_matrix(rows, cols, seed);
        let perm = pseudo_permutation(rows, seed ^ 0x5A5A);
        let reference = two_pass_covariance(&data);

        let mut acc = RunningCovariance::new(cols);
        for &r in &perm {
            acc.push(&data[r]);
        }
        let one = acc.covariance();

        let split = ((rows as f64 * split_frac) as usize).min(rows);
        // Both halves need at least one row for a meaningful merge, but
        // empty halves must also be legal — merge handles both.
        let mut left = RunningCovariance::new(cols);
        let mut right = RunningCovariance::new(cols);
        for &r in &perm[..split] {
            left.push(&data[r]);
        }
        for &r in &perm[split..] {
            right.push(&data[r]);
        }
        left.merge(&right);
        let merged = left.covariance();

        for i in 0..cols {
            for j in 0..cols {
                prop_assert!(
                    close(one.get(i, j), reference.get(i, j), 1e-9),
                    "cov[{},{}] {} vs {}", i, j, one.get(i, j), reference.get(i, j)
                );
                prop_assert!(
                    close(merged.get(i, j), reference.get(i, j), 1e-9),
                    "merged cov[{},{}]", i, j
                );
            }
        }
    }
}

/// Relative closeness with an absolute floor for near-zero values.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Deterministic pseudo-random matrix with per-column scale spread
/// (columns span several orders of magnitude, exercising the
/// accumulators away from unit scale).
fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    (0..rows)
        .map(|_| {
            (0..cols)
                .map(|j| next() * 10f64.powi(j as i32 - 2))
                .collect()
        })
        .collect()
}

/// Deterministic Fisher–Yates permutation of `0..n`.
fn pseudo_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Textbook two-pass mean and sample standard deviation, the reference
/// the streaming accumulators are tested against.
fn two_pass_stats(data: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let n = data.len();
    let cols = data[0].len();
    let mut means = vec![0.0; cols];
    for row in data {
        for (m, &v) in means.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n as f64;
    }
    let mut stds = vec![0.0; cols];
    if n >= 2 {
        for row in data {
            for ((s, &v), &m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / (n - 1) as f64).sqrt();
        }
    }
    (means, stds)
}

/// Textbook two-pass sample covariance (the `/(n-1)` convention).
fn two_pass_covariance(data: &[Vec<f64>]) -> Matrix {
    let n = data.len();
    let cols = data[0].len();
    let (means, _) = two_pass_stats(data);
    let mut cov = Matrix::zeros(cols, cols);
    for row in data {
        for i in 0..cols {
            for j in 0..cols {
                let v = cov.get(i, j) + (row[i] - means[i]) * (row[j] - means[j]);
                cov.set(i, j, v);
            }
        }
    }
    for i in 0..cols {
        for j in 0..cols {
            cov.set(i, j, cov.get(i, j) / (n - 1) as f64);
        }
    }
    cov
}

/// A sink that counts observations, used to assert the VM's budget
/// handling from outside the crate.
#[derive(Default)]
struct Counter(u64);

impl TraceSink for Counter {
    fn observe(&mut self, _rec: &phaselab::InstRecord) {
        self.0 += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The VM executes exactly `min(budget, program length)` instructions
    /// for straight-line code.
    #[test]
    fn vm_budget_is_exact(n in 1usize..200, budget in 1u64..400) {
        let mut asm = Asm::new();
        for _ in 0..n {
            asm.nop();
        }
        asm.halt();
        let program = asm.assemble(DataBuilder::new()).unwrap();
        let mut vm = Vm::new(&program);
        let mut sink = Counter::default();
        let out = vm.run(&mut sink, budget).unwrap();
        let expected = budget.min(n as u64 + 1);
        prop_assert_eq!(out.instructions, expected);
        prop_assert_eq!(sink.0, expected);
        prop_assert_eq!(out.halted, budget > n as u64);
    }
}
