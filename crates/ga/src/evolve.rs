//! The multi-population genetic algorithm.
//!
//! Fitness evaluation — by far the dominant cost — is batched and runs on
//! the shared `phaselab-par` executor: each generation first breeds every
//! child with the sequential RNG stream, then scores the whole brood in
//! parallel. Scoring never touches the RNG, so the evolution trajectory
//! (and therefore the result) is bit-identical for every thread count.
//! Each distinct mask is scored once per run: a brood sends only masks
//! not seen before to the executor, and repeats take the stored score.

use phaselab_par::{effective_threads, parallel_map};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Configuration for [`select_features`].
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Number of independent populations (migration moves solutions
    /// between them).
    pub populations: usize,
    /// Genomes per population.
    pub population_size: usize,
    /// Stop after this many generations without fitness improvement.
    pub patience: usize,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Per-gene mutation probability (a mutation swaps a selected gene
    /// with an unselected one, preserving the selection count).
    pub mutation_rate: f64,
    /// Fraction of each next generation produced by crossover (the rest
    /// are mutated copies of selected parents).
    pub crossover_rate: f64,
    /// Migrate the best genome between populations every this many
    /// generations.
    pub migration_interval: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for fitness evaluation (0 = all cores). Results
    /// never depend on this.
    pub threads: usize,
}

impl GaConfig {
    /// The defaults used by the full study: 4 populations × 32 genomes,
    /// patience 12, up to 120 generations.
    pub fn study(seed: u64) -> Self {
        GaConfig {
            populations: 4,
            population_size: 32,
            patience: 12,
            max_generations: 120,
            mutation_rate: 0.08,
            crossover_rate: 0.6,
            migration_interval: 8,
            seed,
            threads: 1,
        }
    }

    /// A small, fast configuration for tests and smoke runs.
    pub fn fast(seed: u64) -> Self {
        GaConfig {
            populations: 2,
            population_size: 12,
            patience: 6,
            max_generations: 30,
            mutation_rate: 0.1,
            crossover_rate: 0.6,
            migration_interval: 4,
            seed,
            threads: 1,
        }
    }

    /// Sets the worker thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`GaConfigError`] describing the first contradictory
    /// setting: no populations, fewer than two genomes per population, a
    /// rate outside `[0, 1]`, or a zero migration interval.
    pub fn validate(&self) -> Result<(), GaConfigError> {
        if self.populations == 0 {
            return Err(GaConfigError::NoPopulations);
        }
        if self.population_size < 2 {
            return Err(GaConfigError::PopulationTooSmall {
                population_size: self.population_size,
            });
        }
        for (name, rate) in [
            ("mutation_rate", self.mutation_rate),
            ("crossover_rate", self.crossover_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(GaConfigError::RateOutOfRange { name, rate });
            }
        }
        if self.migration_interval == 0 {
            return Err(GaConfigError::ZeroMigrationInterval);
        }
        Ok(())
    }
}

/// An invalid [`GaConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum GaConfigError {
    /// `populations` is zero.
    NoPopulations,
    /// `population_size` is below two (selection needs parents).
    PopulationTooSmall {
        /// The configured population size.
        population_size: usize,
    },
    /// A probability parameter lies outside `[0, 1]`.
    RateOutOfRange {
        /// Name of the offending field.
        name: &'static str,
        /// Its value.
        rate: f64,
    },
    /// `migration_interval` is zero.
    ZeroMigrationInterval,
}

impl std::fmt::Display for GaConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GaConfigError::NoPopulations => write!(f, "need at least one population"),
            GaConfigError::PopulationTooSmall { population_size } => {
                write!(f, "population size {population_size} below minimum of 2")
            }
            GaConfigError::RateOutOfRange { name, rate } => {
                write!(f, "{name} {rate} outside [0, 1]")
            }
            GaConfigError::ZeroMigrationInterval => {
                write!(f, "migration interval must be positive")
            }
        }
    }
}

impl std::error::Error for GaConfigError {}

/// The outcome of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// The best mask found (`true` = characteristic selected).
    pub genome: Vec<bool>,
    /// Its fitness.
    pub fitness: f64,
    /// Generations executed.
    pub generations: usize,
    /// Genomes scored, counting a repeated mask each time it is bred
    /// (the fitness function itself runs once per distinct mask).
    pub evaluations: usize,
}

/// Selects exactly `k` of `num_genes` features maximizing `fitness`,
/// using a multi-population GA with mutation, crossover and migration
/// (§2.7 of the paper). Every candidate genome has exactly `k` genes set;
/// mutation and crossover preserve that invariant (offspring are
/// repaired).
///
/// Fitness calls are batched per generation and evaluated on up to
/// `cfg.threads` workers (0 = all cores); breeding stays sequential, so
/// the outcome is identical for every thread count. `fitness` must be a
/// pure function of the mask: it is called once per distinct mask, while
/// [`GaResult::evaluations`] counts every genome scored, repeats
/// included.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds `num_genes`, or if the configuration
/// has no populations or genomes.
pub fn select_features(
    num_genes: usize,
    k: usize,
    fitness: &(dyn Fn(&[bool]) -> f64 + Sync),
    cfg: &GaConfig,
) -> GaResult {
    assert!(k > 0 && k <= num_genes, "k out of range");
    assert!(
        cfg.populations > 0 && cfg.population_size > 1,
        "degenerate GA configuration"
    );

    let _span = phaselab_obs::span!("ga.select");
    let threads = effective_threads(cfg.threads);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut evaluations = 0usize;

    // Initialize populations with random k-masks: breed every genome
    // first (sequential RNG), then score the whole batch in parallel.
    let init_masks: Vec<Vec<bool>> = (0..cfg.populations * cfg.population_size)
        .map(|_| random_mask(num_genes, k, &mut rng))
        .collect();
    let mut memo = Memo::default();
    let init_scores = memo.score(&init_masks, fitness, threads);
    evaluations += init_masks.len();
    let mut scored = init_masks.into_iter().zip(init_scores);
    let mut pops: Vec<Vec<(Vec<bool>, f64)>> = (0..cfg.populations)
        .map(|_| scored.by_ref().take(cfg.population_size).collect())
        .collect();

    let mut best: (Vec<bool>, f64) = pops
        .iter()
        .flatten()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
        .cloned()
        .expect("non-empty populations");

    let mut stale = 0usize;
    let mut generation = 0usize;
    while generation < cfg.max_generations && stale < cfg.patience {
        generation += 1;

        // Breed the next generation of every population with the
        // sequential RNG stream, deferring all fitness evaluations.
        let mut elites: Vec<(Vec<bool>, f64)> = Vec::with_capacity(cfg.populations);
        let mut brood: Vec<Vec<bool>> =
            Vec::with_capacity(cfg.populations * (cfg.population_size - 1));
        for pop in &mut pops {
            pop.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite fitness"));
            let elite = pop[0].clone();
            let parents: Vec<Vec<bool>> = pop
                .iter()
                .take(pop.len() / 2)
                .map(|(g, _)| g.clone())
                .collect();
            for _ in 1..cfg.population_size {
                let a = &parents[rng.random_range(0..parents.len())];
                let mut child = if rng.random_range(0.0..1.0) < cfg.crossover_rate {
                    let b = &parents[rng.random_range(0..parents.len())];
                    crossover(a, b, k, &mut rng)
                } else {
                    a.clone()
                };
                mutate(&mut child, cfg.mutation_rate, &mut rng);
                brood.push(child);
            }
            elites.push(elite);
        }

        // Score the whole brood in one parallel batch, then reassemble
        // the populations in breeding order.
        let brood_scores = memo.score(&brood, fitness, threads);
        evaluations += brood.len();
        let mut scored_children = brood.into_iter().zip(brood_scores);
        for (pop, elite) in pops.iter_mut().zip(elites) {
            let mut next = vec![elite];
            next.extend(scored_children.by_ref().take(cfg.population_size - 1));
            *pop = next;
        }

        // Migration: best genome of each population replaces the worst of
        // the next.
        if cfg.populations > 1 && generation.is_multiple_of(cfg.migration_interval) {
            let champions: Vec<(Vec<bool>, f64)> = pops
                .iter()
                .map(|p| {
                    p.iter()
                        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
                        .cloned()
                        .expect("non-empty population")
                })
                .collect();
            let n = pops.len();
            for (i, pop) in pops.iter_mut().enumerate() {
                let incoming = champions[(i + 1) % n].clone();
                let worst = pop
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).expect("finite fitness"))
                    .map(|(idx, _)| idx)
                    .expect("non-empty population");
                pop[worst] = incoming;
            }
        }

        let gen_best = pops
            .iter()
            .flatten()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fitness"))
            .cloned()
            .expect("non-empty populations");
        if phaselab_obs::enabled() {
            use phaselab_obs::Class::Structural;
            // The sequential sum over populations in breeding order is a
            // fixed reduction order, so the mean is Structural-class.
            let (sum, count) = pops
                .iter()
                .flatten()
                .fold((0.0f64, 0u64), |(s, c), (_, f)| (s + f, c + 1));
            phaselab_obs::series_push("ga.best_fitness", Structural, gen_best.1);
            phaselab_obs::series_push("ga.mean_fitness", Structural, sum / count as f64);
        }
        if gen_best.1 > best.1 + 1e-12 {
            best = gen_best;
            stale = 0;
        } else {
            stale += 1;
        }
    }

    if phaselab_obs::enabled() {
        use phaselab_obs::Class::Structural;
        phaselab_obs::counter_add("ga.generations", Structural, generation as u64);
        phaselab_obs::counter_add("ga.evaluations", Structural, evaluations as u64);
        let distinct = memo.scores.len() as u64;
        phaselab_obs::counter_add("ga.evaluations.distinct", Structural, distinct);
    }

    GaResult {
        genome: best.0,
        fitness: best.1,
        generations: generation,
        evaluations,
    }
}

/// The scores of every distinct mask one [`select_features`] call has
/// met. Scoring is a pure function of the mask, so a repeated mask takes
/// its first score and the trajectory is the same as rescoring it.
#[derive(Default)]
struct Memo {
    /// Bit-packed mask → its index in `scores`.
    index: HashMap<Box<[u64]>, usize>,
    scores: Vec<f64>,
}

impl Memo {
    /// The scores of `masks`, in order. Only masks not seen before (in
    /// earlier batches or earlier in this one) are scored, in one
    /// parallel batch.
    fn score(
        &mut self,
        masks: &[Vec<bool>],
        fitness: &(dyn Fn(&[bool]) -> f64 + Sync),
        threads: usize,
    ) -> Vec<f64> {
        let mut fresh: Vec<&[bool]> = Vec::new();
        let slots: Vec<usize> = masks
            .iter()
            .map(|mask| {
                let next = self.scores.len() + fresh.len();
                *self.index.entry(pack(mask)).or_insert_with(|| {
                    fresh.push(mask);
                    next
                })
            })
            .collect();
        self.scores
            .extend(parallel_map(&fresh, threads, |mask| fitness(mask)));
        slots.into_iter().map(|slot| self.scores[slot]).collect()
    }
}

/// `mask` packed 64 genes to a word.
fn pack(mask: &[bool]) -> Box<[u64]> {
    mask.chunks(64)
        .map(|genes| {
            genes
                .iter()
                .enumerate()
                .fold(0u64, |word, (bit, &g)| word | (u64::from(g) << bit))
        })
        .collect()
}

/// A uniformly random mask with exactly `k` bits set.
fn random_mask(n: usize, k: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut mask = vec![false; n];
    for &i in idx.iter().take(k) {
        mask[i] = true;
    }
    mask
}

/// Uniform crossover followed by repair to exactly `k` selected genes.
fn crossover(a: &[bool], b: &[bool], k: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut child: Vec<bool> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if rng.random_range(0..2) == 0 { x } else { y })
        .collect();
    repair(&mut child, k, rng);
    child
}

/// Count-preserving mutation: each selected gene may swap places with a
/// random unselected gene.
fn mutate(genome: &mut [bool], rate: f64, rng: &mut StdRng) {
    let selected: Vec<usize> = (0..genome.len()).filter(|&i| genome[i]).collect();
    let unselected: Vec<usize> = (0..genome.len()).filter(|&i| !genome[i]).collect();
    if unselected.is_empty() {
        return;
    }
    for &i in &selected {
        if rng.random_range(0.0..1.0) < rate {
            let j = unselected[rng.random_range(0..unselected.len())];
            if !genome[j] {
                genome[i] = false;
                genome[j] = true;
            }
        }
    }
}

/// Adds or removes random genes until exactly `k` are selected.
fn repair(genome: &mut [bool], k: usize, rng: &mut StdRng) {
    loop {
        let count = genome.iter().filter(|&&g| g).count();
        match count.cmp(&k) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => {
                let candidates: Vec<usize> = (0..genome.len()).filter(|&i| !genome[i]).collect();
                let pick = candidates[rng.random_range(0..candidates.len())];
                genome[pick] = true;
            }
            std::cmp::Ordering::Greater => {
                let candidates: Vec<usize> = (0..genome.len()).filter(|&i| genome[i]).collect();
                let pick = candidates[rng.random_range(0..candidates.len())];
                genome[pick] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceCorrelationFitness;
    use phaselab_stats::Matrix;
    use std::sync::Mutex;

    fn count(mask: &[bool]) -> usize {
        mask.iter().filter(|&&g| g).count()
    }

    #[test]
    fn finds_planted_optimum() {
        // Fitness strongly rewards genes 2, 5, 7.
        let target = [2usize, 5, 7];
        let fitness = move |mask: &[bool]| {
            target
                .iter()
                .map(|&t| if mask[t] { 10.0 } else { 0.0 })
                .sum::<f64>()
                - count(mask) as f64 * 0.01
        };
        let r = select_features(12, 3, &fitness, &GaConfig::study(3));
        assert_eq!(count(&r.genome), 3);
        assert!(r.genome[2] && r.genome[5] && r.genome[7], "{:?}", r.genome);
        assert!((r.fitness - 29.97).abs() < 1e-9);
    }

    #[test]
    fn respects_k_invariant_throughout() {
        let fitness = |mask: &[bool]| mask.iter().filter(|&&g| g).count() as f64;
        for k in [1, 5, 10] {
            let r = select_features(10, k, &fitness, &GaConfig::fast(1));
            assert_eq!(count(&r.genome), k);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let fitness = |mask: &[bool]| {
            mask.iter()
                .enumerate()
                .map(|(i, &g)| if g { (i as f64).sin() } else { 0.0 })
                .sum()
        };
        let a = select_features(20, 6, &fitness, &GaConfig::fast(9));
        let b = select_features(20, 6, &fitness, &GaConfig::fast(9));
        assert_eq!(a.genome, b.genome);
        assert_eq!(a.fitness, b.fitness);
    }

    #[test]
    fn identical_across_thread_counts() {
        let fitness = |mask: &[bool]| {
            mask.iter()
                .enumerate()
                .map(|(i, &g)| if g { ((i * i) as f64).cos() } else { 0.0 })
                .sum()
        };
        let base = select_features(16, 5, &fitness, &GaConfig::fast(4).with_threads(1));
        for threads in [2, 4, 0] {
            let other = select_features(16, 5, &fitness, &GaConfig::fast(4).with_threads(threads));
            assert_eq!(base.genome, other.genome);
            assert_eq!(base.fitness.to_bits(), other.fitness.to_bits());
            assert_eq!(base.evaluations, other.evaluations);
            assert_eq!(base.generations, other.generations);
        }
    }

    #[test]
    fn stops_on_patience() {
        // Constant fitness: should stop after `patience` stale generations.
        let fitness = |_: &[bool]| 1.0;
        let cfg = GaConfig::fast(2);
        let r = select_features(8, 3, &fitness, &cfg);
        assert!(r.generations <= cfg.patience + 1);
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn rejects_bad_k() {
        let fitness = |_: &[bool]| 0.0;
        let _ = select_features(5, 6, &fitness, &GaConfig::fast(0));
    }

    #[test]
    fn validate_accepts_presets_and_rejects_degenerate_configs() {
        assert_eq!(GaConfig::study(0).validate(), Ok(()));
        assert_eq!(GaConfig::fast(0).validate(), Ok(()));

        let mut cfg = GaConfig::fast(0);
        cfg.populations = 0;
        assert_eq!(cfg.validate(), Err(GaConfigError::NoPopulations));

        let mut cfg = GaConfig::fast(0);
        cfg.population_size = 1;
        assert_eq!(
            cfg.validate(),
            Err(GaConfigError::PopulationTooSmall { population_size: 1 })
        );

        let mut cfg = GaConfig::fast(0);
        cfg.mutation_rate = 1.5;
        assert!(matches!(
            cfg.validate(),
            Err(GaConfigError::RateOutOfRange {
                name: "mutation_rate",
                ..
            })
        ));

        let mut cfg = GaConfig::fast(0);
        cfg.migration_interval = 0;
        assert_eq!(cfg.validate(), Err(GaConfigError::ZeroMigrationInterval));
    }

    /// A fixed 100×69 phase matrix at the study's shape: eight latent
    /// factors mixed into every characteristic with per-cell noise, one
    /// constant column and one duplicated column. Built from a splitmix64
    /// stream, so it does not depend on any RNG crate's algorithm.
    fn pinned_fitness() -> DistanceCorrelationFitness {
        let mut state = 0x5eed_u64;
        let mut uniform = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let factors: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..8).map(|_| uniform()).collect())
            .collect();
        let loadings: Vec<Vec<f64>> = (0..69)
            .map(|_| (0..8).map(|_| uniform()).collect())
            .collect();
        let rows: Vec<Vec<f64>> = factors
            .iter()
            .map(|f| {
                let mut row: Vec<f64> = loadings
                    .iter()
                    .map(|l| l.iter().zip(f).map(|(a, b)| a * b).sum::<f64>() + 0.3 * uniform())
                    .collect();
                row[5] = 2.5;
                row[40] = row[3];
                row
            })
            .collect();
        DistanceCorrelationFitness::new(&Matrix::from_rows(&rows), 1.0)
    }

    /// The selected genes, fitness bits, generations and evaluations of
    /// `GaConfig::study(seed)` choosing 12 of the 69 pinned columns.
    const PINNED: [(u64, [usize; 12], u64, usize, usize); 4] = [
        (
            0,
            [21, 27, 30, 34, 37, 38, 50, 53, 59, 63, 64, 66],
            0x3feabfeab9647e65,
            33,
            4220,
        ),
        (
            1,
            [1, 10, 14, 30, 40, 43, 45, 46, 54, 55, 63, 64],
            0x3feab6193621f9e8,
            29,
            3724,
        ),
        (
            2,
            [16, 21, 27, 28, 30, 35, 48, 49, 50, 58, 61, 66],
            0x3feadcadeca3d55f,
            29,
            3724,
        ),
        (
            3,
            [3, 4, 12, 14, 26, 30, 31, 35, 46, 63, 65, 68],
            0x3feb06214cffd69f,
            49,
            6204,
        ),
    ];

    #[test]
    fn study_trajectory_is_pinned() {
        let fit = pinned_fitness();
        let score = |mask: &[bool]| fit.score(mask);
        for (seed, genes, bits, generations, evaluations) in PINNED {
            for threads in [1, 2, 4] {
                let r =
                    select_features(69, 12, &score, &GaConfig::study(seed).with_threads(threads));
                let selected: Vec<usize> = (0..69).filter(|&i| r.genome[i]).collect();
                assert_eq!(selected, genes, "seed {seed}, threads {threads}");
                assert_eq!(r.fitness.to_bits(), bits, "seed {seed}, threads {threads}");
                assert_eq!(r.generations, generations, "seed {seed}, threads {threads}");
                assert_eq!(r.evaluations, evaluations, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn each_distinct_mask_is_scored_once() {
        let fit = pinned_fitness();
        for (seed, _, _, generations, evaluations) in PINNED {
            for threads in [1, 2, 4] {
                let calls = Mutex::new(HashMap::<Vec<bool>, usize>::new());
                let score = |mask: &[bool]| {
                    *calls.lock().unwrap().entry(mask.to_vec()).or_default() += 1;
                    fit.score(mask)
                };
                let cfg = GaConfig::study(seed).with_threads(threads);
                let r = select_features(69, 12, &score, &cfg);
                let calls = calls.into_inner().unwrap();
                assert!(
                    calls.values().all(|&n| n == 1),
                    "seed {seed}: a mask rescored"
                );
                assert_eq!((r.generations, r.evaluations), (generations, evaluations));
                let bred = cfg.populations
                    * (cfg.population_size + generations * (cfg.population_size - 1));
                assert_eq!(r.evaluations, bred, "every genome counts, repeats included");
                assert!(
                    calls.len() < r.evaluations,
                    "seed {seed}: the run repeats masks"
                );
            }
        }
    }

    #[test]
    fn repair_adjusts_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = vec![true; 8];
        repair(&mut g, 3, &mut rng);
        assert_eq!(count(&g), 3);
        let mut g2 = vec![false; 8];
        repair(&mut g2, 5, &mut rng);
        assert_eq!(count(&g2), 5);
    }
}
