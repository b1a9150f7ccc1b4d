//! k-means clustering with k-means++ seeding and BIC model scoring.
//!
//! The assignment step — the O(n·k·d) hot path of the whole study — uses
//! Hamerly-style distance bounds to skip points whose assignment provably
//! cannot change. A point whose bounds fail scans its incumbent's sorted
//! neighbour list (each centroid's `NEAR` nearest other centroids) and
//! stops as soon as the triangle inequality rules every remaining
//! centroid out, falling back to the full scan only when the list runs
//! out first. Assignment passes are chunk-parallel and centroid sums are
//! incremental. k-means++ seeding prunes its min-distance updates with a
//! triangle-inequality certificate and tracks each point's nearest seed
//! as it goes, so the initial assignment pass costs nothing. Restarts run
//! in parallel with per-restart seeds derived
//! deterministically from the configured seed, so [`kmeans`] returns
//! **bit-identical results for a fixed seed regardless of thread count**.
//! A naive reference implementation ([`kmeans_reference`]) sharing the
//! seeding, centroid-update and tie-break code is retained for
//! verification; property tests assert the two agree exactly.
//!
//! [`kmeans`] groups its rows by bit pattern once ([`Rows::by_bits`])
//! and hands the grouping to every restart: a study that draws
//! intervals with replacement clusters many copies of one row. Copies
//! start from the same seeding state and so take the same state in
//! every iteration, so seeding updates, bounds, scans and final
//! distances run once per distinct row, while everything that weighs
//! rows (the k-means++ draws, cluster sums, sizes, inertia and the
//! empty-cluster re-seed) still walks every row in row order. Hence the
//! Structural counters `kmeans.points.*` and `kmeans.distances` count
//! distinct-row work, `kmeans.moves` and `kmeans.iterations` count rows
//! and iterations, and the gauge `kmeans.distinct_rows` gives the number
//! of distinct rows.

use crate::indexed::{index_u32, IndexedRows, Rows};
use crate::matrix::Matrix;
use crate::{distance, distance_sq};
use phaselab_par::{derive_seed, effective_threads, parallel_map, parallel_map_owned};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Number of random restarts; the clustering with the highest BIC
    /// score is kept (as in the paper's methodology).
    pub restarts: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iters: usize,
    /// RNG seed for deterministic results.
    pub seed: u64,
    /// Worker threads (0 = all cores). Results never depend on this.
    pub threads: usize,
}

impl KmeansConfig {
    /// Creates a configuration with `k` clusters and sensible defaults
    /// (5 restarts, 100 iterations, seed 0, single-threaded).
    pub fn new(k: usize) -> Self {
        KmeansConfig {
            k,
            restarts: 5,
            max_iters: 100,
            seed: 0,
            threads: 1,
        }
    }

    /// Sets the number of restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum iterations per restart.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the worker thread count (0 = all cores).
    ///
    /// Threads only affect wall-clock time: restarts are seeded
    /// independently of scheduling and assignment chunks are reduced in
    /// a fixed order, so the clustering is identical for every value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The result of a k-means clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index assigned to each input row.
    pub assignments: Vec<usize>,
    /// Cluster centroids (k rows).
    pub centroids: Matrix,
    /// Number of points per cluster.
    pub sizes: Vec<usize>,
    /// Total within-cluster sum of squared distances.
    pub inertia: f64,
    /// Bayesian Information Criterion score (higher is better).
    pub bic: f64,
}

impl Clustering {
    /// Number of clusters (including empty ones).
    pub fn k(&self) -> usize {
        self.sizes.len()
    }

    /// Indices of the rows belonging to cluster `c`.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }

    /// The row index closest to the centroid of cluster `c`, or `None` if
    /// the cluster is empty.
    ///
    /// This is the paper's "cluster representative": the instruction
    /// interval nearest the cluster center.
    pub fn representative_of(&self, data: &impl Rows, c: usize) -> Option<usize> {
        let centroid = self.centroids.row(c);
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .min_by(|&(i, _), &(j, _)| {
                let di = distance_sq(data.row(i), centroid);
                let dj = distance_sq(data.row(j), centroid);
                di.partial_cmp(&dj).expect("finite distances")
            })
            .map(|(i, _)| i)
    }
}

/// Runs k-means++ with multiple restarts and returns the clustering with
/// the highest BIC score.
///
/// The BIC score follows the x-means formulation (identical spherical
/// Gaussians): `BIC = log-likelihood − (p/2)·ln n`, where `p` is the
/// number of free parameters. The paper selects among candidate
/// clusterings by BIC; a higher score indicates a better fit/complexity
/// trade-off.
///
/// Restarts run in parallel (bounded by `cfg.threads`; 0 = all cores)
/// and each draws its randomness from `derive_seed(cfg.seed, restart)`,
/// so the result is a pure function of the data and the configuration —
/// never of the thread count. The assignment step is pruned with
/// Hamerly-style distance bounds; [`kmeans_reference`] retains the
/// unpruned loop and produces bit-identical output.
///
/// `data` is a [`Matrix`] or an [`IndexedRows`]; either way its rows are
/// grouped by bit pattern once, for all restarts, hashing each stored
/// row once.
///
/// # Panics
///
/// Panics if `cfg.k` is zero or exceeds the number of rows, or if the
/// matrix is empty.
///
/// # Examples
///
/// ```
/// use phaselab_stats::{kmeans, KmeansConfig, Matrix};
///
/// let m = Matrix::from_rows(&[
///     vec![0.0, 0.0],
///     vec![0.1, 0.0],
///     vec![10.0, 10.0],
///     vec![10.1, 10.0],
/// ]);
/// let clustering = kmeans(&m, &KmeansConfig::new(2));
/// assert_eq!(clustering.k(), 2);
/// assert_eq!(clustering.assignments[0], clustering.assignments[1]);
/// assert_ne!(clustering.assignments[0], clustering.assignments[2]);
/// ```
pub fn kmeans(data: &impl Rows, cfg: &KmeansConfig) -> Clustering {
    check_config(data.rows(), cfg);
    let restarts = cfg.restarts.max(1);
    let threads = effective_threads(cfg.threads);
    // Restarts parallelize at the outer level; leftover budget goes to
    // chunk-parallel assignment inside each restart.
    let outer = threads.min(restarts);
    let inner = (threads / outer).max(1);

    let points = data.by_bits();
    let indices: Vec<usize> = (0..restarts).collect();
    let candidates = parallel_map(&indices, outer, |&r| kmeans_restart(&points, cfg, r, inner));
    pick_best_clustering(candidates).expect("at least one restart ran")
}

/// Runs restart `restart` of the multi-restart [`kmeans`] in isolation.
///
/// The restart's randomness comes from `derive_seed(cfg.seed, restart)`
/// — exactly the stream [`kmeans`] would hand it — so computing restarts
/// one at a time (e.g. to checkpoint each as it completes) and selecting
/// with [`pick_best_clustering`] reproduces [`kmeans`] bit-for-bit.
/// `threads` bounds the restart-internal chunk parallelism (0 = all
/// cores); it never affects the result.
///
/// Each distinct row of `points` is one point of the restart. Pass the
/// data's [`by_bits`](Rows::by_bits) grouping, built once for all
/// restarts, as [`kmeans`] does: any other grouping of the same rows
/// gives the same clustering, with a point per stored row.
///
/// # Panics
///
/// Panics if `cfg.k` is zero or exceeds the number of rows, or if the
/// matrix is empty.
pub fn kmeans_restart(
    points: &IndexedRows,
    cfg: &KmeansConfig,
    restart: usize,
    threads: usize,
) -> Clustering {
    check_config(points.rows(), cfg);
    let seed = derive_seed(cfg.seed, restart as u64);
    let _span = phaselab_obs::span!("kmeans.restart", restart);
    let (clustering, stats) = kmeans_single(
        points,
        cfg.k,
        cfg.max_iters,
        seed,
        effective_threads(threads),
        true,
    );
    if phaselab_obs::enabled() {
        flush_restart_stats(restart, &clustering, &stats);
    }
    clustering
}

/// Publishes one restart's tallies. All values are pure functions of
/// the data, config, and restart index, so they are Structural-class
/// even though restarts may run on worker threads.
fn flush_restart_stats(restart: usize, clustering: &Clustering, stats: &RestartStats) {
    use phaselab_obs::Class::Structural;
    phaselab_obs::counter_add("kmeans.restarts", Structural, 1);
    phaselab_obs::counter_add("kmeans.iterations", Structural, stats.iterations);
    phaselab_obs::counter_add("kmeans.points.pruned", Structural, stats.points.pruned);
    phaselab_obs::counter_add(
        "kmeans.points.tightened",
        Structural,
        stats.points.tightened,
    );
    phaselab_obs::counter_add("kmeans.points.scanned", Structural, stats.points.scanned);
    phaselab_obs::counter_add(
        "kmeans.points.full_scans",
        Structural,
        stats.points.full_scans,
    );
    phaselab_obs::counter_add("kmeans.distances", Structural, stats.points.distances);
    phaselab_obs::counter_add("kmeans.moves", Structural, stats.moves);
    phaselab_obs::gauge_set(
        "kmeans.distinct_rows",
        Structural,
        stats.distinct_rows as f64,
    );
    let tag = format!("kmeans.restart[{restart:02}]");
    phaselab_obs::gauge_set(
        &format!("{tag}.iterations"),
        Structural,
        stats.iterations as f64,
    );
    phaselab_obs::gauge_set(&format!("{tag}.bic"), Structural, clustering.bic);
    let PassTally {
        pruned,
        tightened,
        scanned,
        ..
    } = stats.points;
    let considered = pruned + tightened + scanned;
    let skipped = pruned + tightened;
    let ratio = if considered == 0 {
        0.0
    } else {
        skipped as f64 / considered as f64
    };
    phaselab_obs::gauge_set(&format!("{tag}.bound_skip_ratio"), Structural, ratio);
}

/// Keeps the highest-BIC candidate; ties go to the earliest restart.
///
/// This is [`kmeans`]'s selection rule, exposed so callers driving
/// restarts through [`kmeans_restart`] can finish the job identically.
/// Returns `None` for an empty candidate list. Candidates must be in
/// restart order for the tie-break to match [`kmeans`].
pub fn pick_best_clustering(candidates: Vec<Clustering>) -> Option<Clustering> {
    let mut best: Option<Clustering> = None;
    for candidate in candidates {
        let better = match &best {
            None => true,
            Some(b) => candidate.bic > b.bic,
        };
        if better {
            best = Some(candidate);
        }
    }
    best
}

/// The unpruned, single-threaded reference k-means.
///
/// Shares the seeding, tie-break, centroid-update and scoring code with
/// [`kmeans`] but scans every centroid for every point in every
/// iteration. It exists to verify the bound-pruned implementation:
/// for any data and configuration, `kmeans_reference` and [`kmeans`]
/// return bit-identical clusterings (see `tests/properties.rs`).
///
/// # Panics
///
/// Panics if `cfg.k` is zero or exceeds the number of rows, or if the
/// matrix is empty.
pub fn kmeans_reference(data: &Matrix, cfg: &KmeansConfig) -> Clustering {
    check_config(data.rows(), cfg);
    let restarts = cfg.restarts.max(1);
    // Every row its own point.
    let points = IndexedRows::from(data.clone());
    let candidates: Vec<Clustering> = (0..restarts)
        .map(|r| {
            let seed = derive_seed(cfg.seed, r as u64);
            kmeans_single(&points, cfg.k, cfg.max_iters, seed, 1, false).0
        })
        .collect();
    pick_best(candidates)
}

fn check_config(rows: usize, cfg: &KmeansConfig) {
    assert!(cfg.k > 0, "k must be positive");
    assert!(
        cfg.k <= rows,
        "k ({}) exceeds number of points ({rows})",
        cfg.k,
    );
}

fn pick_best(candidates: Vec<Clustering>) -> Clustering {
    pick_best_clustering(candidates).expect("at least one restart ran")
}

/// Rows per parallel assignment chunk. Fixed — never derived from the
/// thread count — so the chunk grid, and with it every floating-point
/// reduction order, is a pure function of the input size.
const CHUNK: usize = 512;

/// Multiplicative slack on the Hamerly prune test. The upper/lower
/// bounds accumulate one rounding error per centroid update; inflating
/// the upper bound by a hair keeps pruning strictly conservative, so a
/// pruned point is always one the exact scan would have left in place.
const BOUND_SLACK: f64 = 1.0 + 1e-12;

/// Length of each centroid's sorted neighbour list (see
/// [`NeighbourTable`]). Scans that fail Hamerly's certificate typically
/// stop after two or three entries; a list that runs out first falls
/// back to the full scan, so this trades table memory (O(k·NEAR) per
/// restart) against fallbacks, never against exactness.
const NEAR: usize = 32;

/// A pass's point moves `(point, from, to)` as one move per row, in
/// ascending row order: the order the cluster sums apply them in.
fn row_moves(points: &IndexedRows, moves: &[(usize, usize, usize)]) -> Vec<(usize, usize, usize)> {
    if moves.is_empty() {
        return Vec::new();
    }
    let mut slot = vec![u32::MAX; points.distinct().rows()];
    for (j, &(p, _, _)) in moves.iter().enumerate() {
        slot[p] = index_u32(j);
    }
    points
        .per_row(&slot)
        .enumerate()
        .filter_map(|(i, j)| {
            let &(_, from, to) = moves.get(j as usize)?;
            Some((i, from, to))
        })
        .collect()
}

/// Per-point scan state of one restart.
struct PointBounds {
    assignments: Vec<usize>,
    /// Upper bound on the distance to the assigned centroid.
    upper: Vec<f64>,
    /// Lower bound on the distance to every other centroid. Only a
    /// bound: seeding starts it at 0; a scan sets it to the exact
    /// second-nearest distance.
    lower: Vec<f64>,
}

/// Deterministic per-restart tallies, published to the observability
/// registry by [`kmeans_restart`] when a subscriber is installed.
#[derive(Debug, Default, Clone, Copy)]
struct RestartStats {
    /// Lloyd iterations executed (assignment passes after the initial).
    iterations: u64,
    /// Assignment changes applied across all iterations.
    moves: u64,
    /// Every assignment pass's tallies, summed.
    points: PassTally,
    /// Distinct rows, each one point of the passes.
    distinct_rows: u64,
}

/// One restart over `points`, each distinct row one point: k-means++
/// seeding, bounded Lloyd iterations, final scoring. A point's seeding
/// state, bounds, assignment and distances are pure functions of its
/// bits and of state all its rows share, so every row of a point would
/// compute them identically: computing them once is exact. What weighs
/// rows still walks every row in row order. `pruned` selects the
/// bounded fast path; both settings produce identical output.
fn kmeans_single(
    points: &IndexedRows,
    k: usize,
    max_iters: usize,
    seed: u64,
    threads: usize,
    pruned: bool,
) -> (Clustering, RestartStats) {
    let n = points.rows();
    let d = points.cols();
    let distinct = points.distinct();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RestartStats::default();

    // The pruned path tracks every point's nearest seed during k-means++
    // itself, which makes the initial assignment pass free; the
    // reference path, whose every row is its own point, seeds naively
    // and pays for a full initial scan. Both produce the same centroids
    // and assignments.
    let (mut centroids, mut state) = {
        let _span = phaselab_obs::span!("kmeans.seed");
        if pruned {
            seed_centroids_tracked(points, k, &mut rng)
        } else {
            let m = distinct.rows();
            let centroids = seed_centroids(distinct, k, &mut rng);
            let mut state = PointBounds {
                assignments: vec![0; m],
                upper: vec![0.0; m],
                lower: vec![0.0; m],
            };
            let (_, tally) = assign_pass(distinct, &centroids, &mut state, threads, true, None);
            stats.points.add(tally);
            (centroids, state)
        }
    };
    stats.distinct_rows = distinct.rows() as u64;

    // Incremental per-cluster sums over every row, maintained from move
    // lists in ascending row order so every thread count reduces
    // identically.
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, a) in points.per_row(&state.assignments).enumerate() {
        counts[a] += 1;
        for (t, &v) in sums.row_mut(a).iter_mut().zip(points.row(i)) {
            *t += v;
        }
    }

    let mut table = pruned.then(|| NeighbourTable::new(k));
    let mut moved = vec![0.0f64; k];
    let mut moves = Vec::new();
    for _ in 0..max_iters {
        stats.iterations += 1;
        {
            let _span = phaselab_obs::span!("kmeans.update");
            for &(i, from, to) in &moves {
                counts[from] -= 1;
                counts[to] += 1;
                for (t, &v) in sums.row_mut(from).iter_mut().zip(points.row(i)) {
                    *t -= v;
                }
                for (t, &v) in sums.row_mut(to).iter_mut().zip(points.row(i)) {
                    *t += v;
                }
            }
            update_centroids(
                points,
                &state.assignments,
                &sums,
                &counts,
                &mut centroids,
                &mut moved,
            );
            relax_bounds(&mut state, &moved);
        }
        let _span = phaselab_obs::span!("kmeans.assign");
        if let Some(table) = table.as_mut() {
            table.rebuild(&centroids);
        }
        let (point_moves, tally) = assign_pass(
            distinct,
            &centroids,
            &mut state,
            threads,
            false,
            table.as_ref(),
        );
        // On the reference path every row is its own point, so the pass's
        // moves are already row moves; keeping them leaves the reference
        // independent of the expansion it checks.
        moves = if pruned {
            row_moves(points, &point_moves)
        } else {
            point_moves
        };
        stats.points.add(tally);
        stats.moves += moves.len() as u64;
        if moves.is_empty() {
            break;
        }
    }

    // Final statistics, summed over every row in row order.
    let dist_sq: Vec<f64> = state
        .assignments
        .iter()
        .enumerate()
        .map(|(p, &a)| distance_sq(distinct.row(p), centroids.row(a)))
        .collect();
    let mut sizes = vec![0usize; k];
    let mut inertia = 0.0;
    for (a, dsq) in points
        .per_row(&state.assignments)
        .zip(points.per_row(&dist_sq))
    {
        sizes[a] += 1;
        inertia += dsq;
    }
    let bic = bic_score(n, d, k, &sizes, inertia);

    (
        Clustering {
            assignments: points.per_row(&state.assignments).collect(),
            centroids,
            sizes,
            inertia,
            bic,
        },
        stats,
    )
}

/// Per-assignment-pass tallies, summed over chunks.
#[derive(Debug, Default, Clone, Copy)]
struct PassTally {
    /// Point visits resolved by the stale-bound certificate (no scan).
    pruned: u64,
    /// Point visits resolved by tightening the upper bound (one
    /// distance computation instead of a scan).
    tightened: u64,
    /// Point visits that failed both certificates and scanned.
    scanned: u64,
    /// Scans whose neighbour list ran out and fell back to every centroid.
    full_scans: u64,
    /// Point–centroid distances evaluated by the scans.
    distances: u64,
}

impl PassTally {
    fn add(&mut self, other: PassTally) {
        self.pruned += other.pruned;
        self.tightened += other.tightened;
        self.scanned += other.scanned;
        self.full_scans += other.full_scans;
        self.distances += other.distances;
    }
}

/// k-means++ seeding: the first centroid uniform, each next one drawn
/// with probability proportional to the squared distance to the nearest
/// centroid chosen so far.
#[allow(clippy::needless_range_loop)] // index loops touch several arrays in lock-step
fn seed_centroids(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = data.rows();
    let d = data.cols();
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.random_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut min_dist_sq: Vec<f64> = (0..n)
        .map(|i| distance_sq(data.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = min_dist_sq.iter().sum();
        let choice = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &dsq) in min_dist_sq.iter().enumerate() {
                target -= dsq;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(data.row(choice));
        for i in 0..n {
            let dsq = distance_sq(data.row(i), centroids.row(c));
            if dsq < min_dist_sq[i] {
                min_dist_sq[i] = dsq;
            }
        }
    }
    centroids
}

/// Squared-distance slack on the seeding skip test (see
/// [`seed_centroids_tracked`]): the triangle-inequality certificate is
/// exact over the reals, and this margin absorbs the rounding error of
/// the computed distances so a skipped update is always one the naive
/// scan would have rejected too.
const SEED_SKIP_SLACK: f64 = 4.0 * (1.0 + 1e-9);

/// k-means++ seeding with per-point nearest-seed tracking — the pruned
/// path's seeding. Draws the *same* centroids as [`seed_centroids`]
/// (identical RNG stream, identical min-distance arithmetic) and
/// additionally returns each point's assignment and Hamerly bounds,
/// making the initial assignment pass unnecessary. Minima are kept per
/// point; the draws weigh every row, in row order.
///
/// The update loop skips a point when the new centroid is provably too
/// far to improve its nearest distance: with `D = d(new centroid,
/// point's centroid)` and `m` the point's nearest distance, `D ≥ 2m`
/// implies `d(x, new) ≥ D − m ≥ m`, so the strict `<` of the naive
/// update cannot fire and the skip is exact. Only the nearest distance
/// has to stay exact (it weights the next draw); the lower bounds start
/// at 0, a valid bound that the first assignment pass tightens. This
/// cuts the seeding's `O(n·k·d)` scan work down to `O(n·k)` certificate
/// checks on clustered data.
#[allow(clippy::needless_range_loop)] // index loops touch several arrays in lock-step
fn seed_centroids_tracked(
    points: &IndexedRows,
    k: usize,
    rng: &mut StdRng,
) -> (Matrix, PointBounds) {
    let n = points.rows();
    let distinct = points.distinct();
    let m = distinct.rows();
    let mut centroids = Matrix::zeros(k, points.cols());
    let first = rng.random_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut best = vec![0usize; m];
    let mut min_dist_sq: Vec<f64> = distinct
        .iter_rows()
        .map(|row| distance_sq(row, centroids.row(0)))
        .collect();
    // Distances from the newest centroid to every earlier one, for the
    // skip certificate.
    let mut centroid_dsq = vec![0.0f64; k];
    for c in 1..k {
        let total: f64 = points.per_row(&min_dist_sq).sum();
        let choice = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, dsq) in points.per_row(&min_dist_sq).enumerate() {
                target -= dsq;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.row_mut(c).copy_from_slice(points.row(choice));
        for j in 0..c {
            centroid_dsq[j] = distance_sq(centroids.row(c), centroids.row(j));
        }
        for p in 0..m {
            if centroid_dsq[best[p]] < SEED_SKIP_SLACK * min_dist_sq[p] {
                let dsq = distance_sq(distinct.row(p), centroids.row(c));
                if dsq < min_dist_sq[p] {
                    min_dist_sq[p] = dsq;
                    best[p] = c;
                }
            }
        }
    }
    let state = PointBounds {
        assignments: best,
        upper: min_dist_sq.iter().map(|d| d.sqrt()).collect(),
        lower: vec![0.0; m],
    };
    (centroids, state)
}

/// Scans all centroids for one point, replicating the naive loop's exact
/// tie-break: start from the incumbent and switch only on a strictly
/// smaller squared distance, visiting centroids in index order. Returns
/// `(best, best_dist_sq, second_dist_sq)` where `second` is the smallest
/// squared distance among non-best centroids (`∞` when `k == 1`).
fn scan_point(row: &[f64], centroids: &Matrix, incumbent: usize) -> (usize, f64, f64) {
    let mut best_c = incumbent;
    let mut best_d = distance_sq(row, centroids.row(incumbent));
    let mut second = f64::INFINITY;
    for c in 0..centroids.rows() {
        if c == incumbent {
            continue;
        }
        let dsq = distance_sq(row, centroids.row(c));
        if dsq < best_d {
            second = best_d;
            best_d = dsq;
            best_c = c;
        } else if dsq < second {
            second = dsq;
        }
    }
    (best_c, best_d, second)
}

/// Each centroid's `min(NEAR, k − 1)` nearest other centroids, nearest
/// first — the certificates of the assignment scans. Rebuilt into the
/// same buffers every iteration, computing only the pair distances of
/// centroids whose bits changed since the last rebuild.
///
/// The first entry gives Hamerly's per-cluster certificate: a point
/// within half the nearest-centroid distance of its centroid cannot be
/// strictly closer to any other centroid. The whole list drives
/// [`NeighbourTable::scan`].
struct NeighbourTable {
    /// Entries per list.
    width: usize,
    /// `k × width` row-major `(distance, centroid)` entries, ascending
    /// by squared distance, then by index.
    entries: Vec<(f64, usize)>,
    /// One centroid's squared distances to all others, for selection.
    scratch: Vec<(f64, usize)>,
    /// Squared distance of each centroid pair `a < b`, the upper
    /// triangle row by row. `d(a, b)` and `d(b, a)` have the same bits,
    /// since `(x − y)² = (y − x)²`, so one entry serves both lists.
    pairs: Vec<f64>,
    /// The centroids the pairs were computed from (empty before the
    /// first rebuild).
    last: Vec<f64>,
    /// Whether each centroid changed bits since the last rebuild.
    changed: Vec<bool>,
}

impl NeighbourTable {
    fn new(k: usize) -> Self {
        let width = NEAR.min(k - 1);
        NeighbourTable {
            width,
            entries: vec![(0.0, 0); k * width],
            scratch: Vec::with_capacity(k - 1),
            pairs: vec![0.0; k * (k - 1) / 2],
            last: Vec::new(),
            changed: vec![true; k],
        }
    }

    /// Recomputes every list: the distances of the pairs a changed
    /// centroid takes part in, then each centroid's selection of the
    /// nearest `width`, sorted.
    fn rebuild(&mut self, centroids: &Matrix) {
        let by_distance =
            |x: &(f64, usize), y: &(f64, usize)| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1));
        let (k, d) = (centroids.rows(), centroids.cols());
        if self.last.len() == k * d {
            for (c, last) in self.last.chunks_exact(d).enumerate() {
                self.changed[c] = !last
                    .iter()
                    .zip(centroids.row(c))
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            }
        }
        // Row `a` of the triangle, pairs `(a, a + 1..k)`, starts here.
        let row_start = |a: usize| a * k - a * (a + 1) / 2;
        for a in 0..k {
            let start = row_start(a);
            for (dsq, b) in self.pairs[start..start + k - a - 1]
                .iter_mut()
                .zip(a + 1..k)
            {
                if self.changed[a] || self.changed[b] {
                    *dsq = distance_sq(centroids.row(a), centroids.row(b));
                }
            }
        }
        self.last.clear();
        self.last.extend(centroids.iter_rows().flatten());
        let width = self.width;
        for a in 0..k {
            self.scratch.clear();
            self.scratch
                .extend((0..a).map(|b| (self.pairs[row_start(b) + a - b - 1], b)));
            let start = row_start(a);
            self.scratch.extend(
                self.pairs[start..start + k - a - 1]
                    .iter()
                    .copied()
                    .zip(a + 1..k),
            );
            if width < self.scratch.len() {
                self.scratch.select_nth_unstable_by(width - 1, by_distance);
            }
            let near = &mut self.scratch[..width];
            near.sort_unstable_by(by_distance);
            let out = &mut self.entries[a * width..(a + 1) * width];
            for (slot, &(dsq, b)) in out.iter_mut().zip(near.iter()) {
                *slot = (dsq.sqrt(), b);
            }
        }
    }

    fn list(&self, a: usize) -> &[(f64, usize)] {
        &self.entries[a * self.width..(a + 1) * self.width]
    }

    /// Half the distance from centroid `a` to its nearest other
    /// centroid (`∞` when `k == 1`). Bit-identical to a minimum over all
    /// pairs, since `(x − y)² = (y − x)²`.
    fn half_min(&self, a: usize) -> f64 {
        self.list(a)
            .first()
            .map_or(f64::INFINITY, |&(dist, _)| dist * 0.5)
    }

    /// [`scan_point`]'s result for `row` — same best centroid, same
    /// squared distance, same tie-break — from the incumbent's list
    /// alone, or `None` when the list runs out before the stop rule
    /// certifies the rest. `incumbent_dsq` is `d(x, c_a)²`, already
    /// computed by the caller. Returns `(best, best_dist_sq, lower)`,
    /// where `lower` bounds the distance to every non-best centroid.
    ///
    /// With `u = d(x, c_a)`, every centroid `c` satisfies
    /// `d(x, c) ≥ d(c_a, c) − u`. Once a list entry is farther than
    /// `u + s` from the incumbent (`s` the second-nearest distance so
    /// far), it and every later entry are strictly farther than `s`, so
    /// neither the best nor the second-nearest can change. The
    /// `BOUND_SLACK` factor keeps the stop conservative under rounding.
    fn scan(
        &self,
        row: &[f64],
        centroids: &Matrix,
        incumbent: usize,
        incumbent_dsq: f64,
        tally: &mut PassTally,
    ) -> Option<(usize, f64, f64)> {
        let u = incumbent_dsq.sqrt();
        let list = self.list(incumbent);
        let (mut best_c, mut best_d) = (incumbent, incumbent_dsq);
        let mut second = f64::INFINITY;
        let mut s = f64::INFINITY;
        for &(dist, c) in list {
            if dist > (u + s) * BOUND_SLACK {
                return Some((best_c, best_d, s));
            }
            tally.distances += 1;
            let dsq = distance_sq(row, centroids.row(c));
            // `scan_point`'s order: the incumbent wins a tie, otherwise
            // the lowest index does.
            if dsq < best_d || (dsq == best_d && best_c != incumbent && c < best_c) {
                second = best_d;
                best_d = dsq;
                best_c = c;
            } else if dsq < second {
                second = dsq;
            } else {
                continue;
            }
            s = second.sqrt();
        }
        // A complete list has seen every centroid; a truncated one
        // leaves the rest unknown.
        (list.len() + 1 == centroids.rows()).then_some((best_c, best_d, s))
    }
}

/// One assignment pass over all points (the rows of `points`),
/// chunk-parallel. Returns the move list `(point, from, to)` in
/// ascending point order (empty on the initial pass, which writes
/// assignments directly); `state` holds one entry per point.
///
/// With a neighbour `table` (the pruned path), points whose Hamerly
/// bounds certify their incumbent skip the scan entirely, and the rest
/// scan the incumbent's neighbour list, falling back to the exact full
/// scan when the list runs out; no path changes an assignment. Without
/// one, every point pays for the full scan.
fn assign_pass(
    points: &Matrix,
    centroids: &Matrix,
    state: &mut PointBounds,
    threads: usize,
    initial: bool,
    table: Option<&NeighbourTable>,
) -> (Vec<(usize, usize, usize)>, PassTally) {
    struct ChunkTask<'a> {
        start: usize,
        assignments: &'a mut [usize],
        upper: &'a mut [f64],
        lower: &'a mut [f64],
    }

    let mut tasks = Vec::new();
    {
        let mut a_it = state.assignments.chunks_mut(CHUNK);
        let mut u_it = state.upper.chunks_mut(CHUNK);
        let mut l_it = state.lower.chunks_mut(CHUNK);
        let mut start = 0;
        while let (Some(assignments), Some(upper), Some(lower)) =
            (a_it.next(), u_it.next(), l_it.next())
        {
            let len = assignments.len();
            tasks.push(ChunkTask {
                start,
                assignments,
                upper,
                lower,
            });
            start += len;
        }
    }

    let k = centroids.rows() as u64;
    let per_chunk = parallel_map_owned(tasks, threads, |task| {
        let mut moves = Vec::new();
        let mut tally = PassTally::default();
        for j in 0..task.assignments.len() {
            let p = task.start + j;
            let row = points.row(p);
            let incumbent = if initial { 0 } else { task.assignments[j] };
            let mut found = None;
            if let Some(table) = table {
                // Certificate 1: stale upper bound already below both the
                // lower bound on every other centroid and the incumbent's
                // cluster radius.
                let gate = task.lower[j].max(table.half_min(incumbent));
                if task.upper[j] * BOUND_SLACK <= gate {
                    tally.pruned += 1;
                    continue;
                }
                // Certificate 2: tighten the upper bound to the exact
                // distance and retest before scanning.
                let incumbent_dsq = distance_sq(row, centroids.row(incumbent));
                task.upper[j] = incumbent_dsq.sqrt();
                if task.upper[j] * BOUND_SLACK <= gate {
                    tally.tightened += 1;
                    continue;
                }
                found = table.scan(row, centroids, incumbent, incumbent_dsq, &mut tally);
                tally.full_scans += u64::from(found.is_none());
            }
            tally.scanned += 1;
            let (best, best_d, lower) = found.unwrap_or_else(|| {
                tally.distances += k;
                let (best, best_d, second) = scan_point(row, centroids, incumbent);
                (best, best_d, second.sqrt())
            });
            task.upper[j] = best_d.sqrt();
            task.lower[j] = lower;
            if initial {
                task.assignments[j] = best;
            } else if best != incumbent {
                task.assignments[j] = best;
                moves.push((p, incumbent, best));
            }
        }
        (moves, tally)
    });
    let mut moves = Vec::new();
    let mut tally = PassTally::default();
    for (chunk_moves, chunk_tally) in per_chunk {
        moves.extend(chunk_moves);
        tally.add(chunk_tally);
    }
    (moves, tally)
}

/// Loosens every point's bounds after centroids moved: the upper bound
/// grows by its own centroid's movement, the lower bound shrinks by the
/// largest movement of any *other* centroid (Hamerly's update rule).
fn relax_bounds(state: &mut PointBounds, moved: &[f64]) {
    let mut max_move = 0.0f64;
    let mut argmax = 0;
    let mut second_move = 0.0f64;
    for (c, &m) in moved.iter().enumerate() {
        if m > max_move {
            second_move = max_move;
            max_move = m;
            argmax = c;
        } else if m > second_move {
            second_move = m;
        }
    }
    for ((&a, u), l) in state
        .assignments
        .iter()
        .zip(state.upper.iter_mut())
        .zip(state.lower.iter_mut())
    {
        *u += moved[a];
        *l -= if a == argmax { second_move } else { max_move };
    }
}

/// Moves each non-empty cluster's centroid to the mean of its members
/// (from the incremental sums) and re-seeds each empty cluster from the
/// farthest row, deduplicating choices across empty clusters. Records
/// every centroid's movement (Euclidean) in `moved`. `assignments` holds
/// one entry per point, a distinct row of `points`.
fn update_centroids(
    points: &IndexedRows,
    assignments: &[usize],
    sums: &Matrix,
    counts: &[usize],
    centroids: &mut Matrix,
    moved: &mut [f64],
) {
    let k = counts.len();
    let mut new_row = vec![0.0f64; centroids.cols()];
    let mut any_empty = false;
    for c in 0..k {
        if counts[c] == 0 {
            any_empty = true;
            moved[c] = 0.0;
            continue;
        }
        let inv = 1.0 / counts[c] as f64;
        for (t, &s) in new_row.iter_mut().zip(sums.row(c)) {
            *t = s * inv;
        }
        moved[c] = distance(centroids.row(c), &new_row);
        centroids.row_mut(c).copy_from_slice(&new_row);
    }
    if !any_empty {
        return;
    }

    // Re-seed empty clusters from the farthest rows. The distances to
    // the (updated) assigned centroids are computed once per point and
    // shared by all empty clusters; each cluster takes the farthest
    // not-yet-chosen row, so no two empty clusters take the same row
    // (two copies of one point still can, as with every row its own).
    let dist_to_assigned: Vec<f64> = assignments
        .iter()
        .zip(points.distinct().iter_rows())
        .map(|(&a, row)| distance_sq(row, centroids.row(a)))
        .collect();
    let mut chosen = vec![false; points.rows()];
    for c in 0..k {
        if counts[c] != 0 {
            continue;
        }
        let mut far = usize::MAX;
        let mut far_d = f64::NEG_INFINITY;
        for (i, dsq) in points.per_row(&dist_to_assigned).enumerate() {
            if !chosen[i] && dsq > far_d {
                far = i;
                far_d = dsq;
            }
        }
        if far == usize::MAX {
            // More empty clusters than rows — leave the centroid put.
            continue;
        }
        chosen[far] = true;
        let row = points.row(far);
        moved[c] = distance(centroids.row(c), row);
        centroids.row_mut(c).copy_from_slice(row);
    }
}

/// BIC of a clustering under the identical-spherical-Gaussian model
/// (x-means; Pelleg & Moore 2000). Higher is better.
fn bic_score(n: usize, d: usize, k: usize, sizes: &[usize], inertia: f64) -> f64 {
    let n_f = n as f64;
    let d_f = d as f64;
    let k_f = k as f64;
    // Pooled ML variance estimate.
    let denom = (n_f - k_f).max(1.0) * d_f;
    let variance = (inertia / denom).max(1e-12);

    let mut ll = 0.0;
    for &size in sizes {
        if size == 0 {
            continue;
        }
        let s = size as f64;
        ll += s * s.ln()
            - s * n_f.ln()
            - (s * d_f / 2.0) * (2.0 * std::f64::consts::PI).ln()
            - (s * d_f / 2.0) * variance.ln()
            - (s - k_f) * d_f / 2.0 / n_f.max(1.0);
    }
    let params = (k_f - 1.0) + k_f * d_f + 1.0;
    ll - params / 2.0 * n_f.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            let j = i as f64 * 0.01;
            rows.push(vec![j, -j]);
            rows.push(vec![10.0 + j, 10.0 - j]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn separates_well_separated_blobs() {
        let data = two_blobs();
        let c = kmeans(&data, &KmeansConfig::new(2).with_seed(7));
        // All even rows together, all odd rows together.
        let c0 = c.assignments[0];
        let c1 = c.assignments[1];
        assert_ne!(c0, c1);
        for i in 0..data.rows() {
            assert_eq!(c.assignments[i], if i % 2 == 0 { c0 } else { c1 });
        }
        assert_eq!(c.sizes.iter().sum::<usize>(), data.rows());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let cfg = KmeansConfig::new(3).with_seed(42);
        let a = kmeans(&data, &cfg);
        let b = kmeans(&data, &cfg);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.bic, b.bic);
    }

    #[test]
    fn identical_across_thread_counts() {
        let data = two_blobs();
        let base = kmeans(&data, &KmeansConfig::new(4).with_seed(13).with_threads(1));
        for threads in [2, 4, 0] {
            let other = kmeans(
                &data,
                &KmeansConfig::new(4).with_seed(13).with_threads(threads),
            );
            assert_eq!(base.assignments, other.assignments);
            assert_eq!(base.inertia.to_bits(), other.inertia.to_bits());
            assert_eq!(base.bic.to_bits(), other.bic.to_bits());
        }
    }

    #[test]
    fn matches_reference_implementation() {
        let data = two_blobs();
        for k in [1, 2, 5, 9] {
            let cfg = KmeansConfig::new(k).with_seed(21).with_restarts(3);
            let pruned = kmeans(&data, &cfg);
            let naive = kmeans_reference(&data, &cfg);
            assert_eq!(pruned.assignments, naive.assignments, "k = {k}");
            assert_eq!(pruned.inertia.to_bits(), naive.inertia.to_bits());
            assert_eq!(pruned.bic.to_bits(), naive.bic.to_bits());
            assert_eq!(pruned.sizes, naive.sizes);
        }
    }

    #[test]
    fn exhausted_neighbour_list_falls_back_to_full_scan() {
        // Centroid 0 at the origin, its NEAR nearest neighbours bunched
        // just right of 1, and the point's true nearest centroid at −1.5,
        // off centroid 0's list. The point at −1 starts in cluster 0; its
        // list runs out uncertified, so only the full scan finds −1.5.
        let k = NEAR + 2;
        let mut rows = vec![vec![0.0]];
        rows.extend((1..=NEAR).map(|i| vec![1.0 + 0.001 * i as f64]));
        rows.push(vec![-1.5]);
        let centroids = Matrix::from_rows(&rows);
        let data = Matrix::from_rows(&[vec![-1.0]]);
        let mut table = NeighbourTable::new(k);
        table.rebuild(&centroids);
        let mut state = PointBounds {
            assignments: vec![0],
            upper: vec![f64::INFINITY],
            lower: vec![0.0],
        };
        let (moves, tally) = assign_pass(&data, &centroids, &mut state, 1, false, Some(&table));
        assert_eq!(moves, vec![(0, 0, k - 1)]);
        assert_eq!((tally.scanned, tally.full_scans), (1, 1));
        assert_eq!(tally.distances, (NEAR + k) as u64);
        let (best, best_d, second) = scan_point(data.row(0), &centroids, 0);
        assert_eq!(best, k - 1);
        assert_eq!(state.upper[0].to_bits(), best_d.sqrt().to_bits());
        assert_eq!(state.lower[0].to_bits(), second.sqrt().to_bits());
    }

    #[test]
    fn neighbour_scan_stops_early_with_the_exact_result() {
        // Evenly spaced centroids on a line and a point 4.8 from its
        // stale incumbent: the scan finds centroid 40 and stops once the
        // list passes u + s = 4.8 + 0.8, a third of the way down.
        let k = 3 * NEAR;
        let rows: Vec<Vec<f64>> = (0..k).map(|i| vec![i as f64]).collect();
        let centroids = Matrix::from_rows(&rows);
        let mut table = NeighbourTable::new(k);
        table.rebuild(&centroids);
        let row = [40.2];
        let incumbent = 45;
        let incumbent_dsq = distance_sq(&row, centroids.row(incumbent));
        let mut tally = PassTally::default();
        let (best, best_d, lower) = table
            .scan(&row, &centroids, incumbent, incumbent_dsq, &mut tally)
            .expect("certified from the list");
        let (want, want_d, want_second) = scan_point(&row, &centroids, incumbent);
        assert_eq!((best, best_d.to_bits()), (want, want_d.to_bits()));
        assert_eq!(lower.to_bits(), want_second.sqrt().to_bits());
        assert!(
            tally.distances < NEAR as u64,
            "{} distances",
            tally.distances
        );
    }

    proptest::proptest! {
        /// Against the full scan on a few-level grid (ties, coincident
        /// centroids): whenever the neighbour scan answers, it finds the
        /// same best centroid and squared distance and the exact
        /// second-nearest distance, and it answers whenever the lists
        /// are complete.
        #[test]
        fn neighbour_scan_matches_full_scan(seed in 0u64..u64::MAX, k in 1usize..90, cols in 1usize..4) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut grid = |rows: usize, scale: f64| {
                let mut m = Matrix::zeros(rows, cols);
                for r in 0..rows {
                    for v in m.row_mut(r) {
                        *v = f64::from(rng.random_range(0..5u32)) * scale;
                    }
                }
                m
            };
            let centroids = grid(k, 1.0);
            let points = grid(40, 0.5);
            let mut table = NeighbourTable::new(k);
            table.rebuild(&centroids);
            for (i, row) in points.iter_rows().enumerate() {
                let incumbent = i % k;
                let incumbent_dsq = distance_sq(row, centroids.row(incumbent));
                let mut tally = PassTally::default();
                let found = table.scan(row, &centroids, incumbent, incumbent_dsq, &mut tally);
                let (want, want_d, want_second) = scan_point(row, &centroids, incumbent);
                let Some((best, best_d, lower)) = found else {
                    proptest::prop_assert!(k > NEAR + 1, "complete lists always answer");
                    continue;
                };
                proptest::prop_assert_eq!((best, best_d.to_bits()), (want, want_d.to_bits()));
                proptest::prop_assert_eq!(lower.to_bits(), want_second.sqrt().to_bits());
            }
        }
    }

    #[test]
    fn points_key_on_row_bits() {
        let data = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, -0.0],
            vec![1.0, 0.0],
            vec![2.0, 3.0],
            vec![1.0, -0.0],
        ]);
        let points = data.by_bits();
        assert_eq!(points.distinct(), &data.select_rows(&[0, 1, 3]));
        assert_eq!(points.index(), &[0, 1, 0, 2, 1]);
        // Point 0 moves 0 → 2 and point 2 moves 1 → 0: one move per
        // row, in row order.
        let moves = row_moves(&points, &[(0, 0, 2), (2, 1, 0)]);
        assert_eq!(moves, vec![(0, 0, 2), (2, 0, 2), (3, 1, 0)]);
        assert_eq!(row_moves(&points, &[]), vec![]);
    }

    #[test]
    fn rebuilt_table_matches_a_fresh_one() {
        // Reused pair distances must give the lists a table built from
        // scratch gives, after some centroids move and others keep
        // their bits.
        let k = NEAR + 9;
        let mut rng = StdRng::seed_from_u64(5);
        let mut centroids = Matrix::zeros(k, 3);
        for c in 0..k {
            for v in centroids.row_mut(c) {
                *v = rng.random_range(-1.0..1.0);
            }
        }
        let mut table = NeighbourTable::new(k);
        table.rebuild(&centroids);
        for round in 0..3 {
            for c in (round..k).step_by(7) {
                centroids.row_mut(c)[round] += 0.25;
            }
            table.rebuild(&centroids);
            let mut fresh = NeighbourTable::new(k);
            fresh.rebuild(&centroids);
            let bits = |t: &NeighbourTable| -> Vec<(u64, usize)> {
                t.entries.iter().map(|&(d, c)| (d.to_bits(), c)).collect()
            };
            assert_eq!(bits(&table), bits(&fresh), "round {round}");
            assert_eq!(
                table.changed.iter().filter(|&&c| c).count(),
                (round..k).step_by(7).count()
            );
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]);
        let c = kmeans(&data, &KmeansConfig::new(3).with_seed(1));
        assert!(c.inertia < 1e-12);
        assert_eq!(c.sizes, vec![1, 1, 1]);
    }

    #[test]
    fn representative_is_closest_to_centroid() {
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![100.0]]);
        let c = kmeans(&data, &KmeansConfig::new(2).with_seed(3));
        let cluster_of_0 = c.assignments[0];
        let rep = c.representative_of(&data, cluster_of_0).unwrap();
        // Centroid of {0,1,2} is 1.0; closest is row 1.
        assert_eq!(rep, 1);
    }

    #[test]
    fn members_of_partitions_rows() {
        let data = two_blobs();
        let c = kmeans(&data, &KmeansConfig::new(2).with_seed(9));
        let total: usize = (0..2).map(|k| c.members_of(k).len()).sum();
        assert_eq!(total, data.rows());
    }

    #[test]
    fn bic_prefers_true_k_over_k1() {
        let data = two_blobs();
        let c1 = kmeans(&data, &KmeansConfig::new(1).with_seed(5));
        let c2 = kmeans(&data, &KmeansConfig::new(2).with_seed(5));
        assert!(
            c2.bic > c1.bic,
            "BIC should prefer k=2 on two blobs: {} vs {}",
            c2.bic,
            c1.bic
        );
    }

    #[test]
    fn inertia_decreases_with_k() {
        let data = two_blobs();
        let c2 = kmeans(&data, &KmeansConfig::new(2).with_seed(5));
        let c8 = kmeans(&data, &KmeansConfig::new(8).with_seed(5));
        assert!(c8.inertia <= c2.inertia + 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds number of points")]
    fn k_larger_than_n_rejected() {
        let data = Matrix::from_rows(&[vec![0.0]]);
        let _ = kmeans(&data, &KmeansConfig::new(2));
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let c = kmeans(&data, &KmeansConfig::new(3).with_seed(11));
        assert_eq!(c.assignments.len(), 10);
        assert!(c.inertia < 1e-12);
    }

    #[test]
    fn empty_cluster_reseeds_are_deduplicated() {
        // Five points, everything assigned to cluster 0, clusters 1 and 2
        // empty. Re-seeding must hand the two empty clusters two
        // *distinct* far rows (rows 3 and 4), not the single farthest row
        // twice.
        let data = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![40.0, 0.0],
            vec![0.0, 30.0],
        ]);
        let assignments = vec![0usize; 5];
        let mut sums = Matrix::zeros(3, 2);
        let mut counts = vec![0usize; 3];
        for i in 0..5 {
            counts[0] += 1;
            for (t, &v) in sums.row_mut(0).iter_mut().zip(data.row(i)) {
                *t += v;
            }
        }
        let mut centroids = Matrix::zeros(3, 2);
        let mut moved = vec![0.0; 3];
        update_centroids(
            &IndexedRows::from(data.clone()),
            &assignments,
            &sums,
            &counts,
            &mut centroids,
            &mut moved,
        );
        // Farthest from the mean is row 3, second-farthest row 4.
        assert_eq!(centroids.row(1), data.row(3));
        assert_eq!(centroids.row(2), data.row(4));
        assert_ne!(centroids.row(1), centroids.row(2));
        assert!(moved[1] > 0.0 && moved[2] > 0.0);
    }
}
