//! The three workloads: their set-up, one timed operation (a study plus
//! its coverage/uniqueness report), and the output checks that decide
//! whether an operation failed.

use std::collections::BTreeMap;
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use phaselab_core::{
    characterization_fingerprint, characterize_benchmark, coverage, diversity, run_study_resumable,
    uniqueness, AnalysisMode, BenchOutcome, CheckpointStore, StudyConfig, StudyResult,
    SuiteCoverage, SuiteCurve, SuiteUniqueness,
};
use phaselab_viz::{BarChart, LineChart};
use phaselab_workloads::{catalog, Benchmark, Scale};

/// Worker threads for every parallel stage (the benchmark machine's
/// core count; fixed so runs on bigger machines still compare).
pub const THREADS: usize = 2;
/// Benchmarks in the catalog; every operation studies all of them.
pub const BENCHMARKS: usize = 77;
/// Study seeds an operation may draw; the reference file holds a digest
/// for each, per workload class.
pub const POOL: u64 = 12;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A full study per operation against an empty store: VM + MICA
    /// characterization dominates.
    ColdStudy,
    /// In-RAM re-analysis of a pre-filled store: PCA, k-means and GA
    /// dominate; the VM executes nothing.
    WarmReanalysis,
    /// As `WarmReanalysis`, with the streaming analysis path re-reading
    /// rows from the store.
    WarmStreaming,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdStudy,
        Workload::WarmReanalysis,
        Workload::WarmStreaming,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdStudy => "cold-study",
            Workload::WarmReanalysis => "warm-reanalysis",
            Workload::WarmStreaming => "warm-streaming",
        }
    }

    pub fn is_warm(self) -> bool {
        self != Workload::ColdStudy
    }

    /// The reference class: both warm workloads must reproduce the same
    /// digests, since the two analysis modes are bit-identical.
    pub fn reference_class(self) -> &'static str {
        if self.is_warm() {
            "warm"
        } else {
            "cold"
        }
    }

    /// The study configuration of one operation.
    pub fn config(self, study_seed: u64) -> StudyConfig {
        let mut cfg = StudyConfig::paper_scaled();
        cfg.scale = Scale::Small;
        cfg.interval_len = 10_000;
        cfg.k = 300;
        cfg.threads = THREADS;
        cfg.seed = study_seed;
        match self {
            Workload::ColdStudy => cfg.samples_per_benchmark = 200,
            Workload::WarmReanalysis => cfg.samples_per_benchmark = 1000,
            Workload::WarmStreaming => {
                cfg.samples_per_benchmark = 1000;
                cfg.analysis = AnalysisMode::Streaming;
            }
        }
        cfg
    }

    /// Operations per round. A run times whole rounds, each over the same
    /// window of pool seeds, so every run of a workload studies the same
    /// mix of seeds (their costs differ by up to ±20%); a cold round is
    /// ~30 s, a warm one ~17 s.
    pub fn round(self) -> u64 {
        if self.is_warm() {
            POOL
        } else {
            4
        }
    }

    /// Study seed of operation `op` in a run with workload seed `seed`:
    /// the seed picks where the run's window starts in the pool.
    pub fn study_seed(self, seed: u64, op: u64) -> u64 {
        (splitmix(seed) % POOL + op % self.round()) % POOL
    }
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expected outputs: the instruction total of the catalog at the
/// benchmark's scale and one result digest per (class, study seed).
pub struct Reference {
    pub instructions: u64,
    digests: BTreeMap<(String, u64), u64>,
}

impl Reference {
    /// Parses `reference.txt` (`instructions N` and `<class> <seed>
    /// <hex digest>` lines; `#` starts a comment).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut instructions = None;
        let mut digests = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad reference line: {line}");
            match fields.as_slice() {
                ["instructions", n] => instructions = Some(n.parse().map_err(|_| bad())?),
                [class, seed, digest] => {
                    let seed = seed.parse().map_err(|_| bad())?;
                    let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
                    digests.insert(((*class).to_string(), seed), digest);
                }
                _ => return Err(bad()),
            }
        }
        Ok(Reference {
            instructions: instructions.ok_or("reference lacks an instructions line")?,
            digests,
        })
    }

    pub fn digest(&self, class: &str, study_seed: u64) -> Option<u64> {
        self.digests.get(&(class.to_string(), study_seed)).copied()
    }
}

/// Per-benchmark characterization timings of a store fill.
pub struct FillTimes {
    pub sum_ms: f64,
    pub max_ms: f64,
    pub wall_ms: f64,
}

/// What set-up leaves for the operations.
pub struct Prepared {
    pub benches: Vec<Benchmark>,
    /// The characterization-only store every warm operation copies.
    pub pristine: Option<CheckpointStore>,
    pub build_ms: f64,
    pub static_ms: f64,
    pub fill: Option<FillTimes>,
}

/// Builds and statically analyzes every program of the catalog and, for
/// the warm workloads, fills a store under `dir` with characterization
/// entries only (no k-means restarts, so no operation can hit a cached
/// clustering).
pub fn set_up(w: Workload, dir: &Path) -> Result<Prepared, String> {
    let benches = catalog();
    if benches.len() != BENCHMARKS {
        return Err(format!("catalog has {} benchmarks", benches.len()));
    }
    let t = Instant::now();
    let programs: Vec<_> = benches
        .iter()
        .flat_map(|b| (0..b.num_inputs()).map(move |i| b.build(Scale::Small, i)))
        .collect();
    let build_ms = ms(t);
    let t = Instant::now();
    for p in &programs {
        std::hint::black_box(p.analyze()).map_err(|e| format!("static analysis: {e}"))?;
    }
    let static_ms = ms(t);
    drop(programs);

    let (pristine, fill) = if w.is_warm() {
        let (store, fill) = fill_store(w, &benches, dir)?;
        (Some(store), Some(fill))
    } else {
        (None, None)
    };
    Ok(Prepared {
        benches,
        pristine,
        build_ms,
        static_ms,
        fill,
    })
}

fn fill_store(
    w: Workload,
    benches: &[Benchmark],
    dir: &Path,
) -> Result<(CheckpointStore, FillTimes), String> {
    let cfg = w.config(0);
    let fp = characterization_fingerprint(&cfg);
    let store = CheckpointStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let t = Instant::now();
    let times = phaselab_par::parallel_map(benches, THREADS, |b| {
        let t = Instant::now();
        let outcome = characterize_benchmark(b, &cfg).map_err(|q| format!("fill: {q:?}"))?;
        let took = ms(t);
        store.store_benchmark(
            fp,
            b.suite(),
            b.name(),
            &BenchOutcome::Characterized(outcome),
        );
        Ok(took)
    })
    .into_iter()
    .collect::<Result<Vec<f64>, String>>()?;
    let wall_ms = ms(t);
    let fill = FillTimes {
        sum_ms: times.iter().sum(),
        max_ms: times.iter().copied().fold(0.0, f64::max),
        wall_ms,
    };
    Ok((store, fill))
}

/// The outcome of one timed operation.
pub struct Op {
    pub secs: f64,
    pub render_ms: f64,
    /// Dynamic instructions of the studied executions.
    pub instructions: u64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
}

/// Hook run after each operation's own checks, before clean-up; an error
/// fails the operation.
pub type Inspect<'a> = dyn FnMut(&CheckpointStore, &StudyConfig) -> Result<(), String> + 'a;

/// Runs one operation in `dir` (created fresh, removed afterwards):
/// prepares its store, times the study plus report, then checks the
/// outputs.
pub fn run_op(
    w: Workload,
    prep: &Prepared,
    study_seed: u64,
    dir: &Path,
    reference: &Reference,
    inspect: &mut Inspect<'_>,
) -> Op {
    let cfg = w.config(study_seed);
    let result = (|| {
        let store = op_store(prep, dir)?;
        let entries = bench_entries(&store, &cfg, &prep.benches);
        let before = inodes(&entries);
        if entries_outside(&store, &entries)? != 0 {
            return Err("store holds entries besides characterizations".into());
        }

        let t = Instant::now();
        let study = run_study_resumable(&cfg, Some(&store), None);
        let report = study.as_ref().ok().map(Report::of);
        let secs = t.elapsed().as_secs_f64();

        let study = study.map_err(|e| format!("study failed: {e}"))?;
        let report = report.expect("present when the study succeeded");
        let instructions = study.benchmarks.iter().map(|b| b.total_instructions).sum();
        let check = check_outputs(w, &cfg, &study, &report, reference)
            .and_then(|()| check_store(w, &store, &cfg, &entries, &before));
        check.and_then(|()| inspect(&store, &cfg))?;
        Ok((secs, report.render_ms, instructions))
    })();
    let _ = fs::remove_dir_all(dir);
    match result {
        Ok((secs, render_ms, instructions)) => Op {
            secs,
            render_ms,
            instructions,
            error: None,
        },
        Err(e) => Op {
            secs: f64::NAN,
            render_ms: f64::NAN,
            instructions: 0,
            error: Some(e),
        },
    }
}

/// A fresh store in `dir` for one operation: empty for the cold study, a
/// copy of the pristine fill for the warm workloads.
pub fn op_store(prep: &Prepared, dir: &Path) -> Result<CheckpointStore, String> {
    let _ = fs::remove_dir_all(dir);
    if let Some(pristine) = &prep.pristine {
        copy_dir(pristine.dir(), dir).map_err(|e| format!("copy store: {e}"))?;
    }
    CheckpointStore::open(dir).map_err(|e| format!("open store: {e}"))
}

/// The coverage/uniqueness report of one study and its fig4–6 SVGs.
struct Report {
    coverage: Vec<SuiteCoverage>,
    curves: Vec<SuiteCurve>,
    uniqueness: Vec<SuiteUniqueness>,
    svgs: [String; 3],
    render_ms: f64,
}

impl Report {
    fn of(r: &StudyResult) -> Report {
        let cov = coverage(r);
        let curves = diversity(r);
        let uniq = uniqueness(r);

        let t = Instant::now();
        let fig4 = BarChart::new(
            "Figure 4: workload-space coverage per suite",
            "#clusters",
            cov.iter()
                .map(|c| (c.suite.short_name().to_string(), c.clusters_touched as f64))
                .collect(),
        )
        .to_svg(560.0, 320.0);
        let series = curves
            .iter()
            .map(|c| {
                let points = c.cumulative.iter().enumerate();
                let points = points.map(|(i, &y)| ((i + 1) as f64, y)).collect();
                (c.suite.short_name().to_string(), points)
            })
            .collect();
        let fig5 = LineChart::new(
            "Figure 5: cumulative coverage per suite",
            "number of clusters",
            "cumulative coverage",
            series,
        )
        .to_svg(620.0, 360.0);
        let fig6 = BarChart::new(
            "Figure 6: fraction of unique behavior per suite",
            "fraction",
            uniq.iter()
                .map(|u| (u.suite.short_name().to_string(), u.unique_fraction))
                .collect(),
        )
        .to_svg(560.0, 320.0);
        Report {
            coverage: cov,
            curves,
            uniqueness: uniq,
            svgs: [fig4, fig5, fig6],
            render_ms: ms(t),
        }
    }

    /// Digest of the cluster assignments, key characteristics and
    /// per-suite coverage, diversity and uniqueness.
    fn digest(&self, r: &StudyResult) -> u64 {
        let mut h = Fnv::new();
        for &a in &r.clustering.assignments {
            h.u64(a as u64);
        }
        for &f in &r.key_characteristics {
            h.u64(f as u64);
        }
        for c in &self.coverage {
            h.str(c.suite.short_name())
                .u64(c.clusters_touched as u64)
                .u64(c.total_clusters as u64);
        }
        for c in &self.curves {
            h.str(c.suite.short_name());
            for y in &c.cumulative {
                h.u64(y.to_bits());
            }
        }
        for u in &self.uniqueness {
            h.str(u.suite.short_name()).u64(u.unique_fraction.to_bits());
        }
        h.0
    }
}

/// The digest of a study's outputs, for recording references.
pub fn digest_of(r: &StudyResult) -> u64 {
    Report::of(r).digest(r)
}

fn check_outputs(
    w: Workload,
    cfg: &StudyConfig,
    r: &StudyResult,
    report: &Report,
    reference: &Reference,
) -> Result<(), String> {
    if !r.quarantined.is_empty() {
        return Err(format!("{} benchmarks quarantined", r.quarantined.len()));
    }
    if r.benchmarks.len() != BENCHMARKS {
        return Err(format!("{} benchmarks studied", r.benchmarks.len()));
    }
    let rows = BENCHMARKS * cfg.samples_per_benchmark;
    if r.sampled.len() != rows || r.clustering.assignments.len() != rows {
        return Err(format!("{} rows sampled, {rows} expected", r.sampled.len()));
    }
    let instructions: u64 = r.benchmarks.iter().map(|b| b.total_instructions).sum();
    if instructions != reference.instructions {
        return Err(format!("{instructions} instructions studied"));
    }
    for svg in &report.svgs {
        if !svg.starts_with("<svg") || !svg.trim_end().ends_with("</svg>") {
            return Err("malformed SVG".into());
        }
    }
    let class = w.reference_class();
    let digest = report.digest(r);
    match reference.digest(class, cfg.seed) {
        Some(d) if d == digest => Ok(()),
        Some(d) => Err(format!(
            "digest {digest:016x} differs from reference {d:016x} ({class} seed {})",
            cfg.seed
        )),
        None => Err(format!("no reference for {class} seed {}", cfg.seed)),
    }
}

/// Store-side checks. A cold operation must write every outcome; a warm
/// one must reload every outcome untouched (a rewritten file has a new
/// inode, so a re-characterization cannot hide). Every operation must
/// write its k-means restarts, which proves k-means ran: the store held
/// no restarts before the operation.
fn check_store(
    w: Workload,
    store: &CheckpointStore,
    cfg: &StudyConfig,
    entries: &[PathBuf],
    before: &[Option<u64>],
) -> Result<(), String> {
    let after = inodes(entries);
    if w.is_warm() {
        if after != before || after.iter().any(Option::is_none) {
            return Err("a warm operation rewrote characterization entries".into());
        }
    } else if after.iter().any(Option::is_none) {
        return Err("a cold operation left characterization entries unwritten".into());
    }
    let restarts = entries_outside(store, entries)?;
    if restarts != cfg.kmeans_restarts {
        return Err(format!(
            "{restarts} k-means restarts stored, {} expected",
            cfg.kmeans_restarts
        ));
    }
    Ok(())
}

/// Paths of the characterization entries of every benchmark.
fn bench_entries(
    store: &CheckpointStore,
    cfg: &StudyConfig,
    benches: &[Benchmark],
) -> Vec<PathBuf> {
    let fp = characterization_fingerprint(cfg);
    benches
        .iter()
        .map(|b| store.benchmark_path(fp, b.suite(), b.name()))
        .collect()
}

fn inodes(paths: &[PathBuf]) -> Vec<Option<u64>> {
    paths
        .iter()
        .map(|p| fs::metadata(p).ok().map(|m| m.ino()))
        .collect()
}

/// Number of files in the store outside the directory holding the
/// characterization `entries`.
fn entries_outside(store: &CheckpointStore, entries: &[PathBuf]) -> Result<usize, String> {
    let chars = entries.first().and_then(|e| e.parent());
    let mut n = 0;
    let list = |d: &Path| fs::read_dir(d).map_err(|e| format!("list {}: {e}", d.display()));
    for entry in list(store.dir())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if Some(path.as_path()) == chars {
            continue;
        }
        n += if path.is_dir() {
            list(&path)?.count()
        } else {
            1
        };
    }
    Ok(n)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a, 64-bit.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }
}
