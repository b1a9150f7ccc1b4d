//! The phaselab benchmark: end-to-end and per-layer costs of the
//! characterize-then-cluster loop of Hoste & Eeckhout (ISPASS 2008).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-study --seed 1 --seconds 12 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- record-reference
//! ```
//!
//! One operation is one study over all 77 benchmarks plus its
//! coverage/uniqueness report (fig4–6 SVGs). With `--trace 0` the run
//! times operations with tracing off and prints the end-to-end metrics;
//! with `--trace 1` it runs the VM/MICA calibration, times untraced and
//! then traced operations, and prints the per-layer metrics. The last
//! stdout line is the result object; the line before it is the full row
//! with its environment metadata. `record-reference` prints the
//! reference digests every operation is checked against (see
//! `README.md` for the workloads and the layer → end-to-end mapping).

mod calibrate;
mod study;
mod traced;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use phaselab_core::run_study_resumable;
use study::{
    digest_of, op_store, run_op, set_up, Op, Prepared, Reference, Workload, POOL, THREADS,
};

/// Set-ups per untraced run: at least the minimum, then more (up to the
/// maximum) while their total stays under the budget. `setup_s` is
/// their median.
const SETUP_REPEATS: (usize, usize) = (2, 9);
const SETUP_BUDGET_S: f64 = 10.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad())?;
                    seconds = Some((1..=600).contains(&s).then_some(s as f64).ok_or_else(bad)?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A per-run scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let root = Path::new(".perfbench-work");
        let dir = root.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root); // only if no other run uses it
        }
    }
}

/// What a run measured.
struct Outcome {
    ops: Vec<Op>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let reference = match Reference::parse(include_str!("../reference.txt")) {
        Ok(r) => r,
        Err(e) => return fail(&e, 1),
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => return fail(&e, 1),
    };
    if argv.first().map(String::as_str) == Some("record-reference") {
        return match record_reference(&work.0) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e, 1),
        };
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => return fail(&format!("{e}\nusage: perfbench --workload cold-study|warm-reanalysis|warm-streaming --seed N --seconds S --trace 0|1"), 2),
    };
    let outcome = if args.trace {
        traced_run(&args, &work.0, &reference)
    } else {
        untraced_run(&args, &work.0, &reference)
    };
    match outcome {
        Ok(outcome) => {
            report(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e, 1),
    }
}

fn fail(msg: &str, code: u8) -> ExitCode {
    eprintln!("perfbench: {msg}");
    ExitCode::from(code)
}

/// End-to-end metrics, tracing off.
fn untraced_run(args: &Args, work: &Path, reference: &Reference) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prep: Option<Prepared> = None;
    while setup_s.len() < SETUP_REPEATS.0
        || (setup_s.len() < SETUP_REPEATS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(old) = prep.take() {
            if let Some(store) = &old.pristine {
                let _ = std::fs::remove_dir_all(store.dir());
            }
        }
        let t = Instant::now();
        prep = Some(set_up(w, &work.join(format!("setup-{}", setup_s.len())))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up ran");

    let ops = measure(
        args,
        &prep,
        Until::Rounds(args.seconds),
        work,
        reference,
        &mut |_, _| Ok(()),
    );
    let done: Vec<&Op> = ops.iter().filter(|o| o.error.is_none()).collect();
    let study_s = median(done.iter().map(|o| o.secs));
    let minst = median(done.iter().map(|o| o.instructions as f64 / o.secs / 1e6));
    Ok(Outcome {
        ops,
        metrics: vec![
            ("setup_s", median(setup_s), "s"),
            ("study_s", study_s, "s"),
            ("minst_per_s", minst, "Minst/s"),
            (
                "peak_rss_mb",
                phaselab_obs::peak_rss_kb() as f64 / 1024.0,
                "MB",
            ),
        ],
    })
}

/// Per-layer metrics: calibration, then operations untraced for half the
/// run, then the same operations traced (the ratio of their total times
/// is the tracing overhead).
fn traced_run(args: &Args, work: &Path, reference: &Reference) -> Result<Outcome, String> {
    let w = args.workload;
    let prep = set_up(w, &work.join("setup"))?;
    let cal = calibrate::calibrate(&prep.benches)?;
    let half = args.seconds / 2.0;
    let untraced = measure(
        args,
        &prep,
        Until::Seconds(half),
        work,
        reference,
        &mut |_, _| Ok(()),
    );

    let reg = phaselab_obs::install();
    reg.reset();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let probe_dir = work.join("probe");
    let same_ops = Until::Ops(untraced.len());
    let mut ops = measure(args, &prep, same_ops, work, reference, &mut |store, cfg| {
        let snap = traced::Snapshot::take(reg);
        let mut layers = traced::op_layers(w, &snap, reference.instructions)?;
        layers.extend(traced::store_probe(store, cfg, &prep.benches, &probe_dir)?);
        samples.push(layers);
        reg.reset();
        Ok(())
    });

    if samples.is_empty() {
        return Err("no traced operation succeeded".into());
    }
    // Both halves ran the same seeds in the same order.
    let secs = |ops: &[Op]| ops.iter().map(|o| o.secs).sum::<f64>();
    let overhead = secs(&ops) / secs(&untraced);
    let render_ms = median(
        ops.iter()
            .filter(|o| o.error.is_none())
            .map(|o| o.render_ms),
    );
    let mut metrics = vec![
        ("workloads.build_ms", prep.build_ms, "ms"),
        ("vm.static_ms", prep.static_ms, "ms"),
        ("vm.dispatch_ns_per_inst", cal.dispatch_ns_per_inst, "ns"),
        ("vm.inst_per_block", cal.inst_per_block, "count"),
        ("mica.observe_ns_per_inst", cal.observe_ns_per_inst, "ns"),
        ("viz.render_ms", render_ms, "ms"),
        ("obs.overhead_ratio", overhead, "ratio"),
    ];
    for (name, ns) in calibrate::ANALYZERS
        .into_iter()
        .zip(cal.analyzer_ns_per_inst)
    {
        metrics.push((name, ns, "ns"));
    }
    if let Some(fill) = &prep.fill {
        // Warm workloads characterize only while filling the store.
        metrics.extend([
            ("core.characterize_ms", fill.sum_ms, "ms"),
            ("core.characterize_max_ms", fill.max_ms, "ms"),
            (
                "par.characterize_efficiency",
                fill.sum_ms / (THREADS as f64 * fill.wall_ms),
                "ratio",
            ),
        ]);
    }
    let names: Vec<&'static str> = samples
        .first()
        .map_or(Vec::new(), |s| s.iter().map(|m| m.0).collect());
    for name in names {
        let values = samples
            .iter()
            .filter_map(|s| s.iter().find(|m| m.0 == name).map(|m| m.1));
        metrics.push((name, median(values), layer_unit(name)));
    }
    ops.extend(untraced);
    Ok(Outcome { ops, metrics })
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("us_per_eval") {
        "us"
    } else if name.starts_with("store.bytes") {
        "bytes"
    } else if name.ends_with("ratio") || name.ends_with("efficiency") {
        "ratio"
    } else {
        "count"
    }
}

/// When [`measure`] stops.
#[derive(Clone, Copy)]
enum Until {
    /// Whole rounds, once this many seconds have passed.
    Rounds(f64),
    /// At least one operation, once this many seconds have passed.
    Seconds(f64),
    /// Exactly this many operations.
    Ops(usize),
}

/// Times operations until `until` says stop. Operation `i` studies the
/// pool seed the run's seed picks for it.
fn measure(
    args: &Args,
    prep: &Prepared,
    until: Until,
    work: &Path,
    reference: &Reference,
    inspect: &mut study::Inspect<'_>,
) -> Vec<Op> {
    let t = Instant::now();
    let round = args.workload.round() as usize;
    let mut ops = Vec::new();
    loop {
        let (n, elapsed) = (ops.len(), t.elapsed().as_secs_f64());
        let done = match until {
            Until::Rounds(s) => n > 0 && n % round == 0 && elapsed >= s,
            Until::Seconds(s) => n > 0 && elapsed >= s,
            Until::Ops(k) => n >= k,
        };
        if done {
            return ops;
        }
        let seed = args.workload.study_seed(args.seed, n as u64);
        let op = run_op(
            args.workload,
            prep,
            seed,
            &work.join("op"),
            reference,
            inspect,
        );
        if let Some(e) = &op.error {
            eprintln!("perfbench: operation {n} (study seed {seed}) failed: {e}");
        }
        ops.push(op);
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Prints the full row (environment metadata, fail ratio, sample count)
/// and then the result object as the last line.
fn report(args: &Args, outcome: &Outcome) {
    let attempted = outcome.ops.len();
    let failed = outcome.ops.iter().filter(|o| o.error.is_some()).count();
    let correct = failed == 0 && outcome.metrics.iter().all(|m| m.1.is_finite());
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            num(*value),
            json_str(unit)
        );
    }
    let mut env = String::new();
    for (key, value) in environment(args) {
        let _ = write!(env, "{}: {}, ", json_str(key), json_str(&value));
    }
    let op_secs: Vec<String> = outcome.ops.iter().map(|o| num(o.secs)).collect();
    println!(
        "{{\"row\": {{{env}\"workload\": {}, \"trace\": {}, \"operations\": {attempted}, \"fail_ratio\": {}, \"op_secs\": [{}], \"metrics\": {{{metrics}}}}}}}",
        json_str(args.workload.name()),
        u8::from(args.trace),
        num(failed as f64 / attempted.max(1) as f64),
        op_secs.join(", "),
    );
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}");
}

/// Metadata that keeps rows taken months apart comparable.
fn environment(args: &Args) -> Vec<(&'static str, String)> {
    let run = |cmd: &str, cmd_args: &[&str]| -> String {
        Command::new(cmd)
            .args(cmd_args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        // Only this directory's own history: a checkout nested in some
        // other repository must not report that repository's commit.
        (
            "commit",
            if Path::new(".git").exists() {
                run("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            },
        ),
        ("source_fnv", source_digest()),
        ("rustc", run("rustc", &["-V"])),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("threads", THREADS.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("seed", args.seed.to_string()),
    ]
}

/// FNV-1a over the program's sources (every file under `crates/`, in
/// path order) — identifies the code when no git metadata is at hand.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = study::Fnv::new();
    for f in &files {
        h.str(&f.to_string_lossy());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Computes the digest of every pool seed, per reference class, and the
/// catalog's instruction total, in `reference.txt` format. Fails unless
/// the in-RAM and streaming warm paths agree on every seed.
fn record_reference(work: &Path) -> Result<String, String> {
    let mut out = String::from(
        "# Reference outputs of the perfbench operations, one digest per\n\
         # (class, study seed): `cold` for cold-study, `warm` for both warm\n\
         # workloads. Regenerate with `record-reference` when a change is\n\
         # meant to alter study results.\n",
    );
    let mut instructions = None;
    for (class, ws) in [
        ("cold", vec![Workload::ColdStudy]),
        (
            "warm",
            vec![Workload::WarmReanalysis, Workload::WarmStreaming],
        ),
    ] {
        let mut digests: Vec<Vec<u64>> = Vec::new();
        for w in ws {
            let prep = set_up(w, &work.join("setup"))?;
            let mut these = Vec::new();
            for seed in 0..POOL {
                let store = op_store(&prep, &work.join("op"))?;
                let r = run_study_resumable(&w.config(seed), Some(&store), None)
                    .map_err(|e| format!("{} seed {seed}: {e}", w.name()))?;
                instructions = Some(
                    r.benchmarks
                        .iter()
                        .map(|b| b.total_instructions)
                        .sum::<u64>(),
                );
                these.push(digest_of(&r));
                eprintln!(
                    "perfbench: {} seed {seed}: {:016x}",
                    w.name(),
                    digest_of(&r)
                );
            }
            digests.push(these);
        }
        if digests.windows(2).any(|p| p[0] != p[1]) {
            return Err(format!("{class} workloads disagree on their digests"));
        }
        for (seed, d) in digests[0].iter().enumerate() {
            let _ = writeln!(out, "{class} {seed} {d:016x}");
        }
    }
    let _ = writeln!(out, "instructions {}", instructions.unwrap_or(0));
    Ok(out)
}
