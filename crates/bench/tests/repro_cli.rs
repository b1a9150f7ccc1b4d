//! Exit-code and diagnostic contract of the `repro` binary.
//!
//! Usage errors (bad flags, bad values, unknown experiments) must exit
//! with code 2 and a one-line stderr diagnostic *without* running a
//! study; `--help` succeeds. Keeping these argument-parsing paths fast
//! is what makes them testable here — none of them characterizes a
//! single benchmark.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr_line(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stderr);
    let mut lines = text.lines();
    let first = lines.next().unwrap_or_default().to_string();
    assert_eq!(lines.next(), None, "expected a one-line diagnostic");
    first
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repro"));
    assert!(text.contains("exit codes"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = repro(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unknown flag `--frobnicate`"), "{line}");

    // Retired flags are unknown, not silently ignored.
    for (flag, value) in [
        ("--kmeans-batch", "8"),
        ("--shard", "0/2"),
        ("--reduce", "2"),
        ("--supervise", "2"),
    ] {
        let out = repro(&[flag, value, "table3"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let line = stderr_line(&out);
        assert!(line.contains(&format!("unknown flag `{flag}`")), "{line}");
    }
}

#[test]
fn bad_flag_value_is_a_usage_error() {
    let out = repro(&["--interval", "ten", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("bad value `ten` for `--interval`"), "{line}");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    let out = repro(&["--seed"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("missing value for `--seed`"), "{line}");
}

#[test]
fn bad_scale_is_a_usage_error() {
    let out = repro(&["--scale", "huge"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("bad scale `huge`"), "{line}");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["table9"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unknown experiment `table9`"), "{line}");
}

#[test]
fn second_experiment_is_a_usage_error() {
    let out = repro(&["table1", "fig4"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unexpected argument `fig4`"), "{line}");
}

#[test]
fn table1_runs_without_a_study_and_succeeds() {
    let out = repro(&["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table 1"));
}

#[test]
fn help_lists_the_checkpoint_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--checkpoint-dir",
        "--resume",
        "--max-inst-per-bench",
        "130 interrupted",
    ] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = repro(&["--resume", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--resume` requires `--checkpoint-dir`"),
        "{line}"
    );
}

#[test]
fn resume_with_missing_dir_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!(
        "phaselab-no-such-checkpoint-dir-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--resume",
        "table1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("does not exist"), "{line}");
}

#[test]
fn verify_only_sweeps_the_registry_clean() {
    let out = repro(&["--verify-only", "--scale", "tiny"]);
    assert_eq!(out.status.code(), Some(0), "registry must verify clean");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all clean"), "{text}");
    assert!(text.contains("programs verified"), "{text}");
}

#[test]
fn verify_only_rejects_an_experiment_argument() {
    let out = repro(&["--verify-only", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--verify-only` cannot be combined with experiment `table1`"),
        "{line}"
    );
}

#[test]
fn verify_only_after_an_experiment_is_also_rejected() {
    let out = repro(&["table1", "--verify-only"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--verify-only` cannot be combined with experiment `table1`"),
        "{line}"
    );
}

#[test]
fn help_lists_verify_only() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--verify-only"), "help missing --verify-only");
}

#[test]
fn lint_sweeps_the_registry_without_deny_findings() {
    let out = repro(&["lint", "--scale", "tiny"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "registry must carry no deny-severity lints: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("programs linted"), "{text}");
    // Findings are severity-ranked: no warn line may follow an info line.
    let mut seen_info = false;
    for line in text.lines() {
        if line.starts_with("info:") {
            seen_info = true;
        }
        if line.starts_with("warn:") {
            assert!(!seen_info, "warn after info: findings not severity-ranked");
        }
    }
}

#[test]
fn lint_json_emits_the_shared_diagnostics_schema() {
    let out = repro(&["lint", "--scale", "tiny", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\n  \"schema\": 1,"), "{text}");
    for needle in [
        "\"programs\":",
        "\"clean\":",
        "\"findings\":",
        "\"path\":",
        "\"pc\":",
        "\"instruction\":",
        "\"severity\":",
        "\"source\": \"lint\"",
        "\"kind\":",
        "\"message\":",
    ] {
        assert!(text.contains(needle), "lint JSON missing `{needle}`");
    }
}

#[test]
fn verify_only_json_shares_the_lint_schema_and_is_clean() {
    let out = repro(&["--verify-only", "--scale", "tiny", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\n  \"schema\": 1,"), "{text}");
    assert!(text.contains("\"clean\": true"), "{text}");
    assert!(text.contains("\"findings\": []"), "{text}");
    // JSON replaces the human lines entirely.
    assert!(!text.contains("all clean:"), "{text}");
}

#[test]
fn lint_rejects_an_experiment_argument() {
    let out = repro(&["lint", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`lint` cannot be combined with experiment"),
        "{line}"
    );
}

#[test]
fn json_without_a_diagnostics_mode_is_a_usage_error() {
    let out = repro(&["--json", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--json` is only meaningful with `lint` or `--verify-only`"),
        "{line}"
    );
}

#[test]
fn help_lists_lint_and_the_static_analysis_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["lint", "--json", "--no-static-analysis"] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn zero_bench_budget_is_a_usage_error() {
    let out = repro(&["--max-inst-per-bench", "0", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("bad value `0` for `--max-inst-per-bench`"),
        "{line}"
    );
}

#[test]
fn non_numeric_bench_budget_is_a_usage_error() {
    let out = repro(&["--max-inst-per-bench", "lots", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("bad value `lots` for `--max-inst-per-bench`"),
        "{line}"
    );
}

#[test]
fn unknown_suite_is_a_usage_error() {
    let out = repro(&["--suites", "spec2017", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("unknown suite `spec2017`"), "{line}");
}

#[test]
fn unknown_only_benchmark_is_a_usage_error() {
    let out = repro(&["--only", "face,nosuchbench", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("unknown benchmark `nosuchbench` for `--only`"),
        "{line}"
    );
}

#[test]
fn missing_metrics_out_value_is_a_usage_error() {
    let out = repro(&["--metrics-out"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(line.contains("missing value for `--metrics-out`"), "{line}");
}

#[test]
fn help_lists_the_observability_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["--metrics-out", "--progress", "--suites", "--only"] {
        assert!(text.contains(needle), "help missing `{needle}`");
    }
}

#[test]
fn metrics_out_writes_a_manifest_for_a_tiny_run() {
    let dir = std::env::temp_dir().join(format!("phaselab-metrics-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("manifest.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "tiny",
            "--interval",
            "20000",
            "--samples",
            "8",
            "--k",
            "12",
            "--only",
            "face,finger,jpeg",
            "--metrics-out",
            manifest.to_str().unwrap(),
            "table3",
        ])
        .env("PHASELAB_OUT", &dir)
        .output()
        .expect("spawn repro");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(text.starts_with("{\n  \"schema\": 1,"), "{text}");
    for needle in [
        "\"config\":",
        "\"experiment\": \"table3\"",
        "\"counters\":",
        "\"study.benchmarks.total\": 3",
        "\"timings\":",
    ] {
        assert!(text.contains(needle), "manifest missing `{needle}`");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_without_checkpoint_dir_is_a_usage_error() {
    let out = repro(&["--streaming", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    let line = stderr_line(&out);
    assert!(
        line.contains("`--streaming` requires `--checkpoint-dir`"),
        "{line}"
    );
}

#[test]
fn streaming_refuses_experiments_that_need_the_feature_matrix() {
    for exp in ["fig1", "fig23", "motivation", "all"] {
        let out = repro(&["--streaming", "--checkpoint-dir", "/tmp/unused", exp]);
        assert_eq!(out.status.code(), Some(2), "experiment {exp}");
        let line = stderr_line(&out);
        assert!(line.contains("raw feature matrix"), "{exp}: {line}");
    }
}

#[test]
fn help_lists_the_streaming_flag() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--streaming"), "help missing `--streaming`");
}

/// SIGTERM gets the same cooperative-cancel treatment as Ctrl-C: the
/// run flushes and exits 130 instead of dying mid-write.
#[cfg(unix)]
#[test]
fn sigterm_cancels_cooperatively_with_exit_130() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "small", "table3"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    // Let it get into the study before signalling; a small-scale full
    // catalog run takes far longer than this.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let delivered = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill")
        .success();
    assert!(delivered, "kill -TERM must reach the child");
    let status = child.wait().expect("wait for repro");
    assert_eq!(status.code(), Some(130), "SIGTERM must exit 130");
}

#[test]
fn cache_on_a_missing_store_is_a_usage_error() {
    let dir =
        std::env::temp_dir().join(format!("phaselab-no-such-cache-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for action in [&["stats"][..], &["gc", "--max-bytes", "0"][..]] {
        let mut args = vec!["--checkpoint-dir", dir.to_str().unwrap(), "cache"];
        args.extend(action);
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{action:?}");
        let line = stderr_line(&out);
        assert!(line.contains("does not exist"), "{line}");
        assert!(!dir.exists(), "a mistyped store must not be created");
    }
}

#[test]
fn max_bytes_outside_cache_gc_is_a_usage_error() {
    let dir = std::env::temp_dir();
    for args in [
        &["--max-bytes", "5", "table1"][..],
        &[
            "--checkpoint-dir",
            dir.to_str().unwrap(),
            "--max-bytes",
            "5",
            "cache",
            "stats",
        ][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let line = stderr_line(&out);
        assert!(
            line.contains("`--max-bytes` is only meaningful with `cache gc`"),
            "{line}"
        );
    }
}

/// Reads one count column of `repro cache stats` output.
fn stats_count(stdout: &[u8], label: &str) -> u64 {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{text}"));
    line[label.len()..]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count in `{line}`"))
}

/// `cache stats` accounts a filled store, `cache gc --max-bytes 0`
/// empties it, and a rerun recomputes a byte-identical report.
#[test]
fn cache_stats_and_gc_round_trip_a_filled_store() {
    let dir = std::env::temp_dir().join(format!("phaselab-cache-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();
    let study = [
        "--scale",
        "tiny",
        "--suites",
        "BMW",
        "--checkpoint-dir",
        store,
        "table3",
    ];
    let first = repro(&study);
    assert_eq!(
        first.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stats = repro(&["--checkpoint-dir", store, "cache", "stats"]);
    assert_eq!(stats.status.code(), Some(0));
    assert!(stats_count(&stats.stdout, "benchmark entries") > 0);
    assert!(stats_count(&stats.stdout, "clustering entries") > 0);
    let total = stats_count(&stats.stdout, "total");

    let gc = repro(&["--checkpoint-dir", store, "cache", "gc", "--max-bytes", "0"]);
    assert_eq!(gc.status.code(), Some(0));
    let report = String::from_utf8_lossy(&gc.stdout);
    assert!(
        report.starts_with(&format!("evicted {total} entries")),
        "{report}"
    );
    let stats = repro(&["--checkpoint-dir", store, "cache"]);
    assert_eq!(stats.status.code(), Some(0));
    assert_eq!(stats_count(&stats.stdout, "total"), 0);

    let rerun = repro(&study);
    assert_eq!(rerun.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&first.stdout),
        String::from_utf8_lossy(&rerun.stdout),
        "a recomputed report must be byte-identical to the first"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
