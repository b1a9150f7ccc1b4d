#!/usr/bin/env python3
"""Validate a phaselab-obs run manifest (`repro --metrics-out`).

Checks the schema version, the presence and types of every required
section, the config keys the determinism contract promises, and basic
internal consistency (histogram bucket counts sum to the recorded
count, span timings are non-negative, the process peak RSS is the
largest stage RSS reading). With `--emit-bench PATH` it
also distills the headline performance figures into a one-line JSON
document suitable for CI tracking.

With `--diagnostics` the input is instead a diagnostics document from
`repro lint --json` or `repro --verify-only --json`, validated against
the shared finding schema: `{schema, programs, clean, findings:
[{path, pc, instruction, severity, source, kind, message}]}`.

Exit status: 0 when the document validates, 1 otherwise.
"""

import argparse
import json
import sys

REQUIRED_CONFIG_KEYS = [
    "experiment",
    "fingerprint",
    "scale",
    "engine",
    "interval_len",
    "samples_per_benchmark",
    "k",
    "seed",
]

# Section name -> expected JSON type of its value.
REQUIRED_SECTIONS = {
    "config": dict,
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
    "series": dict,
    "events": dict,
}

REQUIRED_TIMING_KEYS = {
    "stage": str,
    "peak_rss_kb": int,
    "stage_rss_kb": dict,
    "counters": dict,
    "gauges": dict,
    "spans": dict,
}

# Per-benchmark entry schema of the `static_analysis` section (written
# by the study's static pre-flight): key -> allowed types. `inst_max`
# and `derived_budget` are null when the analyzer cannot bound a loop
# (the budget is ⊤); `max_severity` is null for lint-free programs.
STATIC_ANALYSIS_KEYS = {
    "inst_min": (int,),
    "inst_max": (int, type(None)),
    "derived_budget": (int, type(None)),
    "dead_pcs": (int,),
    "mem_sites": (int,),
    "footprint_bytes": (int,),
    "lints": (int,),
    "max_severity": (str, type(None)),
}

# The shared diagnostics schema of `repro lint --json` and
# `repro --verify-only --json`.
FINDING_KEYS = {
    "path": str,
    "pc": int,
    "instruction": str,
    "severity": str,
    "source": str,
    "kind": str,
    "message": str,
}
SEVERITIES = ("deny", "warn", "info")
SOURCES = ("verify", "lint")

# Counters that are Timing-class by contract: they record operational
# luck (fault injection, read retries, cache traffic), not study
# structure, so they may only ever appear under `timings.counters`. One
# of them leaking into the structural `counters` section would break the
# byte-identity of chaos runs.
TIMING_ONLY_COUNTER_PREFIXES = (
    "faults.injected",
    "checkpoint.read_retries",
    "checkpoint.invalid",
    "checkpoint.write_errors",
    "cache.",
)


def fail(msg):
    print(f"check_manifest: FAIL — {msg}", file=sys.stderr)
    sys.exit(1)


def validate(manifest):
    if manifest.get("schema") != 1:
        fail(f"schema must be 1, got {manifest.get('schema')!r}")

    for name, ty in REQUIRED_SECTIONS.items():
        if not isinstance(manifest.get(name), ty):
            fail(f"missing or mistyped section `{name}`")

    config = manifest["config"]
    for key in REQUIRED_CONFIG_KEYS:
        if key not in config:
            fail(f"config missing key `{key}`")
    if "threads" in config:
        fail("config must not record `threads` (it is not structural)")

    for name, value in manifest["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"counter `{name}` must be a non-negative integer")
        if name.startswith(TIMING_ONLY_COUNTER_PREFIXES):
            fail(
                f"counter `{name}` is Timing-class and must live under "
                "`timings.counters`, not the structural section"
            )

    for name, hist in manifest["histograms"].items():
        for key in ("count", "sum", "buckets"):
            if key not in hist:
                fail(f"histogram `{name}` missing `{key}`")
        total = sum(hist["buckets"].values())
        if total != hist["count"]:
            fail(
                f"histogram `{name}` buckets sum to {total}, "
                f"count says {hist['count']}"
            )

    timings = manifest.get("timings")
    if timings is None:
        fail("missing `timings` section (manifest written without timings?)")
    for key, ty in REQUIRED_TIMING_KEYS.items():
        if not isinstance(timings.get(key), ty):
            fail(f"timings missing or mistyped key `{key}`")
    # The process peak bounds every stage's reading: a stage cannot end
    # above the high-water mark of the process it ran in. The stage
    # still open has a reading too, so when any stage ran the peak is
    # one of the readings and names the stage it happened in.
    peak = timings["peak_rss_kb"]
    stage_rss = timings["stage_rss_kb"]
    for stage, kb in stage_rss.items():
        if kb > peak:
            fail(
                f"timings.peak_rss_kb {peak} is below "
                f"timings.stage_rss_kb.{stage} {kb}"
            )
    if timings["stage"] and timings["stage"] not in stage_rss:
        fail(f"open stage `{timings['stage']}` has no timings.stage_rss_kb reading")
    if stage_rss and peak not in stage_rss.values():
        fail(f"timings.peak_rss_kb {peak} equals no timings.stage_rss_kb reading")
    for path, span in timings["spans"].items():
        for key in ("calls", "total_ms", "self_ms"):
            if key not in span:
                fail(f"span `{path}` missing `{key}`")
        if span["total_ms"] < 0 or span["self_ms"] < 0 or span["calls"] < 1:
            fail(f"span `{path}` has out-of-range values: {span}")
        if span["self_ms"] > span["total_ms"] + 1e-9:
            fail(f"span `{path}` self time exceeds total: {span}")

    # The `static_analysis` section appears whenever a study ran with
    # the pre-flight enabled (the default). When present, every entry
    # must follow the per-benchmark schema, with sound internal bounds.
    statics = manifest.get("static_analysis")
    if statics is not None:
        if not isinstance(statics, dict):
            fail("`static_analysis` must be an object keyed by suite/bench")
        for bench, entry in statics.items():
            for key, types in STATIC_ANALYSIS_KEYS.items():
                if key not in entry:
                    fail(f"static_analysis `{bench}` missing `{key}`")
                if not isinstance(entry[key], types):
                    fail(f"static_analysis `{bench}` mistyped `{key}`")
            extra = set(entry) - set(STATIC_ANALYSIS_KEYS)
            if extra:
                fail(f"static_analysis `{bench}` has unknown keys {sorted(extra)}")
            if entry["inst_max"] is not None:
                if entry["inst_min"] > entry["inst_max"]:
                    fail(f"static_analysis `{bench}`: inst_min > inst_max")
                if entry["derived_budget"] is None:
                    fail(f"static_analysis `{bench}`: finite bound but no budget")
            if entry["max_severity"] not in (None, *SEVERITIES):
                fail(f"static_analysis `{bench}`: bad severity {entry['max_severity']!r}")

    # The manifest renders timings last so the structural prefix is a
    # clean byte-range cut; enforce that ordering contract here too.
    if list(manifest.keys())[-1] != "timings":
        fail("`timings` must be the last top-level key")


def validate_diagnostics(doc):
    """Validate a `repro lint --json` / `--verify-only --json` document."""
    if doc.get("schema") != 1:
        fail(f"diagnostics schema must be 1, got {doc.get('schema')!r}")
    if not isinstance(doc.get("programs"), int) or doc["programs"] <= 0:
        fail("`programs` must be a positive integer")
    findings = doc.get("findings")
    if not isinstance(findings, list):
        fail("`findings` must be a list")
    if doc.get("clean") is not (len(findings) == 0):
        fail("`clean` must equal `findings == []`")
    last_rank = 0
    for i, f in enumerate(findings):
        for key, ty in FINDING_KEYS.items():
            if not isinstance(f.get(key), ty):
                fail(f"finding {i} missing or mistyped `{key}`")
        extra = set(f) - set(FINDING_KEYS)
        if extra:
            fail(f"finding {i} has unknown keys {sorted(extra)}")
        if f["severity"] not in SEVERITIES:
            fail(f"finding {i}: bad severity {f['severity']!r}")
        if f["source"] not in SOURCES:
            fail(f"finding {i}: bad source {f['source']!r}")
        if f["pc"] < 0:
            fail(f"finding {i}: negative pc")
        if f["path"].count("/") != 2:
            fail(f"finding {i}: path {f['path']!r} is not suite/bench/input")
        rank = SEVERITIES.index(f["severity"])
        if rank < last_rank:
            fail(f"finding {i}: findings not severity-ranked")
        last_rank = rank
    denies = sum(1 for f in findings if f["severity"] == "deny")
    print(
        f"check_manifest: diagnostics OK — {doc['programs']} programs, "
        f"{len(findings)} findings ({denies} deny)"
    )
    return denies


def emit_bench(manifest, path):
    """Distill kmeans wall time, characterization throughput, and peak
    RSS into a one-line benchmark JSON document."""
    spans = manifest["timings"]["spans"]
    counters = manifest["counters"]

    kmeans_ms = spans.get("study/kmeans", {}).get("total_ms")
    char_ms = spans.get("study/characterize", {}).get("total_ms")
    instructions = counters.get("vm.instructions")
    blocks = counters.get("vm.blocks")
    inst_per_s = None
    if char_ms and instructions is not None:
        inst_per_s = instructions / (char_ms / 1e3)
    # Dispatch amortization: executed instructions per dispatched block.
    # Fully deterministic (no wall clock), so regressions here mean the
    # block engine genuinely stopped batching, not that CI was slow.
    inst_per_dispatch = None
    if instructions is not None and blocks:
        inst_per_dispatch = instructions / blocks

    # Same-binary engine speedup, measured by `repro`'s calibration
    # pass (lbm behind a trait-object sink under both engines).
    speedup = manifest["timings"]["gauges"].get("vm.calibrate.block_speedup")

    # Static-analyzer throughput and per-pass split, measured by the
    # calibration pass (full catalog at Tiny, min-of-3).
    timing_gauges = manifest["timings"]["gauges"]
    static_progs_per_s = timing_gauges.get("static.calibrate.progs_per_s")
    static_passes = {
        f"static_pass_{name.removeprefix('static.calibrate.').removesuffix('_ms')}_ms": value
        for name, value in timing_gauges.items()
        if name.startswith("static.calibrate.") and name.endswith("_ms")
    }

    # Analysis-stage throughput: sampled rows swept through the
    # normalize → PCA → score passes per second of the `study/analysis`
    # span. Tracks the streaming-analysis refactor's hot path.
    analysis_ms = spans.get("study/analysis", {}).get("total_ms")
    rows = manifest["gauges"].get("sampling.rows")
    rows_per_s = None
    if analysis_ms and rows:
        rows_per_s = rows / (analysis_ms / 1e3)

    bench = {
        "kmeans_wall_ms": kmeans_ms,
        "characterize_inst_per_s": inst_per_s,
        "analysis_rows_per_s": rows_per_s,
        "vm_inst_per_dispatch": inst_per_dispatch,
        "vm_block_speedup": speedup,
        "static_analysis_progs_per_s": static_progs_per_s,
        **static_passes,
        "peak_rss_kb": manifest["timings"]["peak_rss_kb"],
    }
    for key, value in bench.items():
        if value is None:
            fail(f"cannot emit bench figures: `{key}` unavailable")
    with open(path, "w") as f:
        f.write(json.dumps(bench) + "\n")
    print(f"check_manifest: wrote {path}")


def require_counter(manifest, spec):
    """Assert a counter exists with at least the given value. The spec
    is `NAME` or `NAME:MIN` (MIN defaults to 1). Timing-class counters
    live under `timings.counters`; structural ones under `counters` —
    both are searched."""
    name, _, minimum = spec.partition(":")
    minimum = int(minimum) if minimum else 1
    value = manifest["timings"]["counters"].get(name)
    if value is None:
        value = manifest["counters"].get(name)
    if value is None:
        fail(f"required counter `{name}` absent from the manifest")
    if value < minimum:
        fail(f"counter `{name}` is {value}, required at least {minimum}")
    print(f"check_manifest: counter {name} = {value} (>= {minimum})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("manifest", help="path to the run manifest JSON")
    ap.add_argument(
        "--emit-bench",
        metavar="PATH",
        help="also write a one-line benchmark-figures JSON to PATH",
    )
    ap.add_argument(
        "--diagnostics",
        action="store_true",
        help="treat the input as a `repro lint --json` / `--verify-only "
        "--json` diagnostics document instead of a run manifest",
    )
    ap.add_argument(
        "--require-counter",
        metavar="NAME[:MIN]",
        action="append",
        default=[],
        help="fail unless the named counter is present with value >= MIN "
        "(default 1); searches timings.counters then counters",
    )
    args = ap.parse_args()

    try:
        with open(args.manifest) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read manifest: {e}")

    if args.diagnostics:
        validate_diagnostics(manifest)
        return

    validate(manifest)
    for spec in args.require_counter:
        require_counter(manifest, spec)
    if args.emit_bench:
        emit_bench(manifest, args.emit_bench)
    print(f"check_manifest: OK — {args.manifest} validates (schema 1)")


if __name__ == "__main__":
    main()
