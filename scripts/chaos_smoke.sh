#!/usr/bin/env sh
# Chaos smoke test for the checkpoint store and resume path. A
# fault-free run with no store is the baseline; every run below must
# print the same report and write the same CSV artifacts, byte for byte.
#
#   (a) Store faults: two runs over one store with torn writes, EINTR,
#       stalled writes, ENOSPC and short reads injected. The first fills
#       the store, the second reads it back. Each manifest must validate
#       and record at least one injected fault.
#   (b) Injected crash: `crash=1,max=1` aborts the process at its first
#       store write. A clean `--resume` over the same store must finish.
#   (c) External kill: a run is killed with SIGKILL once its first
#       checkpoint lands. A clean `--resume` over the same store must
#       finish and reload that checkpoint.
set -eu

REPRO="${REPRO:-target/release/repro}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/phaselab-chaos-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

if [ ! -x "$REPRO" ]; then
    echo "chaos_smoke: $REPRO not built (run: cargo build --release -p phaselab-bench --bin repro)" >&2
    exit 1
fi

# Sub-scale study: 3 benchmarks, small k — seconds, not minutes.
ARGS="--scale tiny --interval 20000 --samples 8 --k 12 --seed 0 --only face,finger,jpeg"

# same_as_baseline NAME: NAME.txt and out-NAME/ must match the baseline
# except for the artifact-path lines (each run has its own PHASELAB_OUT).
same_as_baseline() {
    grep -v '^wrote ' "$WORK/$1.txt" > "$WORK/$1.flt"
    if ! diff "$WORK/baseline.flt" "$WORK/$1.flt"; then
        echo "chaos_smoke: FAIL — $1 report differs from the fault-free report" >&2
        exit 1
    fi
    for csv in "$WORK"/out-baseline/*.csv; do
        name="$(basename "$csv")"
        if ! diff "$csv" "$WORK/out-$1/$name"; then
            echo "chaos_smoke: FAIL — $1 artifact $name differs from the baseline" >&2
            exit 1
        fi
    done
    echo "chaos_smoke: $1 report and artifacts are byte-identical"
}

# check_faults NAME: the manifest validates (fault counters only under
# `timings`) and records at least one injected fault.
check_faults() {
    if command -v python3 >/dev/null 2>&1; then
        python3 scripts/check_manifest.py "$WORK/$1.json" \
            --require-counter faults.injected:1
    else
        echo "chaos_smoke: python3 unavailable, skipping manifest validation"
    fi
}

echo "chaos_smoke: fault-free baseline"
PHASELAB_OUT="$WORK/out-baseline" $REPRO $ARGS table3 > "$WORK/baseline.txt"
grep -v '^wrote ' "$WORK/baseline.txt" > "$WORK/baseline.flt"

echo "chaos_smoke: (a) store faults, fill then re-read"
FAULTS="seed=7,torn=0.3,eintr=0.3,stall=0.3,stall_ms=5,enospc=0.2,shortread=0.3"
for run in fill reread; do
    PHASELAB_OUT="$WORK/out-$run" PHASELAB_FAULTS="$FAULTS" \
        $REPRO $ARGS --checkpoint-dir "$WORK/ckpt-a" \
        --metrics-out "$WORK/$run.json" table3 > "$WORK/$run.txt"
    same_as_baseline "$run"
    check_faults "$run"
done

echo "chaos_smoke: (b) injected crash, then a clean resume"
set +e
PHASELAB_OUT="$WORK/out-crash" PHASELAB_FAULTS="seed=7,crash=1,max=1" \
    $REPRO $ARGS --checkpoint-dir "$WORK/ckpt-b" table3 > /dev/null 2>&1
STATUS=$?
set -e
if [ "$STATUS" -eq 0 ]; then
    echo "chaos_smoke: FAIL — the crash=1 run must abort, it exited 0" >&2
    exit 1
fi
echo "chaos_smoke: crash run aborted (exit $STATUS)"
PHASELAB_OUT="$WORK/out-crashresume" $REPRO $ARGS --checkpoint-dir "$WORK/ckpt-b" \
    --resume table3 > "$WORK/crashresume.txt"
same_as_baseline crashresume

echo "chaos_smoke: (c) kill -9 after the first checkpoint, then a clean resume"
# Stalled writes hold the run open long enough to be killed mid-study.
PHASELAB_OUT="$WORK/out-killed" PHASELAB_FAULTS="seed=7,stall=1,stall_ms=300" \
    $REPRO $ARGS --checkpoint-dir "$WORK/ckpt-c" table3 > /dev/null 2>&1 &
PID=$!
i=0
while [ "$i" -lt 600 ] && ! ls "$WORK"/ckpt-c/c*/*.ckpt >/dev/null 2>&1; do
    i=$((i + 1))
    sleep 0.05
done
if ! kill -9 "$PID" 2>/dev/null; then
    echo "chaos_smoke: FAIL — the run finished before it could be killed" >&2
    exit 1
fi
STATUS=0
wait "$PID" || STATUS=$?
echo "chaos_smoke: killed run exited $STATUS"
PHASELAB_OUT="$WORK/out-killresume" $REPRO $ARGS --checkpoint-dir "$WORK/ckpt-c" \
    --resume --metrics-out "$WORK/killresume.json" table3 > "$WORK/killresume.txt"
same_as_baseline killresume
# The resume reloaded what the killed run had finished.
if command -v python3 >/dev/null 2>&1; then
    python3 scripts/check_manifest.py "$WORK/killresume.json" \
        --require-counter checkpoint.bench.hits:1
fi

echo "chaos_smoke: OK"
