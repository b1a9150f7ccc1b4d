//! Fault isolation: a faulting benchmark is quarantined, the study
//! completes over the survivors, and the survivors' results are
//! bit-identical to a study that was never given the faulting benchmark
//! — across thread counts.

use phaselab::workloads::Suite;
use phaselab::{
    run_study_with, Asm, Benchmark, DataBuilder, Program, Scale, StudyConfig, StudyError,
    StudyResult,
};

/// Every sampled row's raw features, read through the accessor.
fn feature_rows(r: &StudyResult) -> Vec<&[f64]> {
    (0..r.sampled.len()).map(|row| r.feature_row(row)).collect()
}

/// A program that loads from far outside any data segment: the bad
/// address travels through memory, so the static verifier (which does
/// not model data) accepts the program and the VM reports a memory
/// fault at run time — exercising the *dynamic* quarantine path.
fn faulting_program() -> Program {
    use phaselab::vm::regs::*;
    let mut data = DataBuilder::new();
    let cell = data.alloc_u64(1);
    data.init_u64(cell, &[1 << 40]);
    let mut asm = Asm::new();
    asm.li(T0, cell as i64);
    asm.ld(T1, T0, 0);
    asm.ld(T2, T1, 0);
    asm.halt();
    asm.assemble(data).expect("assembles")
}

fn faulting_benchmark(name: &'static str) -> Benchmark {
    Benchmark::custom(
        name,
        Suite::Bmw,
        vec![(
            "bad",
            Box::new(|_scale: Scale, _seed: u64| faulting_program()),
        )],
    )
}

fn healthy_benches() -> Vec<Benchmark> {
    phaselab::catalog()
        .into_iter()
        .filter(|b| matches!(b.suite(), Suite::Bmw | Suite::MediaBench2))
        .collect()
}

fn smoke_cfg(threads: usize) -> StudyConfig {
    let mut cfg = StudyConfig::smoke();
    cfg.threads = threads;
    cfg
}

#[test]
fn faulting_benchmark_is_quarantined_and_study_completes() {
    let cfg = smoke_cfg(1);
    let mut benches = healthy_benches();
    let n_healthy = benches.len();
    benches.insert(3, faulting_benchmark("saboteur"));

    let r = run_study_with(&cfg, &benches).expect("study completes on survivors");
    assert_eq!(r.benchmarks.len(), n_healthy);
    assert!(r.benchmarks.iter().all(|b| b.name != "saboteur"));
    assert_eq!(r.quarantined.len(), 1);
    let q = &r.quarantined[0];
    assert_eq!(q.name, "saboteur");
    assert_eq!(q.suite, Suite::Bmw);
    assert_eq!(q.input_name, "bad");
    assert!(
        matches!(&q.cause, phaselab::QuarantineCause::Fault(e) if e.is_memory_fault()),
        "unexpected cause {:?}",
        q.cause
    );
    // The record renders as one line naming benchmark, input and fault.
    let line = q.to_string();
    assert!(line.contains("saboteur") && line.contains("bad"), "{line}");
    assert!(!line.contains('\n'));
}

#[test]
fn statically_invalid_benchmark_is_quarantined_before_it_runs() {
    // A statically detectable fault — a constant out-of-range load — is
    // caught by the pre-flight verifier: the benchmark is quarantined as
    // StaticallyInvalid (not Fault) and the study completes.
    let bad = Benchmark::custom(
        "illformed",
        Suite::Bmw,
        vec![(
            "bad",
            Box::new(|_scale: Scale, _seed: u64| {
                use phaselab::vm::regs::*;
                let mut asm = Asm::new();
                asm.li(T0, 1 << 40);
                asm.ld(T1, T0, 0);
                asm.halt();
                asm.assemble(DataBuilder::new()).expect("assembles")
            }),
        )],
    );
    let mut benches = healthy_benches();
    let n_healthy = benches.len();
    benches.insert(1, bad);

    let r = run_study_with(&smoke_cfg(2), &benches).expect("study completes on survivors");
    assert_eq!(r.benchmarks.len(), n_healthy);
    assert_eq!(r.quarantined.len(), 1);
    let q = &r.quarantined[0];
    assert_eq!(q.name, "illformed");
    let e = q.verify_error().expect("statically invalid cause");
    assert_eq!(e.pc(), 1);
    let line = q.to_string();
    assert!(line.contains("statically invalid: pc 1"), "{line}");
    assert!(!line.contains('\n'));
}

#[test]
fn quarantine_leaves_survivor_results_untouched() {
    // The acceptance bar: a study with a quarantined benchmark produces
    // *identical* results to a study never given that benchmark. The
    // faulting benchmark is inserted mid-list so any index-shift bug in
    // survivor compaction would change downstream sampling seeds.
    for threads in [1, 4] {
        let cfg = smoke_cfg(threads);
        let clean = run_study_with(&cfg, &healthy_benches()).expect("clean study");

        let mut benches = healthy_benches();
        benches.insert(2, faulting_benchmark("saboteur"));
        let with_fault = run_study_with(&cfg, &benches).expect("study completes");

        assert_eq!(with_fault.sampled, clean.sampled);
        assert_eq!(feature_rows(&with_fault), feature_rows(&clean));
        assert_eq!(
            with_fault.clustering.assignments,
            clean.clustering.assignments
        );
        assert_eq!(with_fault.key_characteristics, clean.key_characteristics);
        assert_eq!(
            with_fault
                .benchmarks
                .iter()
                .map(|b| b.name.clone())
                .collect::<Vec<_>>(),
            clean
                .benchmarks
                .iter()
                .map(|b| b.name.clone())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn all_benchmarks_faulting_is_a_study_error() {
    let cfg = smoke_cfg(2);
    let benches = vec![faulting_benchmark("bad1"), faulting_benchmark("bad2")];
    match run_study_with(&cfg, &benches) {
        Err(StudyError::Characterization { quarantined }) => {
            assert_eq!(quarantined.len(), 2);
            assert_eq!(quarantined[0].name, "bad1");
            assert_eq!(quarantined[1].name, "bad2");
        }
        other => panic!("expected Characterization error, got {other:?}"),
    }
}

/// A program that never halts: the runaway watchdog's prey.
fn spinning_benchmark(name: &'static str) -> Benchmark {
    Benchmark::custom(
        name,
        Suite::Bmw,
        vec![(
            "forever",
            Box::new(|_scale: Scale, _seed: u64| {
                use phaselab::vm::regs::*;
                // The `halt` is statically reachable (so the verifier
                // accepts the program) but dynamically never taken.
                let mut asm = Asm::new();
                asm.li(T0, 1);
                asm.label("spin");
                asm.beq(T0, ZERO, "done");
                asm.addi(T0, T0, 1);
                asm.j("spin");
                asm.label("done");
                asm.halt();
                asm.assemble(DataBuilder::new()).expect("assembles")
            }),
        )],
    )
}

#[test]
fn runaway_benchmark_is_quarantined_and_survivors_are_bit_identical() {
    // Healthy Tiny benchmarks finish in well under 40M instructions; an
    // infinite loop blows through any budget. With the watchdog armed,
    // the spinner is quarantined as Runaway and the survivors' results
    // are bit-identical to a clean study under the same budget.
    let budget = 40_000_000;
    for threads in [1, 4] {
        let mut cfg = smoke_cfg(threads);
        cfg.max_inst_per_bench = Some(budget);
        let clean = run_study_with(&cfg, &healthy_benches()).expect("clean study");

        let mut benches = healthy_benches();
        benches.insert(4, spinning_benchmark("spinner"));
        let r = run_study_with(&cfg, &benches).expect("study completes on survivors");

        assert_eq!(r.quarantined.len(), 1);
        let q = &r.quarantined[0];
        assert_eq!(q.name, "spinner");
        assert!(q.is_runaway());
        assert_eq!(q.cause, phaselab::QuarantineCause::Runaway { budget });
        assert!(q.to_string().contains("ran away"), "{q}");

        assert_eq!(r.sampled, clean.sampled);
        assert_eq!(feature_rows(&r), feature_rows(&clean));
        assert_eq!(r.clustering.assignments, clean.clustering.assignments);
        assert_eq!(r.key_characteristics, clean.key_characteristics);
    }
}

#[test]
fn unarmed_watchdog_never_quarantines_healthy_benchmarks() {
    // Arming a generous budget must not perturb a single bit of a study
    // over healthy benchmarks, and leaving it unarmed must match too.
    let cfg = smoke_cfg(2);
    let unarmed = run_study_with(&cfg, &healthy_benches()).expect("study");
    let mut armed_cfg = smoke_cfg(2);
    armed_cfg.max_inst_per_bench = Some(1 << 40);
    let armed = run_study_with(&armed_cfg, &healthy_benches()).expect("study");
    assert!(armed.quarantined.is_empty());
    assert_eq!(armed.sampled, unarmed.sampled);
    assert_eq!(feature_rows(&armed), feature_rows(&unarmed));
    assert_eq!(armed.clustering.assignments, unarmed.clustering.assignments);
}

/// The static pre-flight (derived watchdog budgets, dead-code-pruned
/// block compilation) must be invisible
/// in results: analyzer on and off produce bit-identical studies, and
/// a sound derived budget can never quarantine the benchmark it was
/// derived from.
#[test]
fn static_preflight_leaves_results_bit_identical() {
    for threads in [1, 4] {
        let mut on = smoke_cfg(threads);
        on.static_analysis = true;
        let r_on = run_study_with(&on, &healthy_benches()).expect("study with analyzer");

        let mut off = smoke_cfg(threads);
        off.static_analysis = false;
        let r_off = run_study_with(&off, &healthy_benches()).expect("study without analyzer");

        assert!(
            r_on.quarantined.is_empty(),
            "a sound derived budget tripped"
        );
        assert_eq!(r_on.sampled, r_off.sampled);
        assert_eq!(feature_rows(&r_on), feature_rows(&r_off));
        assert_eq!(r_on.clustering.assignments, r_off.clustering.assignments);
        assert_eq!(r_on.key_characteristics, r_off.key_characteristics);
        assert_eq!(
            r_on.benchmarks
                .iter()
                .map(|b| b.total_instructions)
                .collect::<Vec<_>>(),
            r_off
                .benchmarks
                .iter()
                .map(|b| b.total_instructions)
                .collect::<Vec<_>>()
        );
    }
}

/// An adversarial explicit budget quarantines part of the suite
/// mid-study — the watchdog slices those runs mid-block before pulling
/// them. The explicit budget overrides the derived one, so the same
/// benchmarks must be quarantined, in the same order, and the
/// survivors characterized bit-identically, whether the analyzer ran
/// or not.
#[test]
fn mid_study_quarantine_is_static_preflight_invariant() {
    // Pick a budget strictly between the smallest and largest
    // benchmark so some (but not all) get pulled mid-study.
    let probe = run_study_with(&smoke_cfg(2), &healthy_benches()).expect("probe study");
    let mut totals: Vec<u64> = probe
        .benchmarks
        .iter()
        .map(|b| b.total_instructions)
        .collect();
    totals.sort_unstable();
    let budget = totals[totals.len() / 2];
    assert!(budget > totals[0] && budget < *totals.last().unwrap());

    let mut on = smoke_cfg(2);
    on.max_inst_per_bench = Some(budget);
    on.static_analysis = true;
    let r_on = run_study_with(&on, &healthy_benches()).expect("survivors keep the study alive");

    let mut off = smoke_cfg(2);
    off.max_inst_per_bench = Some(budget);
    off.static_analysis = false;
    let r_off = run_study_with(&off, &healthy_benches()).expect("survivors keep the study alive");

    assert!(
        !r_on.quarantined.is_empty(),
        "budget {budget} was chosen to quarantine at least one benchmark"
    );
    assert!(r_on.benchmarks.len() < probe.benchmarks.len());
    assert!(r_on
        .quarantined
        .iter()
        .all(phaselab::QuarantinedBenchmark::is_runaway));
    assert_eq!(
        r_on.quarantined
            .iter()
            .map(|q| q.name.clone())
            .collect::<Vec<_>>(),
        r_off
            .quarantined
            .iter()
            .map(|q| q.name.clone())
            .collect::<Vec<_>>()
    );
    assert_eq!(r_on.sampled, r_off.sampled);
    assert_eq!(feature_rows(&r_on), feature_rows(&r_off));
    assert_eq!(r_on.clustering.assignments, r_off.clustering.assignments);
    assert_eq!(r_on.key_characteristics, r_off.key_characteristics);
}

#[test]
fn quarantine_order_is_deterministic_across_thread_counts() {
    let mut benches = healthy_benches();
    benches.insert(0, faulting_benchmark("first"));
    benches.push(faulting_benchmark("last"));

    let reference = run_study_with(&smoke_cfg(1), &benches).expect("study completes");
    for threads in [2, 4] {
        let r = run_study_with(&smoke_cfg(threads), &benches).expect("study completes");
        let names: Vec<_> = r.quarantined.iter().map(|q| q.name.clone()).collect();
        assert_eq!(names, vec!["first", "last"]);
        assert_eq!(r.sampled, reference.sampled);
        assert_eq!(r.clustering.assignments, reference.clustering.assignments);
    }
}
