//! Step 1: interval characterization of benchmark executions.

use phaselab_mica::{FeatureVector, IntervalCharacterizer};
use phaselab_par::CancelToken;
use phaselab_vm::{CompiledProgram, Program, StaticReport, Vm, VmError};
use phaselab_workloads::{Benchmark, Scale};

use crate::config::{Engine, StudyConfig};
use crate::error::{QuarantineCause, QuarantinedBenchmark};

/// VM slice length, in instructions, between watchdog and cancellation
/// checks. Pause/resume is bit-transparent, so slicing never changes a
/// characterization; it only bounds how stale a cancel check can be.
const WATCHDOG_SLICE: u64 = 1 << 20;

/// Why [`characterize_benchmark_watched`] produced no characterization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchFailure {
    /// The benchmark faulted or ran away; the record says which and
    /// where.
    Quarantined(QuarantinedBenchmark),
    /// The cancel token tripped mid-characterization; partial work was
    /// discarded.
    Cancelled,
}

/// The characterization of one benchmark across all of its inputs.
#[derive(Debug, Clone)]
pub struct BenchCharacterization {
    /// Interval feature vectors, one `Vec` per input.
    pub per_input: Vec<Vec<FeatureVector>>,
    /// Total dynamic instructions executed across inputs.
    pub total_instructions: u64,
}

impl BenchCharacterization {
    /// Total number of characterized intervals across inputs.
    pub fn total_intervals(&self) -> usize {
        self.per_input.iter().map(Vec::len).sum()
    }
}

/// The static pre-flight of one benchmark: one [`StaticReport`] per
/// input, in input order. Produced by [`analyze_benchmark`], consumed
/// by the watchdog (derived budget), the block compiler (dead-code
/// pruning), and the `static_analysis` manifest section.
#[derive(Debug, Clone)]
pub struct BenchStaticReport {
    /// One report per input.
    pub per_input: Vec<StaticReport>,
}

impl BenchStaticReport {
    /// Sum of the per-input static instruction maxima; `None` (⊤) when
    /// any input is unbounded or the sum overflows.
    pub fn total_inst_max(&self) -> Option<u64> {
        self.per_input
            .iter()
            .try_fold(0u64, |acc, r| r.inst_max.and_then(|m| acc.checked_add(m)))
    }

    /// Sum of the per-input static instruction minima (saturating).
    pub fn total_inst_min(&self) -> u64 {
        self.per_input
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.inst_min))
    }

    /// The watchdog budget derived from the static maxima: twice the
    /// proven upper bound, so a sound bound can never trip it while a
    /// genuinely runaway execution (one exceeding its own proof) still
    /// gets caught. `None` when any input's bound is ⊤ — an unbounded
    /// benchmark cannot arm a finite budget.
    pub fn derived_budget(&self) -> Option<u64> {
        self.total_inst_max().map(|m| m.saturating_mul(2).max(1))
    }
}

/// Builds and statically analyzes every input of `bench` at `scale`
/// without executing anything.
///
/// # Errors
///
/// Returns a [`QuarantinedBenchmark`] with
/// [`QuarantineCause::StaticallyInvalid`] naming the first input whose
/// program fails verification (analysis runs the verifier first).
pub fn analyze_benchmark(
    bench: &Benchmark,
    scale: Scale,
) -> Result<BenchStaticReport, QuarantinedBenchmark> {
    analyze_programs(bench, &build_inputs(bench, scale))
}

/// Every input of `bench` built at `scale`, in input order.
fn build_inputs(bench: &Benchmark, scale: Scale) -> Vec<Program> {
    (0..bench.num_inputs())
        .map(|input| bench.build(scale, input))
        .collect()
}

/// [`analyze_benchmark`] over `bench`'s already built `programs`.
fn analyze_programs(
    bench: &Benchmark,
    programs: &[Program],
) -> Result<BenchStaticReport, QuarantinedBenchmark> {
    let mut per_input = Vec::with_capacity(programs.len());
    for (input, program) in programs.iter().enumerate() {
        match program.analyze() {
            Ok(report) => per_input.push(report),
            Err(e) => {
                return Err(QuarantinedBenchmark {
                    name: bench.name().to_string(),
                    suite: bench.suite(),
                    input,
                    input_name: bench.input_names()[input].to_string(),
                    cause: QuarantineCause::StaticallyInvalid(e),
                })
            }
        }
    }
    Ok(BenchStaticReport { per_input })
}

/// Characterizes one program execution: runs it to completion (or the
/// instruction budget) and returns one [`FeatureVector`] per interval.
///
/// Only full intervals are kept (as in the paper), unless the whole
/// execution is shorter than one interval — then the single partial
/// interval is kept so no benchmark characterizes to nothing.
///
/// # Errors
///
/// Returns the [`VmError`] if the program faults. The bundled workloads
/// are validated not to fault, but the study pipeline treats a fault as
/// an input condition: the owning benchmark is quarantined and the study
/// continues (see [`run_study`](crate::run_study)).
pub fn characterize_program(
    program: &Program,
    interval_len: u64,
    max_instructions: u64,
) -> Result<(Vec<FeatureVector>, u64), VmError> {
    characterize_program_with_engine(program, interval_len, max_instructions, Engine::default())
}

/// [`characterize_program`] with an explicit execution-engine choice.
///
/// Both engines produce bit-identical features and instruction counts
/// (the differential tests assert this on every registry workload);
/// [`Engine::Inst`] exists as the reference oracle and for `--engine
/// inst` debugging runs.
///
/// # Errors
///
/// Returns the [`VmError`] if the program faults; both engines fault at
/// the same instruction index with the same error.
pub fn characterize_program_with_engine(
    program: &Program,
    interval_len: u64,
    max_instructions: u64,
    engine: Engine,
) -> Result<(Vec<FeatureVector>, u64), VmError> {
    let mut chr = IntervalCharacterizer::new(interval_len).keep_tail(true);
    let mut vm = Vm::new(program);
    let outcome = match engine {
        Engine::Block => {
            let compiled = CompiledProgram::compile(program);
            vm.run_blocks(&compiled, &mut chr, max_instructions)?
        }
        Engine::Inst => vm.run(&mut chr, max_instructions)?,
    };
    chr.finish();
    let mut features = chr.into_features();
    let full = (outcome.instructions / interval_len) as usize;
    if full >= 1 && features.len() > full {
        features.truncate(full); // drop the partial tail
    }
    Ok((features, outcome.instructions))
}

/// Characterizes every input of a benchmark at the study's scale and
/// interval length.
///
/// # Errors
///
/// Returns a [`QuarantinedBenchmark`] record — naming the faulting input
/// and the VM fault — if any input faults. Quarantine is all-or-nothing:
/// inputs characterized before the fault are discarded so a benchmark
/// never enters the data set partially.
pub fn characterize_benchmark(
    bench: &Benchmark,
    cfg: &StudyConfig,
) -> Result<BenchCharacterization, QuarantinedBenchmark> {
    match characterize_benchmark_watched(bench, cfg, None) {
        Ok(c) => Ok(c),
        Err(BenchFailure::Quarantined(q)) => Err(q),
        Err(BenchFailure::Cancelled) => {
            unreachable!("characterization without a token cannot be cancelled")
        }
    }
}

/// [`characterize_benchmark`] under the runaway watchdog and cooperative
/// cancellation.
///
/// Execution runs in `WATCHDOG_SLICE` (2^20)-instruction slices; between
/// slices the cancel token is polled and the per-benchmark budget
/// (`cfg.max_inst_per_bench`, spanning all inputs) is enforced. VM
/// pause/resume is exact, so a watched characterization is bit-identical
/// to an unwatched one whenever neither trips.
///
/// # Errors
///
/// [`BenchFailure::Quarantined`] if an input fails the static
/// pre-flight verification ([`QuarantineCause::StaticallyInvalid`] —
/// the program is never run), faults ([`QuarantineCause::Fault`]), or
/// exhausts its budget without halting ([`QuarantineCause::Runaway`]);
/// [`BenchFailure::Cancelled`] if `cancel` trips first. Partially
/// characterized inputs are discarded in every failure case.
pub fn characterize_benchmark_watched(
    bench: &Benchmark,
    cfg: &StudyConfig,
    cancel: Option<&CancelToken>,
) -> Result<BenchCharacterization, BenchFailure> {
    let quarantine = |input: usize, cause: QuarantineCause| {
        BenchFailure::Quarantined(QuarantinedBenchmark {
            name: bench.name().to_string(),
            suite: bench.suite(),
            input,
            input_name: bench.input_names()[input].to_string(),
            cause,
        })
    };
    // Every input is built once; the pre-flight and the run share the
    // programs, and each is dropped once it has run.
    let programs = build_inputs(bench, cfg.scale);
    // Static pre-flight: analyze every input before running anything.
    // Analysis subsumes verification, so a failure here is the same
    // `StaticallyInvalid` quarantine the verifier would produce.
    let statics = if cfg.static_analysis {
        match analyze_programs(bench, &programs) {
            Ok(r) => Some(r),
            Err(q) => return Err(BenchFailure::Quarantined(q)),
        }
    } else {
        None
    };
    // The explicit CLI budget wins; otherwise, when every input has a
    // finite static maximum, arm twice the proven bound — a sound
    // bound can never trip it, so results are unchanged, while a
    // genuinely runaway execution (exceeding its own proof) is caught.
    let armed_budget = cfg
        .max_inst_per_bench
        .or_else(|| statics.as_ref().and_then(BenchStaticReport::derived_budget));
    let mut per_input = Vec::with_capacity(bench.num_inputs());
    let mut total_instructions = 0;
    let mut budget_left = armed_budget;
    // Counter handles fetched once per benchmark so the per-slice cost
    // is three atomic adds; `None` without a subscriber. Instructions and
    // blocks are counted separately: their ratio is the dispatch
    // amortization the block engine buys (under the per-instruction
    // engine every instruction is its own dispatch unit, so the two
    // counts coincide).
    let vm_counters = phaselab_obs::registry().map(|reg| {
        use phaselab_obs::Class::Structural;
        (
            reg.counter("vm.instructions", Structural),
            reg.counter("vm.blocks", Structural),
            reg.counter("vm.slices", Structural),
        )
    });
    for (input, program) in programs.into_iter().enumerate() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(BenchFailure::Cancelled);
        }
        // Static pre-flight: reject ill-formed programs before spending
        // a single cycle (or watchdog budget) running them. With the
        // analyzer on, `analyze_benchmark` already ran the verifier.
        if statics.is_none() {
            if let Err(e) = program.verify() {
                return Err(quarantine(input, QuarantineCause::StaticallyInvalid(e)));
            }
        }
        // Compile once per input; every resume slice reuses the decoded
        // blocks. Statically dead pcs skip decode entirely — sound
        // because execution can never enter them.
        let compiled = (cfg.engine == Engine::Block).then(|| {
            match statics.as_ref().map(|s| s.per_input[input].dead.as_slice()) {
                Some(dead) if !dead.is_empty() => CompiledProgram::compile_pruned(&program, dead),
                _ => CompiledProgram::compile(&program),
            }
        });
        let mut chr = IntervalCharacterizer::new(cfg.interval_len).keep_tail(true);
        let mut vm = Vm::new(&program);
        let mut executed = 0u64;
        loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(BenchFailure::Cancelled);
            }
            if budget_left == Some(0) {
                // Budget spent and the program still hasn't halted.
                let budget = armed_budget.expect("budget was armed");
                return Err(quarantine(input, QuarantineCause::Runaway { budget }));
            }
            let run_left = cfg.max_instructions_per_run - executed;
            if run_left == 0 {
                break; // per-run cap: silent truncation, as unwatched
            }
            let slice = WATCHDOG_SLICE
                .min(run_left)
                .min(budget_left.unwrap_or(u64::MAX));
            let outcome = match &compiled {
                Some(cp) => vm.run_blocks(cp, &mut chr, slice),
                None => vm.run(&mut chr, slice),
            }
            .map_err(|e| quarantine(input, QuarantineCause::Fault(e)))?;
            executed += outcome.instructions;
            if let Some((inst, blocks, slices)) = &vm_counters {
                inst.add(outcome.instructions);
                blocks.add(outcome.blocks);
                slices.inc();
            }
            if let Some(b) = &mut budget_left {
                *b -= outcome.instructions;
            }
            if outcome.halted {
                break;
            }
        }
        chr.finish();
        let mut features = chr.into_features();
        let full = (executed / cfg.interval_len) as usize;
        if full >= 1 && features.len() > full {
            features.truncate(full); // drop the partial tail
        }
        total_instructions += executed;
        per_input.push(features);
    }
    Ok(BenchCharacterization {
        per_input,
        total_instructions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phaselab_workloads::{catalog, Scale};

    #[test]
    fn short_program_keeps_partial_interval() {
        let all = catalog();
        let program = all[0].build(Scale::Tiny, 0);
        // Interval far longer than the whole Tiny run.
        let (features, instrs) = characterize_program(&program, 1 << 40, 1 << 41).expect("runs");
        assert_eq!(features.len(), 1);
        assert!(instrs > 0);
    }

    #[test]
    fn interval_count_matches_execution_length() {
        let all = catalog();
        let program = all[0].build(Scale::Tiny, 0);
        let interval = 10_000;
        let (features, instrs) = characterize_program(&program, interval, 1 << 40).expect("runs");
        assert_eq!(features.len() as u64, instrs / interval);
    }

    #[test]
    fn characterize_benchmark_covers_all_inputs() {
        let all = catalog();
        // bzip2 (SPECint2000) has two inputs.
        let bzip2 = all
            .iter()
            .find(|b| b.name() == "bzip2" && b.num_inputs() == 2)
            .expect("bzip2 with two inputs");
        let mut cfg = StudyConfig::smoke();
        cfg.interval_len = 10_000;
        let c = characterize_benchmark(bzip2, &cfg).expect("no faults");
        assert_eq!(c.per_input.len(), 2);
        assert!(c.total_intervals() >= 2);
        assert!(c.total_instructions > 20_000);
    }

    #[test]
    fn characterization_is_deterministic() {
        let all = catalog();
        let program = all[3].build(Scale::Tiny, 0);
        let (a, _) = characterize_program(&program, 15_000, 1 << 40).expect("runs");
        let (b, _) = characterize_program(&program, 15_000, 1 << 40).expect("runs");
        assert_eq!(a, b);
    }

    fn spinning_benchmark() -> Benchmark {
        use phaselab_vm::{regs::*, Asm, DataBuilder};
        Benchmark::custom(
            "spin",
            phaselab_workloads::Suite::Bmw,
            vec![(
                "forever",
                Box::new(|_, _| {
                    // The halt is statically reachable (so the program
                    // passes pre-flight verification) but dynamically
                    // never taken: T0 starts at 1 and only grows.
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
    fn each_input_is_built_once_with_the_pre_flight_on() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let counted = |_, _| {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            catalog()[0].build(Scale::Tiny, 0)
        };
        let bench = Benchmark::custom(
            "counted",
            phaselab_workloads::Suite::Bmw,
            vec![("a", Box::new(counted)), ("b", Box::new(counted))],
        );
        let cfg = StudyConfig::smoke();
        assert!(cfg.static_analysis);
        let c = characterize_benchmark_watched(&bench, &cfg, None).expect("healthy");
        assert_eq!(c.per_input.len(), 2);
        assert_eq!(BUILDS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn watchdog_quarantines_a_runaway_benchmark() {
        let mut cfg = StudyConfig::smoke();
        cfg.max_inst_per_bench = Some(100_000);
        let err = characterize_benchmark_watched(&spinning_benchmark(), &cfg, None)
            .expect_err("never halts");
        let BenchFailure::Quarantined(q) = err else {
            panic!("expected quarantine, got {err:?}");
        };
        assert!(q.is_runaway());
        assert_eq!(q.name, "spin");
        assert_eq!(q.cause, QuarantineCause::Runaway { budget: 100_000 });
    }

    #[test]
    fn watchdog_budget_disabled_defers_to_run_cap() {
        // Without a per-benchmark budget the spinner is silently
        // truncated at the per-run cap, exactly as before the watchdog.
        let mut cfg = StudyConfig::smoke();
        cfg.max_instructions_per_run = 60_000;
        cfg.interval_len = 10_000;
        let c = characterize_benchmark_watched(&spinning_benchmark(), &cfg, None)
            .expect("truncated, not failed");
        assert_eq!(c.total_instructions, 60_000);
        assert_eq!(c.per_input[0].len(), 6);
    }

    #[test]
    fn watched_characterization_matches_unwatched_bit_exactly() {
        let all = catalog();
        let bench = &all[5];
        let mut cfg = StudyConfig::smoke();
        cfg.interval_len = 10_000;
        let unwatched = characterize_benchmark(bench, &cfg).expect("healthy");
        // A generous budget (all Tiny benchmarks halt well within it)
        // must not perturb a single bit.
        cfg.max_inst_per_bench = Some(40_000_000);
        let watched =
            characterize_benchmark_watched(bench, &cfg, None).expect("budget not exceeded");
        assert_eq!(watched.total_instructions, unwatched.total_instructions);
        assert_eq!(watched.per_input, unwatched.per_input);
    }

    #[test]
    fn benchmark_halting_exactly_at_budget_survives() {
        let all = catalog();
        let bench = &all[0];
        let cfg = StudyConfig::smoke();
        let exact = characterize_benchmark(bench, &cfg).expect("healthy");
        let mut cfg2 = cfg.clone();
        cfg2.max_inst_per_bench = Some(exact.total_instructions);
        let c = characterize_benchmark_watched(bench, &cfg2, None)
            .expect("halting on the last budgeted instruction is not runaway");
        assert_eq!(c.total_instructions, exact.total_instructions);
    }

    #[test]
    fn cancelled_token_stops_characterization() {
        let token = CancelToken::new();
        token.cancel();
        let all = catalog();
        let cfg = StudyConfig::smoke();
        let err = characterize_benchmark_watched(&all[0], &cfg, Some(&token))
            .expect_err("token already tripped");
        assert_eq!(err, BenchFailure::Cancelled);
    }

    #[test]
    fn statically_invalid_benchmark_is_quarantined_without_running() {
        use phaselab_vm::{regs::*, Asm, DataBuilder, VerifyError};
        // A genuinely halt-free loop: rejected by the pre-flight
        // verifier, so not a single instruction executes and the
        // watchdog budget is never consulted.
        let bench = Benchmark::custom(
            "haltless",
            phaselab_workloads::Suite::Bmw,
            vec![(
                "default",
                Box::new(|_, _| {
                    let mut asm = Asm::new();
                    asm.li(T0, 0);
                    asm.label("spin");
                    asm.addi(T0, T0, 1);
                    asm.j("spin");
                    asm.assemble(DataBuilder::new()).expect("assembles")
                }),
            )],
        );
        let cfg = StudyConfig::smoke();
        let err = characterize_benchmark_watched(&bench, &cfg, None).expect_err("rejected");
        let BenchFailure::Quarantined(q) = err else {
            panic!("expected quarantine, got {err:?}");
        };
        assert_eq!(q.name, "haltless");
        assert!(!q.is_runaway());
        let verr = q.verify_error().expect("static cause");
        assert!(matches!(verr, VerifyError::NoHaltReachable { .. }));
        // The diagnostic carries a pc and the entry disassembly.
        assert!(q.to_string().contains("statically invalid: pc 0"));
    }

    #[test]
    fn engines_characterize_bit_identically() {
        let all = catalog();
        for bench in all.iter().take(6) {
            let program = bench.build(Scale::Tiny, 0);
            let blk = characterize_program_with_engine(&program, 10_000, 1 << 40, Engine::Block)
                .expect("runs");
            let inst = characterize_program_with_engine(&program, 10_000, 1 << 40, Engine::Inst)
                .expect("runs");
            assert_eq!(blk, inst, "engine divergence on {}", bench.name());
        }
    }

    #[test]
    fn engine_selection_does_not_change_watched_results() {
        let all = catalog();
        let bench = &all[5];
        let mut cfg = StudyConfig::smoke();
        cfg.interval_len = 10_000;
        cfg.max_inst_per_bench = Some(40_000_000);
        cfg.engine = Engine::Block;
        let blk = characterize_benchmark_watched(bench, &cfg, None).expect("healthy");
        cfg.engine = Engine::Inst;
        let inst = characterize_benchmark_watched(bench, &cfg, None).expect("healthy");
        assert_eq!(blk.total_instructions, inst.total_instructions);
        assert_eq!(blk.per_input, inst.per_input);
    }

    #[test]
    fn engines_quarantine_runaways_identically() {
        for engine in [Engine::Block, Engine::Inst] {
            let mut cfg = StudyConfig::smoke();
            cfg.max_inst_per_bench = Some(100_000);
            cfg.engine = engine;
            let err = characterize_benchmark_watched(&spinning_benchmark(), &cfg, None)
                .expect_err("never halts");
            let BenchFailure::Quarantined(q) = err else {
                panic!("expected quarantine, got {err:?}");
            };
            assert_eq!(q.cause, QuarantineCause::Runaway { budget: 100_000 });
        }
    }

    #[test]
    fn faulting_program_reports_the_vm_error() {
        use phaselab_vm::{regs::*, Asm, DataBuilder};
        let mut asm = Asm::new();
        asm.li(T0, 1 << 40); // far outside any data segment
        asm.ld(T1, T0, 0);
        asm.halt();
        let program = asm.assemble(DataBuilder::new()).expect("assembles");
        let err = characterize_program(&program, 1_000, 1 << 20).expect_err("faults");
        assert!(err.is_memory_fault(), "unexpected fault {err}");
    }
}
