//! VM and MICA calibration, in the style of `repro`'s engine
//! calibration: per-instruction costs of dispatch, of each of the six
//! analyzers alone, and of the fused interval characterizer.

use std::hint::black_box;
use std::time::Instant;

use phaselab_mica::{
    Analyzer, BranchAnalyzer, FeatureVector, FootprintAnalyzer, IlpAnalyzer, IntervalCharacterizer,
    MixAnalyzer, RegTrafficAnalyzer, StrideAnalyzer,
};
use phaselab_trace::{BlockSink, BlockToInstAdapter, InstRecord, SummarySink, VecSink};
use phaselab_vm::{CompiledProgram, Program, Vm};
use phaselab_workloads::{Benchmark, Scale};

/// Instructions each calibration window skips (past initialization) and
/// then observes, in every program of the catalog.
const SKIP: u64 = 100_000;
const WINDOW: u64 = 100_000;
const INTERVAL: u64 = 10_000;
/// Timings per measurement; the minimum is kept.
const REPS: usize = 3;

/// Per-analyzer metric names, in feature-layout order.
pub const ANALYZERS: [&str; 6] = [
    "mica.mix_ns_per_inst",
    "mica.ilp_ns_per_inst",
    "mica.regtraffic_ns_per_inst",
    "mica.footprint_ns_per_inst",
    "mica.strides_ns_per_inst",
    "mica.branch_ns_per_inst",
];

pub struct Calibration {
    pub dispatch_ns_per_inst: f64,
    pub inst_per_block: f64,
    /// Replay cost of each analyzer alone, in [`ANALYZERS`] order.
    pub analyzer_ns_per_inst: [f64; 6],
    /// Fused characterizer cost minus dispatch.
    pub observe_ns_per_inst: f64,
}

/// Runs the calibration over every input of every benchmark at the
/// study scale. Dispatch is timed over whole executions; the analyzers
/// over one recorded window per program, whose replayed features must
/// equal the fused characterizer's bit for bit. Each timing is the best
/// of [`REPS`].
pub fn calibrate(benches: &[Benchmark]) -> Result<Calibration, String> {
    let programs: Vec<(String, Program)> = benches
        .iter()
        .flat_map(|b| {
            (0..b.num_inputs())
                .map(move |i| (format!("{}/{i}", b.name()), b.build(Scale::Small, i)))
        })
        .collect();

    let (mut dispatch_ns, mut insts, mut blocks) = (0.0, 0u64, 0u64);
    let (mut analyzer_ns, mut replayed) = ([0.0; 6], 0u64);
    let (mut fused_ns, mut summary_ns) = (0.0, 0.0);
    for (name, program) in &programs {
        let compiled = CompiledProgram::compile(program);
        let mut out = None;
        dispatch_ns += best_of(|| {
            let mut vm = Vm::new(program);
            let mut sink = SummarySink::new();
            let t = Instant::now();
            let o = vm
                .run_blocks(&compiled, &mut dyn_sink(&mut sink), u64::MAX)
                .map_err(|e| format!("{name}: {e}"))?;
            let took = ns(t);
            if !o.halted || sink.instructions() != o.instructions {
                return Err(format!("{name}: dispatch run did not halt cleanly"));
            }
            out = Some(o);
            Ok(took)
        })?;
        let out = out.expect("best_of ran at least once");
        insts += out.instructions;
        blocks += out.blocks;

        summary_ns += best_of(|| window(program, &compiled, &mut SummarySink::new(), name))?;
        let mut chr = IntervalCharacterizer::new(INTERVAL);
        fused_ns += best_of(|| {
            chr = IntervalCharacterizer::new(INTERVAL);
            window(program, &compiled, &mut chr, name)
        })?;
        let mut records = VecSink::new();
        window(program, &compiled, &mut records, name)?;
        let records = records.into_records();
        let replay = replay_all(&records, &mut analyzer_ns);
        if replay != chr.features() {
            return Err(format!(
                "{name}: replayed features differ from the fused path"
            ));
        }
        replayed += records.len() as u64;
    }
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    Ok(Calibration {
        dispatch_ns_per_inst: per(dispatch_ns, insts),
        inst_per_block: insts as f64 / blocks.max(1) as f64,
        analyzer_ns_per_inst: analyzer_ns.map(|t| per(t, replayed)),
        observe_ns_per_inst: per(fused_ns - summary_ns, replayed),
    })
}

/// Runs `program` past [`SKIP`] instructions, then times the next
/// [`WINDOW`] instructions into `sink` (per-instruction sinks go through
/// the block-to-instruction adapter). Returns the window's wall time in
/// ns.
fn window<S: Observer>(
    program: &Program,
    compiled: &CompiledProgram,
    sink: &mut S,
    name: &str,
) -> Result<f64, String> {
    let mut vm = Vm::new(program);
    let fault = |e| format!("{name}: {e}");
    vm.run_blocks(compiled, &mut dyn_sink(&mut SummarySink::new()), SKIP)
        .map_err(fault)?;
    let t = Instant::now();
    let out = sink.run(&mut vm, compiled).map_err(fault)?;
    let took = ns(t);
    if out != WINDOW {
        return Err(format!("{name}: window ran {out} instructions"));
    }
    Ok(took)
}

/// A window observer: block sinks run directly, per-instruction sinks
/// behind the adapter the pipeline would use.
trait Observer {
    fn run(
        &mut self,
        vm: &mut Vm<'_>,
        compiled: &CompiledProgram,
    ) -> Result<u64, phaselab_vm::VmError>;
}

impl Observer for VecSink {
    fn run(
        &mut self,
        vm: &mut Vm<'_>,
        compiled: &CompiledProgram,
    ) -> Result<u64, phaselab_vm::VmError> {
        let mut adapter = BlockToInstAdapter::new(self);
        Ok(vm
            .run_blocks(compiled, &mut dyn_sink(&mut adapter), WINDOW)?
            .instructions)
    }
}

impl Observer for SummarySink {
    fn run(
        &mut self,
        vm: &mut Vm<'_>,
        compiled: &CompiledProgram,
    ) -> Result<u64, phaselab_vm::VmError> {
        Ok(vm
            .run_blocks(compiled, &mut dyn_sink(self), WINDOW)?
            .instructions)
    }
}

impl Observer for IntervalCharacterizer {
    fn run(
        &mut self,
        vm: &mut Vm<'_>,
        compiled: &CompiledProgram,
    ) -> Result<u64, phaselab_vm::VmError> {
        Ok(vm
            .run_blocks(compiled, &mut dyn_sink(self), WINDOW)?
            .instructions)
    }
}

/// Behind a trait object, exactly as the study pipeline drives sinks.
fn dyn_sink<S: BlockSink>(sink: &mut S) -> &mut dyn BlockSink {
    black_box(sink)
}

/// Replays `records` through each analyzer alone, adding each one's wall
/// time to `ns`, and returns the interval features the six produce
/// together.
fn replay_all(records: &[InstRecord], ns: &mut [f64; 6]) -> Vec<FeatureVector> {
    let intervals = records.len() / INTERVAL as usize;
    let mut out = vec![FeatureVector::zeros(); intervals];
    ns[0] += replay(MixAnalyzer::new, records, &mut out);
    ns[1] += replay(IlpAnalyzer::new, records, &mut out);
    ns[2] += replay(RegTrafficAnalyzer::new, records, &mut out);
    ns[3] += replay(FootprintAnalyzer::new, records, &mut out);
    ns[4] += replay(StrideAnalyzer::new, records, &mut out);
    ns[5] += replay(BranchAnalyzer::new, records, &mut out);
    out
}

fn replay<A: Analyzer>(new: fn() -> A, records: &[InstRecord], out: &mut [FeatureVector]) -> f64 {
    let timed = best_of(|| {
        let mut a = new();
        let t = Instant::now();
        for (chunk, fv) in records.chunks_exact(INTERVAL as usize).zip(out.iter_mut()) {
            for (i, rec) in chunk.iter().enumerate() {
                a.observe(black_box(rec), i as u64);
            }
            a.emit(fv);
            a.reset();
        }
        Ok::<_, String>(ns(t))
    });
    timed.expect("replay cannot fail")
}

/// The fastest of [`REPS`] timings: the least disturbed by other load
/// on the machine.
fn best_of(mut time: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        best = best.min(time()?);
    }
    Ok(best)
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9
}
