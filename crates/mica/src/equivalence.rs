//! Exactness of the analyzer kernels.
//!
//! The ILP, register-traffic, footprint and branch analyzers are written
//! for speed. This module keeps their straightforward formulations as
//! reference implementations — four independent ILP windows, a
//! per-bucket distance loop, a page insert per access, and a PPM walk
//! that hashes all 13 contexts of every table on every branch — and
//! checks that the fast kernels produce bit-identical features on random
//! instruction streams, analyzer by analyzer and through the full
//! [`IntervalCharacterizer`] on both its record and block paths.
//!
//! The references share the PPM table (storage, counter rule) and the
//! context key function with the fast path: those are the definition of
//! the features, not part of the rewrite, and `tests/golden_features.rs`
//! pins them on catalog programs.

use phaselab_trace::{
    ArchReg, BlockInst, BlockRecord, BlockSink, BlockSummary, BranchInfo, InstClass, InstRecord,
    MemRef, RegReads, TraceSink, NUM_ARCH_REGS,
};
use proptest::prelude::*;

use crate::branch::{context_key, PpmTable};
use crate::features::{FeatureVector, BRANCH_BASE, FOOTPRINT_BASE, ILP_BASE, REG_BASE};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::{
    Analyzer, BranchAnalyzer, FootprintAnalyzer, IlpAnalyzer, IntervalCharacterizer, MixAnalyzer,
    RegTrafficAnalyzer, StrideAnalyzer, ILP_WINDOWS,
};

// ---------------------------------------------------------------------
// Reference implementations.

/// Reference ILP: one ring and one register scoreboard per window.
#[derive(Debug, Clone)]
struct RefIlp {
    windows: Vec<RefWindow>,
    count: u64,
}

#[derive(Debug, Clone)]
struct RefWindow {
    size: usize,
    reg_ready: [u64; NUM_ARCH_REGS],
    ring: Vec<u64>,
    horizon: u64,
}

impl RefIlp {
    fn new() -> Self {
        let windows = ILP_WINDOWS
            .iter()
            .map(|&size| RefWindow {
                size,
                reg_ready: [0; NUM_ARCH_REGS],
                ring: vec![0; size],
                horizon: 0,
            })
            .collect();
        RefIlp { windows, count: 0 }
    }
}

impl Analyzer for RefIlp {
    fn observe(&mut self, rec: &InstRecord, index: u64) {
        for w in &mut self.windows {
            let slot = (index as usize) % w.size;
            let mut start = w.ring[slot];
            for r in rec.reads.iter() {
                start = start.max(w.reg_ready[r.index()]);
            }
            let completion = start + 1;
            w.ring[slot] = completion;
            if let Some(reg) = rec.write {
                w.reg_ready[reg.index()] = completion;
            }
            w.horizon = w.horizon.max(completion);
        }
        self.count += 1;
    }

    fn emit(&self, out: &mut FeatureVector) {
        for (i, w) in self.windows.iter().enumerate() {
            out[ILP_BASE + i] = if w.horizon == 0 {
                0.0
            } else {
                self.count as f64 / w.horizon as f64
            };
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

/// Reference register traffic: each read increments every cumulative
/// bucket whose bound it meets.
#[derive(Debug, Clone)]
struct RefRegTraffic {
    total_instrs: u64,
    total_reads: u64,
    total_writes: u64,
    last_write: [u64; NUM_ARCH_REGS],
    dist_counts: [u64; 7],
    dist_total: u64,
}

impl RefRegTraffic {
    const BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

    fn new() -> Self {
        RefRegTraffic {
            total_instrs: 0,
            total_reads: 0,
            total_writes: 0,
            last_write: [u64::MAX; NUM_ARCH_REGS],
            dist_counts: [0; 7],
            dist_total: 0,
        }
    }
}

impl Analyzer for RefRegTraffic {
    fn observe(&mut self, rec: &InstRecord, index: u64) {
        self.total_instrs += 1;
        for r in rec.reads.iter() {
            self.total_reads += 1;
            let producer = self.last_write[r.index()];
            if producer != u64::MAX {
                let dist = index - producer;
                self.dist_total += 1;
                for (slot, &bound) in self.dist_counts.iter_mut().zip(&Self::BOUNDS) {
                    if dist <= bound {
                        *slot += 1;
                    }
                }
            }
        }
        if let Some(w) = rec.write {
            self.total_writes += 1;
            self.last_write[w.index()] = index;
        }
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[REG_BASE] = self.total_reads as f64 / self.total_instrs.max(1) as f64;
        out[REG_BASE + 1] = self.total_reads as f64 / self.total_writes.max(1) as f64;
        let denom = self.dist_total.max(1) as f64;
        for (i, &c) in self.dist_counts.iter().enumerate() {
            out[REG_BASE + 2 + i] = c as f64 / denom;
        }
    }

    fn reset(&mut self) {
        *self = Self::new();
    }
}

/// Reference footprint: a block insert and a page insert per address.
#[derive(Debug, Clone, Default)]
struct RefFootprint {
    instr_blocks: FxHashSet<u64>,
    instr_pages: FxHashSet<u64>,
    data_blocks: FxHashSet<u64>,
    data_pages: FxHashSet<u64>,
}

impl Analyzer for RefFootprint {
    fn observe(&mut self, rec: &InstRecord, _index: u64) {
        self.instr_blocks.insert(rec.pc >> 6);
        self.instr_pages.insert(rec.pc >> 12);
        if let Some(mem) = rec.mem {
            self.data_blocks.insert(mem.addr >> 6);
            self.data_pages.insert(mem.addr >> 12);
            let last = mem.addr + mem.size as u64 - 1;
            if last >> 6 != mem.addr >> 6 {
                self.data_blocks.insert(last >> 6);
                self.data_pages.insert(last >> 12);
            }
        }
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[FOOTPRINT_BASE] = self.instr_blocks.len() as f64;
        out[FOOTPRINT_BASE + 1] = self.instr_pages.len() as f64;
        out[FOOTPRINT_BASE + 2] = self.data_blocks.len() as f64;
        out[FOOTPRINT_BASE + 3] = self.data_pages.len() as f64;
    }

    fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Reference PPM predictor: hashes every context key on every branch
/// and walks all 13 lengths.
#[derive(Debug, Clone)]
struct RefPredictor {
    local_history: bool,
    per_address: bool,
    table: PpmTable,
    misses: [u64; 3],
}

impl RefPredictor {
    fn observe(&mut self, pc: u64, hist: u64, taken: bool) {
        let pc_key = if self.per_address { pc } else { 0 };
        let mut predictions: [Option<bool>; 3] = [None; 3];
        for len in (0..=12).rev() {
            if let Some((t, n)) = self.table.lookup(context_key(len, hist, pc_key)) {
                for (i, depth) in [4, 8, 12].into_iter().enumerate() {
                    if len <= depth && predictions[i].is_none() {
                        predictions[i] = Some(t >= n);
                    }
                }
                if predictions.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        for (miss, pred) in self.misses.iter_mut().zip(predictions) {
            if pred.unwrap_or(false) != taken {
                *miss += 1;
            }
        }
        for len in 0..=12 {
            self.table.update(context_key(len, hist, pc_key), taken);
        }
    }
}

/// Reference branch analyzer: separate last-outcome and local-history
/// maps, four independently keyed predictors.
#[derive(Debug, Clone)]
struct RefBranch {
    branches: u64,
    taken: u64,
    transitions: u64,
    with_history: u64,
    last_outcome: FxHashMap<u64, bool>,
    global_hist: u64,
    local_hist: FxHashMap<u64, u64>,
    predictors: Vec<RefPredictor>,
}

impl RefBranch {
    fn new() -> Self {
        let predictors = [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .map(|(local_history, per_address)| RefPredictor {
                local_history,
                per_address,
                table: PpmTable::new(),
                misses: [0; 3],
            })
            .collect();
        RefBranch {
            branches: 0,
            taken: 0,
            transitions: 0,
            with_history: 0,
            last_outcome: FxHashMap::default(),
            global_hist: 0,
            local_hist: FxHashMap::default(),
            predictors,
        }
    }
}

impl Analyzer for RefBranch {
    fn observe(&mut self, rec: &InstRecord, _index: u64) {
        let Some(branch) = rec.branch else { return };
        if !branch.conditional {
            return;
        }
        let (pc, taken) = (rec.pc, branch.taken);
        self.branches += 1;
        self.taken += taken as u64;
        if let Some(prev) = self.last_outcome.insert(pc, taken) {
            self.with_history += 1;
            if prev != taken {
                self.transitions += 1;
            }
        }
        let local = self.local_hist.entry(pc).or_insert(0);
        let local_before = *local;
        *local = ((*local << 1) | taken as u64) & 0xfff;
        let global_before = self.global_hist;
        self.global_hist = ((self.global_hist << 1) | taken as u64) & 0xfff;
        for p in &mut self.predictors {
            let hist = if p.local_history {
                local_before
            } else {
                global_before
            };
            p.observe(pc, hist, taken);
        }
    }

    fn emit(&self, out: &mut FeatureVector) {
        out[BRANCH_BASE] = self.transitions as f64 / self.with_history.max(1) as f64;
        out[BRANCH_BASE + 1] = self.taken as f64 / self.branches.max(1) as f64;
        let denom = self.branches.max(1) as f64;
        for (pi, p) in self.predictors.iter().enumerate() {
            for (di, &m) in p.misses.iter().enumerate() {
                out[BRANCH_BASE + 2 + pi * 3 + di] = m as f64 / denom;
            }
        }
    }

    fn reset(&mut self) {
        self.branches = 0;
        self.taken = 0;
        self.transitions = 0;
        self.with_history = 0;
        self.last_outcome.clear();
        self.global_hist = 0;
        self.local_hist.clear();
        for p in &mut self.predictors {
            p.table.reset();
            p.misses = [0; 3];
        }
    }
}

/// The interval features of `records` computed with the reference
/// analyzers (and the unchanged mix and stride analyzers), keeping the
/// trailing partial interval.
fn reference_features(records: &[InstRecord], interval: usize) -> Vec<FeatureVector> {
    let mut analyzers: [Box<dyn Analyzer>; 6] = [
        Box::new(MixAnalyzer::new()),
        Box::new(RefIlp::new()),
        Box::new(RefRegTraffic::new()),
        Box::new(RefFootprint::default()),
        Box::new(StrideAnalyzer::new()),
        Box::new(RefBranch::new()),
    ];
    let mut out = Vec::new();
    for chunk in records.chunks(interval) {
        for (i, rec) in chunk.iter().enumerate() {
            for a in &mut analyzers {
                a.observe(rec, i as u64);
            }
        }
        let mut fv = FeatureVector::zeros();
        for a in &mut analyzers {
            a.emit(&mut fv);
            a.reset();
        }
        out.push(fv);
    }
    out
}

// ---------------------------------------------------------------------
// Random streams.

/// SplitMix64: a self-contained generator so each case replays from its
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        crate::fxhash::mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// One static basic block of a random program.
struct StaticBlock {
    insts: Vec<BlockInst>,
    summary: BlockSummary,
    /// `(base, stride)` of each memory template's address stream.
    streams: Vec<(u64, u64)>,
    /// Successor when the terminating branch is taken.
    target: usize,
    /// Taken when `execution % period != period - 1`, or with
    /// probability `bias`% when `period` is 0.
    period: u64,
    bias: u64,
}

/// One executed block: its static index, effective addresses and exit.
struct DynBlock {
    block: usize,
    addrs: Vec<u64>,
    branch: Option<BranchInfo>,
}

/// A random program of 4 to 13 blocks, for [`random_walk`]: loops,
/// biased and patterned branches, strided, random and block-straddling
/// accesses across a few pages, and dependence chains over a small
/// register pool — so PPM contexts recur, histories are correlated and
/// ILP windows fill.
fn random_program(rng: &mut Rng) -> Vec<StaticBlock> {
    const ALU: [InstClass; 8] = [
        InstClass::IntAdd,
        InstClass::IntMul,
        InstClass::Logical,
        InstClass::Shift,
        InstClass::Compare,
        InstClass::Mov,
        InstClass::FpAdd,
        InstClass::FpMul,
    ];
    let regs: Vec<ArchReg> = (0..6)
        .map(ArchReg::int)
        .chain((0..3).map(ArchReg::fp))
        .collect();
    let blocks = 4 + rng.below(10) as usize;
    (0..blocks)
        .map(|_| {
            let len = 1 + rng.below(14) as usize;
            let base = rng.below(24) * 1024 + rng.below(64) * 4;
            let mut streams = Vec::new();
            let insts = (0..len)
                .map(|j| {
                    let pc = base + 4 * j as u64;
                    let last = j + 1 == len;
                    let class = if last && rng.below(4) != 0 {
                        rng.pick(&[
                            InstClass::CondBranch,
                            InstClass::CondBranch,
                            InstClass::Jump,
                        ])
                    } else if rng.below(3) == 0 {
                        rng.pick(&[InstClass::MemRead, InstClass::MemWrite])
                    } else {
                        rng.pick(&ALU)
                    };
                    let reads: Vec<ArchReg> = (0..rng.below(4)).map(|_| rng.pick(&regs)).collect();
                    let mut inst = BlockInst::new(pc, class).with_reads(&reads);
                    if !class.is_control() && class != InstClass::MemWrite && rng.below(4) != 0 {
                        inst = inst.with_write(rng.pick(&regs));
                    }
                    if class.is_memory() {
                        inst = inst.with_mem(MemRef {
                            size: rng.pick(&[1, 2, 4, 8]),
                            is_store: class == InstClass::MemWrite,
                        });
                        let stride = rng.pick(&[0, 4, 8, 60, 64, 4096, 4100, u64::MAX - 7]);
                        streams.push((rng.below(1 << 22), stride));
                    }
                    inst
                })
                .collect::<Vec<_>>();
            let summary = BlockSummary::of(&insts);
            StaticBlock {
                insts,
                summary,
                streams,
                target: rng.below(blocks as u64) as usize,
                period: rng.pick(&[0, 0, 2, 3, 5, 8]),
                bias: rng.pick(&[0, 10, 30, 50, 90, 100]),
            }
        })
        .collect()
}

/// Executes `program` for at least `min_insts` instructions.
fn random_walk(rng: &mut Rng, program: &[StaticBlock], min_insts: usize) -> Vec<DynBlock> {
    let mut runs = vec![0u64; program.len()];
    let mut walk = Vec::new();
    let (mut at, mut executed) = (0, 0);
    while executed < min_insts {
        let b = &program[at];
        let n = runs[at];
        runs[at] += 1;
        let addrs = b
            .streams
            .iter()
            .map(|&(base, stride)| {
                let addr = if rng.below(8) == 0 {
                    rng.below(1 << 24)
                } else {
                    base.wrapping_add(stride.wrapping_mul(n))
                };
                addr & ((1 << 32) - 1)
            })
            .collect();
        let last = b.insts.last().expect("blocks are non-empty");
        let (branch, next) = match last.class {
            InstClass::CondBranch => {
                let taken = if b.period > 0 {
                    n % b.period != b.period - 1
                } else {
                    rng.below(100) < b.bias
                };
                let next = if taken {
                    b.target
                } else {
                    (at + 1) % program.len()
                };
                let info = BranchInfo {
                    taken,
                    target: program[b.target].insts[0].pc,
                    conditional: true,
                };
                (Some(info), next)
            }
            InstClass::Jump => {
                let info = BranchInfo {
                    taken: true,
                    target: program[b.target].insts[0].pc,
                    conditional: false,
                };
                (Some(info), b.target)
            }
            _ => (None, (at + 1) % program.len()),
        };
        walk.push(DynBlock {
            block: at,
            addrs,
            branch,
        });
        executed += b.insts.len();
        // An occasional jump anywhere keeps the walk from settling into
        // one short cycle.
        at = if rng.below(20) == 0 {
            rng.below(program.len() as u64) as usize
        } else {
            next
        };
    }
    walk
}

fn block_record<'a>(program: &'a [StaticBlock], d: &'a DynBlock) -> BlockRecord<'a> {
    let b = &program[d.block];
    BlockRecord::new(&b.insts, &d.addrs, &b.summary, d.branch)
}

fn records_of(program: &[StaticBlock], walk: &[DynBlock]) -> Vec<InstRecord> {
    walk.iter()
        .flat_map(|d| block_record(program, d).records().collect::<Vec<_>>())
        .collect()
}

fn random_records(seed: u64, min_insts: usize) -> Vec<InstRecord> {
    let mut rng = Rng(seed);
    let program = random_program(&mut rng);
    let walk = random_walk(&mut rng, &program, min_insts);
    records_of(&program, &walk)
}

/// Interval lengths around the ILP ring size and block lengths.
const INTERVALS: [usize; 9] = [1, 7, 64, 255, 256, 257, 300, 1000, 5000];

/// Feeds `records` through a fast analyzer and its reference, resetting
/// both every `interval` instructions, and requires identical features
/// after every single observation.
fn assert_stepwise<A: Analyzer, B: Analyzer>(
    fast: &mut A,
    reference: &mut B,
    records: &[InstRecord],
    interval: usize,
) -> Result<(), String> {
    for (chunk_no, chunk) in records.chunks(interval).enumerate() {
        for (i, rec) in chunk.iter().enumerate() {
            fast.observe(rec, i as u64);
            reference.observe(rec, i as u64);
            let (mut f, mut r) = (FeatureVector::zeros(), FeatureVector::zeros());
            fast.emit(&mut f);
            reference.emit(&mut r);
            if f != r {
                return Err(format!(
                    "interval {chunk_no}, position {i}: {:?} != {:?}",
                    f.as_slice(),
                    r.as_slice()
                ));
            }
        }
        fast.reset();
        reference.reset();
    }
    Ok(())
}

proptest! {
    #[test]
    fn equivalence_of_each_analyzer(seed in 0u64..u64::MAX, pick in 0usize..INTERVALS.len()) {
        let interval = INTERVALS[pick];
        let records = random_records(seed, 1500);
        assert_stepwise(&mut IlpAnalyzer::new(), &mut RefIlp::new(), &records, interval)?;
        assert_stepwise(
            &mut RegTrafficAnalyzer::new(),
            &mut RefRegTraffic::new(),
            &records,
            interval,
        )?;
        assert_stepwise(
            &mut FootprintAnalyzer::new(),
            &mut RefFootprint::default(),
            &records,
            interval,
        )?;
        assert_stepwise(&mut BranchAnalyzer::new(), &mut RefBranch::new(), &records, interval)?;
    }

    #[test]
    fn equivalence_of_the_characterizer(seed in 0u64..u64::MAX, pick in 0usize..INTERVALS.len()) {
        let interval = INTERVALS[pick];
        let mut rng = Rng(seed);
        let program = random_program(&mut rng);
        let walk = random_walk(&mut rng, &program, 6000);
        let records = records_of(&program, &walk);
        let want = reference_features(&records, interval);

        let mut by_record = IntervalCharacterizer::new(interval as u64).keep_tail(true);
        for rec in &records {
            by_record.observe(rec);
        }
        TraceSink::finish(&mut by_record);
        prop_assert_eq!(by_record.features(), &want[..]);

        let mut by_block = IntervalCharacterizer::new(interval as u64).keep_tail(true);
        for d in &walk {
            by_block.observe_block(&block_record(&program, d));
        }
        BlockSink::finish(&mut by_block);
        prop_assert_eq!(by_block.features(), &want[..]);
    }
}

#[test]
fn equivalence_when_contexts_of_one_branch_share_a_slot() {
    // Find a global history whose address-free contexts collide in the
    // table, and a branch PC whose per-address contexts collide under
    // that same history. Lookups must all see the table as it was before
    // the branch updated any of its contexts.
    let colliding = |pc: u64, hist: u64| {
        let slots: Vec<usize> = (0..=12)
            .map(|len| PpmTable::slot(context_key(len, hist, pc)))
            .collect();
        (0..slots.len()).any(|a| slots[a + 1..].contains(&slots[a]))
    };
    let hist = (0..1 << 12)
        .find(|&h| colliding(0, h))
        .expect("some history has colliding address-free contexts");
    let pc = (1..1 << 20)
        .map(|k: u64| 4 * k)
        .find(|&pc| colliding(pc, hist))
        .expect("some PC has colliding per-address contexts");

    // Twelve filler branches set the global history to `hist` before
    // every execution of the colliding branch, whose own outcomes follow
    // a period-3 pattern.
    let branch = |pc, taken| {
        InstRecord::new(pc, InstClass::CondBranch).with_branch(BranchInfo {
            taken,
            target: 0,
            conditional: true,
        })
    };
    let mut records = Vec::new();
    for round in 0..400u64 {
        for bit in (0..12).rev() {
            let filler = (1 << 20) + 4 * bit;
            records.push(branch(filler, (hist >> bit) & 1 == 1));
        }
        records.push(branch(pc, round % 3 != 0));
    }
    for interval in [13, 1000, records.len()] {
        let mut fast = BranchAnalyzer::new();
        let mut reference = RefBranch::new();
        assert_stepwise(&mut fast, &mut reference, &records, interval).unwrap();
    }
}

#[test]
fn equivalence_when_address_free_contexts_of_two_histories_share_a_slot() {
    // Two full global histories whose length-12 address-free contexts
    // share a table slot. A probe under `hist_a` keeps seeing taken; a
    // spoiler under `hist_a` with bit 11 flipped shares every shorter
    // context and keeps seeing not-taken; a probe under `hist_b` then
    // evicts `hist_a`'s length-12 context, so the next `hist_a` probe
    // must fall back to the spoiled shorter contexts and mispredict.
    let slot = |hist: u64| PpmTable::slot(context_key(12, hist, 0));
    let (hist_a, hist_b) = (0..1u64 << 12)
        .find_map(|a| {
            ((a + 1)..1 << 12)
                .find(|&b| slot(a) == slot(b))
                .map(|b| (a, b))
        })
        .expect("two full histories share an address-free slot");
    assert_ne!(context_key(12, hist_a, 0), context_key(12, hist_b, 0));

    let branch = |pc, taken| {
        InstRecord::new(pc, InstClass::CondBranch).with_branch(BranchInfo {
            taken,
            target: 0,
            conditional: true,
        })
    };
    // Twelve filler branches set the global history before each branch.
    let mut records = Vec::new();
    let mut under = |hist: u64, pc: u64, taken: bool| {
        for bit in (0..12).rev() {
            records.push(branch((1 << 20) + 4 * bit, (hist >> bit) & 1 == 1));
        }
        records.push(branch(pc, taken));
    };
    for round in 0..40u64 {
        for _ in 0..3 {
            under(hist_a, 0x40, true);
        }
        for _ in 0..5 {
            under(hist_a ^ 1 << 11, 0x80, false);
        }
        under(hist_b, 0xc0, round % 2 == 0);
        under(hist_a, 0x40, true);
    }
    for interval in [13 * 10, 1000, records.len()] {
        let mut fast = BranchAnalyzer::new();
        let mut reference = RefBranch::new();
        assert_stepwise(&mut fast, &mut reference, &records, interval).unwrap();
    }
}

#[test]
fn equivalence_of_ilp_over_the_first_ring_after_a_reset() {
    // Dependent chains and independent bursts in intervals longer than
    // the ring: every window reads both never-written (zero) and live
    // entries right after each reset.
    let mut rng = Rng(0x11b);
    let regs: Vec<ArchReg> = (0..4).map(ArchReg::int).collect();
    let records: Vec<InstRecord> = (0..2400u64)
        .map(|i| {
            let mut reads = RegReads::new();
            for _ in 0..rng.below(3) {
                reads.push(rng.pick(&regs));
            }
            let mut rec = InstRecord::new(4 * i, InstClass::IntAdd);
            rec.reads = reads;
            if (i / 100) % 2 == 0 {
                rec.with_write(rng.pick(&regs))
            } else {
                rec
            }
        })
        .collect();
    for interval in [256, 300, 600] {
        assert_stepwise(
            &mut IlpAnalyzer::new(),
            &mut RefIlp::new(),
            &records,
            interval,
        )
        .unwrap();
    }
}
