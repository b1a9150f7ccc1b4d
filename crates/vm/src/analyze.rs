//! Abstract interpretation over the verified CFG: static instruction
//! budgets, memory footprints, and a lint layer.
//!
//! [`Program::analyze`] runs after (and subsumes) [`Program::verify`]:
//! on a verified program it builds per-frame dominator trees, detects
//! natural loops, derives trip-count bounds from constant-bounded
//! induction registers, runs an interval (value-range) analysis over
//! the integer registers, and condenses everything into a
//! [`StaticReport`] holding two *sound* per-program envelopes:
//!
//! * a static dynamic-instruction budget `[inst_min, inst_max|⊤]` —
//!   every halting execution retires at least `inst_min` and at most
//!   `inst_max` instructions whenever the latter is finite, and
//! * a static memory footprint: per-site stride classification
//!   (constant / strided / indirect) with byte-range bounds whose
//!   union over-approximates every address the program can touch.
//!
//! The consumers are downstream: the watchdog derives default budgets
//! from `inst_max`, the block compiler prunes folded-dead blocks, and
//! `repro lint` renders the [`Lint`] diagnostics.
//!
//! # Soundness contract
//!
//! For a verified program, whenever a bound below is finite it holds on
//! every execution, under both engines and any thread count or watchdog
//! slicing (none of which change the instruction stream):
//!
//! * dynamic instructions retired ≤ `inst_max`; if the run halts,
//!   dynamic instructions ≥ `inst_min`;
//! * every byte address touched lies inside `footprint`;
//! * a pc in `dead` never executes.
//!
//! The analysis is deliberately permissive everywhere it cannot decide
//! (recursion, data-dependent trip counts, indirect addressing): it
//! widens to `⊤` / the full data segment rather than guess.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use crate::isa::{AluOp, Cond, IReg, Instr};
use crate::program::Program;
use crate::verify::{dataflow, int_write, mem_access, Cfg, FrameView, RegState, VerifyError};

/// How serious a [`Lint`] finding is. Ordered most-severe-first so a
/// sorted finding list leads with what must be fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A defect: the program will fault or is otherwise unfit to run.
    Deny,
    /// Suspicious: sound to run, but probably not what was intended.
    Warn,
    /// Informational: notable structure, no action required.
    Info,
}

impl Severity {
    /// Lower-case name used in machine-readable output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

/// The class of a [`Lint`] finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A loop with no derivable trip bound, so `inst_max` is `⊤`.
    UnboundedLoopWithoutBudget,
    /// Instructions the folded CFG proves can never execute.
    DeadBlock,
    /// A bounded loop that runs at most once.
    DegenerateConstantLoop,
    /// A memory access that must fault, on a dead pc.
    UnreachableFault,
    /// A live access whose static range leaves the data segment.
    FootprintExceedsScale,
}

impl LintKind {
    /// Kebab-case name used in machine-readable output.
    pub fn as_str(self) -> &'static str {
        match self {
            LintKind::UnboundedLoopWithoutBudget => "unbounded-loop-without-budget",
            LintKind::DeadBlock => "dead-block",
            LintKind::DegenerateConstantLoop => "degenerate-constant-loop",
            LintKind::UnreachableFault => "unreachable-fault",
            LintKind::FootprintExceedsScale => "footprint-exceeds-scale",
        }
    }
}

/// One diagnostic from the lint layer, anchored to an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Finding class.
    pub kind: LintKind,
    /// Severity rank.
    pub severity: Severity,
    /// Instruction index the finding is anchored to.
    pub pc: u32,
    /// Disassembly of that instruction.
    pub instr: String,
    /// One-line human-readable explanation.
    pub message: String,
}

/// Static classification of one memory-access site's address stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The address is a compile-time constant.
    Constant,
    /// The address is affine in a bounded induction register.
    Strided {
        /// Byte step between consecutive accesses (mod 2^64).
        stride: i64,
    },
    /// Data-dependent addressing; only range bounds are known.
    Indirect,
}

/// Static summary of one load/store site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSite {
    /// Instruction index of the access.
    pub pc: u32,
    /// Address-stream classification.
    pub kind: AccessKind,
    /// Byte range `[start, end)` the site can touch, clamped to the
    /// data segment.
    pub range: (u64, u64),
    /// Whether the unclamped range extends past the data segment (the
    /// access *may* fault).
    pub may_exceed: bool,
    /// Whether every possible address faults (the access *must* fault
    /// if executed).
    pub must_fault: bool,
}

/// One natural loop the analyzer found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSummary {
    /// Loop header (branch target) instruction index.
    pub header: u32,
    /// One back-edge source (the lowest, if several were merged).
    pub latch: u32,
    /// Upper bound on header executions per entry, if derivable.
    pub trip_max: Option<u64>,
}

/// The analyzer's condensed result for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticReport {
    /// Lower bound on dynamic instructions of any *halting* run.
    pub inst_min: u64,
    /// Upper bound on dynamic instructions of any run; `None` is `⊤`.
    pub inst_max: Option<u64>,
    /// Natural loops, sorted by header pc.
    pub loops: Vec<LoopSummary>,
    /// Instruction indices the folded CFG proves never execute.
    pub dead: Vec<u32>,
    /// Per-site memory summaries for folded-live accesses, by pc.
    pub sites: Vec<MemSite>,
    /// Byte range `[start, end)` covering every possible data access.
    pub footprint: (u64, u64),
    /// Severity-ranked findings (most severe first, then by pc).
    pub lints: Vec<Lint>,
    /// Per-pass wall time in nanoseconds, in execution order.
    pub pass_ns: Vec<(&'static str, u64)>,
}

impl StaticReport {
    /// The most severe lint present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.lints.first().map(|l| l.severity)
    }
}

// ---------------------------------------------------------------------
// Folded control flow: branches with must-constant operands become
// unconditional, which is what separates "verifier-reachable" from
// "can actually execute".

/// Outcome of const-folding a branch at `pc` against the must-constant
/// facts flowing into it. `None` means not decidable.
fn branch_taken(
    states: &[Option<RegState>],
    pc: u32,
    rs1: IReg,
    rs2: IReg,
    cond: Cond,
) -> Option<bool> {
    let st = states[pc as usize].as_ref()?;
    Some(cond.eval(st.const_of(rs1)?, st.const_of(rs2)?))
}

/// Successors of `pc` in the folded whole-program graph. Calls descend
/// into the callee and fall through only when the callee can return.
fn folded_succs(cfg: &Cfg<'_>, states: &[Option<RegState>], pc: u32, out: &mut Vec<u32>) {
    out.clear();
    match cfg.code[pc as usize] {
        Instr::Ret | Instr::Halt => {}
        Instr::Jump { target } => out.push(target),
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => match branch_taken(states, pc, rs1, rs2, cond) {
            Some(true) => out.push(target),
            Some(false) => out.push(pc + 1),
            None => {
                out.push(target);
                out.push(pc + 1);
            }
        },
        Instr::JumpInd { .. } => out.extend_from_slice(&cfg.jr_targets),
        Instr::Call { target } => {
            out.push(target);
            if cfg.returns[target as usize] {
                out.push(pc + 1);
            }
        }
        _ => out.push(pc + 1),
    }
    out.retain(|&t| t < cfg.len);
}

/// Forward reachability over the folded graph: the pcs that can
/// actually execute. Everything else is `dead` in the report.
fn folded_live(cfg: &Cfg<'_>, states: &[Option<RegState>]) -> Vec<bool> {
    let mut live = vec![false; cfg.len as usize];
    let mut stack = vec![0u32];
    live[0] = true;
    let mut succs = Vec::new();
    while let Some(pc) = stack.pop() {
        folded_succs(cfg, states, pc, &mut succs);
        for &t in &succs {
            if !live[t as usize] {
                live[t as usize] = true;
                stack.push(t);
            }
        }
    }
    live
}

// ---------------------------------------------------------------------
// Per-frame structure: intra-frame folded CFG, dominators, natural
// loops. Loops are analyzed per frame so a callee invoked both inside
// and outside a loop is never mistaken for part of it.

/// Successors of `pc` within one frame: like [`folded_succs`] but a
/// call is stepped over (to its fall-through) instead of descended.
fn frame_succs(cfg: &Cfg<'_>, states: &[Option<RegState>], pc: u32, out: &mut Vec<u32>) {
    if let Instr::Call { target } = cfg.code[pc as usize] {
        out.clear();
        if cfg.returns[target as usize] && pc + 1 < cfg.len {
            out.push(pc + 1);
        }
        return;
    }
    folded_succs(cfg, states, pc, out);
}

/// One frame's folded intra-procedural graph and loop structure.
struct Frame {
    entry: u32,
    /// Frame body pcs, sorted.
    body: Vec<u32>,
    /// Natural loops, by header.
    loops: Vec<NaturalLoop>,
    /// Whether the frame graph minus back edges is acyclic.
    reducible: bool,
    /// pc -> reverse-post-order index, for dominance queries.
    rpo_index: BTreeMap<u32, usize>,
    /// Immediate dominators in RPO space.
    idom: Vec<usize>,
}

/// A natural loop inside one frame.
struct NaturalLoop {
    header: u32,
    latches: Vec<u32>,
    body: BTreeSet<u32>,
    /// Frame-graph predecessors of the header outside the body.
    entry_preds: Vec<u32>,
}

/// Iterative dominator computation (Cooper–Harvey–Kennedy) over one
/// frame graph given in reverse post-order.
fn dominators(n: usize, rpo_preds: &[Vec<usize>]) -> Vec<usize> {
    let mut idom = vec![usize::MAX; n];
    idom[0] = 0;
    let mut changed = true;
    let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
        while a != b {
            while a > b {
                a = idom[a];
            }
            while b > a {
                b = idom[b];
            }
        }
        a
    };
    while changed {
        changed = false;
        for v in 1..n {
            let mut new = usize::MAX;
            for &p in &rpo_preds[v] {
                if idom[p] == usize::MAX {
                    continue;
                }
                new = if new == usize::MAX {
                    p
                } else {
                    intersect(&idom, new, p)
                };
            }
            if new != usize::MAX && idom[v] != new {
                idom[v] = new;
                changed = true;
            }
        }
    }
    idom
}

/// Whether `a` dominates `b`, both as RPO indices.
fn dominates(idom: &[usize], a: usize, mut b: usize) -> bool {
    if idom[b] == usize::MAX {
        return false;
    }
    loop {
        if b == a {
            return true;
        }
        if b == 0 {
            return false;
        }
        b = idom[b];
    }
}

/// Builds one frame's folded graph and natural-loop structure.
fn build_frame(cfg: &Cfg<'_>, states: &[Option<RegState>], entry: u32) -> Frame {
    // Discover the frame body over folded intra-frame edges.
    let mut in_body = vec![false; cfg.len as usize];
    let mut stack = vec![entry];
    in_body[entry as usize] = true;
    let mut scratch = Vec::new();
    while let Some(pc) = stack.pop() {
        frame_succs(cfg, states, pc, &mut scratch);
        for &t in &scratch {
            if !in_body[t as usize] {
                in_body[t as usize] = true;
                stack.push(t);
            }
        }
    }
    let body: Vec<u32> = (0..cfg.len).filter(|&p| in_body[p as usize]).collect();
    let index: BTreeMap<u32, usize> = body.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let succs: Vec<Vec<u32>> = body
        .iter()
        .map(|&p| {
            frame_succs(cfg, states, p, &mut scratch);
            scratch
                .iter()
                .copied()
                .filter(|t| index.contains_key(t))
                .collect()
        })
        .collect();

    // Reverse post-order from the entry.
    let n = body.len();
    let entry_i = index[&entry];
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut order = Vec::with_capacity(n);
    let mut dfs: Vec<(usize, usize)> = vec![(entry_i, 0)];
    state[entry_i] = 1;
    while let Some(&mut (v, ref mut ei)) = dfs.last_mut() {
        let vs = &succs[v];
        let mut advanced = false;
        while *ei < vs.len() {
            let t = index[&vs[*ei]];
            *ei += 1;
            if state[t] == 0 {
                state[t] = 1;
                dfs.push((t, 0));
                advanced = true;
                break;
            }
        }
        if !advanced {
            state[v] = 2;
            order.push(v);
            dfs.pop();
        }
    }
    order.reverse(); // RPO over reachable-from-entry nodes (all of body)
    let rpo_of: BTreeMap<usize, usize> = order.iter().enumerate().map(|(r, &v)| (v, r)).collect();

    // Dominators in RPO space.
    let m = order.len();
    let mut rpo_preds: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (r, &v) in order.iter().enumerate() {
        for t in &succs[v] {
            let tr = rpo_of[&index[t]];
            if tr != 0 {
                rpo_preds[tr].push(r);
            }
        }
        let _ = r;
    }
    let idom = dominators(m, &rpo_preds);

    // Back edges and natural loops, grouped by header.
    let mut back: Vec<(usize, usize)> = Vec::new(); // (latch rpo, header rpo)
    for (r, &v) in order.iter().enumerate() {
        for t in &succs[v] {
            let tr = rpo_of[&index[t]];
            if dominates(&idom, tr, r) {
                back.push((r, tr));
            }
        }
    }
    let mut by_header: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(l, h) in &back {
        by_header.entry(h).or_default().push(l);
    }
    let mut preds_pc: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (i, &p) in body.iter().enumerate() {
        for &t in &succs[i] {
            preds_pc.entry(t).or_default().push(p);
        }
    }
    let mut loops = Vec::new();
    for (&h, latches) in &by_header {
        // Natural loop body: backward closure from the latches that
        // stops at the header.
        let hpc = body[order[h]];
        let mut lbody: BTreeSet<u32> = BTreeSet::new();
        lbody.insert(hpc);
        let mut work: Vec<u32> = latches.iter().map(|&l| body[order[l]]).collect();
        for &l in &work.clone() {
            lbody.insert(l);
        }
        while let Some(p) = work.pop() {
            if p == hpc {
                continue;
            }
            for &q in preds_pc.get(&p).map_or(&[][..], Vec::as_slice) {
                if lbody.insert(q) {
                    work.push(q);
                }
            }
        }
        let entry_preds = preds_pc
            .get(&hpc)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
            .filter(|p| !lbody.contains(p))
            .collect();
        let mut latch_pcs: Vec<u32> = latches.iter().map(|&l| body[order[l]]).collect();
        latch_pcs.sort_unstable();
        loops.push(NaturalLoop {
            header: hpc,
            latches: latch_pcs,
            body: lbody,
            entry_preds,
        });
    }
    loops.sort_by_key(|l| l.header);

    // Reducibility: the frame graph minus back edges must be acyclic.
    let back_set: BTreeSet<(usize, usize)> =
        back.iter().map(|&(l, h)| (order[l], order[h])).collect();
    let mut indeg = vec![0usize; n];
    for (i, vs) in succs.iter().enumerate() {
        for t in vs {
            let ti = index[t];
            if !back_set.contains(&(i, ti)) {
                indeg[ti] += 1;
            }
        }
    }
    let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(v) = q.pop_front() {
        seen += 1;
        for t in &succs[v] {
            let ti = index[t];
            if !back_set.contains(&(v, ti)) {
                indeg[ti] -= 1;
                if indeg[ti] == 0 {
                    q.push_back(ti);
                }
            }
        }
    }
    let reducible = seen == n;

    let rpo_index: BTreeMap<u32, usize> = order
        .iter()
        .enumerate()
        .map(|(r, &v)| (body[v], r))
        .collect();
    Frame {
        entry,
        body,
        loops,
        reducible,
        rpo_index,
        idom,
    }
}

// ---------------------------------------------------------------------
// Trip counts: a loop is bounded when some induction register walks a
// must-constant start by a constant step into a must-constant guard.

/// Normalized *continue* predicate over (induction value, bound).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pred {
    Eq,
    Ne,
    LtS,
    LeS,
    GtS,
    GeS,
    LtU,
    LeU,
    GtU,
    GeU,
}

impl Pred {
    /// `cond(i, b)` (induction on the left) as a normalized predicate.
    fn of_left(cond: Cond) -> Pred {
        match cond {
            Cond::Eq => Pred::Eq,
            Cond::Ne => Pred::Ne,
            Cond::Lt => Pred::LtS,
            Cond::Ge => Pred::GeS,
            Cond::Ltu => Pred::LtU,
            Cond::Geu => Pred::GeU,
        }
    }

    /// `cond(b, i)` (induction on the right) as a normalized predicate.
    fn of_right(cond: Cond) -> Pred {
        match cond {
            Cond::Eq => Pred::Eq,
            Cond::Ne => Pred::Ne,
            Cond::Lt => Pred::GtS,
            Cond::Ge => Pred::LeS,
            Cond::Ltu => Pred::GtU,
            Cond::Geu => Pred::LeU,
        }
    }

    fn negate(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::LtS => Pred::GeS,
            Pred::GeS => Pred::LtS,
            Pred::LeS => Pred::GtS,
            Pred::GtS => Pred::LeS,
            Pred::LtU => Pred::GeU,
            Pred::GeU => Pred::LtU,
            Pred::LeU => Pred::GtU,
            Pred::GtU => Pred::LeU,
        }
    }
}

/// Multiplicative inverse of an odd `x` modulo 2^64 (Newton iteration).
fn inv_pow2(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv
}

/// Smallest `k >= min_k` such that the loop's *continue* predicate
/// `pred(i0 + k*s mod 2^64, b)` is false, or `None` if no such step can
/// be proven (which a caller must treat as unbounded).
fn exit_step(pred: Pred, i0: u64, b: u64, s: i64, min_k: u64) -> Option<u128> {
    let su = s as u64;
    let v_at = |k: u64| i0.wrapping_add(su.wrapping_mul(k));
    match pred {
        Pred::Eq => {
            // Continue while v == b: consecutive values differ (s != 0),
            // so the loop exits at min_k or one step later.
            if v_at(min_k) == b {
                Some(u128::from(min_k) + 1)
            } else {
                Some(u128::from(min_k))
            }
        }
        Pred::Ne => {
            // Continue while v != b: exit at the first k with
            // i0 + k*s ≡ b (mod 2^64), if the congruence is solvable.
            let diff = b.wrapping_sub(i0);
            let tz = su.trailing_zeros();
            if tz > 0 && diff & ((1u64 << tz) - 1) != 0 {
                return None; // never hits b: unbounded through this guard
            }
            let modulus_bits = 64 - tz;
            let odd = su >> tz;
            let k0 = (diff >> tz).wrapping_mul(inv_pow2(odd));
            let k0 = if modulus_bits == 64 {
                u128::from(k0)
            } else {
                u128::from(k0 & ((1u64 << modulus_bits) - 1))
            };
            let period = 1u128 << modulus_bits;
            Some(if k0 < u128::from(min_k) {
                k0 + period
            } else {
                k0
            })
        }
        _ => {
            // Monotone predicates: solve in the exact-integer domain and
            // bail out wherever mod-2^64 wrapping could disagree.
            let signed = matches!(pred, Pred::LtS | Pred::LeS | Pred::GtS | Pred::GeS);
            let (dom_lo, dom_hi): (i128, i128) = if signed {
                (i128::from(i64::MIN), i128::from(i64::MAX))
            } else {
                (0, i128::from(u64::MAX))
            };
            let v0: i128 = if signed {
                i128::from(i0 as i64)
            } else {
                i128::from(i0)
            };
            let bv: i128 = if signed {
                i128::from(b as i64)
            } else {
                i128::from(b)
            };
            let step = i128::from(s);
            let v_min = v0 + i128::from(min_k) * step;
            if v_min < dom_lo || v_min > dom_hi {
                return None;
            }
            // Continue while v < upper / v >= lower.
            let upper: Option<i128> = match pred {
                Pred::LtS | Pred::LtU => Some(bv),
                Pred::LeS | Pred::LeU => Some(bv + 1),
                _ => None,
            };
            let lower: Option<i128> = match pred {
                Pred::GeS | Pred::GeU => Some(bv),
                Pred::GtS | Pred::GtU => Some(bv + 1),
                _ => None,
            };
            if let Some(u) = upper {
                if v_min >= u {
                    return Some(u128::from(min_k));
                }
                if step <= 0 {
                    return None;
                }
                let k = i128::from(min_k) + (u - v_min + step - 1) / step;
                let v_k = v0 + k * step;
                if v_k > dom_hi {
                    return None; // exit value wraps; mod-2^64 disagrees
                }
                return u128::try_from(k).ok();
            }
            let l = lower.expect("monotone predicate has a bound");
            if v_min < l {
                return Some(u128::from(min_k));
            }
            if step >= 0 {
                return None;
            }
            let k = i128::from(min_k) + (v_min - l) / (-step) + 1;
            let v_k = v0 + k * step;
            if v_k < dom_lo {
                return None;
            }
            u128::try_from(k).ok()
        }
    }
}

/// An induction register usable for range (and possibly trip) bounds.
struct Induction {
    reg: IReg,
    /// pc of the single `addi reg, reg, step` write in the loop body.
    write: u32,
    step: i64,
    /// Must-constant value of `reg` on every loop entry.
    start: u64,
}

/// Result of analyzing one loop in one frame.
struct LoopFacts {
    header: u32,
    latch: u32,
    body: BTreeSet<u32>,
    trip: Option<u128>,
    /// Range-grade induction registers (start/step known).
    inductions: Vec<Induction>,
}

/// Per-function transitively-written integer registers, as a bitmask.
fn callee_write_masks(
    cfg: &Cfg<'_>,
    states: &[Option<RegState>],
    functions: &BTreeSet<u32>,
) -> BTreeMap<u32, u32> {
    let mut frames: BTreeMap<u32, (Vec<u32>, Vec<u32>)> = BTreeMap::new(); // f -> (body, callees)
    for &f in functions {
        let mut in_body = vec![false; cfg.len as usize];
        let mut stack = vec![f];
        in_body[f as usize] = true;
        let mut scratch = Vec::new();
        let mut callees = Vec::new();
        while let Some(pc) = stack.pop() {
            if let Instr::Call { target } = cfg.code[pc as usize] {
                callees.push(target);
            }
            frame_succs(cfg, states, pc, &mut scratch);
            for &t in &scratch {
                if !in_body[t as usize] {
                    in_body[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        let body = (0..cfg.len).filter(|&p| in_body[p as usize]).collect();
        frames.insert(f, (body, callees));
    }
    let mut masks: BTreeMap<u32, u32> = functions.iter().map(|&f| (f, 0)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &f in functions {
            let (body, callees) = &frames[&f];
            let mut m = 0u32;
            for &pc in body {
                if let Some(rd) = int_write(&cfg.code[pc as usize]) {
                    if !rd.is_zero() {
                        m |= 1 << rd.num();
                    }
                }
            }
            for c in callees {
                m |= masks.get(c).copied().unwrap_or(u32::MAX);
            }
            if masks[&f] != m {
                masks.insert(f, m);
                changed = true;
            }
        }
    }
    masks
}

/// Analyzes every loop of a frame: induction registers, trip bounds.
#[allow(clippy::too_many_lines)]
fn loop_facts(
    cfg: &Cfg<'_>,
    states: &[Option<RegState>],
    frame: &Frame,
    write_masks: &BTreeMap<u32, u32>,
) -> Vec<LoopFacts> {
    let (rpo_index, idom) = (&frame.rpo_index, frame.idom.as_slice());
    let mut out = Vec::new();
    for (li, lp) in frame.loops.iter().enumerate() {
        // Value of `reg` flowing into the header along edge p -> header.
        let entry_const = |reg: IReg, p: u32| -> Option<u64> {
            if let Instr::Call { target } = cfg.code[p as usize] {
                let mask = write_masks.get(&target).copied().unwrap_or(u32::MAX);
                if mask & (1 << reg.num()) != 0 {
                    return None;
                }
            }
            let mut st = states[p as usize].clone()?;
            st.transfer(&cfg.code[p as usize]);
            st.const_of(reg)
        };
        // Candidate induction registers: exactly one body write, of the
        // form `addi r, r, s` with s != 0, not inside any other loop of
        // this frame, callees in the body never clobbering it.
        let mut inductions = Vec::new();
        let mut writes: BTreeMap<u8, Vec<u32>> = BTreeMap::new();
        for &pc in &lp.body {
            if let Some(rd) = int_write(&cfg.code[pc as usize]) {
                if !rd.is_zero() {
                    writes.entry(rd.num()).or_default().push(pc);
                }
            }
        }
        'cand: for (&rn, ws) in &writes {
            let [w] = ws.as_slice() else { continue };
            let Instr::AluImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            } = cfg.code[*w as usize]
            else {
                continue;
            };
            if rd != rs1 || imm == 0 {
                continue;
            }
            // Not inside a different loop of this frame (else the write
            // may execute more than once per iteration of this loop).
            for (lj, other) in frame.loops.iter().enumerate() {
                if lj != li && other.body.contains(w) {
                    continue 'cand;
                }
            }
            // Callees reachable from the body must not clobber it.
            for &pc in &lp.body {
                if let Instr::Call { target } = cfg.code[pc as usize] {
                    let mask = write_masks.get(&target).copied().unwrap_or(u32::MAX);
                    if mask & (1 << rn) != 0 {
                        continue 'cand;
                    }
                }
            }
            // Start value: every entry edge must agree on a constant.
            let mut start = None;
            let mut entries = lp.entry_preds.clone();
            let from_outside = entries.is_empty() || lp.header == frame.entry;
            if from_outside && lp.header != 0 {
                continue; // entered straight from a call: start unknown
            }
            if from_outside {
                // Program entry: registers are zero-initialized.
                start = Some(0u64);
            }
            let mut ok = true;
            for p in entries.drain(..) {
                match entry_const(rd, p) {
                    Some(v) if start.is_none() || start == Some(v) => start = Some(v),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            let (true, Some(start)) = (ok, start) else {
                continue;
            };
            inductions.push(Induction {
                reg: rd,
                write: *w,
                step: imm,
                start,
            });
        }

        // Trip bound: try every (induction, guard-shape) pair, keep the
        // smallest. Requires the write to dominate every latch.
        let mut trip: Option<u128> = None;
        let mut consider = |t: Option<u128>| {
            if let Some(t) = t {
                trip = Some(trip.map_or(t, |cur: u128| cur.min(t)));
            }
        };
        let dom_all_latches = |w: u32| {
            lp.latches
                .iter()
                .all(|l| match (rpo_index.get(&w), rpo_index.get(l)) {
                    (Some(&wi), Some(&li_)) => dominates(idom, wi, li_),
                    _ => false,
                })
        };
        for ind in &inductions {
            if !dom_all_latches(ind.write) {
                continue;
            }
            // Shape (a): a single latch that is a conditional branch
            // back to the header; continue = branch taken.
            if let [latch] = lp.latches.as_slice() {
                if let Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } = cfg.code[*latch as usize]
                {
                    if target == lp.header {
                        if let Some((pred, b)) =
                            guard_operands(states, *latch, cond, rs1, rs2, ind.reg, false)
                        {
                            consider(exit_step(pred, ind.start, b, ind.step, 1));
                        }
                    }
                }
            }
            // Shape (b): a branch in the body whose taken edge leaves
            // the loop and which dominates every latch; continue = not
            // taken. The +1 covers both addi-before-guard and
            // addi-after-guard orderings.
            for &g in &lp.body {
                let Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } = cfg.code[g as usize]
                else {
                    continue;
                };
                if lp.body.contains(&target) || !dom_all_latches(g) {
                    continue;
                }
                let Some(&gi) = rpo_index.get(&g) else {
                    continue;
                };
                if !lp.latches.iter().all(|l| {
                    rpo_index
                        .get(l)
                        .is_some_and(|&li_| dominates(idom, gi, li_))
                }) {
                    continue;
                }
                if let Some((pred, b)) = guard_operands(states, g, cond, rs1, rs2, ind.reg, true) {
                    let e0 = exit_step(pred, ind.start, b, ind.step, 0);
                    let e1 = exit_step(pred, ind.start, b, ind.step, 1);
                    if let (Some(e0), Some(e1)) = (e0, e1) {
                        consider(Some(e0.max(e1) + 1));
                    }
                }
            }
        }
        out.push(LoopFacts {
            header: lp.header,
            latch: lp.latches.first().copied().unwrap_or(lp.header),
            body: lp.body.clone(),
            trip,
            inductions,
        });
    }
    out
}

/// Resolves a guard branch into a normalized *continue* predicate and
/// its must-constant bound, given which register is the induction.
/// `exit_on_taken` distinguishes break-style guards from latch guards.
fn guard_operands(
    states: &[Option<RegState>],
    guard: u32,
    cond: Cond,
    rs1: IReg,
    rs2: IReg,
    ind: IReg,
    exit_on_taken: bool,
) -> Option<(Pred, u64)> {
    let st = states[guard as usize].as_ref()?;
    let (pred, b) = if rs1 == ind && rs2 != ind {
        (Pred::of_left(cond), st.const_of(rs2)?)
    } else if rs2 == ind && rs1 != ind {
        (Pred::of_right(cond), st.const_of(rs1)?)
    } else {
        return None;
    };
    Some((if exit_on_taken { pred.negate() } else { pred }, b))
}

// ---------------------------------------------------------------------
// Cost: per-frame instruction bounds composed callees-first over the
// call DAG. Recursion (a call-graph cycle) leaves cost unresolved.

/// Upper bound on instructions retired by one invocation of a frame,
/// including its callees. `None` is `⊤`.
fn frame_cost(
    cfg: &Cfg<'_>,
    frame: &Frame,
    facts: &[LoopFacts],
    callee_cost: &BTreeMap<u32, Option<u128>>,
) -> Option<u128> {
    if !frame.reducible {
        return None;
    }
    if facts.iter().any(|f| f.trip.is_none()) {
        return None;
    }
    // Multiplicity of a pc: product of enclosing loops' trip bounds.
    let count = |pc: u32| -> Option<u128> {
        let mut c: u128 = 1;
        for f in facts {
            if f.body.contains(&pc) {
                c = c.checked_mul(f.trip?)?;
            }
        }
        Some(c)
    };
    let mut total: u128 = 0;
    for &pc in &frame.body {
        total = total.checked_add(count(pc)?)?;
        if let Instr::Call { target } = cfg.code[pc as usize] {
            let callee = (*callee_cost.get(&target)?)?;
            total = total.checked_add(count(pc)?.checked_mul(callee)?)?;
        }
    }
    Some(total)
}

/// Lower bound on dynamic instructions of any halting run: BFS shortest
/// path to a live `halt` over the folded graph. Call edges short-cut to
/// the fall-through, which only shortens paths (still a lower bound).
fn inst_min(cfg: &Cfg<'_>, states: &[Option<RegState>], live: &[bool]) -> u64 {
    let mut dist = vec![u64::MAX; cfg.len as usize];
    let mut q = VecDeque::from([0u32]);
    dist[0] = 0;
    let mut best: Option<u64> = None;
    let mut succs = Vec::new();
    while let Some(pc) = q.pop_front() {
        let d = dist[pc as usize];
        if matches!(cfg.code[pc as usize], Instr::Halt) {
            best = Some(best.map_or(d + 1, |b: u64| b.min(d + 1)));
            continue;
        }
        folded_succs(cfg, states, pc, &mut succs);
        if let Instr::Call { target } = cfg.code[pc as usize] {
            // The shortcut edge: pretend the callee is free.
            if cfg.returns[target as usize] && pc + 1 < cfg.len {
                succs.push(pc + 1);
            }
        }
        for &t in &succs {
            if live[t as usize] && dist[t as usize] == u64::MAX {
                dist[t as usize] = d + 1;
                q.push_back(t);
            }
        }
    }
    best.unwrap_or(0)
}

// ---------------------------------------------------------------------
// Interval analysis: unsigned value ranges per integer register, used
// to bound data-dependent addresses.

/// An unsigned interval `[lo, hi]`, both inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ival {
    lo: u64,
    hi: u64,
}

const TOP: Ival = Ival {
    lo: 0,
    hi: u64::MAX,
};

impl Ival {
    fn exact(v: u64) -> Ival {
        Ival { lo: v, hi: v }
    }

    fn hull(self, o: Ival) -> Ival {
        Ival {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    fn as_const(self) -> Option<u64> {
        (self.lo == self.hi).then_some(self.lo)
    }
}

/// Interval transfer for one ALU operation.
fn alu_interval(op: AluOp, a: Ival, b: Ival) -> Ival {
    let signed_max = i64::MAX as u64;
    match op {
        AluOp::Add => match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
            (Some(lo), Some(hi)) => Ival { lo, hi },
            _ => TOP,
        },
        AluOp::Sub => {
            if a.lo >= b.hi {
                Ival {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                }
            } else {
                TOP
            }
        }
        AluOp::Mul => match (a.lo.checked_mul(b.lo), a.hi.checked_mul(b.hi)) {
            (Some(lo), Some(hi)) => Ival { lo, hi },
            _ => TOP,
        },
        AluOp::And => Ival {
            lo: 0,
            hi: a.hi.min(b.hi),
        },
        AluOp::Or | AluOp::Xor => {
            let sig = a.hi | b.hi;
            let hi = if sig == 0 {
                0
            } else {
                u64::MAX >> sig.leading_zeros()
            };
            Ival { lo: 0, hi }
        }
        AluOp::Sll => match b.as_const() {
            Some(sh) => {
                let sh = (sh & 63) as u32;
                if a.hi.leading_zeros() >= sh {
                    Ival {
                        lo: a.lo << sh,
                        hi: a.hi << sh,
                    }
                } else {
                    TOP
                }
            }
            None => TOP,
        },
        AluOp::Srl => match b.as_const() {
            Some(sh) => {
                let sh = (sh & 63) as u32;
                Ival {
                    lo: a.lo >> sh,
                    hi: a.hi >> sh,
                }
            }
            None => Ival { lo: 0, hi: a.hi },
        },
        AluOp::Sra => {
            if a.hi <= signed_max {
                // Non-negative operand: behaves like a logical shift.
                match b.as_const() {
                    Some(sh) => {
                        let sh = (sh & 63) as u32;
                        Ival {
                            lo: a.lo >> sh,
                            hi: a.hi >> sh,
                        }
                    }
                    None => Ival { lo: 0, hi: a.hi },
                }
            } else {
                TOP
            }
        }
        AluOp::Slt | AluOp::Sltu => Ival { lo: 0, hi: 1 },
        AluOp::Div => match b.as_const() {
            Some(c) if c >= 1 && c <= signed_max && a.hi <= signed_max => Ival {
                lo: a.lo / c,
                hi: a.hi / c,
            },
            _ => TOP,
        },
        AluOp::Rem => match b.as_const() {
            Some(c) if c >= 1 && c <= signed_max && a.hi <= signed_max => Ival {
                lo: 0,
                hi: (c - 1).min(a.hi),
            },
            _ => TOP,
        },
    }
}

type Regs = [Ival; 32];

/// Interval transfer of one instruction over the register file.
fn interval_transfer(regs: &mut Regs, instr: &Instr) {
    let write = |regs: &mut Regs, rd: IReg, v: Ival| {
        if !rd.is_zero() {
            regs[rd.num() as usize] = v;
        }
    };
    match *instr {
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = alu_interval(op, regs[rs1.num() as usize], regs[rs2.num() as usize]);
            write(regs, rd, v);
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            let v = alu_interval(op, regs[rs1.num() as usize], Ival::exact(imm as u64));
            write(regs, rd, v);
        }
        Instr::Li { rd, imm } => write(regs, rd, Ival::exact(imm as u64)),
        Instr::Mv { rd, rs } => {
            let v = regs[rs.num() as usize];
            write(regs, rd, v);
        }
        Instr::FpuCmp { rd, .. } => write(regs, rd, Ival { lo: 0, hi: 1 }),
        Instr::Load { rd, .. } | Instr::FtoI { rd, .. } => write(regs, rd, TOP),
        _ => {}
    }
}

/// How many joins a pc absorbs before changing registers widen to `⊤`.
const WIDEN_AFTER: u32 = 8;

/// Forward interval dataflow with the same interprocedural edges as the
/// verifier's constant propagation, plus widening for termination.
fn interval_dataflow(
    cfg: &Cfg<'_>,
    views: &BTreeMap<u32, FrameView>,
    states: &[Option<RegState>],
) -> Vec<Option<Regs>> {
    let n = cfg.len as usize;
    let mut ret_edges: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut calls_to: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (pc, instr) in cfg.code.iter().enumerate() {
        if let Instr::Call { target } = *instr {
            calls_to.entry(target).or_default().push(pc as u32);
        }
    }
    for (&f, view) in views {
        for &ret in &view.rets {
            for &call in calls_to.get(&f).map_or(&[][..], Vec::as_slice) {
                if call + 1 < cfg.len {
                    ret_edges.entry(ret).or_default().insert(call + 1);
                }
            }
        }
    }
    let mut ivs: Vec<Option<Regs>> = vec![None; n];
    ivs[0] = Some([Ival::exact(0); 32]); // registers are zero-initialized
    let mut joins = vec![0u32; n];
    let mut work: VecDeque<u32> = VecDeque::from([0]);
    let mut queued = vec![false; n];
    queued[0] = true;
    while let Some(pc) = work.pop_front() {
        queued[pc as usize] = false;
        let mut out = ivs[pc as usize].expect("queued pcs have state");
        interval_transfer(&mut out, &cfg.code[pc as usize]);
        let mut flow = |t: u32, ivs: &mut Vec<Option<Regs>>, work: &mut VecDeque<u32>| {
            if t >= cfg.len {
                return;
            }
            let ti = t as usize;
            let changed = match &mut ivs[ti] {
                Some(cur) => {
                    let mut any = false;
                    joins[ti] += 1;
                    let widen = joins[ti] > WIDEN_AFTER;
                    for (c, o) in cur.iter_mut().zip(&out) {
                        let h = c.hull(*o);
                        if h != *c {
                            *c = if widen { TOP } else { h };
                            any = true;
                        }
                    }
                    any
                }
                slot @ None => {
                    *slot = Some(out);
                    true
                }
            };
            if changed && !queued[ti] {
                queued[ti] = true;
                work.push_back(t);
            }
        };
        match cfg.code[pc as usize] {
            Instr::Halt => {}
            Instr::Jump { target } => flow(target, &mut ivs, &mut work),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => match branch_taken(states, pc, rs1, rs2, cond) {
                Some(true) => flow(target, &mut ivs, &mut work),
                Some(false) => flow(pc + 1, &mut ivs, &mut work),
                None => {
                    flow(target, &mut ivs, &mut work);
                    flow(pc + 1, &mut ivs, &mut work);
                }
            },
            Instr::JumpInd { .. } => {
                for &t in &cfg.jr_targets {
                    flow(t, &mut ivs, &mut work);
                }
            }
            Instr::Call { target } => flow(target, &mut ivs, &mut work),
            Instr::Ret => {
                if let Some(targets) = ret_edges.get(&pc) {
                    for &t in targets {
                        flow(t, &mut ivs, &mut work);
                    }
                }
            }
            _ => flow(pc + 1, &mut ivs, &mut work),
        }
    }
    ivs
}

// ---------------------------------------------------------------------
// Memory sites: each access address is rewritten backward through its
// basic block into `scale * reg + off (mod 2^64)`, then bounded by an
// induction range or the register's interval.

/// Basic-block leaders, matching the block compiler's definition.
fn block_leaders(cfg: &Cfg<'_>) -> Vec<bool> {
    let n = cfg.len as usize;
    let mut leader = vec![false; n];
    leader[0] = true;
    let mark = |t: u32, leader: &mut Vec<bool>| {
        if t < cfg.len {
            leader[t as usize] = true;
        }
    };
    for (pc, instr) in cfg.code.iter().enumerate() {
        let next = pc as u32 + 1;
        match *instr {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                mark(target, &mut leader);
                mark(next, &mut leader);
            }
            Instr::JumpInd { .. } => {
                for &t in &cfg.jr_targets {
                    mark(t, &mut leader);
                }
                mark(next, &mut leader);
            }
            Instr::Ret | Instr::Halt => mark(next, &mut leader),
            _ => {}
        }
    }
    leader
}

/// An address expressed as `scale * var + off (mod 2^64)`, with `var`
/// read at the IN point of pc `at`.
struct Affine {
    var: IReg,
    scale: u64,
    off: u64,
    at: u32,
}

/// What the backward walk resolved an address to.
enum Addr {
    Const(u64),
    Affine(Affine),
}

/// Rewrites the address of the access at `pc` backward through its
/// basic block. Stops at block leaders, so no control flow (and no
/// callee clobbering) can interleave.
fn walk_address(
    cfg: &Cfg<'_>,
    states: &[Option<RegState>],
    leaders: &[bool],
    pc: u32,
    base: IReg,
    offset: i64,
) -> Addr {
    let mut var = base;
    let mut scale: u64 = 1;
    let mut off = offset as u64;
    let mut p = pc;
    loop {
        if var.is_zero() {
            return Addr::Const(off); // r0 reads as zero
        }
        if leaders[p as usize] {
            break;
        }
        let j = p - 1;
        let instr = &cfg.code[j as usize];
        if int_write(instr) == Some(var) {
            match *instr {
                Instr::Li { imm, .. } => {
                    return Addr::Const(scale.wrapping_mul(imm as u64).wrapping_add(off));
                }
                Instr::Mv { rs, .. } => var = rs,
                Instr::AluImm {
                    op: AluOp::Add,
                    rs1,
                    imm,
                    ..
                } => {
                    off = off.wrapping_add(scale.wrapping_mul(imm as u64));
                    var = rs1;
                }
                Instr::AluImm {
                    op: AluOp::Mul,
                    rs1,
                    imm,
                    ..
                } => {
                    scale = scale.wrapping_mul(imm as u64);
                    var = rs1;
                }
                Instr::AluImm {
                    op: AluOp::Sll,
                    rs1,
                    imm,
                    ..
                } => {
                    scale = scale.wrapping_shl((imm as u64 & 63) as u32);
                    var = rs1;
                }
                Instr::Alu {
                    op: AluOp::Add,
                    rs1,
                    rs2,
                    ..
                } => {
                    let st = states[j as usize].as_ref();
                    if let Some(c) = st.and_then(|s| s.const_of(rs1)) {
                        var = rs2;
                        off = off.wrapping_add(scale.wrapping_mul(c));
                    } else if let Some(c) = st.and_then(|s| s.const_of(rs2)) {
                        var = rs1;
                        off = off.wrapping_add(scale.wrapping_mul(c));
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        p = j;
    }
    Addr::Affine(Affine {
        var,
        scale,
        off,
        at: p,
    })
}

/// Maps `scale * v + off` over `v in [lo, hi]` into an exact address
/// range, or `None` where mod-2^64 wrapping could scatter it. The
/// offset is tried both as a signed displacement and as a plain value.
fn affine_range(scale: u64, off: u64, lo: u64, hi: u64) -> Option<(u64, u64)> {
    let sc = i128::from(scale);
    for co in [i128::from(off as i64), i128::from(off)] {
        let a0 = sc
            .checked_mul(i128::from(lo))
            .and_then(|v| v.checked_add(co));
        let a1 = sc
            .checked_mul(i128::from(hi))
            .and_then(|v| v.checked_add(co));
        let (Some(a0), Some(a1)) = (a0, a1) else {
            continue;
        };
        let (mn, mx) = (a0.min(a1), a0.max(a1));
        if mn >= 0 && mx < (1i128 << 64) {
            return Some((mn as u64, mx as u64));
        }
    }
    None
}

/// The value range of an induction register over a bounded loop run:
/// `{start + k*step | 0 <= k <= trip}`, when it stays inside `u64`.
fn induction_range(start: u64, step: i64, trip: u128) -> Option<(u64, u64)> {
    let v0 = i128::from(start);
    let vt = i128::try_from(trip)
        .ok()
        .and_then(|t| t.checked_mul(i128::from(step)))
        .and_then(|d| v0.checked_add(d))?;
    let (mn, mx) = (v0.min(vt), v0.max(vt));
    if mn >= 0 && mx < (1i128 << 64) {
        Some((mn as u64, mx as u64))
    } else {
        None
    }
}

/// Everything the per-site classifier reads; bundled so each call site
/// names only the access itself.
struct SiteCtx<'a> {
    cfg: &'a Cfg<'a>,
    states: &'a [Option<RegState>],
    ivs: &'a [Option<Regs>],
    leaders: &'a [bool],
    all_loops: &'a [LoopFacts],
    mem_size: u64,
}

/// Classifies one access site and bounds its byte range.
fn classify_site(ctx: &SiteCtx<'_>, pc: u32, base: IReg, offset: i64, size: u8) -> MemSite {
    let SiteCtx {
        cfg,
        states,
        ivs,
        leaders,
        all_loops,
        mem_size,
    } = *ctx;
    let size = u64::from(size);
    let finish = |kind: AccessKind, lo: u64, hi: u64| {
        let end = u128::from(hi) + u128::from(size);
        MemSite {
            pc,
            kind,
            range: (
                lo.min(mem_size),
                u64::try_from(end.min(u128::from(mem_size))).expect("clamped"),
            ),
            may_exceed: end > u128::from(mem_size),
            must_fault: u128::from(lo) + u128::from(size) > u128::from(mem_size),
        }
    };
    match walk_address(cfg, states, leaders, pc, base, offset) {
        Addr::Const(addr) => finish(AccessKind::Constant, addr, addr),
        Addr::Affine(af) => {
            // A bounded induction register gives an exact stride.
            for lf in all_loops {
                if !lf.body.contains(&pc) {
                    continue;
                }
                let Some(trip) = lf.trip else { continue };
                for ind in &lf.inductions {
                    if ind.reg != af.var {
                        continue;
                    }
                    let Some((vlo, vhi)) = induction_range(ind.start, ind.step, trip) else {
                        continue;
                    };
                    if let Some((lo, hi)) = affine_range(af.scale, af.off, vlo, vhi) {
                        let stride = (af.scale as i64).wrapping_mul(ind.step);
                        return finish(AccessKind::Strided { stride }, lo, hi);
                    }
                }
            }
            // Fall back to the interval of the base register.
            if let Some(regs) = &ivs[af.at as usize] {
                let iv = regs[af.var.num() as usize];
                if iv != TOP {
                    if let Some((lo, hi)) = affine_range(af.scale, af.off, iv.lo, iv.hi) {
                        return finish(AccessKind::Indirect, lo, hi);
                    }
                }
            }
            // Unknown: the whole data segment, nothing proven about
            // faulting either way.
            MemSite {
                pc,
                kind: AccessKind::Indirect,
                range: (0, mem_size),
                may_exceed: false,
                must_fault: false,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lint synthesis and the public entry point.

fn build_lints(
    cfg: &Cfg<'_>,
    live: &[bool],
    all_loops: &[LoopFacts],
    live_sites: &[MemSite],
    dead_sites: &[MemSite],
    inst_max: Option<u64>,
) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut push = |kind: LintKind, severity: Severity, pc: u32, message: String| {
        lints.push(Lint {
            kind,
            severity,
            pc,
            instr: cfg.disasm(pc),
            message,
        });
    };

    // Dead blocks: one finding per maximal run of folded-dead pcs.
    let mut pc = 0u32;
    while pc < cfg.len {
        if live[pc as usize] {
            pc += 1;
            continue;
        }
        let start = pc;
        while pc < cfg.len && !live[pc as usize] {
            pc += 1;
        }
        push(
            LintKind::DeadBlock,
            Severity::Warn,
            start,
            format!(
                "{} instruction(s) at pc {}..{} can never execute after constant folding",
                pc - start,
                start,
                pc - 1,
            ),
        );
    }

    // Loop-shaped findings.
    let mut flagged_unbounded = false;
    for lf in all_loops {
        match lf.trip {
            None => {
                flagged_unbounded = true;
                push(
                    LintKind::UnboundedLoopWithoutBudget,
                    Severity::Warn,
                    lf.header,
                    format!(
                        "loop at pc {} (latch {}) has no derivable trip bound; \
                         the static instruction budget is unbounded",
                        lf.header, lf.latch,
                    ),
                );
            }
            Some(t) if t <= 1 => {
                push(
                    LintKind::DegenerateConstantLoop,
                    Severity::Info,
                    lf.header,
                    format!(
                        "loop at pc {} runs its body at most {t} time(s); \
                         the backward branch is effectively straight-line",
                        lf.header,
                    ),
                );
            }
            Some(_) => {}
        }
    }
    if inst_max.is_none() && !flagged_unbounded {
        push(
            LintKind::UnboundedLoopWithoutBudget,
            Severity::Warn,
            0,
            "the static instruction budget is unbounded \
             (recursion or irreducible control flow)"
                .to_string(),
        );
    }

    // Footprint findings.
    for s in live_sites {
        if s.must_fault {
            push(
                LintKind::FootprintExceedsScale,
                Severity::Deny,
                s.pc,
                format!(
                    "every possible address of this access lies outside the \
                     {}-byte data segment; it faults whenever it executes",
                    s.range.1.max(s.range.0),
                ),
            );
        } else if s.may_exceed {
            push(
                LintKind::FootprintExceedsScale,
                Severity::Warn,
                s.pc,
                format!(
                    "static address range [{}, {}) of this access can leave \
                     the data segment",
                    s.range.0, s.range.1,
                ),
            );
        }
    }
    for s in dead_sites {
        if s.must_fault {
            push(
                LintKind::UnreachableFault,
                Severity::Info,
                s.pc,
                "this access would always fault, but it can never execute".to_string(),
            );
        }
    }

    lints.sort_by_key(|l| (l.severity, l.pc));
    lints
}

impl Program {
    /// Runs the abstract interpreter over the verified program and
    /// returns its static report.
    ///
    /// # Errors
    ///
    /// The first [`VerifyError`] if the program fails verification: the
    /// deeper analyses are only sound over a verified CFG.
    #[allow(clippy::missing_panics_doc, clippy::too_many_lines)]
    pub fn analyze(&self) -> Result<StaticReport, VerifyError> {
        self.verify()?;
        let code = self.code();
        let mem_size = self.mem_size() as u64;
        let mut pass_ns: Vec<(&'static str, u64)> = Vec::new();

        // Pass 1: CFG, interprocedural constant propagation, folding.
        let t = Instant::now();
        let cfg = Cfg::new(code);
        let functions: BTreeSet<u32> = code
            .iter()
            .filter_map(|i| match *i {
                Instr::Call { target } => Some(target),
                _ => None,
            })
            .collect();
        let views: BTreeMap<u32, FrameView> =
            functions.iter().map(|&f| (f, cfg.frame_view(f))).collect();
        let states = dataflow(&cfg, &views);
        let live = folded_live(&cfg, &states);
        pass_ns.push(("cfg", t.elapsed().as_nanos() as u64));

        // Pass 2: per-frame dominators, natural loops, trip bounds.
        let t = Instant::now();
        let mut live_funcs: BTreeSet<u32> = BTreeSet::from([0]);
        for (pc, instr) in code.iter().enumerate() {
            if let Instr::Call { target } = *instr {
                if live[pc] {
                    live_funcs.insert(target);
                }
            }
        }
        let write_masks = callee_write_masks(&cfg, &states, &functions);
        let frames: BTreeMap<u32, Frame> = live_funcs
            .iter()
            .map(|&f| (f, build_frame(&cfg, &states, f)))
            .collect();
        let facts: BTreeMap<u32, Vec<LoopFacts>> = frames
            .iter()
            .map(|(&f, fr)| (f, loop_facts(&cfg, &states, fr, &write_masks)))
            .collect();
        pass_ns.push(("loops", t.elapsed().as_nanos() as u64));

        // Pass 3: instruction budget over the call DAG, plus the BFS
        // lower bound.
        let t = Instant::now();
        let mut callees: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (&f, fr) in &frames {
            let cs: BTreeSet<u32> = fr
                .body
                .iter()
                .filter_map(|&pc| match cfg.code[pc as usize] {
                    Instr::Call { target } => Some(target),
                    _ => None,
                })
                .collect();
            callees.insert(f, cs);
        }
        let mut remaining: BTreeMap<u32, usize> =
            callees.iter().map(|(&f, cs)| (f, cs.len())).collect();
        let mut callers: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (&f, cs) in &callees {
            for &c in cs {
                callers.entry(c).or_default().push(f);
            }
        }
        let mut cost: BTreeMap<u32, Option<u128>> = BTreeMap::new();
        let mut ready: VecDeque<u32> = remaining
            .iter()
            .filter(|&(_, &n)| n == 0)
            .map(|(&f, _)| f)
            .collect();
        while let Some(f) = ready.pop_front() {
            let c = frame_cost(&cfg, &frames[&f], &facts[&f], &cost);
            cost.insert(f, c);
            for &caller in callers.get(&f).map_or(&[][..], Vec::as_slice) {
                let n = remaining.get_mut(&caller).expect("caller tracked");
                *n -= 1;
                if *n == 0 {
                    ready.push_back(caller);
                }
            }
        }
        let inst_max = cost
            .get(&0)
            .copied()
            .flatten()
            .and_then(|c| u64::try_from(c).ok());
        let inst_min = inst_min(&cfg, &states, &live);
        pass_ns.push(("budget", t.elapsed().as_nanos() as u64));

        // Pass 4: interval analysis.
        let t = Instant::now();
        let ivs = interval_dataflow(&cfg, &views, &states);
        pass_ns.push(("intervals", t.elapsed().as_nanos() as u64));

        // Pass 5: memory sites and the footprint hull.
        let t = Instant::now();
        let leaders = block_leaders(&cfg);
        let all_loops: Vec<LoopFacts> = facts.into_values().flatten().collect();
        let mut live_sites = Vec::new();
        let mut dead_sites = Vec::new();
        for (pc, instr) in code.iter().enumerate() {
            let Some((base, offset, size)) = mem_access(instr) else {
                continue;
            };
            let ctx = SiteCtx {
                cfg: &cfg,
                states: &states,
                ivs: &ivs,
                leaders: &leaders,
                all_loops: &all_loops,
                mem_size,
            };
            let site = classify_site(&ctx, pc as u32, base, offset, size);
            if live[pc] {
                live_sites.push(site);
            } else {
                dead_sites.push(site);
            }
        }
        let footprint = live_sites
            .iter()
            .filter(|s| !s.must_fault)
            .map(|s| s.range)
            .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
            .unwrap_or((0, 0));
        pass_ns.push(("footprint", t.elapsed().as_nanos() as u64));

        // Pass 6: lints and the loop roll-up.
        let t = Instant::now();
        let lints = build_lints(&cfg, &live, &all_loops, &live_sites, &dead_sites, inst_max);
        let mut by_header: BTreeMap<u32, LoopSummary> = BTreeMap::new();
        for lf in &all_loops {
            let trip_max = lf.trip.map(|t| u64::try_from(t).unwrap_or(u64::MAX));
            let entry = by_header.entry(lf.header).or_insert(LoopSummary {
                header: lf.header,
                latch: lf.latch,
                trip_max,
            });
            // The same header can sit in several frames; the summary
            // must hold in every context, so bounds only merge upward.
            entry.trip_max = match (entry.trip_max, trip_max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        let loops: Vec<LoopSummary> = by_header.into_values().collect();
        let dead: Vec<u32> = (0..cfg.len).filter(|&p| !live[p as usize]).collect();
        pass_ns.push(("lints", t.elapsed().as_nanos() as u64));

        Ok(StaticReport {
            inst_min,
            inst_max,
            loops,
            dead,
            sites: live_sites,
            footprint,
            lints,
            pass_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::regs::*;
    use crate::asm::Asm;
    use crate::machine::Vm;
    use crate::program::DataBuilder;
    use phaselab_trace::CountingSink;

    fn assemble(build: impl FnOnce(&mut Asm)) -> Program {
        let mut asm = Asm::new();
        build(&mut asm);
        asm.assemble(DataBuilder::new()).expect("assembles")
    }

    fn run_count(p: &Program) -> u64 {
        let mut vm = Vm::new(p);
        let mut sink = CountingSink::new();
        let outcome = vm.run(&mut sink, u64::MAX).expect("runs");
        assert!(outcome.halted);
        outcome.instructions
    }

    #[test]
    fn straight_line_bounds_are_exact() {
        let p = assemble(|a| {
            a.li(T0, 5);
            a.addi(T0, T0, 1);
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.inst_min, 3);
        assert_eq!(r.inst_max, Some(3));
        assert!(r.loops.is_empty());
        assert!(r.dead.is_empty());
        assert!(r.lints.is_empty());
        assert_eq!(run_count(&p), 3);
    }

    #[test]
    fn counted_loop_bound_is_exact() {
        // blt-latch shape: 2 + 10*2 + 1 = 23 dynamic instructions.
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 10);
            a.label("loop");
            a.addi(T0, T0, 1);
            a.blt(T0, T1, "loop");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].header, 2);
        assert_eq!(r.loops[0].trip_max, Some(10));
        assert_eq!(r.inst_max, Some(23));
        assert_eq!(run_count(&p), 23);
        assert!(r.inst_min <= 23);
    }

    #[test]
    fn bne_latch_solves_the_congruence() {
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 5);
            a.label("loop");
            a.addi(T0, T0, 1);
            a.bne(T0, T1, "loop");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.loops[0].trip_max, Some(5));
        let dyn_count = run_count(&p);
        assert!(dyn_count <= r.inst_max.expect("bounded"));
    }

    #[test]
    fn bne_that_can_never_hit_is_unbounded() {
        // T0 walks even values; the bound is odd: 2^63 wraps before it
        // ever hits, which the analyzer must refuse to bound... and the
        // program would spin ~2^63 iterations, so don't run it.
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 7);
            a.label("loop");
            a.addi(T0, T0, 2);
            a.bne(T0, T1, "loop");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.loops[0].trip_max, None);
        assert_eq!(r.inst_max, None);
        assert!(r
            .lints
            .iter()
            .any(|l| l.kind == LintKind::UnboundedLoopWithoutBudget));
    }

    #[test]
    fn break_style_guard_bounds_the_loop() {
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 3);
            a.label("loop");
            a.beq(T0, T1, "done");
            a.addi(T0, T0, 1);
            a.j("loop");
            a.label("done");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        let trip = r.loops[0].trip_max.expect("bounded");
        assert!(trip >= 3, "guard runs 4 times, bound {trip} too small");
        let dyn_count = run_count(&p);
        assert!(dyn_count <= r.inst_max.expect("bounded"));
        assert!(r.inst_min <= dyn_count);
    }

    #[test]
    fn data_dependent_bound_is_top() {
        let mut asm = Asm::new();
        let mut data = DataBuilder::new();
        let addr = data.alloc_u64(1);
        asm.li(T2, addr as i64);
        asm.ld(T1, T2, 0); // bound comes from memory
        asm.li(T0, 0);
        asm.label("loop");
        asm.addi(T0, T0, 1);
        asm.blt(T0, T1, "loop");
        asm.halt();
        let p = asm.assemble(data).expect("assembles");
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.inst_max, None);
        assert!(r.lints.iter().any(
            |l| l.kind == LintKind::UnboundedLoopWithoutBudget && l.severity == Severity::Warn
        ));
    }

    #[test]
    fn folded_branch_exposes_dead_code() {
        let p = assemble(|a| {
            a.li(T0, 1);
            a.bne(T0, ZERO, "live"); // always taken
            a.li(T2, 9); // dead
            a.label("live");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.dead, vec![2]);
        assert!(r
            .lints
            .iter()
            .any(|l| l.kind == LintKind::DeadBlock && l.pc == 2));
        // The fold also tightens the budget: pc 2 never counted.
        assert_eq!(r.inst_max, Some(3));
        assert_eq!(run_count(&p), 3);
    }

    #[test]
    fn degenerate_single_trip_loop_is_flagged() {
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 1);
            a.label("loop");
            a.addi(T0, T0, 1);
            a.blt(T0, T1, "loop");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.loops[0].trip_max, Some(1));
        assert!(r
            .lints
            .iter()
            .any(|l| l.kind == LintKind::DegenerateConstantLoop && l.severity == Severity::Info));
    }

    #[test]
    fn strided_store_is_classified_with_range() {
        let mut asm = Asm::new();
        let mut data = DataBuilder::new();
        let base = data.alloc_u64(8);
        asm.li(T2, base as i64);
        asm.li(T0, 0);
        asm.li(T1, 4);
        asm.label("loop");
        asm.muli(T3, T0, 8);
        asm.add(T3, T3, T2);
        asm.sd(T0, T3, 0);
        asm.addi(T0, T0, 1);
        asm.blt(T0, T1, "loop");
        asm.halt();
        let p = asm.assemble(data).expect("assembles");
        let r = p.analyze().expect("analyzes");
        let site = r.sites.iter().find(|s| s.pc == 5).expect("store site");
        assert_eq!(site.kind, AccessKind::Strided { stride: 8 });
        assert!(site.range.0 <= base && site.range.1 >= base + 4 * 8);
        assert!(!site.may_exceed);
        // Footprint covers the touched bytes.
        assert!(r.footprint.0 <= base && r.footprint.1 >= base + 32);
        let dyn_count = run_count(&p);
        assert!(dyn_count <= r.inst_max.expect("bounded"));
    }

    #[test]
    fn induction_walk_that_must_fault_is_denied() {
        // T0 walks 8000, 8008, ... over a 4096-byte segment: the load
        // can never land in bounds, but the base is not must-constant
        // at the access, so the verifier alone cannot see it.
        let p = assemble(|a| {
            a.li(T0, 8000);
            a.li(T2, 9000);
            a.label("loop");
            a.addi(T0, T0, 8);
            a.ld(T1, T0, 0);
            a.blt(T0, T2, "loop");
            a.halt();
        });
        assert_eq!(p.verify(), Ok(()));
        let r = p.analyze().expect("analyzes");
        let site = r.sites.iter().find(|s| s.pc == 3).expect("load site");
        assert!(site.must_fault);
        assert!(r
            .lints
            .iter()
            .any(|l| l.kind == LintKind::FootprintExceedsScale && l.severity == Severity::Deny));
        assert_eq!(r.max_severity(), Some(Severity::Deny));
    }

    #[test]
    fn call_costs_compose_over_the_dag() {
        let p = assemble(|a| {
            a.call("f");
            a.halt();
            a.label("f");
            a.addi(T0, ZERO, 1);
            a.ret();
        });
        let r = p.analyze().expect("analyzes");
        // call + halt + (addi + ret) = 4.
        assert_eq!(r.inst_max, Some(4));
        assert_eq!(run_count(&p), 4);
        assert!(r.inst_min <= 4);
    }

    #[test]
    fn recursion_leaves_the_budget_top() {
        let p = assemble(|a| {
            a.li(A0, 3);
            a.call("f");
            a.halt();
            a.label("f");
            a.addi(A0, A0, -1);
            a.beq(A0, ZERO, "base");
            a.call("f");
            a.label("base");
            a.ret();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.inst_max, None);
        assert!(run_count(&p) >= r.inst_min);
    }

    #[test]
    fn call_inside_loop_multiplies_callee_cost() {
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 3);
            a.label("loop");
            a.call("leaf");
            a.addi(T0, T0, 1);
            a.blt(T0, T1, "loop");
            a.halt();
            a.label("leaf");
            a.addi(T2, ZERO, 7);
            a.ret();
        });
        let r = p.analyze().expect("analyzes");
        let dyn_count = run_count(&p);
        let max = r.inst_max.expect("bounded");
        assert!(dyn_count <= max, "{dyn_count} > {max}");
        // 2 setup + 3*(call+addi+blt) + halt + 3*(addi+ret) = 18.
        assert_eq!(max, 18);
        assert_eq!(dyn_count, 18);
    }

    #[test]
    fn rejected_program_propagates_verify_error() {
        let p = Program::from_parts(
            vec![Instr::Jump { target: 9 }, Instr::Halt],
            DataBuilder::new(),
        )
        .expect("builds");
        assert!(matches!(
            p.analyze(),
            Err(VerifyError::InvalidTarget { .. })
        ));
    }

    #[test]
    fn pass_timings_cover_every_pass() {
        let p = assemble(|a| {
            a.li(T0, 1);
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        let names: Vec<&str> = r.pass_ns.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            ["cfg", "loops", "budget", "intervals", "footprint", "lints"]
        );
    }

    #[test]
    fn exit_step_solves_the_shapes() {
        // Upper bound, signed: 0,1,..,9 < 10.
        assert_eq!(exit_step(Pred::LtS, 0, 10, 1, 1), Some(10));
        // Equality continue: leaves as soon as v != b.
        assert_eq!(exit_step(Pred::Eq, 3, 4, 1, 1), Some(2));
        assert_eq!(exit_step(Pred::Eq, 0, 4, 1, 1), Some(1));
        // Ne: hits the bound exactly.
        assert_eq!(exit_step(Pred::Ne, 0, 12, 3, 1), Some(4));
        // Ne: unsolvable congruence (even step, odd distance).
        assert_eq!(exit_step(Pred::Ne, 0, 7, 2, 1), None);
        // Ne with an even step and even distance: solvable, but only
        // after wrapping most of the 2^63 period.
        let wrapped = exit_step(Pred::Ne, 2, 0, 2, 1).expect("solvable");
        assert!(wrapped > 1 << 62);
        // Downward counting, signed lower bound: 10,9,..,1 >= 1.
        assert_eq!(exit_step(Pred::GeS, 10, 1, -1, 1), Some(10));
        // Wrong step direction never exits through this guard.
        assert_eq!(exit_step(Pred::LtS, 0, 10, -1, 1), None);
    }

    #[test]
    fn loop_summary_latch_and_header_are_reported() {
        let p = assemble(|a| {
            a.li(T0, 0);
            a.li(T1, 6);
            a.label("loop");
            a.addi(T0, T0, 2);
            a.blt(T0, T1, "loop");
            a.halt();
        });
        let r = p.analyze().expect("analyzes");
        assert_eq!(r.loops.len(), 1);
        assert_eq!(r.loops[0].header, 2);
        assert_eq!(r.loops[0].latch, 3);
        assert_eq!(r.loops[0].trip_max, Some(3));
    }
}
