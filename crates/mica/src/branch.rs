//! Branch predictability analyzer (14 features): taken/transition rates
//! and prediction-by-partial-matching (PPM) misprediction rates.

use phaselab_trace::InstRecord;

use crate::features::{FeatureVector, BRANCH_BASE};
use crate::fxhash::{mix64, FxHashMap};
use crate::Analyzer;

/// Deepest context length tracked by the PPM predictors.
const MAX_HIST: u32 = 12;

/// Mask of a branch history register.
const HIST_MASK: u64 = (1 << MAX_HIST) - 1;

/// Contexts per branch and table: lengths `0..=MAX_HIST`.
const CONTEXTS: usize = MAX_HIST as usize + 1;

/// The three maximum history lengths of the characterization.
const DEPTHS: [usize; 3] = [4, 8, 12];

/// log2 of the number of entries in each direct-mapped PPM table.
const TABLE_BITS: u32 = 16;

/// Multiplier spreading a branch PC over the key space.
const PC_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One direct-mapped, tagged, generation-stamped PPM context table.
///
/// The theoretical PPM predictor of Chen, Coffey & Mudge keeps exact
/// per-context statistics; we approximate its storage with a large
/// direct-mapped tagged table (64-bit tags, replace-on-collision), which
/// keeps per-branch cost constant. Collisions are rare at 2^16 entries for
/// interval-sized working sets, so measured misprediction rates track the
/// exact predictor closely.
///
/// A key's slot is its low 16 bits. The address-free tables only ever
/// see the 8191 [`GLOBAL_KEYS`], which use 7,700 of those slots; they
/// number the used slots densely ([`GLOBAL_SLOTS`]) and allocate only
/// those, with the same tags and the same collisions.
#[derive(Debug, Clone)]
pub(crate) struct PpmTable {
    entries: Vec<Entry>,
    gen: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    gen: u32,
    taken: u16,
    not_taken: u16,
}

impl PpmTable {
    /// A table with one entry per 2^16 slot, addressed by key (the
    /// tests' reference predictor).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_slots(1 << TABLE_BITS)
    }

    /// A table with `slots` entries, addressed by the caller's slot.
    fn with_slots(slots: usize) -> Self {
        PpmTable {
            entries: vec![Entry::default(); slots],
            gen: 1,
        }
    }

    #[inline]
    pub(crate) const fn slot(key: u64) -> usize {
        (key & ((1 << TABLE_BITS) - 1)) as usize
    }

    /// Returns `(taken, not_taken)` counts if the context has been seen.
    #[cfg(test)]
    pub(crate) fn lookup(&self, key: u64) -> Option<(u16, u16)> {
        self.lookup_at(Context::keyed(key))
    }

    #[cfg(test)]
    pub(crate) fn update(&mut self, key: u64, taken: bool) {
        self.update_at(Context::keyed(key), taken);
    }

    /// Returns `(taken, not_taken)` counts if the context has been seen
    /// at its slot in this table.
    #[inline]
    fn lookup_at(&self, cx: Context) -> Option<(u16, u16)> {
        let e = &self.entries[cx.slot];
        (e.gen == self.gen && e.tag == cx.key).then_some((e.taken, e.not_taken))
    }

    #[inline]
    fn update_at(&mut self, cx: Context, taken: bool) {
        let (key, gen) = (cx.key, self.gen);
        let e = &mut self.entries[cx.slot];
        if e.gen != gen || e.tag != key {
            *e = Entry {
                tag: key,
                gen,
                taken: 0,
                not_taken: 0,
            };
        }
        let count = if taken {
            &mut e.taken
        } else {
            &mut e.not_taken
        };
        *count += 1;
        // Halve both counts when one saturates: the ratio, and so the
        // majority direction, survives arbitrarily long intervals.
        if *count == u16::MAX {
            e.taken >>= 1;
            e.not_taken >>= 1;
        }
    }

    pub(crate) fn reset(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: physically clear to avoid stale matches.
            self.entries.iter_mut().for_each(|e| *e = Entry::default());
            self.gen = 1;
        }
    }
}

/// Key for a PPM context: length, history bits, and (for per-address
/// tables) the branch PC; `pc = 0` for the address-free tables.
#[inline]
pub(crate) const fn context_key(len: u32, hist: u64, pc: u64) -> u64 {
    let masked = if len == 0 { 0 } else { hist & ((1 << len) - 1) };
    mix64(masked ^ ((len as u64) << 56) ^ pc.wrapping_mul(PC_MUL))
}

/// A context's key (its tag) and its slot in the table it is fed to.
#[derive(Debug, Clone, Copy)]
struct Context {
    key: u64,
    slot: usize,
}

impl Context {
    /// `key` at its slot in a full 2^16-entry table.
    #[inline]
    const fn keyed(key: u64) -> Self {
        Context {
            key,
            slot: PpmTable::slot(key),
        }
    }
}

/// Keys of every address-free context, indexed by
/// `(1 << len) | masked history`: 8191 values, fixed at compile time.
static GLOBAL_KEYS: [u64; 2 << MAX_HIST] = {
    let mut keys = [0; 2 << MAX_HIST];
    let mut i = 1;
    while i < keys.len() {
        let len = i.ilog2();
        keys[i] = context_key(len, (i ^ 1 << len) as u64, 0);
        i += 1;
    }
    keys
};

/// The compact slot of every address-free context, indexed as
/// [`GLOBAL_KEYS`], and the number of compact slots: the 2^16 slots the
/// keys use, numbered in first-use order. Two contexts share a compact
/// slot exactly when their keys share a 2^16 slot.
const GLOBAL_SLOTS_AND_COUNT: ([u16; 2 << MAX_HIST], usize) = {
    let mut compact = [u16::MAX; 1 << TABLE_BITS];
    let mut slots = [0; 2 << MAX_HIST];
    let mut used = 0;
    let mut i = 1;
    while i < slots.len() {
        let slot = PpmTable::slot(GLOBAL_KEYS[i]);
        if compact[slot] == u16::MAX {
            compact[slot] = used as u16;
            used += 1;
        }
        slots[i] = compact[slot];
        i += 1;
    }
    (slots, used)
};

/// Compact slot of every address-free context, indexed as [`GLOBAL_KEYS`].
static GLOBAL_SLOTS: [u16; 2 << MAX_HIST] = GLOBAL_SLOTS_AND_COUNT.0;

/// Entries of an address-free table: 7,700 of the 2^16 slots.
const GLOBAL_TABLE_SLOTS: usize = GLOBAL_SLOTS_AND_COUNT.1;

/// The contexts of an address-free table for history `hist`.
#[inline]
fn global_contexts(hist: u64) -> [Context; CONTEXTS] {
    std::array::from_fn(|len| {
        let i = (1 << len) | (hist as usize & ((1 << len) - 1));
        Context {
            key: GLOBAL_KEYS[i],
            slot: GLOBAL_SLOTS[i] as usize,
        }
    })
}

/// The contexts of a per-address table for `pc` and `hist`.
#[inline]
fn address_contexts(pc: u64, hist: u64) -> [Context; CONTEXTS] {
    // Inlined, the 13 calls share one `pc * PC_MUL`.
    std::array::from_fn(|len| Context::keyed(context_key(len as u32, hist, pc)))
}

/// One of the four predictor organizations: {global, local} history ×
/// {global, per-address} table. The organization is fixed by which keys
/// the analyzer feeds it.
#[derive(Debug, Clone)]
struct PpmPredictor {
    table: PpmTable,
    /// Misses per depth (4, 8, 12).
    misses: [u64; 3],
}

impl PpmPredictor {
    /// A predictor whose table holds `slots` entries.
    fn with_slots(slots: usize) -> Self {
        PpmPredictor {
            table: PpmTable::with_slots(slots),
            misses: [0; 3],
        }
    }

    /// `contexts[len]` is the branch's context of length `len`.
    #[inline]
    fn observe(&mut self, contexts: &[Context; CONTEXTS], taken: bool) {
        // Walk contexts from longest to shortest; the first match at
        // length <= depth is the PPM prediction for that depth. An unseen
        // branch (no context at any length) predicts not-taken. Depths
        // still unpredicted are always `DEPTHS[..open]`, so after a match
        // the walk resumes at the deepest of them: the lengths it skips
        // could only re-predict a decided depth.
        let mut predicted = [false; 3];
        let mut open = DEPTHS.len();
        let mut len = MAX_HIST as usize;
        loop {
            if let Some((t, n)) = self.table.lookup_at(contexts[len]) {
                while open > 0 && DEPTHS[open - 1] >= len {
                    open -= 1;
                    predicted[open] = t >= n;
                }
                if open == 0 {
                    break;
                }
                len = DEPTHS[open - 1];
            } else if len == 0 {
                break;
            } else {
                len -= 1;
            }
        }
        for (miss, pred) in self.misses.iter_mut().zip(predicted) {
            *miss += u64::from(pred != taken);
        }
        // Every lookup precedes every update: two contexts of one branch
        // may share a slot.
        for &cx in contexts {
            self.table.update_at(cx, taken);
        }
    }

    fn reset(&mut self) {
        self.table.reset();
        self.misses = [0; 3];
    }
}

/// Marks a local-history entry whose branch has been seen this interval
/// (above the 12 history bits).
const SEEN: u64 = 1 << MAX_HIST;

/// Computes the 14 branch-predictability characteristics of Table 1:
/// average transition rate, average taken rate, and misprediction rates of
/// the theoretical PPM predictor for global/local history, global and
/// per-address tables, and maximum history lengths 4, 8 and 12.
///
/// Only conditional branches participate; unconditional transfers are
/// perfectly predictable and excluded, as in MICA.
#[derive(Debug, Clone)]
pub struct BranchAnalyzer {
    branches: u64,
    taken: u64,
    transitions: u64,
    with_history: u64,
    global_hist: u64,
    /// Per-branch `SEEN | history`; the low history bit is the branch's
    /// last outcome.
    local_hist: FxHashMap<u64, u64>,
    /// Order: GAg, GAp, PAg, PAp (history kind, then table kind).
    predictors: [PpmPredictor; 4],
}

impl BranchAnalyzer {
    /// Creates an analyzer with cold predictor state.
    pub fn new() -> Self {
        BranchAnalyzer {
            branches: 0,
            taken: 0,
            transitions: 0,
            with_history: 0,
            global_hist: 0,
            local_hist: FxHashMap::default(),
            predictors: [
                GLOBAL_TABLE_SLOTS,
                1 << TABLE_BITS,
                GLOBAL_TABLE_SLOTS,
                1 << TABLE_BITS,
            ]
            .map(PpmPredictor::with_slots),
        }
    }
}

impl Default for BranchAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchAnalyzer {
    /// Observes one branch outcome directly — the block-path equivalent
    /// of [`Analyzer::observe`], fed from the block-exit
    /// [`BranchInfo`](phaselab_trace::BranchInfo) without materializing a
    /// record. Unconditional transfers are excluded, exactly as in the
    /// per-record path.
    #[inline]
    pub fn observe_branch(&mut self, pc: u64, branch: phaselab_trace::BranchInfo) {
        if !branch.conditional {
            return;
        }
        let taken = branch.taken;
        let bit = u64::from(taken);
        self.branches += 1;
        self.taken += bit;

        let entry = self.local_hist.entry(pc).or_insert(0);
        let before = *entry;
        if before & SEEN != 0 {
            self.with_history += 1;
            self.transitions += (before & 1) ^ bit;
        }
        *entry = SEEN | (((before << 1) | bit) & HIST_MASK);
        let local = before & HIST_MASK;
        let global = self.global_hist;
        self.global_hist = ((global << 1) | bit) & HIST_MASK;

        let [gag, gap, pag, pap] = &mut self.predictors;
        gag.observe(&global_contexts(global), taken);
        gap.observe(&address_contexts(pc, global), taken);
        pag.observe(&global_contexts(local), taken);
        pap.observe(&address_contexts(pc, local), taken);
    }
}

impl Analyzer for BranchAnalyzer {
    #[inline]
    fn observe(&mut self, rec: &InstRecord, _index: u64) {
        let Some(branch) = rec.branch else { return };
        self.observe_branch(rec.pc, branch);
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
        self.global_hist = 0;
        self.local_hist.clear();
        for p in &mut self.predictors {
            p.reset();
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops over feature slots read clearest
mod tests {
    use super::*;
    use phaselab_trace::{BranchInfo, InstClass};

    fn branch(pc: u64, taken: bool) -> InstRecord {
        InstRecord::new(pc, InstClass::CondBranch).with_branch(BranchInfo {
            taken,
            target: 0,
            conditional: true,
        })
    }

    fn emit(a: &BranchAnalyzer) -> Vec<f64> {
        let mut out = FeatureVector::zeros();
        a.emit(&mut out);
        (0..14).map(|i| out[BRANCH_BASE + i]).collect()
    }

    #[test]
    fn taken_and_transition_rates() {
        let mut a = BranchAnalyzer::new();
        // T, T, N, T at one static branch: taken rate 3/4, transitions 2/3.
        for t in [true, true, false, true] {
            a.observe(&branch(0x40, t), 0);
        }
        let f = emit(&a);
        assert!((f[1] - 0.75).abs() < 1e-12);
        assert!((f[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn always_taken_branch_is_nearly_perfectly_predicted() {
        let mut a = BranchAnalyzer::new();
        for i in 0..1000u64 {
            a.observe(&branch(0x40, true), i);
        }
        let f = emit(&a);
        for i in 2..14 {
            assert!(f[i] < 0.02, "PPM miss rate {i}: {}", f[i]);
        }
        assert_eq!(f[0], 0.0); // no transitions
    }

    #[test]
    fn alternating_branch_is_learned_by_ppm() {
        // T,N,T,N… is perfectly predictable from 1 bit of history once
        // warmed up.
        let mut a = BranchAnalyzer::new();
        for i in 0..2000u64 {
            a.observe(&branch(0x40, i % 2 == 0), i);
        }
        let f = emit(&a);
        assert!((f[0] - 1.0).abs() < 1e-3, "transition rate {}", f[0]);
        for i in 2..14 {
            assert!(f[i] < 0.05, "PPM should learn alternation, miss {}", f[i]);
        }
    }

    #[test]
    fn periodic_pattern_needs_enough_history() {
        // Period-10 pattern with one taken per period: 9 not-taken then 1
        // taken. Hist-4 cannot distinguish position inside the run of
        // not-takens; hist-12 can.
        let mut a = BranchAnalyzer::new();
        for i in 0..20_000u64 {
            a.observe(&branch(0x40, i % 10 == 9), i);
        }
        let f = emit(&a);
        let gag4 = f[2];
        let gag12 = f[4];
        assert!(
            gag12 < gag4 * 0.5 + 1e-9,
            "longer history should help: h4={gag4} h12={gag12}"
        );
        assert!(gag12 < 0.02);
    }

    #[test]
    fn random_branches_are_unpredictable() {
        // A pseudo-random direction stream: every predictor should miss
        // roughly half the time.
        let mut a = BranchAnalyzer::new();
        let mut x = 0x12345678u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            a.observe(&branch(0x40, (x >> 40) & 1 == 1), i);
        }
        let f = emit(&a);
        for i in 2..14 {
            assert!(
                (f[i] - 0.5).abs() < 0.1,
                "random stream miss rate {i}: {}",
                f[i]
            );
        }
    }

    #[test]
    fn per_address_tables_separate_conflicting_branches() {
        // Two branches with opposite constant directions, interleaved. A
        // per-address table keyed on PC predicts both perfectly even at
        // history length 0 contexts; the analyzer must keep them separate.
        let mut a = BranchAnalyzer::new();
        for i in 0..4000u64 {
            a.observe(&branch(0x40, true), i);
            a.observe(&branch(0x80, false), i);
        }
        let f = emit(&a);
        // GAp (global history, per-address) should be near perfect.
        assert!(f[5] < 0.02, "GAp hist4 {}", f[5]);
        // PAp too.
        assert!(f[11] < 0.02, "PAp hist4 {}", f[11]);
    }

    #[test]
    fn unconditional_branches_ignored() {
        let mut a = BranchAnalyzer::new();
        let rec = InstRecord::new(0, InstClass::Jump).with_branch(BranchInfo {
            taken: true,
            target: 0,
            conditional: false,
        });
        a.observe(&rec, 0);
        let f = emit(&a);
        assert_eq!(f[1], 0.0);
    }

    #[test]
    fn reset_forgets_learned_patterns() {
        let mut a = BranchAnalyzer::new();
        for i in 0..1000u64 {
            a.observe(&branch(0x40, true), i);
        }
        a.reset();
        assert_eq!(emit(&a), vec![0.0; 14]);
        // After reset, the first branch is again mispredicted (cold).
        a.observe(&branch(0x40, true), 0);
        let f = emit(&a);
        assert!(f[2] > 0.99, "cold predictor should miss the first branch");
    }

    #[test]
    fn ppm_table_generation_reset() {
        let mut t = PpmTable::new();
        t.update(42, true);
        assert_eq!(t.lookup(42), Some((1, 0)));
        t.reset();
        assert_eq!(t.lookup(42), None);
        t.update(42, false);
        assert_eq!(t.lookup(42), Some((0, 1)));
    }

    #[test]
    fn saturated_counters_keep_the_majority_direction() {
        // One context observed 30% taken: without rescaling, not-taken
        // pins at 65535 while taken keeps climbing, and the prediction
        // (taken >= not-taken) eventually flips to the minority.
        let mut t = PpmTable::new();
        let check = |t: &PpmTable, n: u32| {
            let (taken, not_taken) = t.lookup(7).expect("context present");
            let frac = f64::from(taken) / (f64::from(taken) + f64::from(not_taken));
            assert!(taken < not_taken, "after {n}: {taken} taken vs {not_taken}");
            assert!(
                (frac - 0.3).abs() < 0.01,
                "after {n}: taken fraction {frac}"
            );
        };
        for i in 0..400_000u32 {
            t.update(7, i % 10 < 3);
            if i + 1 == 200_000 {
                check(&t, i + 1);
            }
        }
        check(&t, 400_000);
    }

    #[test]
    fn key_table_matches_the_key_function() {
        for hist in [0, 1, 0x555, 0xfff] {
            let contexts = global_contexts(hist);
            for len in 0..=MAX_HIST {
                assert_eq!(contexts[len as usize].key, context_key(len, hist, 0));
            }
        }
    }

    #[test]
    fn compact_slots_collide_exactly_when_full_slots_do() {
        // Every address-free key, in both directions: a 2^16 slot maps to
        // one compact slot and a compact slot to one 2^16 slot, so two
        // keys share one exactly when they share the other.
        let mut compact_of = std::collections::HashMap::new();
        let mut full_of = std::collections::HashMap::new();
        for i in 1..GLOBAL_KEYS.len() {
            let full = PpmTable::slot(GLOBAL_KEYS[i]);
            let compact = GLOBAL_SLOTS[i] as usize;
            assert!(compact < GLOBAL_TABLE_SLOTS, "context {i}");
            assert_eq!(*compact_of.entry(full).or_insert(compact), compact, "{i}");
            assert_eq!(*full_of.entry(compact).or_insert(full), full, "{i}");
        }
        assert_eq!(GLOBAL_KEYS.len() - 1, 8191);
        assert_eq!(compact_of.len(), 7700);
        assert_eq!(full_of.len(), GLOBAL_TABLE_SLOTS);
        assert_eq!(GLOBAL_TABLE_SLOTS, 7700);
    }
}
