//! Deterministic fault injection for the checkpoint store's filesystem
//! I/O.
//!
//! Every recovery path in [`CheckpointStore`](crate::CheckpointStore) —
//! torn frames, short reads, transient `EINTR`s, full disks, failed
//! renames — exists because real filesystems misbehave. This module
//! makes those misbehaviors *injectable on purpose*: a seeded
//! [`FaultPlan`](crate::faults::FaultPlan) names per-operation
//! probabilities for each fault kind, and a store armed with one
//! (programmatically via
//! [`CheckpointStore::with_faults`](crate::CheckpointStore::with_faults),
//! or from the `PHASELAB_FAULTS` environment variable when it is
//! opened) routes its reads, writes, and renames through its own
//! crate-private injector. Chaos tests then exercise exactly the code
//! paths that mangle-scripts only hit by luck. The injector is per store handle
//! (clones share it); nothing here is process-global, so stores with
//! different plans coexist in one process.
//!
//! # Determinism
//!
//! Fault decisions hash (seed, operation count, fault lane,
//! store-relative path) through FNV-1a — no wall clock, no OS entropy,
//! no absolute path. The operation count is kept per relative path, so
//! a slot's decisions depend only on the operations made on that slot:
//! not on where the store lives, and not on how threads interleave
//! operations on other slots. Two stores armed with the same plan that
//! make the same operations on a slot inject the same faults there, in
//! any directory, thread schedule, or process, so a failing chaos run
//! replays from its seed. One consequence: a restarted process that
//! re-opens the store repeats its predecessor's decisions, so an
//! injected crash recurs at the same slot on every restart.
//!
//! # Cost when disabled
//!
//! A store without an injector (the default: no `PHASELAB_FAULTS` and
//! no `with_faults`) checks one `Option` per read, write, or rename
//! and calls `std::fs` directly.
//!
//! # Spec syntax
//!
//! `PHASELAB_FAULTS="seed=42,torn=0.1,eintr=0.05,shortread=0.05,enospc=0.02,rename=0.02,stall=0.1,stall_ms=50,crash=0.01,max=100"`
//!
//! Every key is optional; unspecified probabilities are `0`. `max`
//! bounds the number of faults one store handle injects (0 =
//! unlimited), which lets a test arm `eintr=1.0,max=2` and assert that
//! bounded retries outlast a bounded burst. `repro` opens one store
//! per process, so under `PHASELAB_FAULTS` this is also the
//! per-process bound.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::checkpoint::Fnv;

/// The kinds of filesystem misbehavior the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The process aborts mid-write, as if `kill -9`'d at the worst
    /// moment: a prefix of the bytes is on disk under the temporary
    /// name when the process dies.
    Crash,
    /// The write reports success but only a prefix of the bytes landed.
    TornWrite,
    /// The write fails with `ENOSPC` (storage full).
    Enospc,
    /// The write completes, but only after a configured stall.
    StalledWrite,
    /// The rename into place fails.
    FailedRename,
    /// The read fails with `EINTR` (interrupted system call) — the
    /// classic transient error a caller should retry.
    Eintr,
    /// The read returns fewer bytes than the file holds.
    ShortRead,
}

impl FaultKind {
    /// Distinct per-kind lane code folded into the decision hash, so
    /// each kind draws independently at a given operation.
    fn lane(self) -> u64 {
        match self {
            FaultKind::Crash => 1,
            FaultKind::TornWrite => 2,
            FaultKind::Enospc => 3,
            FaultKind::StalledWrite => 4,
            FaultKind::FailedRename => 5,
            FaultKind::Eintr => 6,
            FaultKind::ShortRead => 7,
        }
    }

    /// Stable label used in counter names and events.
    fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::TornWrite => "torn",
            FaultKind::Enospc => "enospc",
            FaultKind::StalledWrite => "stall",
            FaultKind::FailedRename => "rename",
            FaultKind::Eintr => "eintr",
            FaultKind::ShortRead => "shortread",
        }
    }
}

/// A seeded set of per-operation fault probabilities.
///
/// Probabilities are independent per kind and per operation; `0.0`
/// disables a kind, `1.0` triggers it at every opportunity (subject to
/// [`max_injections`](FaultPlan::max_injections)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed folded into every fault decision.
    pub seed: u64,
    /// Probability a write lands only a prefix of its bytes yet
    /// reports success.
    pub torn: f64,
    /// Probability a write fails with `ENOSPC`.
    pub enospc: f64,
    /// Probability a rename fails.
    pub rename: f64,
    /// Probability a read fails with `EINTR`.
    pub eintr: f64,
    /// Probability a read returns fewer bytes than the file holds.
    pub short_read: f64,
    /// Probability a write stalls for [`stall_ms`](FaultPlan::stall_ms)
    /// before completing.
    pub stall: f64,
    /// How long a stalled write sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Probability the process aborts mid-write (simulated `kill -9`).
    pub crash: f64,
    /// Upper bound on the faults one store handle injects; `0` means
    /// unlimited.
    pub max_injections: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            torn: 0.0,
            enospc: 0.0,
            rename: 0.0,
            eintr: 0.0,
            short_read: 0.0,
            stall: 0.0,
            stall_ms: 10,
            crash: 0.0,
            max_injections: 0,
        }
    }
}

impl FaultPlan {
    /// Parses a `key=value,key=value` spec (the `PHASELAB_FAULTS`
    /// syntax documented in the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first unknown key,
    /// unparsable value, or out-of-range probability.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry `{part}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault probability `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability `{v}` is outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault spec value `{v}` is not an integer"))
            };
            match key.trim() {
                "seed" => plan.seed = int(value)?,
                "torn" => plan.torn = prob(value)?,
                "enospc" => plan.enospc = prob(value)?,
                "rename" => plan.rename = prob(value)?,
                "eintr" => plan.eintr = prob(value)?,
                "shortread" => plan.short_read = prob(value)?,
                "stall" => plan.stall = prob(value)?,
                "stall_ms" => plan.stall_ms = int(value)?,
                "crash" => plan.crash = prob(value)?,
                "max" => plan.max_injections = int(value)?,
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// True when every probability is zero — a store given such a plan
    /// keeps no injector.
    pub fn is_noop(&self) -> bool {
        self.torn == 0.0
            && self.enospc == 0.0
            && self.rename == 0.0
            && self.eintr == 0.0
            && self.short_read == 0.0
            && self.stall == 0.0
            && self.crash == 0.0
    }
}

/// A seeded fault injector: a [`FaultPlan`] plus the per-path operation
/// counts that make its decisions replay from the seed.
///
/// A [`CheckpointStore`](crate::CheckpointStore) holds one, armed by
/// [`with_faults`](crate::CheckpointStore::with_faults) or from
/// `PHASELAB_FAULTS`, and routes its reads, writes and renames through
/// it.
#[derive(Debug)]
pub(crate) struct Injector {
    plan: FaultPlan,
    /// Operations made so far on each store-relative path.
    ops: Mutex<HashMap<PathBuf, u64>>,
    injected: AtomicU64,
}

/// The part of `path` below the store root `root`: what fault
/// decisions hash, so they do not depend on where the store lives.
fn slot<'a>(root: &Path, path: &'a Path) -> &'a Path {
    path.strip_prefix(root).unwrap_or(path)
}

impl Injector {
    /// Creates an injector for the given plan with no operations
    /// counted yet.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            ops: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults this injector has injected so far.
    #[cfg(test)]
    pub(crate) fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Counts one operation on `slot`, returning how many came before.
    fn next_op(&self, slot: &Path) -> u64 {
        let mut ops = self.ops.lock().unwrap_or_else(PoisonError::into_inner);
        let count = ops.entry(slot.to_path_buf()).or_insert(0);
        *count += 1;
        *count - 1
    }

    /// The decision hash of (seed, operation, lane, slot).
    fn hash(&self, seq: u64, lane: u64, slot: &Path) -> u64 {
        Fnv::new()
            .u64(self.plan.seed)
            .u64(seq)
            .u64(lane)
            .bytes(slot.to_string_lossy().as_bytes())
            .0
    }

    /// Draws the decision value for one (operation, lane) pair.
    fn draw(&self, seq: u64, kind: FaultKind, slot: &Path) -> f64 {
        // 53 high-quality bits -> uniform [0, 1).
        (self.hash(seq, kind.lane(), slot) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides whether `kind` fires for this operation, respecting the
    /// injection budget and recording the hit.
    fn fires(&self, seq: u64, kind: FaultKind, p: f64, slot: &Path) -> bool {
        if p <= 0.0 || self.draw(seq, kind, slot) >= p {
            return false;
        }
        let max = self.plan.max_injections;
        if max > 0 {
            // Claim a budget slot; back out if the burst is spent.
            let prev = self.injected.fetch_add(1, Ordering::Relaxed);
            if prev >= max {
                self.injected.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
        } else {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        phaselab_obs::counter_add("faults.injected", phaselab_obs::Class::Timing, 1);
        phaselab_obs::counter_add(
            &format!("faults.injected.{}", kind.label()),
            phaselab_obs::Class::Timing,
            1,
        );
        phaselab_obs::event("faults", kind.label());
        true
    }

    /// `std::fs::write` of `path`, in the store rooted at `root`, with
    /// write-lane faults applied.
    pub(crate) fn write(&self, root: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let slot = slot(root, path);
        let seq = self.next_op(slot);
        if self.fires(seq, FaultKind::Crash, self.plan.crash, slot) {
            // Land a prefix under the target name, then die like a
            // `kill -9` would: no unwinding, no destructors, no flush.
            let cut = self.torn_len(seq, slot, bytes.len());
            let _ = std::fs::write(path, &bytes[..cut]);
            eprintln!(
                "[phaselab] fault injection: crashing mid-write of {}",
                path.display()
            );
            std::process::abort();
        }
        if self.fires(seq, FaultKind::Enospc, self.plan.enospc, slot) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        if self.fires(seq, FaultKind::TornWrite, self.plan.torn, slot) {
            // The lie torn writes tell: a prefix lands, success is
            // reported anyway.
            let cut = self.torn_len(seq, slot, bytes.len());
            return std::fs::write(path, &bytes[..cut]);
        }
        if self.fires(seq, FaultKind::StalledWrite, self.plan.stall, slot) {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
        }
        std::fs::write(path, bytes)
    }

    /// `std::fs::rename` with rename-lane faults applied, drawn for the
    /// destination `to` in the store rooted at `root`.
    pub(crate) fn rename(&self, root: &Path, from: &Path, to: &Path) -> io::Result<()> {
        let slot = slot(root, to);
        let seq = self.next_op(slot);
        if self.fires(seq, FaultKind::FailedRename, self.plan.rename, slot) {
            return Err(io::Error::other("injected rename failure"));
        }
        std::fs::rename(from, to)
    }

    /// `std::fs::read` of `path`, in the store rooted at `root`, with
    /// read-lane faults applied.
    pub(crate) fn read(&self, root: &Path, path: &Path) -> io::Result<Vec<u8>> {
        let slot = slot(root, path);
        let seq = self.next_op(slot);
        if self.fires(seq, FaultKind::Eintr, self.plan.eintr, slot) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        let mut bytes = std::fs::read(path)?;
        if self.fires(seq, FaultKind::ShortRead, self.plan.short_read, slot) {
            let cut = self.torn_len(seq, slot, bytes.len());
            bytes.truncate(cut);
        }
        Ok(bytes)
    }

    /// A deterministic strict-prefix length for torn writes and short
    /// reads.
    fn torn_len(&self, seq: u64, slot: &Path, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (self.hash(seq, 0, slot) % len as u64) as usize
    }
}

/// The plan in the `PHASELAB_FAULTS` environment variable, parsed once
/// per process. An unparsable spec warns once and yields `None` — a
/// chaos knob must never break a production run.
///
/// [`CheckpointStore::open`](crate::CheckpointStore::open) arms every
/// store it opens with this plan, so any process that touches a store
/// injects faults from its environment.
pub(crate) fn env_plan() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let spec = std::env::var("PHASELAB_FAULTS").ok()?;
        FaultPlan::parse(&spec)
            .map_err(|e| eprintln!("[phaselab] warning: ignoring PHASELAB_FAULTS: {e}"))
            .ok()
    })
    .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42, torn=0.1, eintr=0.05, shortread=0.5, enospc=0.02, \
             rename=0.03, stall=0.25, stall_ms=7, crash=0.01, max=9",
        )
        .expect("parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.torn, 0.1);
        assert_eq!(plan.eintr, 0.05);
        assert_eq!(plan.short_read, 0.5);
        assert_eq!(plan.enospc, 0.02);
        assert_eq!(plan.rename, 0.03);
        assert_eq!(plan.stall, 0.25);
        assert_eq!(plan.stall_ms, 7);
        assert_eq!(plan.crash, 0.01);
        assert_eq!(plan.max_injections, 9);
        assert!(!plan.is_noop());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("torn").is_err());
        assert!(FaultPlan::parse("torn=maybe").is_err());
        assert!(FaultPlan::parse("torn=1.5").is_err());
        assert!(FaultPlan::parse("torn=-0.1").is_err());
        assert!(FaultPlan::parse("warp=0.5").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
    }

    #[test]
    fn empty_spec_is_noop() {
        let plan = FaultPlan::parse("").expect("parses");
        assert!(plan.is_noop());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan {
            eintr: 0.5,
            ..FaultPlan::default()
        };
        let path = PathBuf::from("c0/bench-0-probe.ckpt");
        let a = Injector::new(plan.clone());
        let b = Injector::new(plan.clone());
        let mut decisions_a = Vec::new();
        let mut decisions_b = Vec::new();
        for seq in 0..64 {
            decisions_a.push(a.draw(seq, FaultKind::Eintr, &path) < plan.eintr);
            decisions_b.push(b.draw(seq, FaultKind::Eintr, &path) < plan.eintr);
        }
        assert_eq!(decisions_a, decisions_b);
        assert!(decisions_a.iter().any(|&d| d));
        assert!(decisions_a.iter().any(|&d| !d));
        let other_seed = Injector::new(FaultPlan {
            seed: 99,
            ..plan.clone()
        });
        let decisions_c: Vec<bool> = (0..64)
            .map(|seq| other_seed.draw(seq, FaultKind::Eintr, &path) < plan.eintr)
            .collect();
        assert_ne!(decisions_a, decisions_c);
    }

    #[test]
    fn injection_budget_is_respected() {
        let plan = FaultPlan {
            eintr: 1.0,
            max_injections: 2,
            ..FaultPlan::default()
        };
        let inj = Injector::new(plan);
        let dir =
            std::env::temp_dir().join(format!("phaselab-faults-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("probe.bin");
        std::fs::write(&file, b"payload").expect("seed file");
        let mut errors = 0;
        for _ in 0..8 {
            if inj.read(&dir, &file).is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 2, "exactly max_injections faults fire");
        assert_eq!(inj.injected(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_len_is_always_a_strict_prefix() {
        let inj = Injector::new(FaultPlan::default());
        let slot = Path::new("c0/bench-0-probe.ckpt");
        for len in 1..200 {
            for seq in 0..16 {
                let cut = inj.torn_len(seq, slot, len);
                assert!(cut < len, "cut {cut} not a strict prefix of {len}");
            }
        }
        assert_eq!(inj.torn_len(3, slot, 0), 0);
    }
}
