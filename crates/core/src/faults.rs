//! Deterministic fault injection for the checkpoint store's filesystem
//! I/O.
//!
//! Every recovery path in [`CheckpointStore`](crate::CheckpointStore) —
//! torn frames, short reads, transient `EINTR`s, full disks, failed
//! renames — exists because real filesystems misbehave. This module
//! makes those misbehaviors *injectable on purpose*: a seeded
//! [`FaultPlan`](crate::faults::FaultPlan) names per-operation
//! probabilities for each fault kind, and once armed (programmatically
//! via [`arm`](crate::faults::arm), or from the `PHASELAB_FAULTS`
//! environment variable) the store's reads, writes, and renames are
//! routed through the injector. Chaos tests then exercise exactly the
//! code paths that mangle-scripts only hit by luck.
//!
//! # Determinism
//!
//! Fault decisions hash (seed, per-process draw sequence number, fault
//! lane, path) through FNV-1a — no wall clock, no OS entropy. Two runs
//! of the same single-threaded test with the same plan inject the same
//! faults at the same operations. Multi-process chaos runs are
//! *seeded* rather than replayable (each process draws its own
//! sequence), which is what a chaos harness needs: varied but
//! reproducible-in-distribution havoc.
//!
//! # Cost when disabled
//!
//! Disarmed (the default), each wrapped operation pays one relaxed
//! atomic load before falling through to the plain `std::fs` call.
//!
//! # Spec syntax
//!
//! `PHASELAB_FAULTS="seed=42,torn=0.1,eintr=0.05,shortread=0.05,enospc=0.02,rename=0.02,stall=0.1,stall_ms=50,crash=0.01,max=100"`
//!
//! Every key is optional; unspecified probabilities are `0`. `max`
//! bounds the total number of injected faults (0 = unlimited), which
//! lets a test arm `eintr=1.0,max=2` and assert that bounded retries
//! outlast a bounded burst.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

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
    /// Upper bound on total injected faults; `0` means unlimited.
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

    /// True when every probability is zero — arming such a plan is a
    /// no-op.
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

/// A seeded fault injector: a [`FaultPlan`] plus the per-process draw
/// sequence that makes its decisions deterministic.
///
/// Most callers arm the process-wide injector via [`arm`] /
/// [`arm_from_env`]; tests that want isolation can hold their own
/// `Injector` and call its methods directly.
#[derive(Debug)]
pub struct Injector {
    plan: FaultPlan,
    draws: AtomicU64,
    injected: AtomicU64,
}

impl Injector {
    /// Creates an injector for the given plan with a fresh draw
    /// sequence.
    pub fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults this injector has injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Draws the decision value for one (operation, lane) pair.
    fn draw(&self, seq: u64, kind: FaultKind, path: &Path) -> f64 {
        let mut h = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        };
        fold(&self.plan.seed.to_le_bytes());
        fold(&seq.to_le_bytes());
        fold(&kind.lane().to_le_bytes());
        fold(path.to_string_lossy().as_bytes());
        // 53 high-quality bits -> uniform [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides whether `kind` fires for this operation, respecting the
    /// injection budget and recording the hit.
    fn fires(&self, seq: u64, kind: FaultKind, p: f64, path: &Path) -> bool {
        if p <= 0.0 || self.draw(seq, kind, path) >= p {
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

    /// `std::fs::write` with write-lane faults applied.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors and injects `ENOSPC` per the plan.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.draws.fetch_add(1, Ordering::Relaxed);
        if self.fires(seq, FaultKind::Crash, self.plan.crash, path) {
            // Land a prefix under the target name, then die like a
            // `kill -9` would: no unwinding, no destructors, no flush.
            let cut = self.torn_len(seq, bytes.len());
            let _ = std::fs::write(path, &bytes[..cut]);
            eprintln!(
                "[phaselab] fault injection: crashing mid-write of {}",
                path.display()
            );
            std::process::abort();
        }
        if self.fires(seq, FaultKind::Enospc, self.plan.enospc, path) {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        if self.fires(seq, FaultKind::TornWrite, self.plan.torn, path) {
            // The lie torn writes tell: a prefix lands, success is
            // reported anyway.
            let cut = self.torn_len(seq, bytes.len());
            return std::fs::write(path, &bytes[..cut]);
        }
        if self.fires(seq, FaultKind::StalledWrite, self.plan.stall, path) {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.stall_ms));
        }
        std::fs::write(path, bytes)
    }

    /// `std::fs::rename` with rename-lane faults applied.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors and injects failures per the plan.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let seq = self.draws.fetch_add(1, Ordering::Relaxed);
        if self.fires(seq, FaultKind::FailedRename, self.plan.rename, to) {
            return Err(io::Error::other("injected rename failure"));
        }
        std::fs::rename(from, to)
    }

    /// `std::fs::read` with read-lane faults applied.
    ///
    /// # Errors
    ///
    /// Propagates real I/O errors and injects `EINTR` per the plan.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let seq = self.draws.fetch_add(1, Ordering::Relaxed);
        if self.fires(seq, FaultKind::Eintr, self.plan.eintr, path) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        let mut bytes = std::fs::read(path)?;
        if self.fires(seq, FaultKind::ShortRead, self.plan.short_read, path) {
            let cut = self.torn_len(seq, bytes.len());
            bytes.truncate(cut);
        }
        Ok(bytes)
    }

    /// A deterministic strict-prefix length for torn writes and short
    /// reads.
    fn torn_len(&self, seq: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut h = FNV_OFFSET ^ self.plan.seed ^ seq.rotate_left(17);
        h = h.wrapping_mul(FNV_PRIME);
        (h as usize) % len
    }
}

// ---------------------------------------------------------------------
// Process-wide arming.

static ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<Injector>>> = Mutex::new(None);

/// Arms the process-wide injector with `plan`, replacing any previous
/// one. A no-op plan (all probabilities zero) disarms instead.
pub fn arm(plan: FaultPlan) {
    if plan.is_noop() {
        disarm();
        return;
    }
    let mut global = GLOBAL.lock().expect("faults lock");
    *global = Some(Arc::new(Injector::new(plan)));
    ARMED.store(true, Ordering::Release);
}

/// Disarms the process-wide injector; wrapped I/O reverts to plain
/// `std::fs` calls.
pub fn disarm() {
    let mut global = GLOBAL.lock().expect("faults lock");
    ARMED.store(false, Ordering::Release);
    *global = None;
}

/// True when a process-wide injector is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The currently armed process-wide injector, if any.
pub fn current() -> Option<Arc<Injector>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    GLOBAL.lock().expect("faults lock").clone()
}

/// Arms from the `PHASELAB_FAULTS` environment variable, once per
/// process. An unparsable spec warns and leaves injection disarmed —
/// a chaos knob must never break a production run.
///
/// Called from [`CheckpointStore::open`](crate::CheckpointStore::open),
/// so any process that touches a store (including spawned shard
/// workers) arms automatically.
pub fn arm_from_env() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        if let Ok(spec) = std::env::var("PHASELAB_FAULTS") {
            match FaultPlan::parse(&spec) {
                Ok(plan) => arm(plan),
                Err(e) => {
                    eprintln!("[phaselab] warning: ignoring PHASELAB_FAULTS: {e}");
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Wrapped filesystem operations (the checkpoint store's I/O surface).

/// `std::fs::write` routed through the armed injector, if any.
///
/// # Errors
///
/// Whatever the underlying write (or the injected fault) produces.
pub fn fs_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    match current() {
        Some(inj) => inj.write(path, bytes),
        None => std::fs::write(path, bytes),
    }
}

/// `std::fs::rename` routed through the armed injector, if any.
///
/// # Errors
///
/// Whatever the underlying rename (or the injected fault) produces.
pub fn fs_rename(from: &Path, to: &Path) -> io::Result<()> {
    match current() {
        Some(inj) => inj.rename(from, to),
        None => std::fs::rename(from, to),
    }
}

/// `std::fs::read` routed through the armed injector, if any.
///
/// # Errors
///
/// Whatever the underlying read (or the injected fault) produces.
pub fn fs_read(path: &Path) -> io::Result<Vec<u8>> {
    match current() {
        Some(inj) => inj.read(path),
        None => std::fs::read(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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
        let path = PathBuf::from("/tmp/phaselab-faults-probe");
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
            if inj.read(&file).is_err() {
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
        for len in 1..200 {
            for seq in 0..16 {
                let cut = inj.torn_len(seq, len);
                assert!(cut < len, "cut {cut} not a strict prefix of {len}");
            }
        }
        assert_eq!(inj.torn_len(3, 0), 0);
    }
}
