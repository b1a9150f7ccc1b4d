//! Advisory per-shard leases over a shared checkpoint store.
//!
//! Concurrent shard workers share one store directory. Atomic renames
//! already make *individual* checkpoint writes safe; leases add the
//! missing coarse coordination: at most one live worker per shard slot,
//! detection of dead workers, and an ordered hand-off when a slot
//! changes hands.
//!
//! # Protocol
//!
//! Each shard slot owns one lease file, `leases/shard-<i>.lease` under
//! the store root, holding the owner's pid, a random ownership token, a
//! monotonic **fencing counter**, and the last heartbeat timestamp. A
//! worker acquires the slot by writing its own record (guarded by an
//! `O_EXCL` mutation lock and confirmed by read-back), then heartbeats
//! the file every quarter-TTL. A lease whose heartbeat is older than
//! the TTL is **stale**: a new acquirer takes the slot over, bumping
//! the fencing counter so successive owners are totally ordered.
//!
//! # Safety model
//!
//! These are *advisory* leases built from portable filesystem
//! primitives, so mutual exclusion is convergent rather than absolute:
//! in a pathological interleaving two workers can briefly both believe
//! they own a slot, but each heartbeat re-validates ownership by token,
//! so the loser notices within one heartbeat period, trips its cancel
//! token, and stops. Correctness never rests on the lease alone —
//! checkpoint writes are idempotent, content-fingerprinted, and
//! individually atomic, so even an overlapping loser can only write
//! bytes the winner would have written.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use phaselab_par::CancelToken;

use crate::checkpoint::Fnv;

/// Default lease time-to-live, overridable via `PHASELAB_LEASE_TTL_MS`.
const DEFAULT_TTL_MS: u64 = 30_000;

/// The lease TTL for this process: `PHASELAB_LEASE_TTL_MS` if set and
/// positive, else 30 seconds. A heartbeat older than this marks the
/// lease stale and eligible for takeover.
pub fn default_ttl() -> Duration {
    let ms = std::env::var("PHASELAB_LEASE_TTL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(DEFAULT_TTL_MS);
    Duration::from_millis(ms)
}

/// Milliseconds since the UNIX epoch — the clock lease records carry.
/// Workers sharing a store share a machine, so one wall clock orders
/// their heartbeats.
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Why a shard lease could not be acquired.
#[derive(Debug)]
pub enum LeaseError {
    /// The lease directory or file could not be created or read.
    Io(io::Error),
    /// Another live worker holds the slot and kept heartbeating for
    /// the whole wait window.
    Held {
        /// The contended shard index.
        shard: u32,
        /// Pid recorded by the current holder.
        holder_pid: u32,
        /// The holder's fencing counter.
        fence: u64,
    },
    /// The caller's cancel token tripped while waiting.
    Cancelled,
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Io(e) => write!(f, "lease I/O error: {e}"),
            LeaseError::Held {
                shard,
                holder_pid,
                fence,
            } => write!(
                f,
                "shard {shard} lease held by live pid {holder_pid} (fence {fence})"
            ),
            LeaseError::Cancelled => write!(f, "lease wait cancelled"),
        }
    }
}

impl std::error::Error for LeaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeaseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LeaseError {
    fn from(e: io::Error) -> Self {
        LeaseError::Io(e)
    }
}

/// One decoded lease record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// Pid of the recorded owner.
    pub pid: u32,
    /// The owner's random ownership token.
    pub token: u64,
    /// Monotonic fencing counter, bumped on every takeover.
    pub fence: u64,
    /// Owner's last heartbeat, in milliseconds since the UNIX epoch.
    pub heartbeat_ms: u64,
}

impl LeaseInfo {
    fn encode(&self) -> String {
        format!(
            "phaselab-lease v1\npid={}\ntoken={:016x}\nfence={}\nheartbeat_ms={}\n",
            self.pid, self.token, self.fence, self.heartbeat_ms
        )
    }

    /// Decodes a lease record; a malformed record returns `None` and is
    /// treated like a stale lease (safe to take over).
    fn decode(text: &str) -> Option<LeaseInfo> {
        let mut lines = text.lines();
        if lines.next()? != "phaselab-lease v1" {
            return None;
        }
        let mut pid = None;
        let mut token = None;
        let mut fence = None;
        let mut heartbeat_ms = None;
        for line in lines {
            let (key, value) = line.split_once('=')?;
            match key {
                "pid" => pid = value.parse().ok(),
                "token" => token = u64::from_str_radix(value, 16).ok(),
                "fence" => fence = value.parse().ok(),
                "heartbeat_ms" => heartbeat_ms = value.parse().ok(),
                _ => return None,
            }
        }
        Some(LeaseInfo {
            pid: pid?,
            token: token?,
            fence: fence?,
            heartbeat_ms: heartbeat_ms?,
        })
    }

    /// Whether this record's heartbeat is older than `ttl`.
    pub fn is_stale(&self, ttl: Duration) -> bool {
        now_ms().saturating_sub(self.heartbeat_ms) > ttl.as_millis() as u64
    }
}

/// Path of the lease file for one shard slot under a store root.
pub fn lease_path(store_dir: &Path, shard: u32) -> PathBuf {
    store_dir
        .join("leases")
        .join(format!("shard-{shard}.lease"))
}

/// Reads and decodes a shard's lease record, if one exists and parses.
pub fn read_lease(store_dir: &Path, shard: u32) -> Option<LeaseInfo> {
    let text = fs::read_to_string(lease_path(store_dir, shard)).ok()?;
    LeaseInfo::decode(&text)
}

/// Mints an ownership token from process identity and the wall clock —
/// unique enough to distinguish two workers racing on one slot.
fn mint_token(shard: u32) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    Fnv::new()
        .u64(u64::from(std::process::id()))
        .u64(nanos)
        .u64(u64::from(shard))
        .0
}

/// Atomically replaces the lease file with `info` (unique temporary
/// sibling + rename, so readers never see a torn record).
fn write_lease(path: &Path, info: &LeaseInfo) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp-{}-{:08x}", info.pid, info.token & 0xFFFF_FFFF));
    fs::write(&tmp, info.encode())?;
    fs::rename(&tmp, path)
}

/// Runs `mutate` while holding the slot's `O_EXCL` mutation lock, so
/// two acquirers cannot interleave their read-decide-write sequences.
/// A lock file older than `ttl` is presumed abandoned by a crashed
/// acquirer and broken.
///
/// Public because the result cache reuses the same lock protocol for
/// its multi-process eviction passes: `path` names the protected
/// resource (the lock file is `path` with a `.lock` extension), and
/// any cooperating process taking the same `path` is excluded.
///
/// # Errors
///
/// `WouldBlock` when the lock stayed busy past `ttl`; otherwise
/// whatever the lock-file creation produced.
pub fn with_mutation_lock<T>(
    path: &Path,
    ttl: Duration,
    mutate: impl FnOnce() -> T,
) -> io::Result<T> {
    let lock = path.with_extension("lock");
    let deadline = Instant::now() + ttl;
    loop {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                let out = mutate();
                let _ = fs::remove_file(&lock);
                return Ok(out);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let abandoned = fs::metadata(&lock)
                    .and_then(|m| m.modified())
                    .map_or(true, |t| t.elapsed().is_ok_and(|a| a > ttl));
                if abandoned {
                    let _ = fs::remove_file(&lock);
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "lease mutation lock busy",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// A held shard lease: heartbeats in the background until released
/// (or dropped), and trips its cancel token if displaced.
#[derive(Debug)]
pub struct ShardLease {
    path: PathBuf,
    shard: u32,
    token: u64,
    fence: u64,
    stop: Arc<AtomicBool>,
    displaced: Arc<AtomicBool>,
    heartbeat: Option<JoinHandle<()>>,
}

impl ShardLease {
    /// The shard slot this lease covers.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// This owner's fencing counter — strictly greater than every
    /// previous owner's.
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// True once another worker has taken the slot over; the cancel
    /// token passed at acquisition has been tripped.
    pub fn is_displaced(&self) -> bool {
        self.displaced.load(Ordering::Acquire)
    }

    /// Stops heartbeating and removes the lease file if still owned.
    /// Also runs on drop.
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.heartbeat.take() {
            let _ = handle.join();
        }
        // Remove only if the record is still ours: a displaced lease
        // belongs to the new owner now.
        if let Ok(text) = fs::read_to_string(&self.path) {
            if LeaseInfo::decode(&text).is_some_and(|l| l.token == self.token) {
                let _ = fs::remove_file(&self.path);
            }
        }
    }
}

impl Drop for ShardLease {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// Whether the lease holder's process still exists. A `kill -9`'d
/// worker leaves a fresh-looking lease that would otherwise block its
/// replacement for a full TTL; on Linux the `/proc` entry settles the
/// question immediately. Where liveness cannot be checked this errs on
/// the side of "alive" and the TTL does the fencing.
fn holder_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// Acquires the lease for `shard` under `store_dir`, waiting up to
/// `wait` for a live holder to go away.
///
/// A stale (or absent, or malformed) lease is taken over immediately
/// with a bumped fencing counter; takeovers increment the Timing-class
/// `store.lease_takeovers` counter. While held, a background thread
/// heartbeats every quarter-TTL and — should another worker displace
/// this one — trips `cancel` so the worker stops writing.
///
/// # Errors
///
/// [`LeaseError::Held`] when a live holder outlasted `wait`,
/// [`LeaseError::Cancelled`] when `cancel` tripped while waiting, and
/// [`LeaseError::Io`] for filesystem failures.
pub fn acquire(
    store_dir: &Path,
    shard: u32,
    ttl: Duration,
    wait: Duration,
    cancel: Option<&CancelToken>,
) -> Result<ShardLease, LeaseError> {
    let path = lease_path(store_dir, shard);
    fs::create_dir_all(path.parent().expect("lease paths have a parent"))?;
    let token = mint_token(shard);
    let deadline = Instant::now() + wait;
    loop {
        if cancel.is_some_and(phaselab_par::CancelToken::is_cancelled) {
            return Err(LeaseError::Cancelled);
        }
        enum Claim {
            Won { fence: u64, takeover: bool },
            HeldBy(LeaseInfo),
        }
        let claim = with_mutation_lock(&path, ttl, || -> io::Result<Claim> {
            let existing = fs::read_to_string(&path)
                .ok()
                .and_then(|t| LeaseInfo::decode(&t));
            match existing {
                Some(l) if !l.is_stale(ttl) && holder_alive(l.pid) && l.token != token => {
                    Ok(Claim::HeldBy(l))
                }
                other => {
                    let takeover = other.is_some();
                    let fence = other.map_or(1, |l| l.fence + 1);
                    write_lease(
                        &path,
                        &LeaseInfo {
                            pid: std::process::id(),
                            token,
                            fence,
                            heartbeat_ms: now_ms(),
                        },
                    )?;
                    Ok(Claim::Won { fence, takeover })
                }
            }
        })??;
        match claim {
            Claim::Won { fence, takeover } => {
                // Confirm the claim survived any racing writer outside
                // the lock (belt and braces; the lock already orders
                // well-behaved acquirers).
                let confirmed = fs::read_to_string(&path)
                    .ok()
                    .and_then(|t| LeaseInfo::decode(&t))
                    .is_some_and(|l| l.token == token);
                if !confirmed {
                    continue;
                }
                if takeover {
                    phaselab_obs::counter_add(
                        "store.lease_takeovers",
                        phaselab_obs::Class::Timing,
                        1,
                    );
                    phaselab_obs::event("lease", &format!("takeover of shard {shard}"));
                }
                return Ok(start_heartbeat(path, shard, token, fence, ttl, cancel));
            }
            Claim::HeldBy(holder) => {
                if Instant::now() >= deadline {
                    return Err(LeaseError::Held {
                        shard,
                        holder_pid: holder.pid,
                        fence: holder.fence,
                    });
                }
                std::thread::sleep((ttl / 8).max(Duration::from_millis(5)));
            }
        }
    }
}

/// Spawns the heartbeat thread and assembles the lease guard.
fn start_heartbeat(
    path: PathBuf,
    shard: u32,
    token: u64,
    fence: u64,
    ttl: Duration,
    cancel: Option<&CancelToken>,
) -> ShardLease {
    let stop = Arc::new(AtomicBool::new(false));
    let displaced = Arc::new(AtomicBool::new(false));
    let beat_path = path.clone();
    let beat_stop = Arc::clone(&stop);
    let beat_displaced = Arc::clone(&displaced);
    let beat_cancel = cancel.cloned();
    let interval = (ttl / 4).max(Duration::from_millis(10));
    let heartbeat = std::thread::Builder::new()
        .name(format!("lease-heartbeat-{shard}"))
        .spawn(move || {
            let mut next_beat = Instant::now() + interval;
            while !beat_stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(interval.as_millis().min(25) as u64));
                if Instant::now() < next_beat {
                    continue;
                }
                next_beat = Instant::now() + interval;
                // Re-validate ownership before refreshing: a blind
                // rewrite could resurrect a lease another worker has
                // legitimately taken over.
                let current = fs::read_to_string(&beat_path)
                    .ok()
                    .and_then(|t| LeaseInfo::decode(&t));
                match current {
                    Some(l) if l.token == token => {
                        let refreshed = LeaseInfo {
                            heartbeat_ms: now_ms(),
                            ..l
                        };
                        let _ = write_lease(&beat_path, &refreshed);
                    }
                    _ => {
                        beat_displaced.store(true, Ordering::Release);
                        if let Some(t) = &beat_cancel {
                            t.cancel();
                        }
                        phaselab_obs::event("lease", &format!("shard {shard} lease displaced"));
                        return;
                    }
                }
            }
        })
        .expect("spawn lease heartbeat thread");
    ShardLease {
        path,
        shard,
        token,
        fence,
        stop,
        displaced,
        heartbeat: Some(heartbeat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("phaselab-lease-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn lease_record_roundtrips() {
        let info = LeaseInfo {
            pid: 4242,
            token: 0xDEAD_BEEF_0123_4567,
            fence: 7,
            heartbeat_ms: 1_700_000_000_000,
        };
        assert_eq!(LeaseInfo::decode(&info.encode()), Some(info));
        assert_eq!(LeaseInfo::decode("not a lease"), None);
        assert_eq!(LeaseInfo::decode("phaselab-lease v1\npid=1\n"), None);
    }

    #[test]
    fn acquire_release_cycle_leaves_no_file() {
        let dir = temp_dir("cycle");
        let ttl = Duration::from_millis(200);
        let lease = acquire(&dir, 0, ttl, Duration::from_millis(100), None).expect("acquire");
        assert_eq!(lease.fence(), 1);
        assert!(!lease.is_displaced());
        let recorded = read_lease(&dir, 0).expect("recorded");
        assert_eq!(recorded.pid, std::process::id());
        lease.release();
        assert!(read_lease(&dir, 0).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_lease_blocks_and_stale_lease_is_taken_over() {
        let dir = temp_dir("takeover");
        let ttl = Duration::from_millis(150);
        let first = acquire(&dir, 3, ttl, Duration::from_millis(50), None).expect("acquire");
        // A live, heartbeating holder: a second acquirer times out.
        let contender = acquire(&dir, 3, ttl, Duration::from_millis(30), None);
        assert!(matches!(contender, Err(LeaseError::Held { shard: 3, .. })));
        // Different slots never contend.
        let other = acquire(&dir, 4, ttl, Duration::from_millis(30), None).expect("other slot");
        other.release();
        drop(first);
        // Forge a stale record: takeover must bump the fence.
        write_lease(
            &lease_path(&dir, 3),
            &LeaseInfo {
                pid: 1,
                token: 99,
                fence: 5,
                heartbeat_ms: now_ms().saturating_sub(10_000),
            },
        )
        .expect("forge stale");
        let second = acquire(&dir, 3, ttl, Duration::from_millis(50), None).expect("takeover");
        assert_eq!(second.fence(), 6);
        second.release();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn displaced_owner_notices_and_trips_its_cancel_token() {
        let dir = temp_dir("displace");
        let ttl = Duration::from_millis(80);
        let token = CancelToken::new();
        let lease =
            acquire(&dir, 1, ttl, Duration::from_millis(50), Some(&token)).expect("acquire");
        // Simulate a fenced takeover by a new owner.
        write_lease(
            &lease_path(&dir, 1),
            &LeaseInfo {
                pid: 999_999,
                token: 0xABCD,
                fence: lease.fence() + 1,
                heartbeat_ms: now_ms(),
            },
        )
        .expect("usurp");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !lease.is_displaced() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(lease.is_displaced(), "heartbeat never noticed the usurper");
        assert!(
            token.is_cancelled(),
            "displacement must trip the cancel token"
        );
        drop(lease);
        // The usurper's record survives the displaced owner's drop.
        assert_eq!(read_lease(&dir, 1).expect("still present").pid, 999_999);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_wait_returns_cancelled() {
        let dir = temp_dir("cancelled");
        let token = CancelToken::new();
        token.cancel();
        let r = acquire(
            &dir,
            0,
            Duration::from_millis(100),
            Duration::from_millis(100),
            Some(&token),
        );
        assert!(matches!(r, Err(LeaseError::Cancelled)));
        let _ = fs::remove_dir_all(&dir);
    }
}
