//! Store maintenance: size accounting and LRU size-budget eviction,
//! as methods on [`CheckpointStore`].
//!
//! A [`CheckpointStore`] is content-addressed — entries are keyed by
//! configuration fingerprint plus an integrity-checked frame — and
//! idempotent, so any entry can be deleted at any time and the pipeline
//! recomputes it on the next miss. That makes eviction *safe* but not
//! *free*: evicting an entry a running study is about to read costs a
//! recharacterization. Two methods supply the policy:
//!
//! * **Accounting** ([`CheckpointStore::stats`]): bytes and entry
//!   counts by kind (benchmark characterizations vs k-means restarts),
//!   walked from the directory layout, no index file to rot.
//! * **Eviction** ([`CheckpointStore::gc`]): delete least-recently-used
//!   entries until the store fits a byte budget. Recency is the entry
//!   file's mtime, which [`CheckpointStore::load_benchmark`] bumps on
//!   every hit, so a warm entry survives a cold one of the same age.
//!
//! Concurrent `gc` passes from different processes are serialized by an
//! `O_EXCL` lock file (`cache-gc.lock` in the store root); everything
//! else stays lock-free.
//!
//! Cross-study sharing needs no extra machinery: the characterization
//! fingerprint deliberately excludes sampling, clustering, and GA
//! parameters (see
//! [`characterization_fingerprint`](crate::characterization_fingerprint)),
//! so two studies differing only in those share every benchmark entry.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use crate::checkpoint::CheckpointStore;

/// How long a `gc` pass waits for the lock, and how old a lock file
/// must be before it is presumed abandoned by a crashed pass.
const GC_LOCK_TTL: Duration = Duration::from_secs(30);

/// What kind of payload a store entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    /// One benchmark's characterization (`c<fp>/bench-*.ckpt`).
    Benchmark,
    /// One completed k-means restart (`k<fp>/restart-*.ckpt`).
    Clustering,
}

/// One evictable entry, as enumerated from the store directory.
#[derive(Debug, Clone)]
struct Entry {
    path: PathBuf,
    fingerprint: u64,
    kind: EntryKind,
    bytes: u64,
    mtime: SystemTime,
}

/// Byte and entry tallies for a store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bytes held by benchmark-characterization entries.
    pub bench_bytes: u64,
    /// Number of benchmark-characterization entries.
    pub bench_entries: usize,
    /// Bytes held by k-means-restart entries.
    pub clustering_bytes: u64,
    /// Number of k-means-restart entries.
    pub clustering_entries: usize,
    /// Distinct fingerprints with at least one entry.
    pub fingerprints: usize,
}

impl CacheStats {
    /// Total evictable bytes (benchmark + clustering entries).
    pub fn total_bytes(&self) -> u64 {
        self.bench_bytes + self.clustering_bytes
    }

    /// Total entry count.
    pub fn total_entries(&self) -> usize {
        self.bench_entries + self.clustering_entries
    }
}

/// What one [`CheckpointStore::gc`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries deleted.
    pub evicted_entries: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Evictable bytes remaining after the pass.
    pub remaining_bytes: u64,
}

impl CheckpointStore {
    /// Walks the store directory and tallies entries by kind.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store root cannot be read;
    /// individually unreadable entries are skipped.
    pub fn stats(&self) -> io::Result<CacheStats> {
        let entries = self.entries()?;
        let mut stats = CacheStats {
            fingerprints: entries
                .iter()
                .map(|e| e.fingerprint)
                .collect::<BTreeSet<_>>()
                .len(),
            ..CacheStats::default()
        };
        for e in &entries {
            match e.kind {
                EntryKind::Benchmark => {
                    stats.bench_entries += 1;
                    stats.bench_bytes += e.bytes;
                }
                EntryKind::Clustering => {
                    stats.clustering_entries += 1;
                    stats.clustering_bytes += e.bytes;
                }
            }
        }
        Ok(stats)
    }

    /// Evicts least-recently-used entries until the evictable bytes fit
    /// `max_bytes`. Concurrent `gc` passes (any process) are serialized
    /// by the store's gc lock; a pass that cannot get the lock within
    /// 30 s returns `WouldBlock` rather than racing.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another process holds the gc lock past the
    /// TTL; otherwise the I/O error that stopped the walk.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let lock = self.dir().join("cache-gc.lock");
        with_mutation_lock(&lock, GC_LOCK_TTL, GC_LOCK_TTL, || {
            self.gc_locked(max_bytes)
        })?
    }

    fn gc_locked(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut entries = self.entries()?;
        // Oldest first; ties break by path so two walkers agree.
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        let mut live: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport::default();
        for e in &entries {
            if live <= max_bytes {
                break;
            }
            match fs::remove_file(&e.path) {
                Ok(()) => {
                    live -= e.bytes;
                    report.evicted_entries += 1;
                    report.evicted_bytes += e.bytes;
                    // Drop a fingerprint directory once its last entry
                    // is gone (failure just means it was not empty).
                    if let Some(parent) = e.path.parent() {
                        let _ = fs::remove_dir(parent);
                    }
                }
                // Someone else (a concurrent recompute) replaced or
                // removed it; the next pass re-accounts.
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                Err(err) => return Err(err),
            }
        }
        report.remaining_bytes = live;
        if phaselab_obs::enabled() {
            use phaselab_obs::Class::Timing;
            phaselab_obs::counter_add("cache.evicted", Timing, report.evicted_entries as u64);
            phaselab_obs::gauge_set("cache.bytes", Timing, report.remaining_bytes as f64);
            phaselab_obs::event("cache", "gc");
        }
        Ok(report)
    }

    /// Enumerates every evictable entry under the store root: one
    /// directory level of `c<fp>`/`k<fp>` groups, `.ckpt` files within.
    /// Anything else (locks, temporaries) is not a store entry
    /// and never eviction fodder.
    fn entries(&self) -> io::Result<Vec<Entry>> {
        let mut out = Vec::new();
        for group in fs::read_dir(self.dir())? {
            let group = group?;
            let name = group.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((kind, fingerprint)) = parse_group_name(name) else {
                continue;
            };
            let Ok(files) = fs::read_dir(group.path()) else {
                continue;
            };
            for file in files.flatten() {
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
                    continue;
                }
                let Ok(meta) = file.metadata() else { continue };
                out.push(Entry {
                    path,
                    fingerprint,
                    kind,
                    bytes: meta.len(),
                    mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                });
            }
        }
        Ok(out)
    }
}

/// Runs `mutate` while holding the `O_EXCL` lock file `lock`, so two
/// processes cannot interleave their passes. A lock file older than
/// `stale_after` is presumed abandoned by a crashed holder and broken.
///
/// # Errors
///
/// `WouldBlock` when a live lock stayed in place for all of `wait`;
/// otherwise whatever the lock-file creation produced.
fn with_mutation_lock<T>(
    lock: &Path,
    stale_after: Duration,
    wait: Duration,
    mutate: impl FnOnce() -> T,
) -> io::Result<T> {
    let deadline = Instant::now() + wait;
    loop {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(lock)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                let out = mutate();
                let _ = fs::remove_file(lock);
                return Ok(out);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let abandoned = fs::metadata(lock)
                    .and_then(|m| m.modified())
                    .map_or(true, |t| t.elapsed().is_ok_and(|a| a > stale_after));
                if abandoned {
                    let _ = fs::remove_file(lock);
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "store mutation lock busy",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Parses a fingerprint group directory name (`c<16 hex>` or
/// `k<16 hex>`).
fn parse_group_name(name: &str) -> Option<(EntryKind, u64)> {
    let (kind, hex) = match name.split_at_checked(1)? {
        ("c", rest) => (EntryKind::Benchmark, rest),
        ("k", rest) => (EntryKind::Clustering, rest),
        _ => return None,
    };
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(|fp| (kind, fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::BenchCharacterization;
    use crate::checkpoint::BenchOutcome;
    use phaselab_mica::{FeatureVector, NUM_FEATURES};
    use phaselab_workloads::Suite;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("phaselab-cache-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir).expect("temp store")
    }

    fn outcome(salt: f64) -> BenchOutcome {
        let mut v = [0.0f64; NUM_FEATURES];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as f64 + salt) * 0.25;
        }
        BenchOutcome::Characterized(BenchCharacterization {
            per_input: vec![vec![FeatureVector::from_slice(&v); 2]],
            total_instructions: 1000,
        })
    }

    fn names() -> [&'static str; 4] {
        ["alpha", "beta", "gamma", "delta"]
    }

    fn fill(store: &CheckpointStore, fp: u64) {
        for (i, name) in names().iter().enumerate() {
            store.store_benchmark(fp, Suite::Bmw, name, &outcome(i as f64));
        }
    }

    #[test]
    fn stats_count_entries_and_bytes_by_kind() {
        let store = temp_store("stats");
        let empty = store.stats().expect("stats");
        assert_eq!(empty, CacheStats::default());
        fill(&store, 0xAB);
        let stats = store.stats().expect("stats");
        assert_eq!(stats.bench_entries, 4);
        assert_eq!(stats.clustering_entries, 0);
        assert!(stats.bench_bytes > 0);
        assert_eq!(stats.fingerprints, 1);
        assert_eq!(stats.total_entries(), 4);
        assert_eq!(stats.total_bytes(), stats.bench_bytes);
    }

    #[test]
    fn gc_evicts_oldest_first_down_to_the_budget() {
        let store = temp_store("gc");
        fill(&store, 0xCD);
        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 4);
        // Age the entries deterministically: alpha oldest, delta newest.
        for (i, name) in names().iter().enumerate() {
            let path = store.benchmark_path(0xCD, Suite::Bmw, name);
            let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i as u64);
            let f = fs::File::options().append(true).open(&path).expect("open");
            f.set_times(fs::FileTimes::new().set_modified(t))
                .expect("set mtime");
        }
        let per_entry = entries[0].bytes;
        let total = per_entry * 4;
        // Budget for two entries: the two oldest must go.
        let report = store.gc(total - 2 * per_entry).expect("gc");
        assert_eq!(report.evicted_entries, 2);
        assert_eq!(report.evicted_bytes, 2 * per_entry);
        assert_eq!(report.remaining_bytes, 2 * per_entry);
        assert!(store.load_benchmark(0xCD, Suite::Bmw, "alpha").is_none());
        assert!(store.load_benchmark(0xCD, Suite::Bmw, "beta").is_none());
        assert!(store.load_benchmark(0xCD, Suite::Bmw, "gamma").is_some());
        assert!(store.load_benchmark(0xCD, Suite::Bmw, "delta").is_some());
    }

    #[test]
    fn gc_to_zero_clears_the_store_and_its_group_dirs() {
        let store = temp_store("gc-zero");
        fill(&store, 0x11);
        fill(&store, 0x22);
        let report = store.gc(0).expect("gc");
        assert_eq!(report.evicted_entries, 8);
        assert_eq!(report.remaining_bytes, 0);
        assert!(!store.dir().join(format!("c{:016x}", 0x11)).exists());
        let stats = store.stats().expect("stats");
        assert_eq!(stats.total_entries(), 0);
    }

    #[test]
    fn group_names_parse_strictly() {
        assert_eq!(
            parse_group_name("c00000000000000ab"),
            Some((EntryKind::Benchmark, 0xAB))
        );
        assert_eq!(
            parse_group_name("k00000000000000cd"),
            Some((EntryKind::Clustering, 0xCD))
        );
        assert_eq!(parse_group_name("x0000000000000001"), None);
        assert_eq!(parse_group_name("c123"), None);
        assert_eq!(parse_group_name("leases"), None);
        assert_eq!(parse_group_name("pins"), None);
    }

    #[test]
    fn a_live_lock_blocks_and_a_stale_one_is_broken() {
        let store = temp_store("lock");
        let lock = store.dir().join("test.lock");
        let short = Duration::from_millis(50);
        fs::write(&lock, "1\n").expect("fresh lock");
        let busy = with_mutation_lock(&lock, Duration::from_hours(1), short, || ());
        assert_eq!(
            busy.expect_err("fresh lock").kind(),
            io::ErrorKind::WouldBlock
        );
        assert!(lock.exists(), "a live lock is never removed");

        let old = SystemTime::now() - Duration::from_mins(1);
        fs::File::options()
            .append(true)
            .open(&lock)
            .expect("open lock")
            .set_times(fs::FileTimes::new().set_modified(old))
            .expect("age lock");
        let ran = with_mutation_lock(&lock, short, short, || 7).expect("stale lock broken");
        assert_eq!(ran, 7);
        assert!(!lock.exists(), "the lock is released after the pass");
    }
}
