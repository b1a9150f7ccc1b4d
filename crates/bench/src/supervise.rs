//! The shard supervisor: turns the hand-launched worker protocol of
//! `scripts/shard_smoke.sh` into a self-healing orchestrator.
//!
//! `repro --supervise N --checkpoint-dir D` spawns the N shard workers
//! as child processes and babysits them: exit codes are monitored,
//! crashed or hung workers are restarted with capped exponential
//! backoff and deterministic jitter, and a shard that keeps dying past
//! its restart budget is **salvaged** — its slice is re-run in-process
//! by the supervisor itself (checkpoint writes are idempotent and
//! content-keyed, so re-running a half-finished slice only fills in
//! what is missing). Only when even salvage fails does the study
//! abort, with a typed [`StudyError::UnrecoverableShard`] naming the
//! shard — never a quietly-partial report.
//!
//! Hang detection is two-pronged: a per-attempt wall-clock timeout
//! (`PHASELAB_SUPERVISE_TIMEOUT_MS`) catches stalled workers, and the
//! shard's lease heartbeat (written by the worker every quarter-TTL)
//! catches frozen ones — a live process whose heartbeat has gone stale
//! past twice the TTL is killed and treated as a failed attempt.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use phaselab_core::{lease, CancelToken, StudyError};

/// Everything the supervision loop needs, resolved once up front.
#[derive(Debug, Clone)]
pub struct SuperviseConfig {
    /// Number of shard workers (`cfg.shard_total`).
    pub shards: u32,
    /// The shared checkpoint store's root directory.
    pub store_dir: PathBuf,
    /// Worker argv template: the original invocation minus the
    /// experiment and supervisor-only flags; `--shard i/N` is appended
    /// per worker.
    pub worker_args: Vec<String>,
    /// Restart budget per shard (initial attempt excluded).
    pub max_restarts: u32,
    /// Per-attempt wall-clock cap before a worker is declared hung.
    pub attempt_timeout: Duration,
    /// Lease TTL; a live worker whose heartbeat is staler than twice
    /// this is declared frozen.
    pub lease_ttl: Duration,
    /// Seed for the deterministic restart jitter.
    pub seed: u64,
}

impl SuperviseConfig {
    /// Builds a config from the environment knobs:
    /// `PHASELAB_SUPERVISE_MAX_RESTARTS` (default 5),
    /// `PHASELAB_SUPERVISE_TIMEOUT_MS` (default 600000), and the lease
    /// TTL from `PHASELAB_LEASE_TTL_MS`.
    pub fn from_env(shards: u32, store_dir: PathBuf, worker_args: Vec<String>, seed: u64) -> Self {
        let env_u64 = |name: &str, default: u64| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        SuperviseConfig {
            shards,
            store_dir,
            worker_args,
            max_restarts: env_u64("PHASELAB_SUPERVISE_MAX_RESTARTS", 5) as u32,
            attempt_timeout: Duration::from_millis(env_u64(
                "PHASELAB_SUPERVISE_TIMEOUT_MS",
                600_000,
            )),
            lease_ttl: lease::default_ttl(),
            seed,
        }
    }
}

/// What the supervision loop observed, for the caller's log line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuperviseReport {
    /// Worker restarts across all shards.
    pub restarts: u32,
    /// Shards whose workers exhausted their restart budget and were
    /// re-run in-process by the supervisor.
    pub salvaged: Vec<u32>,
}

/// Per-shard supervision state.
enum ShardState {
    /// Waiting out a restart backoff (or the initial spawn).
    Pending { at: Instant, attempt: u32 },
    /// A worker process is running.
    Running {
        child: Child,
        started: Instant,
        attempt: u32,
    },
    /// The worker exited 0.
    Done,
    /// Restart budget exhausted; awaiting salvage.
    Dead { attempts: u32, last: String },
}

/// Capped exponential backoff with deterministic jitter: attempt `a`
/// (1-based) waits `min(base << (a-1), cap)` plus up to a quarter of
/// that, derived from (seed, shard, attempt) so reruns are identical.
fn backoff(seed: u64, shard: u32, attempt: u32) -> Duration {
    const BASE_MS: u64 = 100;
    const CAP_MS: u64 = 5_000;
    let exp = BASE_MS
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(CAP_MS)
        .min(CAP_MS);
    let mut state = seed ^ (u64::from(shard) << 32) ^ u64::from(attempt);
    let jitter = phaselab_par::splitmix64(&mut state) % (exp / 4 + 1);
    Duration::from_millis(exp + jitter)
}

/// Sends the polite signal first (SIGTERM on unix, so the worker can
/// flush checkpoints and release its lease), escalating to a hard kill
/// if unavailable.
fn terminate(child: &mut Child) {
    #[cfg(unix)]
    {
        let delivered = Command::new("kill")
            .arg("-TERM")
            .arg(child.id().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if delivered {
            return;
        }
    }
    let _ = child.kill();
}

/// Spawns the worker for one shard. The child inherits stdio (its
/// diagnostics interleave on stderr; shard workers write nothing to
/// stdout) and — when `PHASELAB_FAULTS_WORKER` is set — gets it as its
/// `PHASELAB_FAULTS`, so chaos can be aimed at workers while the
/// supervisor's own reduce pass stays clean.
fn spawn_worker(sup: &SuperviseConfig, shard: u32) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(&sup.worker_args)
        .arg("--shard")
        .arg(format!("{shard}/{}", sup.shards));
    if let Ok(spec) = std::env::var("PHASELAB_FAULTS_WORKER") {
        cmd.env("PHASELAB_FAULTS", spec);
    }
    cmd.spawn()
}

/// Runs the supervision loop: spawn every shard worker, restart
/// failures with backoff, declare budget-exhausted shards dead, then
/// salvage dead shards via `salvage` (in-process re-run).
///
/// # Errors
///
/// [`StudyError::Cancelled`] when `cancel` trips (workers are sent
/// SIGTERM and reaped first); [`StudyError::UnrecoverableShard`] when
/// a dead shard's salvage also fails.
pub fn supervise<F>(
    sup: &SuperviseConfig,
    cancel: &CancelToken,
    salvage: F,
) -> Result<SuperviseReport, StudyError>
where
    F: Fn(u32) -> Result<(), StudyError>,
{
    let mut report = SuperviseReport::default();
    let now = Instant::now();
    let mut states: Vec<ShardState> = (0..sup.shards)
        .map(|_| ShardState::Pending {
            at: now,
            attempt: 0,
        })
        .collect();

    loop {
        if cancel.is_cancelled() {
            shutdown_workers(&mut states);
            return Err(StudyError::Cancelled);
        }
        let mut active = false;
        for (shard, state) in states.iter_mut().enumerate() {
            let shard = shard as u32;
            match state {
                ShardState::Done | ShardState::Dead { .. } => {}
                ShardState::Pending { at, attempt } => {
                    active = true;
                    if Instant::now() >= *at {
                        let attempt = *attempt;
                        match spawn_worker(sup, shard) {
                            Ok(child) => {
                                eprintln!(
                                    "[repro] supervisor: shard {shard} worker pid {} (attempt {})",
                                    child.id(),
                                    attempt + 1
                                );
                                *state = ShardState::Running {
                                    child,
                                    started: Instant::now(),
                                    attempt,
                                };
                            }
                            Err(e) => {
                                *state = failed_attempt(
                                    sup,
                                    &mut report,
                                    shard,
                                    attempt,
                                    &format!("spawn failed: {e}"),
                                );
                            }
                        }
                    }
                }
                ShardState::Running {
                    child,
                    started,
                    attempt,
                } => {
                    active = true;
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => *state = ShardState::Done,
                        Ok(Some(status)) => {
                            let attempt = *attempt;
                            *state = failed_attempt(
                                sup,
                                &mut report,
                                shard,
                                attempt,
                                &status.to_string(),
                            );
                        }
                        Ok(None) => {
                            // Still running: hung?
                            let reason = if started.elapsed() > sup.attempt_timeout {
                                Some("timed out".to_string())
                            } else if started.elapsed() > sup.lease_ttl * 2
                                && lease::read_lease(&sup.store_dir, shard).is_some_and(|l| {
                                    l.pid == child.id() && l.is_stale(sup.lease_ttl * 2)
                                })
                            {
                                Some("heartbeat stale (worker frozen)".to_string())
                            } else {
                                None
                            };
                            if let Some(reason) = reason {
                                terminate(child);
                                let deadline = Instant::now() + Duration::from_secs(2);
                                while child.try_wait().ok().flatten().is_none()
                                    && Instant::now() < deadline
                                {
                                    std::thread::sleep(Duration::from_millis(20));
                                }
                                let _ = child.kill();
                                let _ = child.wait();
                                let attempt = *attempt;
                                *state = failed_attempt(sup, &mut report, shard, attempt, &reason);
                            }
                        }
                        Err(e) => {
                            let attempt = *attempt;
                            *state = failed_attempt(
                                sup,
                                &mut report,
                                shard,
                                attempt,
                                &format!("wait failed: {e}"),
                            );
                        }
                    }
                }
            }
        }
        if !active {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // Reassign permanently-dead shards to the survivor that cannot
    // die: the supervisor itself. Store work is idempotent, so the
    // salvage pass recomputes only what the dead workers never wrote.
    for (shard, state) in states.iter().enumerate() {
        let shard = shard as u32;
        if let ShardState::Dead { attempts, last } = state {
            if cancel.is_cancelled() {
                return Err(StudyError::Cancelled);
            }
            eprintln!(
                "[repro] supervisor: shard {shard} dead after {attempts} attempt(s) \
                 (last: {last}); salvaging in-process"
            );
            phaselab_obs::event("supervisor", &format!("salvaging shard {shard}"));
            salvage(shard).map_err(|e| StudyError::UnrecoverableShard {
                shard,
                attempts: *attempts,
                last: format!("{last}; salvage failed: {e}"),
            })?;
            report.salvaged.push(shard);
        }
    }
    Ok(report)
}

/// Records one failed attempt: restart with backoff while budget
/// remains, otherwise declare the shard dead.
fn failed_attempt(
    sup: &SuperviseConfig,
    report: &mut SuperviseReport,
    shard: u32,
    attempt: u32,
    reason: &str,
) -> ShardState {
    let attempts = attempt + 1;
    if attempt >= sup.max_restarts {
        eprintln!("[repro] supervisor: shard {shard} failed ({reason}); restart budget exhausted");
        return ShardState::Dead {
            attempts,
            last: reason.to_string(),
        };
    }
    let delay = backoff(sup.seed, shard, attempts);
    eprintln!(
        "[repro] supervisor: shard {shard} failed ({reason}); restart {attempts}/{} in {}ms",
        sup.max_restarts,
        delay.as_millis()
    );
    report.restarts += 1;
    phaselab_obs::counter_add("supervisor.restarts", phaselab_obs::Class::Timing, 1);
    phaselab_obs::event("supervisor", &format!("restarting shard {shard}: {reason}"));
    ShardState::Pending {
        at: Instant::now() + delay,
        attempt: attempts,
    }
}

/// Cancellation path: SIGTERM every running worker, give the cohort a
/// short grace window to flush, then hard-kill the stragglers.
fn shutdown_workers(states: &mut [ShardState]) {
    for state in states.iter_mut() {
        if let ShardState::Running { child, .. } = state {
            terminate(child);
        }
    }
    let deadline = Instant::now() + Duration::from_secs(3);
    for state in states.iter_mut() {
        if let ShardState::Running { child, .. } = state {
            while child.try_wait().ok().flatten().is_none() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        for shard in 0..4u32 {
            for attempt in 1..12u32 {
                let a = backoff(7, shard, attempt);
                let b = backoff(7, shard, attempt);
                assert_eq!(a, b, "jitter must be deterministic");
                let exp = 100u64.checked_shl(attempt - 1).unwrap_or(5_000).min(5_000);
                assert!(a.as_millis() as u64 >= exp);
                assert!(a.as_millis() as u64 <= exp + exp / 4);
            }
        }
        // Different shards jitter differently (not in lockstep).
        assert_ne!(backoff(7, 0, 3), backoff(7, 1, 3));
    }

    #[test]
    fn from_env_defaults_are_sane() {
        let sup = SuperviseConfig::from_env(4, PathBuf::from("/tmp/x"), vec![], 0);
        assert_eq!(sup.shards, 4);
        assert!(sup.max_restarts >= 1);
        assert!(sup.attempt_timeout >= Duration::from_secs(1));
    }
}
