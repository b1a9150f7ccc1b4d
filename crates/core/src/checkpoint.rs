//! Crash-safe persistence of completed study work.
//!
//! Long studies lose everything to a crash, a Ctrl-C, or one runaway
//! benchmark. This module gives the pipeline a durable store: each
//! per-benchmark characterization and each completed k-means restart is
//! written to disk the moment it finishes, and
//! [`run_study_resumable`](crate::run_study_resumable) reloads whatever
//! is already there instead of recomputing it. Because every persisted
//! `f64` round-trips through its exact bit pattern, a resumed study is
//! **bit-identical** to an uninterrupted one.
//!
//! # On-disk format
//!
//! One artifact per file, framed like `phaselab-trace`'s streams
//! (little-endian, magic-tagged, versioned) plus a CRC so torn or
//! bit-rotted files are detected rather than trusted:
//!
//! ```text
//! "PLCK" | version u32 | kind u8 | fingerprint u64 | payload_len u64 | payload | crc32(payload)
//! ```
//!
//! Files are written to a temporary sibling and atomically renamed into
//! place, so a crash mid-write can only ever leave a `.tmp` file behind,
//! never a half-written checkpoint under its real name.
//!
//! # Fingerprints
//!
//! Artifacts are keyed by a fingerprint of exactly the configuration
//! that determines their content: characterizations by (format version,
//! MICA feature revision, scale, interval length, per-run cap, watchdog
//! budget); clusterings by
//! (format version, k, iteration cap, seed, and the bits of the matrix
//! being clustered). The fingerprint is part of the directory name, so
//! studies with different configurations coexist in one store — an
//! ablation sweep reuses whatever stages it genuinely shares — and it is
//! repeated inside the file as a defense against moved files.
//!
//! # Failure policy
//!
//! Loads never fail the study: any unreadable, corrupt, stale, or
//! mismatched checkpoint is skipped with a one-line warning and the
//! artifact is recomputed (and rewritten). Stores are best-effort for
//! the same reason — a full disk degrades to recomputation, not to a
//! crash.

use std::fmt;
use std::fs;
use std::io::{self};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use phaselab_mica::{FeatureVector, FEATURE_REVISION, NUM_FEATURES};
use phaselab_stats::{Clustering, KmeansConfig, Matrix, Rows};
use phaselab_vm::{VerifyError, VmError};
use phaselab_workloads::{Scale, Suite};

use crate::characterize::BenchCharacterization;
use crate::config::{AnalysisMode, StudyConfig};
use crate::error::{QuarantineCause, QuarantinedBenchmark};
use crate::faults::{self, FaultPlan, Injector};

const MAGIC: &[u8; 4] = b"PLCK";
/// Bumped whenever the payload encodings change; older files are
/// skipped (and rewritten), never misread.
const VERSION: u32 = 2;
const KIND_BENCH: u8 = 1;
const KIND_CLUSTERING: u8 = 2;
/// Frame bytes before the payload: magic, version, kind, fingerprint,
/// payload length.
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 8;

/// Why a checkpoint file could not be used.
///
/// Every variant is recoverable: the loader warns once and recomputes.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with the `PLCK` magic.
    BadMagic,
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the file.
        found: u32,
    },
    /// The file holds a different kind of artifact than expected.
    WrongKind {
        /// The kind tag found in the file.
        found: u8,
    },
    /// The file's embedded fingerprint does not match the
    /// configuration asking for it (e.g. a file copied between stores).
    FingerprintMismatch {
        /// The fingerprint the caller derived from its configuration.
        expected: u64,
        /// The fingerprint found in the file.
        found: u64,
    },
    /// The file ends before its declared payload does.
    Truncated,
    /// The payload's CRC32 does not match — the bytes rotted or were
    /// torn mid-write.
    CrcMismatch,
    /// The payload decodes to something structurally invalid (bad tag,
    /// impossible length, NaN where the pipeline guarantees none).
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a phaselab checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (expected {VERSION})"
                )
            }
            CheckpointError::WrongKind { found } => {
                write!(f, "unexpected checkpoint kind {found}")
            }
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "configuration fingerprint mismatch (expected {expected:016x}, found {found:016x})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::CrcMismatch => write!(f, "checkpoint payload failed its CRC check"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The persisted outcome of characterizing one benchmark: either its
/// feature matrices or the reason it was quarantined.
///
/// Quarantines are persisted too, so a resume neither re-runs a
/// benchmark that already faulted nor forgets that it faulted — the
/// resumed study's quarantine list matches the uninterrupted one.
#[derive(Debug, Clone)]
pub enum BenchOutcome {
    /// The benchmark characterized cleanly.
    Characterized(BenchCharacterization),
    /// The benchmark was quarantined (fault or runaway).
    Quarantined(QuarantinedBenchmark),
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-8.

/// `CRC32_TABLES[0][b]` is the CRC of byte value `b`;
/// `CRC32_TABLES[k][b]` is the CRC of `b` followed by `k` zero bytes,
/// so eight lookups advance the CRC over eight bytes at once. Fixed at
/// compile time.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC32 of `bytes`: eight bytes per step, then the tail bytewise.
/// The same checksum as the bytewise loop (`crc32_bytewise`, kept as the
/// test oracle).
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The one-byte-per-step table loop [`crc32`] must match.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Fingerprints (FNV-1a 64).

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over bytes and little-endian `u64`s: store keys and fault
/// decisions.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }
    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

fn scale_code(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 0,
        Scale::Small => 1,
        Scale::Full => 2,
    }
}

fn analysis_code(mode: AnalysisMode) -> u64 {
    match mode {
        AnalysisMode::InRam => 0,
        AnalysisMode::Streaming => 1,
    }
}

/// Fingerprint of everything that determines a benchmark's
/// characterization — format version, the MICA
/// [`FEATURE_REVISION`], workload scale, interval length,
/// per-run instruction cap, and the watchdog budget — plus the
/// analysis mode.
///
/// The mode doesn't change what a benchmark computes, but it changes
/// what a checkpoint is *for*: a streaming run consumes the store as its
/// only source of feature rows, so it never picks up outcomes written by
/// an in-RAM run — a mismatched store just looks empty. A constant `1`
/// follows the mode where the retired shard count (always 1 for a
/// single-process study) was hashed, so existing stores keep their keys.
///
/// Deliberately excludes sampling, clustering, and GA settings — two
/// studies differing only in those share characterizations. The
/// execution engine is excluded too: both engines are bit-identical, so
/// a study checkpointed under one engine resumes exactly under the
/// other.
pub fn characterization_fingerprint(cfg: &StudyConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(VERSION as u64)
        .u64(u64::from(FEATURE_REVISION))
        .u64(scale_code(cfg.scale))
        .u64(cfg.interval_len)
        .u64(cfg.max_instructions_per_run);
    match cfg.max_inst_per_bench {
        None => h.u64(0),
        Some(b) => h.u64(1).u64(b),
    };
    h.u64(analysis_code(cfg.analysis)).u64(1);
    h.0
}

/// Fingerprint of everything that determines one k-means restart:
/// format version, k, the iteration cap, the clustering seed, and the
/// exact bits of the rows being clustered, in row order. An
/// [`IndexedRows`](phaselab_stats::IndexedRows) space hashes as its
/// expansion: the key depends on the rows, not on how they are stored.
///
/// Thread and restart counts are excluded — neither changes what
/// restart `r` computes, so a deeper-restart rerun reuses the restarts
/// it shares with a shallower one.
pub fn clustering_fingerprint(cfg: &KmeansConfig, space: &impl Rows) -> u64 {
    let mut h = Fnv::new();
    h.u64(VERSION as u64)
        .u64(cfg.k as u64)
        .u64(cfg.max_iters as u64)
        .u64(cfg.seed)
        // Constant term where a mini-batch setting was once hashed, so
        // existing stores' clustering entries keep their keys.
        .u64(0)
        .u64(space.rows() as u64)
        .u64(space.cols() as u64);
    for r in 0..space.rows() {
        for &v in space.row(r) {
            h.u64(v.to_bits());
        }
    }
    h.0
}

// ---------------------------------------------------------------------
// Payload encoding/decoding.

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Exact bit pattern — the round-trip is the identity on every
    /// finite value. NaNs are rejected *before* encoding reaches here.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads a length prefix counting items of `item_size` bytes,
    /// rejecting counts the remaining buffer cannot possibly hold (so a
    /// corrupt length can never trigger a huge allocation).
    fn len(&mut self, item_size: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if item_size > 0 && n > remaining / item_size as u64 {
            return Err(CheckpointError::Malformed("impossible length prefix"));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed("non-UTF-8 string"))
    }
    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed("trailing bytes after payload"))
        }
    }
}

fn suite_code(suite: Suite) -> u8 {
    match suite {
        Suite::SpecInt2000 => 0,
        Suite::SpecFp2000 => 1,
        Suite::SpecInt2006 => 2,
        Suite::SpecFp2006 => 3,
        Suite::BioPerf => 4,
        Suite::Bmw => 5,
        Suite::MediaBench2 => 6,
    }
}

fn suite_from_code(code: u8) -> Result<Suite, CheckpointError> {
    Suite::ALL
        .into_iter()
        .find(|&s| suite_code(s) == code)
        .ok_or(CheckpointError::Malformed("unknown suite code"))
}

fn encode_vm_error(e: &VmError, enc: &mut Enc) {
    match *e {
        VmError::MemOutOfBounds { pc, addr, size } => {
            enc.u8(0);
            enc.u32(pc);
            enc.u64(addr);
            enc.u8(size);
        }
        VmError::PcOutOfRange { pc } => {
            enc.u8(1);
            enc.u32(pc);
        }
        VmError::CallStackOverflow => enc.u8(2),
        VmError::CallStackUnderflow { pc } => {
            enc.u8(3);
            enc.u32(pc);
        }
    }
}

fn decode_vm_error(dec: &mut Dec) -> Result<VmError, CheckpointError> {
    Ok(match dec.u8()? {
        0 => VmError::MemOutOfBounds {
            pc: dec.u32()?,
            addr: dec.u64()?,
            size: dec.u8()?,
        },
        1 => VmError::PcOutOfRange { pc: dec.u32()? },
        2 => VmError::CallStackOverflow,
        3 => VmError::CallStackUnderflow { pc: dec.u32()? },
        _ => return Err(CheckpointError::Malformed("unknown VM error tag")),
    })
}

fn encode_verify_error(e: &VerifyError, enc: &mut Enc) {
    match e {
        VerifyError::InvalidTarget {
            pc,
            instr,
            target,
            code_len,
        } => {
            enc.u8(0);
            enc.u32(*pc);
            enc.str(instr);
            enc.u32(*target);
            enc.u32(*code_len);
        }
        VerifyError::NoIndirectTargets { pc, instr } => {
            enc.u8(1);
            enc.u32(*pc);
            enc.str(instr);
        }
        VerifyError::FallsOffEnd { pc, instr } => {
            enc.u8(2);
            enc.u32(*pc);
            enc.str(instr);
        }
        VerifyError::OutOfBoundsAccess {
            pc,
            instr,
            addr,
            size,
            mem_size,
        } => {
            enc.u8(3);
            enc.u32(*pc);
            enc.str(instr);
            enc.u64(*addr);
            enc.u8(*size);
            enc.u64(*mem_size);
        }
        VerifyError::UninitRead { pc, instr, reg } => {
            enc.u8(4);
            enc.u32(*pc);
            enc.str(instr);
            enc.str(reg);
        }
        VerifyError::Unreachable { pc, instr } => {
            enc.u8(5);
            enc.u32(*pc);
            enc.str(instr);
        }
        VerifyError::NoHaltReachable { pc, instr } => {
            enc.u8(6);
            enc.u32(*pc);
            enc.str(instr);
        }
        VerifyError::RetWithoutCall { pc, instr } => {
            enc.u8(7);
            enc.u32(*pc);
            enc.str(instr);
        }
        VerifyError::CallDepthExceeded {
            pc,
            instr,
            depth,
            limit,
        } => {
            enc.u8(8);
            enc.u32(*pc);
            enc.str(instr);
            enc.u64(*depth);
            enc.u64(*limit);
        }
    }
}

fn decode_verify_error(dec: &mut Dec) -> Result<VerifyError, CheckpointError> {
    let tag = dec.u8()?;
    let pc = dec.u32()?;
    let instr = dec.str()?;
    Ok(match tag {
        0 => VerifyError::InvalidTarget {
            pc,
            instr,
            target: dec.u32()?,
            code_len: dec.u32()?,
        },
        1 => VerifyError::NoIndirectTargets { pc, instr },
        2 => VerifyError::FallsOffEnd { pc, instr },
        3 => VerifyError::OutOfBoundsAccess {
            pc,
            instr,
            addr: dec.u64()?,
            size: dec.u8()?,
            mem_size: dec.u64()?,
        },
        4 => VerifyError::UninitRead {
            pc,
            instr,
            reg: dec.str()?,
        },
        5 => VerifyError::Unreachable { pc, instr },
        6 => VerifyError::NoHaltReachable { pc, instr },
        7 => VerifyError::RetWithoutCall { pc, instr },
        8 => VerifyError::CallDepthExceeded {
            pc,
            instr,
            depth: dec.u64()?,
            limit: dec.u64()?,
        },
        _ => return Err(CheckpointError::Malformed("unknown verify error tag")),
    })
}

fn encode_bench_outcome(outcome: &BenchOutcome) -> Result<Vec<u8>, CheckpointError> {
    let mut enc = Enc::new();
    match outcome {
        BenchOutcome::Characterized(c) => {
            enc.u8(0);
            enc.u64(c.per_input.len() as u64);
            for input in &c.per_input {
                enc.u64(input.len() as u64);
                for fv in input {
                    for &v in fv.as_slice() {
                        if v.is_nan() {
                            return Err(CheckpointError::Malformed(
                                "NaN in characterization matrix",
                            ));
                        }
                        enc.f64(v);
                    }
                }
            }
            enc.u64(c.total_instructions);
        }
        BenchOutcome::Quarantined(q) => {
            enc.u8(1);
            enc.str(&q.name);
            enc.u8(suite_code(q.suite));
            enc.u64(q.input as u64);
            enc.str(&q.input_name);
            match &q.cause {
                QuarantineCause::Fault(e) => {
                    enc.u8(0);
                    encode_vm_error(e, &mut enc);
                }
                QuarantineCause::Runaway { budget } => {
                    enc.u8(1);
                    enc.u64(*budget);
                }
                QuarantineCause::StaticallyInvalid(e) => {
                    enc.u8(2);
                    encode_verify_error(e, &mut enc);
                }
            }
        }
    }
    Ok(enc.buf)
}

fn decode_bench_outcome(payload: &[u8]) -> Result<BenchOutcome, CheckpointError> {
    let mut dec = Dec::new(payload);
    let outcome = match dec.u8()? {
        0 => {
            let n_inputs = dec.len(8)?;
            let mut per_input = Vec::with_capacity(n_inputs);
            for _ in 0..n_inputs {
                let n_intervals = dec.len(NUM_FEATURES * 8)?;
                let mut features = Vec::with_capacity(n_intervals);
                let mut values = [0.0f64; NUM_FEATURES];
                for _ in 0..n_intervals {
                    for v in &mut values {
                        *v = dec.f64()?;
                        if v.is_nan() {
                            return Err(CheckpointError::Malformed(
                                "NaN in characterization matrix",
                            ));
                        }
                    }
                    features.push(FeatureVector::from_slice(&values));
                }
                per_input.push(features);
            }
            let total_instructions = dec.u64()?;
            BenchOutcome::Characterized(BenchCharacterization {
                per_input,
                total_instructions,
            })
        }
        1 => {
            let name = dec.str()?;
            let suite = suite_from_code(dec.u8()?)?;
            let input = dec.u64()? as usize;
            let input_name = dec.str()?;
            let cause = match dec.u8()? {
                0 => QuarantineCause::Fault(decode_vm_error(&mut dec)?),
                1 => QuarantineCause::Runaway { budget: dec.u64()? },
                2 => QuarantineCause::StaticallyInvalid(decode_verify_error(&mut dec)?),
                _ => return Err(CheckpointError::Malformed("unknown quarantine cause tag")),
            };
            BenchOutcome::Quarantined(QuarantinedBenchmark {
                name,
                suite,
                input,
                input_name,
                cause,
            })
        }
        _ => return Err(CheckpointError::Malformed("unknown outcome tag")),
    };
    dec.finish()?;
    Ok(outcome)
}

fn encode_clustering(c: &Clustering) -> Result<Vec<u8>, CheckpointError> {
    let mut enc = Enc::new();
    enc.u64(c.assignments.len() as u64);
    for &a in &c.assignments {
        enc.u64(a as u64);
    }
    enc.u64(c.centroids.rows() as u64);
    enc.u64(c.centroids.cols() as u64);
    for row in c.centroids.iter_rows() {
        for &v in row {
            if v.is_nan() {
                return Err(CheckpointError::Malformed("NaN in centroid"));
            }
            enc.f64(v);
        }
    }
    enc.u64(c.sizes.len() as u64);
    for &s in &c.sizes {
        enc.u64(s as u64);
    }
    if c.inertia.is_nan() || c.bic.is_nan() {
        return Err(CheckpointError::Malformed("NaN clustering score"));
    }
    enc.f64(c.inertia);
    enc.f64(c.bic);
    Ok(enc.buf)
}

fn decode_clustering(payload: &[u8]) -> Result<Clustering, CheckpointError> {
    let mut dec = Dec::new(payload);
    let n = dec.len(8)?;
    let mut assignments = Vec::with_capacity(n);
    for _ in 0..n {
        assignments.push(dec.u64()? as usize);
    }
    let rows = dec.len(0)?;
    let cols = dec.len(0)?;
    let cells = rows
        .checked_mul(cols)
        .filter(|&c| c * 8 <= payload.len())
        .ok_or(CheckpointError::Malformed("impossible centroid shape"))?;
    let mut data = Vec::with_capacity(cells);
    for _ in 0..cells {
        let v = dec.f64()?;
        if v.is_nan() {
            return Err(CheckpointError::Malformed("NaN in centroid"));
        }
        data.push(v);
    }
    let centroids = Matrix::from_vec(rows, cols, data);
    let k = dec.len(8)?;
    if k != rows {
        return Err(CheckpointError::Malformed("cluster count != centroid rows"));
    }
    let mut sizes = Vec::with_capacity(k);
    for _ in 0..k {
        sizes.push(dec.u64()? as usize);
    }
    let inertia = dec.f64()?;
    let bic = dec.f64()?;
    if inertia.is_nan() || bic.is_nan() {
        return Err(CheckpointError::Malformed("NaN clustering score"));
    }
    dec.finish()?;
    Ok(Clustering {
        assignments,
        centroids,
        sizes,
        inertia,
        bic,
    })
}

// ---------------------------------------------------------------------
// Framing.

fn frame(kind: u8, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

fn unframe(bytes: &[u8], kind: u8, fingerprint: u64) -> Result<&[u8], CheckpointError> {
    let mut dec = Dec::new(bytes);
    if dec.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = dec.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let found_kind = dec.u8()?;
    if found_kind != kind {
        return Err(CheckpointError::WrongKind { found: found_kind });
    }
    let found_fp = dec.u64()?;
    if found_fp != fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            expected: fingerprint,
            found: found_fp,
        });
    }
    // A payload length beyond the bytes present means the frame was cut
    // short (possibly a short read), not that it is malformed: `take`
    // reports it as `Truncated`, which the read path retries.
    let len = usize::try_from(dec.u64()?).map_err(|_| CheckpointError::Truncated)?;
    let payload = dec.take(len)?;
    let crc = dec.u32()?;
    dec.finish()?;
    if crc32(payload) != crc {
        return Err(CheckpointError::CrcMismatch);
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// The store.

/// Keeps only filename-safe characters so benchmark names map to
/// predictable paths on every filesystem.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A directory of checkpoint files: one CRC-checked, versioned frame per
/// benchmark characterization or k-means restart, grouped by
/// configuration fingerprint. Loads never fail a study: an unusable file
/// is skipped with a warning and its artifact recomputed.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// The fault injector this handle's reads, writes and renames go
    /// through; `None` means plain `std::fs` calls.
    faults: Option<Arc<Injector>>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory, armed with the
    /// `PHASELAB_FAULTS` plan if the environment sets a valid one.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let plan = faults::env_plan().cloned().unwrap_or_default();
        Ok(CheckpointStore { dir, faults: None }.with_faults(plan))
    }

    /// This handle with `plan`'s faults injected into its I/O, replacing
    /// any plan it had. A no-op plan leaves the handle without an
    /// injector. Clones share the injector and its `max` budget.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_noop()).then(|| Arc::new(Injector::new(plan)));
        self
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint for one benchmark's characterization
    /// under the given configuration fingerprint.
    pub fn benchmark_path(&self, fingerprint: u64, suite: Suite, name: &str) -> PathBuf {
        self.dir.join(format!("c{fingerprint:016x}")).join(format!(
            "bench-{}-{}.ckpt",
            suite_code(suite),
            sanitize(name)
        ))
    }

    /// Path of the checkpoint for one completed k-means restart under
    /// the given clustering fingerprint.
    pub fn clustering_path(&self, fingerprint: u64, restart: usize) -> PathBuf {
        self.dir
            .join(format!("k{fingerprint:016x}"))
            .join(format!("restart-{restart}.ckpt"))
    }

    fn write(&self, path: &Path, kind: u8, fingerprint: u64, payload: &[u8]) {
        let result: io::Result<()> = (|| {
            let parent = path.parent().expect("checkpoint paths have a parent");
            fs::create_dir_all(parent)?;
            let tmp = path.with_extension("ckpt.tmp");
            let bytes = frame(kind, fingerprint, payload);
            if let Some(inj) = &self.faults {
                inj.write(&self.dir, &tmp, &bytes)?;
                inj.rename(&self.dir, &tmp, path)
            } else {
                fs::write(&tmp, &bytes)?;
                fs::rename(&tmp, path)
            }
        })();
        if let Err(e) = result {
            phaselab_obs::counter_add("checkpoint.write_errors", phaselab_obs::Class::Timing, 1);
            eprintln!(
                "[phaselab] warning: could not write checkpoint {}: {e}",
                path.display()
            );
        }
    }

    /// How many times a transient-looking read failure (`EINTR`, or a
    /// frame that arrives truncated — possibly a short read) is retried
    /// before the file is classified as corruption-and-recompute.
    const READ_RETRIES: u32 = 3;

    fn read(&self, path: &Path, kind: u8, fingerprint: u64) -> Option<Vec<u8>> {
        let mut last_err: Option<CheckpointError> = None;
        for attempt in 0..=Self::READ_RETRIES {
            if attempt > 0 {
                phaselab_obs::counter_add(
                    "checkpoint.read_retries",
                    phaselab_obs::Class::Timing,
                    1,
                );
            }
            let read = match &self.faults {
                Some(inj) => inj.read(&self.dir, path),
                None => fs::read(path),
            };
            let bytes = match read {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    // The canonical transient failure: retry, bounded.
                    last_err = Some(CheckpointError::Io(e));
                    continue;
                }
                Err(e) => {
                    warn_skip(path, &CheckpointError::Io(e));
                    return None;
                }
            };
            match unframe(&bytes, kind, fingerprint) {
                Ok(payload) => return Some(payload.to_vec()),
                Err(e @ (CheckpointError::Truncated | CheckpointError::CrcMismatch)) => {
                    // A truncated or CRC-failing frame may be a short
                    // read rather than rot on disk; re-read before
                    // giving up on the file.
                    last_err = Some(e);
                }
                Err(e) => {
                    warn_skip(path, &e);
                    return None;
                }
            }
        }
        warn_skip(
            path,
            &last_err.expect("retry loop only exits with an error recorded"),
        );
        None
    }

    /// Persists the outcome of characterizing one benchmark.
    ///
    /// Best-effort: a write failure (or an outcome violating the
    /// NaN-free invariant) warns and leaves the previous state intact.
    pub fn store_benchmark(
        &self,
        fingerprint: u64,
        suite: Suite,
        name: &str,
        outcome: &BenchOutcome,
    ) {
        let path = self.benchmark_path(fingerprint, suite, name);
        match encode_bench_outcome(outcome) {
            Ok(payload) => self.write(&path, KIND_BENCH, fingerprint, &payload),
            Err(e) => warn_skip(&path, &e),
        }
    }

    /// Loads a benchmark's persisted outcome, or `None` if absent or
    /// unusable (warned, never fatal).
    pub fn load_benchmark(
        &self,
        fingerprint: u64,
        suite: Suite,
        name: &str,
    ) -> Option<BenchOutcome> {
        let path = self.benchmark_path(fingerprint, suite, name);
        let Some(payload) = self.read(&path, KIND_BENCH, fingerprint) else {
            record_lookup(false);
            return None;
        };
        match decode_bench_outcome(&payload) {
            Ok(outcome) => {
                record_lookup(true);
                touch(&path);
                Some(outcome)
            }
            Err(e) => {
                warn_skip(&path, &e);
                record_lookup(false);
                None
            }
        }
    }

    /// Persists one completed k-means restart. Best-effort, like
    /// [`store_benchmark`](CheckpointStore::store_benchmark).
    pub fn store_clustering(&self, fingerprint: u64, restart: usize, clustering: &Clustering) {
        let path = self.clustering_path(fingerprint, restart);
        match encode_clustering(clustering) {
            Ok(payload) => self.write(&path, KIND_CLUSTERING, fingerprint, &payload),
            Err(e) => warn_skip(&path, &e),
        }
    }

    /// Loads one persisted k-means restart, or `None` if absent or
    /// unusable (warned, never fatal).
    pub fn load_clustering(&self, fingerprint: u64, restart: usize) -> Option<Clustering> {
        let path = self.clustering_path(fingerprint, restart);
        let Some(payload) = self.read(&path, KIND_CLUSTERING, fingerprint) else {
            record_lookup(false);
            return None;
        };
        match decode_clustering(&payload) {
            Ok(c) => {
                record_lookup(true);
                touch(&path);
                Some(c)
            }
            Err(e) => {
                warn_skip(&path, &e);
                record_lookup(false);
                None
            }
        }
    }
}

/// Counts one cache lookup. Timing-class by contract: warmth is
/// operational luck (a resumed run hits where a fresh one misses), so
/// the tallies live under `timings.counters` and never perturb the
/// structural manifest.
fn record_lookup(hit: bool) {
    let name = if hit { "cache.hit" } else { "cache.miss" };
    phaselab_obs::counter_add(name, phaselab_obs::Class::Timing, 1);
}

/// Best-effort LRU bookkeeping: bumps the entry's modification time so
/// size-budget eviction ([`CheckpointStore::gc`]) evicts least-recently-*used*
/// entries, not merely least-recently-written ones. Failure is ignored —
/// recency decay only makes eviction slightly less fair.
fn touch(path: &Path) {
    if let Ok(f) = fs::File::options().append(true).open(path) {
        let now = std::time::SystemTime::now();
        let _ = f.set_times(fs::FileTimes::new().set_accessed(now).set_modified(now));
    }
}

fn warn_skip(path: &Path, err: &CheckpointError) {
    phaselab_obs::counter_add("checkpoint.invalid", phaselab_obs::Class::Timing, 1);
    eprintln!(
        "[phaselab] warning: ignoring checkpoint {}: {err}",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("phaselab-ckpt-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir).expect("temp store")
    }

    fn sample_characterization() -> BenchCharacterization {
        let mut v = [0.0f64; NUM_FEATURES];
        for (i, x) in v.iter_mut().enumerate() {
            *x = (i as f64 + 0.5) * 0.125 - 2.0;
        }
        BenchCharacterization {
            per_input: vec![
                vec![FeatureVector::from_slice(&v); 3],
                vec![FeatureVector::zeros(); 1],
            ],
            total_instructions: 123_456,
        }
    }

    #[test]
    fn benchmark_outcome_roundtrips() {
        let store = temp_store("bench-roundtrip");
        let c = sample_characterization();
        store.store_benchmark(
            7,
            Suite::Bmw,
            "probe",
            &BenchOutcome::Characterized(c.clone()),
        );
        let loaded = store
            .load_benchmark(7, Suite::Bmw, "probe")
            .expect("present");
        let BenchOutcome::Characterized(l) = loaded else {
            panic!("wrong variant");
        };
        assert_eq!(l.per_input, c.per_input);
        assert_eq!(l.total_instructions, c.total_instructions);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn quarantine_outcome_roundtrips() {
        let store = temp_store("quarantine-roundtrip");
        let q = QuarantinedBenchmark {
            name: "bad/one".into(),
            suite: Suite::SpecFp2006,
            input: 2,
            input_name: "ref".into(),
            cause: QuarantineCause::Runaway { budget: 99 },
        };
        store.store_benchmark(1, q.suite, &q.name, &BenchOutcome::Quarantined(q.clone()));
        let loaded = store.load_benchmark(1, q.suite, &q.name).expect("present");
        let BenchOutcome::Quarantined(l) = loaded else {
            panic!("wrong variant");
        };
        assert_eq!(l, q);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn vm_fault_cause_roundtrips_every_variant() {
        for err in [
            VmError::MemOutOfBounds {
                pc: 3,
                addr: 1 << 40,
                size: 8,
            },
            VmError::PcOutOfRange { pc: 17 },
            VmError::CallStackOverflow,
            VmError::CallStackUnderflow { pc: 5 },
        ] {
            let mut enc = Enc::new();
            encode_vm_error(&err, &mut enc);
            let mut dec = Dec::new(&enc.buf);
            assert_eq!(decode_vm_error(&mut dec).expect("decodes"), err);
        }
    }

    #[test]
    fn verify_error_cause_roundtrips_every_variant() {
        let variants = [
            VerifyError::InvalidTarget {
                pc: 3,
                instr: "j @99".into(),
                target: 99,
                code_len: 10,
            },
            VerifyError::NoIndirectTargets {
                pc: 1,
                instr: "jr r5".into(),
            },
            VerifyError::FallsOffEnd {
                pc: 9,
                instr: "nop".into(),
            },
            VerifyError::OutOfBoundsAccess {
                pc: 4,
                instr: "ld r1, 0(r2)".into(),
                addr: 1 << 40,
                size: 8,
                mem_size: 4096,
            },
            VerifyError::UninitRead {
                pc: 0,
                instr: "mv r1, r2".into(),
                reg: "r2".into(),
            },
            VerifyError::Unreachable {
                pc: 7,
                instr: "halt".into(),
            },
            VerifyError::NoHaltReachable {
                pc: 0,
                instr: "li r1, 0".into(),
            },
            VerifyError::RetWithoutCall {
                pc: 2,
                instr: "ret".into(),
            },
            VerifyError::CallDepthExceeded {
                pc: 1,
                instr: "call @8".into(),
                depth: 65537,
                limit: 65536,
            },
        ];
        for err in variants {
            let mut enc = Enc::new();
            encode_verify_error(&err, &mut enc);
            let mut dec = Dec::new(&enc.buf);
            assert_eq!(decode_verify_error(&mut dec).expect("decodes"), err);
        }
    }

    #[test]
    fn statically_invalid_quarantine_roundtrips_through_the_store() {
        let store = temp_store("static-invalid-roundtrip");
        let q = QuarantinedBenchmark {
            name: "bad-static".into(),
            suite: Suite::Bmw,
            input: 0,
            input_name: "default".into(),
            cause: QuarantineCause::StaticallyInvalid(VerifyError::NoHaltReachable {
                pc: 0,
                instr: "li r1, 0".into(),
            }),
        };
        store.store_benchmark(7, q.suite, &q.name, &BenchOutcome::Quarantined(q.clone()));
        let loaded = store.load_benchmark(7, q.suite, &q.name).expect("present");
        let BenchOutcome::Quarantined(l) = loaded else {
            panic!("wrong variant");
        };
        assert_eq!(l, q);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_frame_cut_at_any_offset_is_truncated() {
        let payload = encode_bench_outcome(&BenchOutcome::Characterized(sample_characterization()))
            .expect("encodes");
        let bytes = frame(KIND_BENCH, 7, &payload);
        assert_eq!(
            unframe(&bytes, KIND_BENCH, 7).expect("intact"),
            &payload[..]
        );
        for cut in 0..bytes.len() {
            match unframe(&bytes[..cut], KIND_BENCH, 7) {
                Err(CheckpointError::Truncated) => {}
                other => panic!("cut at {cut} of {}: {other:?}", bytes.len()),
            }
        }
    }

    #[test]
    fn an_impossible_length_inside_a_checked_payload_is_malformed() {
        // The frame is whole and its CRC holds; the payload itself claims
        // more per-input vectors than it has bytes for.
        let mut enc = Enc::new();
        enc.u8(0); // the `Characterized` tag
        enc.u64(1 << 40);
        let bytes = frame(KIND_BENCH, 7, &enc.buf);
        let payload = unframe(&bytes, KIND_BENCH, 7).expect("frame is intact");
        match decode_bench_outcome(payload) {
            Err(CheckpointError::Malformed("impossible length prefix")) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn absent_checkpoint_is_silent_none() {
        let store = temp_store("absent");
        assert!(store.load_benchmark(0, Suite::Bmw, "ghost").is_none());
        assert!(store.load_clustering(0, 3).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn nan_payload_is_rejected_not_stored() {
        let store = temp_store("nan");
        let mut c = sample_characterization();
        c.per_input[0][0][1] = f64::NAN;
        store.store_benchmark(9, Suite::Bmw, "nan", &BenchOutcome::Characterized(c));
        assert!(!store.benchmark_path(9, Suite::Bmw, "nan").exists());
        assert!(store.load_benchmark(9, Suite::Bmw, "nan").is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn version_bump_invalidates_without_crashing() {
        let store = temp_store("version");
        store.store_benchmark(
            4,
            Suite::BioPerf,
            "old",
            &BenchOutcome::Characterized(sample_characterization()),
        );
        let path = store.benchmark_path(4, Suite::BioPerf, "old");
        let mut bytes = fs::read(&path).expect("written");
        bytes[4] = 0xFE; // version field, not covered by the payload CRC
        fs::write(&path, bytes).expect("rewritten");
        assert!(store.load_benchmark(4, Suite::BioPerf, "old").is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fingerprint_mismatch_is_skipped() {
        let store = temp_store("fingerprint");
        store.store_benchmark(
            10,
            Suite::Bmw,
            "moved",
            &BenchOutcome::Characterized(sample_characterization()),
        );
        // Simulate a file copied into the wrong fingerprint directory.
        let wrong = store.benchmark_path(11, Suite::Bmw, "moved");
        fs::create_dir_all(wrong.parent().unwrap()).unwrap();
        fs::copy(store.benchmark_path(10, Suite::Bmw, "moved"), &wrong).unwrap();
        assert!(store.load_benchmark(11, Suite::Bmw, "moved").is_none());
        assert!(store.load_benchmark(10, Suite::Bmw, "moved").is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn clustering_roundtrips_bit_exactly() {
        let store = temp_store("clustering");
        let c = Clustering {
            assignments: vec![0, 1, 1, 0],
            centroids: Matrix::from_rows(&[vec![0.25, -1.5], vec![3.75, 0.0625]]),
            sizes: vec![2, 2],
            inertia: 0.123456789,
            bic: -42.75,
        };
        store.store_clustering(77, 3, &c);
        let l = store.load_clustering(77, 3).expect("present");
        assert_eq!(l, c);
        assert_eq!(l.bic.to_bits(), c.bic.to_bits());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fingerprints_separate_configurations() {
        let a = StudyConfig::smoke();
        let mut b = a.clone();
        b.interval_len += 1;
        assert_ne!(
            characterization_fingerprint(&a),
            characterization_fingerprint(&b)
        );
        let mut c = a.clone();
        c.max_inst_per_bench = Some(1_000_000);
        assert_ne!(
            characterization_fingerprint(&a),
            characterization_fingerprint(&c)
        );
        // Sampling/clustering settings do not invalidate characterizations.
        let mut d = a.clone();
        d.k += 1;
        d.seed ^= 0x55;
        d.samples_per_benchmark += 1;
        assert_eq!(
            characterization_fingerprint(&a),
            characterization_fingerprint(&d)
        );
        // Neither does the execution engine: both produce bit-identical
        // characterizations, so a checkpoint resumes across engines.
        let mut e = a.clone();
        e.engine = crate::Engine::Inst;
        assert_eq!(
            characterization_fingerprint(&a),
            characterization_fingerprint(&e)
        );

        let m1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut m2 = m1.clone();
        m2.set(1, 1, 4.0 + 1e-12);
        let kcfg = KmeansConfig::new(2);
        assert_ne!(
            clustering_fingerprint(&kcfg, &m1),
            clustering_fingerprint(&kcfg, &m2)
        );
        assert_ne!(
            clustering_fingerprint(&kcfg, &m1),
            clustering_fingerprint(&kcfg.clone().with_seed(1), &m1)
        );
    }

    #[test]
    fn indexed_space_fingerprints_as_its_expansion() {
        // Distinct rows 0 and 2 share bits; row order is what counts.
        let distinct = Matrix::from_rows(&[vec![1.0, -0.0], vec![0.5, 2.0], vec![1.0, -0.0]]);
        let space = phaselab_stats::IndexedRows::new(distinct, vec![1, 0, 2, 1, 0]);
        let kcfg = KmeansConfig::new(2);
        let want = clustering_fingerprint(&kcfg, &space.expand());
        assert_eq!(clustering_fingerprint(&kcfg, &space), want);
        assert_eq!(clustering_fingerprint(&kcfg, &space.by_bits()), want);
        let reordered = space.with_distinct(Matrix::from_rows(&[
            vec![0.5, 2.0],
            vec![1.0, -0.0],
            vec![1.0, -0.0],
        ]));
        assert_ne!(clustering_fingerprint(&kcfg, &reordered), want);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop() {
        // Random payloads of every length from 0 to 4,100 bytes, read
        // from each of the 8 start offsets into one buffer, so the
        // eight-byte steps start at every alignment and leave every
        // tail length.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C32);
        let buf: Vec<u8> = (0..4_100 + 8)
            .map(|_| rng.random_range(0..256u16) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=4_100 {
                let payload = &buf[offset..offset + len];
                assert_eq!(
                    crc32(payload),
                    crc32_bytewise(payload),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    /// A plan that injects every write- and read-lane fault kind except
    /// crashes, often enough that a few operations show several.
    const REPLAY_PLAN: &str = "seed=5,torn=0.3,enospc=0.2,rename=0.2,eintr=0.3,shortread=0.3";

    /// Per round: (load succeeded, bytes on disk).
    type Rounds = Vec<(bool, Option<u64>)>;

    /// Two rounds of store-then-load on each named slot, in order;
    /// returns each slot's rounds, sorted by slot name.
    fn replay_outcomes(store: &CheckpointStore, slots: &[&str]) -> Vec<(String, Rounds)> {
        let mut seen: Vec<(String, Rounds)> =
            slots.iter().map(|s| (s.to_string(), Vec::new())).collect();
        for _round in 0..2 {
            for (name, rounds) in &mut seen {
                let c = sample_characterization();
                store.store_benchmark(3, Suite::Bmw, name, &BenchOutcome::Characterized(c));
                let loaded = store.load_benchmark(3, Suite::Bmw, name).is_some();
                let on_disk = fs::metadata(store.benchmark_path(3, Suite::Bmw, name))
                    .ok()
                    .map(|m| m.len());
                rounds.push((loaded, on_disk));
            }
        }
        seen.sort();
        seen
    }

    fn injected(store: &CheckpointStore) -> u64 {
        store.faults.as_ref().expect("armed").injected()
    }

    #[test]
    fn fault_decisions_do_not_depend_on_the_store_directory() {
        let plan = FaultPlan::parse(REPLAY_PLAN).expect("valid plan");
        let slots: Vec<String> = (0..8).map(|i| format!("slot-{i}")).collect();
        let slots: Vec<&str> = slots.iter().map(String::as_str).collect();
        let a = temp_store("replay-dir-a").with_faults(plan.clone());
        let b = temp_store("replay-dir-b-elsewhere").with_faults(plan);
        let seen = replay_outcomes(&a, &slots);
        assert_eq!(seen, replay_outcomes(&b, &slots));
        assert_eq!(injected(&a), injected(&b));
        assert!(injected(&a) > 0, "the plan must inject something");
        let rounds = || seen.iter().flat_map(|(_, r)| r);
        assert!(rounds().any(|&(loaded, _)| loaded));
        assert!(rounds().any(|&(loaded, _)| !loaded));
        let _ = fs::remove_dir_all(a.dir());
        let _ = fs::remove_dir_all(b.dir());
    }

    #[test]
    fn fault_decisions_do_not_depend_on_the_order_of_slots() {
        // One directory for both orders, so only the order differs.
        let plan = FaultPlan::parse(REPLAY_PLAN).expect("valid plan");
        let ab = temp_store("replay-order").with_faults(plan.clone());
        let seen = replay_outcomes(&ab, &["slot-a", "slot-b"]);
        let ba = temp_store("replay-order").with_faults(plan);
        assert_eq!(seen, replay_outcomes(&ba, &["slot-b", "slot-a"]));
        assert_eq!(injected(&ab), injected(&ba));
        assert!(injected(&ab) > 0, "the plan must inject something");
        let _ = fs::remove_dir_all(ba.dir());
    }

    /// Existing stores are keyed by these fingerprints; a change to any
    /// of these values orphans every entry already written.
    #[test]
    fn fingerprints_are_pinned_for_existing_stores() {
        let m1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let kcfg = KmeansConfig::new(2);
        assert_eq!(clustering_fingerprint(&kcfg, &m1), 0x2420_f8c2_5589_10e4);
        assert_eq!(
            clustering_fingerprint(&kcfg.with_seed(1), &m1),
            0x307f_04a2_0468_0b15
        );
        assert_eq!(
            characterization_fingerprint(&StudyConfig::smoke()),
            0x36dc_20ab_63e8_abfa
        );
        assert_eq!(
            characterization_fingerprint(&StudyConfig::paper_scaled()),
            0xd092_5d99_e2cd_9398
        );
    }
}
