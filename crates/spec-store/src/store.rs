//! The on-disk artifact store: fingerprint-keyed, versioned, checksummed.
//!
//! ## File format
//!
//! Every artifact file is a fixed 44-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SPECARTF"
//! 8       4     format version (u32 LE)
//! 12      8     key fingerprint (u64 LE) — also the file name
//! 20      8     options/schema signature (u64 LE)
//! 28      8     payload length in bytes (u64 LE)
//! 36      8     FNV-1a checksum of the payload (u64 LE)
//! 44      …     payload
//! ```
//!
//! Files are named `<fingerprint-hex>.artifact` inside the store directory.
//! Writes go to a unique temp file first and are renamed into place, so
//! readers (including other processes sharing the directory) only ever see
//! complete files.  A file that fails any validation step is *quarantined*
//! by renaming it to `<name>.rejected` — it stops being served immediately,
//! but stays on disk for postmortems until GC removes it.
//!
//! ## GC
//!
//! [`ArtifactStore::gc`] enforces an optional byte budget by recency, the
//! same policy shape the in-memory session cache uses: entries are sorted by
//! (mtime, size, name) and the oldest are removed until the store fits.
//! Loads refresh the file mtime so recently used artifacts survive.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Magic bytes identifying an artifact file.
pub const ARTIFACT_MAGIC: &[u8; 8] = b"SPECARTF";

/// Current artifact format version.
///
/// Bump this whenever the encoding of any serialized type changes shape;
/// stores written by older versions then read as [`RejectReason::Version`]
/// and fall back to a cold prepare instead of decoding garbage.
pub const ARTIFACT_FORMAT_VERSION: u32 = 2;

/// Header length in bytes.
pub const ARTIFACT_HEADER_LEN: usize = 44;

/// File extension of valid artifacts.
const ARTIFACT_EXT: &str = "artifact";

/// Suffix appended to quarantined files.
const REJECTED_SUFFIX: &str = ".rejected";

/// FNV-1a 64-bit hash, the same function the structural fingerprint uses.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Why a stored artifact was rejected instead of loaded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The file is shorter than the header or than the declared payload.
    Truncated,
    /// The magic bytes do not match.
    Magic,
    /// The format version is not the current one.
    Version(u32),
    /// The header fingerprint disagrees with the requested fingerprint.
    Fingerprint,
    /// The options/schema signature disagrees with the requested one.
    Signature,
    /// The payload checksum does not match the header.
    Checksum,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Truncated => write!(f, "truncated file"),
            RejectReason::Magic => write!(f, "bad magic"),
            RejectReason::Version(found) => write!(
                f,
                "format version {found} (expected {ARTIFACT_FORMAT_VERSION})"
            ),
            RejectReason::Fingerprint => write!(f, "fingerprint mismatch"),
            RejectReason::Signature => write!(f, "options signature mismatch"),
            RejectReason::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

/// Parsed artifact file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArtifactHeader {
    /// Format version the file was written with.
    pub version: u32,
    /// Fingerprint the artifact is keyed by.
    pub fingerprint: u64,
    /// Options/schema signature of the writing build.
    pub signature: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// Result of a store lookup.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The artifact was found and validated; here is its payload.
    Loaded(Vec<u8>),
    /// No file exists for the fingerprint.
    Missing,
    /// A file existed but failed validation and was quarantined.
    Rejected(RejectReason),
}

/// A store entry as listed on disk.
#[derive(Clone, Debug)]
pub struct StoreEntry {
    /// Fingerprint parsed from the file name.
    pub fingerprint: u64,
    /// Total file size (header + payload) in bytes.
    pub file_bytes: u64,
    /// Path of the artifact file.
    pub path: PathBuf,
}

/// One row of [`ArtifactStore::verify`]: the listed entry paired with its
/// validated payload, or the reason the file would be rejected.
pub type VerifiedEntry = (StoreEntry, Result<Vec<u8>, RejectReason>);

/// Result of a GC pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Artifact files removed to satisfy the byte budget.
    pub evicted: u64,
    /// Quarantined/temp leftovers removed.
    pub junk_removed: u64,
    /// Bytes of artifact files remaining after the pass.
    pub remaining_bytes: u64,
}

/// Content-addressed on-disk artifact store.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
}

/// Process-wide sequence for unique temp-file names (same idiom as the
/// rendered-report store).
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl ArtifactStore {
    /// Opens (without touching the filesystem yet) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            max_bytes: None,
        }
    }

    /// Sets the byte budget enforced by [`ArtifactStore::gc`] (and after
    /// every save).  `None` means unbounded.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Path of the artifact file for `fingerprint`.
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.{ARTIFACT_EXT}"))
    }

    /// Atomically writes an artifact, then enforces the byte budget.
    ///
    /// Returns the total number of bytes written (header + payload).
    pub fn save(&self, fingerprint: u64, signature: u64, payload: &[u8]) -> io::Result<u64> {
        let written = self.save_without_gc(fingerprint, signature, payload)?;
        let _ = self.gc();
        Ok(written)
    }

    /// The write half of [`ArtifactStore::save`], without the budget pass —
    /// for callers that account the write and the GC separately (the
    /// telemetry layer times them as distinct operations).  Callers that
    /// skip [`ArtifactStore::gc`] afterwards may leave the store over
    /// budget until the next save.
    pub fn save_without_gc(
        &self,
        fingerprint: u64,
        signature: u64,
        payload: &[u8],
    ) -> io::Result<u64> {
        fs::create_dir_all(&self.dir)?;
        let mut file = Vec::with_capacity(ARTIFACT_HEADER_LEN + payload.len());
        file.extend_from_slice(ARTIFACT_MAGIC);
        file.extend_from_slice(&ARTIFACT_FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&fingerprint.to_le_bytes());
        file.extend_from_slice(&signature.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv64(payload).to_le_bytes());
        file.extend_from_slice(payload);

        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{fingerprint:016x}.tmp.{}.{seq}",
            std::process::id()
        ));
        fs::write(&tmp, &file)?;
        let final_path = self.path_for(fingerprint);
        if let Err(err) = fs::rename(&tmp, &final_path) {
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        Ok(file.len() as u64)
    }

    /// Looks up the artifact for `(fingerprint, signature)`.
    ///
    /// A validated hit refreshes the file's mtime (recency for GC).  A file
    /// that fails validation is quarantined and reported as
    /// [`LoadOutcome::Rejected`]; the caller should fall back to a cold
    /// prepare.
    pub fn load(&self, fingerprint: u64, signature: u64) -> LoadOutcome {
        let path = self.path_for(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return LoadOutcome::Missing,
            Err(_) => return LoadOutcome::Missing,
        };
        match parse_artifact(&bytes, Some(fingerprint), Some(signature)) {
            Ok((_, payload)) => {
                if let Ok(file) = fs::File::open(&path) {
                    let _ = file.set_times(fs::FileTimes::new().set_modified(SystemTime::now()));
                }
                LoadOutcome::Loaded(payload.to_vec())
            }
            Err(reason) => {
                self.quarantine(&path);
                LoadOutcome::Rejected(reason)
            }
        }
    }

    /// Quarantines the artifact for `fingerprint` (e.g. after a payload that
    /// passed the checksum still failed to decode).
    pub fn reject(&self, fingerprint: u64) {
        self.quarantine(&self.path_for(fingerprint));
    }

    fn quarantine(&self, path: &Path) {
        let mut name = path.as_os_str().to_os_string();
        name.push(REJECTED_SUFFIX);
        if fs::rename(path, &name).is_err() {
            // Renaming failed (e.g. read-only dir entry race); fall back to
            // removal so the bad file can never be served again.
            let _ = fs::remove_file(path);
        }
    }

    /// Lists artifact files, sorted by fingerprint.
    pub fn entries(&self) -> io::Result<Vec<StoreEntry>> {
        let mut out = Vec::new();
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(err) => return Err(err),
        };
        for entry in dir {
            let entry = entry?;
            let path = entry.path();
            let Some(fingerprint) = artifact_fingerprint_of(&path) else {
                continue;
            };
            let meta = entry.metadata()?;
            out.push(StoreEntry {
                fingerprint,
                file_bytes: meta.len(),
                path,
            });
        }
        out.sort_by_key(|e| e.fingerprint);
        Ok(out)
    }

    /// Validates every artifact file without quarantining anything.
    ///
    /// Returns each entry paired with its validated payload or the reason it
    /// would be rejected.
    pub fn verify(&self) -> io::Result<Vec<VerifiedEntry>> {
        let mut out = Vec::new();
        for entry in self.entries()? {
            let result = match fs::read(&entry.path) {
                Ok(bytes) => parse_artifact(&bytes, Some(entry.fingerprint), None)
                    .map(|(_, payload)| payload.to_vec()),
                Err(_) => Err(RejectReason::Truncated),
            };
            out.push((entry, result));
        }
        Ok(out)
    }

    /// Removes quarantined/temp leftovers, then evicts artifacts by recency
    /// until the store fits its byte budget.
    pub fn gc(&self) -> io::Result<GcStats> {
        let mut stats = GcStats::default();
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(stats),
            Err(err) => return Err(err),
        };
        let mut artifacts: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        for entry in dir {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_artifact = artifact_fingerprint_of(&path).is_some();
            let is_junk = name.ends_with(REJECTED_SUFFIX) || name.contains(".tmp.");
            if is_junk {
                if fs::remove_file(&path).is_ok() {
                    stats.junk_removed += 1;
                }
                continue;
            }
            if is_artifact {
                let meta = entry.metadata()?;
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                artifacts.push((mtime, meta.len(), path));
            }
        }
        let mut total: u64 = artifacts.iter().map(|(_, len, _)| len).sum();
        if let Some(budget) = self.max_bytes {
            // Oldest first; ties broken by size then path for determinism.
            artifacts.sort();
            let mut victims = artifacts.iter();
            while total > budget {
                let Some((_, len, path)) = victims.next() else {
                    break;
                };
                if fs::remove_file(path).is_ok() {
                    total -= len;
                    stats.evicted += 1;
                }
            }
        }
        stats.remaining_bytes = total;
        Ok(stats)
    }
}

/// Parses and validates an artifact file.
///
/// `expect_fingerprint`/`expect_signature` of `None` skip that check (used
/// by `verify`, which has no options signature to compare against).
pub fn parse_artifact(
    bytes: &[u8],
    expect_fingerprint: Option<u64>,
    expect_signature: Option<u64>,
) -> Result<(ArtifactHeader, &[u8]), RejectReason> {
    if bytes.len() < ARTIFACT_HEADER_LEN {
        return Err(RejectReason::Truncated);
    }
    if &bytes[0..8] != ARTIFACT_MAGIC {
        return Err(RejectReason::Magic);
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let header = ArtifactHeader {
        version: u32_at(8),
        fingerprint: u64_at(12),
        signature: u64_at(20),
        payload_len: u64_at(28),
        checksum: u64_at(36),
    };
    if header.version != ARTIFACT_FORMAT_VERSION {
        return Err(RejectReason::Version(header.version));
    }
    if expect_fingerprint.is_some_and(|fp| fp != header.fingerprint) {
        return Err(RejectReason::Fingerprint);
    }
    if expect_signature.is_some_and(|sig| sig != header.signature) {
        return Err(RejectReason::Signature);
    }
    let payload = &bytes[ARTIFACT_HEADER_LEN..];
    if payload.len() as u64 != header.payload_len {
        return Err(RejectReason::Truncated);
    }
    if fnv64(payload) != header.checksum {
        return Err(RejectReason::Checksum);
    }
    Ok((header, payload))
}

/// Parses the fingerprint out of an artifact file name, or `None` for files
/// that are not well-formed artifacts (temp files, quarantined files, ...).
fn artifact_fingerprint_of(path: &Path) -> Option<u64> {
    if path.extension()?.to_str()? != ARTIFACT_EXT {
        return None;
    }
    let stem = path.file_stem()?.to_str()?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "spec-store-test-{label}-{}-{}",
                std::process::id(),
                STORE_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_then_load_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let store = ArtifactStore::new(&tmp.0);
        let payload = b"hello artifact".to_vec();
        store.save(0xabc, 7, &payload).unwrap();
        match store.load(0xabc, 7) {
            LoadOutcome::Loaded(bytes) => assert_eq!(bytes, payload),
            other => panic!("expected load, got {other:?}"),
        }
    }

    #[test]
    fn missing_and_mismatched_lookups() {
        let tmp = TempDir::new("mismatch");
        let store = ArtifactStore::new(&tmp.0);
        assert!(matches!(store.load(1, 1), LoadOutcome::Missing));
        store.save(2, 5, b"x").unwrap();
        // Wrong signature: rejected and quarantined.
        match store.load(2, 6) {
            LoadOutcome::Rejected(RejectReason::Signature) => {}
            other => panic!("expected signature reject, got {other:?}"),
        }
        // Quarantine means the next lookup misses.
        assert!(matches!(store.load(2, 5), LoadOutcome::Missing));
    }

    #[test]
    fn corruption_is_detected_and_quarantined() {
        let tmp = TempDir::new("corrupt");
        let store = ArtifactStore::new(&tmp.0);
        store.save(3, 1, b"some payload bytes").unwrap();
        store.save(4, 1, b"another payload").unwrap();
        store.save(5, 1, b"versioned").unwrap();

        // Flip one payload byte.
        let path = store.path_for(3);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(3, 1),
            LoadOutcome::Rejected(RejectReason::Checksum)
        ));

        // Truncation.
        let path = store.path_for(4);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            store.load(4, 1),
            LoadOutcome::Rejected(RejectReason::Truncated)
        ));

        // Stale version.
        let path = store.path_for(5);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(ARTIFACT_FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(5, 1),
            LoadOutcome::Rejected(RejectReason::Version(_))
        ));

        // All three quarantined files are junk-collected.
        let stats = store.gc().unwrap();
        assert_eq!(stats.junk_removed, 3);
        assert_eq!(store.entries().unwrap().len(), 0);
    }

    #[test]
    fn gc_enforces_byte_budget_by_recency() {
        let tmp = TempDir::new("gc");
        let payload = vec![0u8; 100];
        let unbounded = ArtifactStore::new(&tmp.0);
        for fp in 0..4u64 {
            unbounded.save(fp, 1, &payload).unwrap();
        }
        // Touch artifact 0 so it is the most recent.
        let old = SystemTime::now() - std::time::Duration::from_secs(3600);
        for fp in 1..4u64 {
            let file = fs::File::open(unbounded.path_for(fp)).unwrap();
            file.set_times(fs::FileTimes::new().set_modified(old))
                .unwrap();
        }
        // Budget for two files of 144 bytes each.
        let store = ArtifactStore::new(&tmp.0).with_max_bytes(Some(290));
        let stats = store.gc().unwrap();
        assert_eq!(stats.evicted, 2);
        assert!(stats.remaining_bytes <= 290);
        assert!(store.path_for(0).exists(), "most recent survives");
        let survivors = store.entries().unwrap().len();
        assert_eq!(survivors, 2);
    }

    #[test]
    fn verify_reports_without_quarantining() {
        let tmp = TempDir::new("verify");
        let store = ArtifactStore::new(&tmp.0);
        store.save(10, 1, b"good").unwrap();
        store.save(11, 1, b"bad").unwrap();
        let path = store.path_for(11);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let results = store.verify().unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].1.is_ok());
        assert_eq!(results[1].1, Err(RejectReason::Checksum));
        // Both files are still listed afterwards.
        assert_eq!(store.entries().unwrap().len(), 2);
    }
}
