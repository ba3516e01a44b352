//! Persistent prepared-program artifacts: serialize a whole analysis
//! session to disk and restore it in another process.
//!
//! A [`crate::session::PreparedProgram`] is a pure function of the program
//! plus the requests that have been run against it — every memoized artifact
//! (unrolled cores, address maps, VCFGs, fixpoint rounds) is deterministic.
//! That makes the entire session serializable: this module walks the same
//! structure the `HeapSize` accounting walks and encodes it with the
//! [`spec_store`] codec, so a server restart (or a different machine sharing
//! the artifact directory) can load warm state instead of re-preparing.
//!
//! ## Content addressing
//!
//! An artifact is addressed by the pair
//!
//! * **structural fingerprint** ([`spec_ir::fingerprint::program_fingerprint`])
//!   — names the file and keys lookups, and
//! * **options/schema signature** ([`options_signature`]) — a hash over a
//!   canonical description of the serialized traversal; any change to the
//!   shape of [`crate::AnalysisOptions`] or to this module's encoding must
//!   be reflected in the descriptor, turning stale artifacts into clean
//!   store misses instead of misdecodes.
//!
//! ## What is (not) persisted
//!
//! Cache *counters* (hits/misses/adoptions) are process statistics, not
//! session content — restored sessions start from zero, exactly like a fresh
//! prepare, so responses stay byte-identical after the timing strip.
//! Analyzer policy (the suite-thread bound) is also per-process and is
//! re-applied from the loading [`Analyzer`], not read from disk.  Every
//! memo table, rounds included, is written in key order, so the payload is
//! a pure function of the session's contents whatever the thread schedule
//! that filled it.

use std::path::PathBuf;
use std::sync::Arc;

use std::time::Instant;

use spec_ir::fingerprint::{program_fingerprint, Fingerprint};
use spec_ir::Program;
use spec_store::codec::encode_to_vec;
use spec_store::{fnv64, ArtifactStore, Codec, DecodeError, Decoder, Encoder, LoadOutcome};
use spec_telemetry::{Counter, Histogram, Registry};

use crate::session::{Analyzer, Memo, PreparedCore, PreparedProgram, Round};
use crate::state::SpecState;
use crate::summary::{summary_keys, SummaryStore};

/// Canonical description of the serialized traversal.
///
/// This string *is* the schema: [`options_signature`] hashes it, and the
/// hash rides in every artifact header.  Whenever the encoding of any
/// serialized type changes shape — a new `AnalysisOptions` knob that feeds a
/// memo key, a new field in a serialized struct, a reordered traversal —
/// edit this descriptor (or bump `spec_store::ARTIFACT_FORMAT_VERSION`), and
/// every stale artifact turns into a clean store miss.
const PREPARED_SCHEMA: &str = "prepared-v2;\
 program{name,regions{name,size_bytes,secret},blocks{id,name?,insts,term},entry};\
 amaps[(line_size,num_sets,assoc)->{line_size,num_sets,base_blocks,block_counts}];\
 cores[(unroll_loops,{max_program_insts,max_trip_count})->{analyzed,\
 unroll{unrolled_loops,skipped_loops},widen_headers,\
 block_keys[per-block summary fingerprints],\
 vcfgs[(depth_on_miss,merge)->{graph{kinds,successors,entry},sites,config}],\
 rounds[(cache,shadow,widening_delay,depth_on_hit,merge,bounds)->\
 (states{normal,spec[color->{shadow,must,may}]},solve_stats)] in key order]}";

/// The options/schema signature embedded in every artifact header.
pub fn options_signature() -> u64 {
    fnv64(PREPARED_SCHEMA.as_bytes())
}

impl Codec for SpecState {
    fn encode(&self, e: &mut Encoder) {
        self.normal.encode(e);
        self.spec.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SpecState {
            normal: Codec::decode(d)?,
            spec: Codec::decode(d)?,
        })
    }
}

impl Codec for Round {
    fn encode(&self, e: &mut Encoder) {
        self.states.encode(e);
        self.stats.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Round {
            states: Codec::decode(d)?,
            stats: Codec::decode(d)?,
        })
    }
}

impl Codec for PreparedCore {
    fn encode(&self, e: &mut Encoder) {
        self.analyzed.encode(e);
        self.unroll.encode(e);
        self.widen_headers.encode(e);
        self.block_keys.encode(e);
        in_key_order(self.vcfgs.entries()).encode(e);
        in_key_order(self.rounds.entries()).encode(e);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let analyzed: Arc<Program> = Codec::decode(d)?;
        let unroll = Codec::decode(d)?;
        let widen_headers: Vec<spec_ir::BlockId> = Codec::decode(d)?;
        if widen_headers
            .iter()
            .any(|header| header.index() >= analyzed.blocks().len())
        {
            return Err(DecodeError::Invalid("widen header out of range"));
        }

        let block_keys: Vec<u64> = Codec::decode(d)?;
        if block_keys != summary_keys(&analyzed) {
            return Err(DecodeError::Invalid(
                "summary keys do not match the analyzed program",
            ));
        }

        Ok(PreparedCore {
            analyzed,
            unroll,
            widen_headers,
            block_keys,
            // A restored core has no donor: summaries come into play only
            // when the incremental layer adopts across an edit.
            summaries: None,
            vcfgs: Memo::from_entries(Codec::decode(d)?),
            rounds: Memo::from_entries(Codec::decode(d)?),
        })
    }
}

/// A memo table's entries sorted by their keys' encoded bytes: the one
/// order every table is written in.
fn in_key_order<K: Codec, V>(mut entries: Vec<(K, V)>) -> Vec<(K, V)> {
    entries.sort_by_cached_key(|(key, _)| encode_to_vec(key));
    entries
}

/// Serializes a prepared session into a self-contained payload.
///
/// Memo tables are emitted in key order, so the payload is a deterministic
/// function of the session contents.
pub fn encode_prepared(prepared: &PreparedProgram) -> Vec<u8> {
    let mut e = Encoder::new();
    prepared.fingerprint.encode(&mut e);
    prepared.program.encode(&mut e);
    in_key_order(prepared.amaps.entries()).encode(&mut e);
    in_key_order(prepared.cores.entries()).encode(&mut e);
    e.into_bytes()
}

/// Deserializes a prepared session, applying the loading process's analyzer
/// policy (the suite-thread bound).
///
/// Fails — rather than producing an inconsistent session — if the payload is
/// malformed, if the embedded program does not hash to the embedded
/// fingerprint, or if any derived index is out of range.
pub fn decode_prepared(bytes: &[u8], analyzer: &Analyzer) -> Result<PreparedProgram, DecodeError> {
    let mut d = Decoder::new(bytes);
    let fingerprint = Fingerprint::decode(&mut d)?;
    let program = Program::decode(&mut d)?;
    if program_fingerprint(&program) != fingerprint {
        return Err(DecodeError::Invalid("program does not match fingerprint"));
    }
    let amaps = Memo::from_entries(Codec::decode(&mut d)?);
    let cores = Memo::from_entries(Codec::decode(&mut d)?);
    d.finish()?;
    Ok(PreparedProgram {
        program,
        fingerprint,
        max_suite_threads: analyzer.max_suite_threads,
        cores,
        amaps,
        // Donor adoption is a live-session act; a restored artifact starts
        // with no pending donors and zeroed summary counters, exactly like
        // a fresh prepare.
        summaries: SummaryStore::new(),
    })
}

/// Store I/O telemetry: operation latencies and payload byte counters,
/// optional on a [`PreparedStore`] (one-shot CLI runs carry none).
#[derive(Clone, Debug)]
pub struct StoreTelemetry {
    load_seconds: Histogram,
    persist_seconds: Histogram,
    gc_seconds: Histogram,
    loaded_bytes: Counter,
    persisted_bytes: Counter,
}

impl StoreTelemetry {
    /// Registers the `spec_store_io_seconds{op}` and
    /// `spec_store_io_bytes_total{op}` families on `registry` and returns
    /// the recording handles.
    pub fn registered(registry: &Registry) -> Self {
        let op_seconds = |op: &'static str| {
            registry.histogram(
                "spec_store_io_seconds",
                "Artifact-store operation latency: load, persist, gc.",
                &[("op", op)],
            )
        };
        let op_bytes = |op: &'static str| {
            registry.counter(
                "spec_store_io_bytes_total",
                "Artifact payload bytes moved, by operation.",
                &[("op", op)],
            )
        };
        Self {
            load_seconds: op_seconds("load"),
            persist_seconds: op_seconds("persist"),
            gc_seconds: op_seconds("gc"),
            loaded_bytes: op_bytes("load"),
            persisted_bytes: op_bytes("persist"),
        }
    }
}

/// An [`ArtifactStore`] specialised to prepared-program payloads: the
/// second cache tier below [`crate::incremental::SessionCache`]'s in-memory
/// entries.
#[derive(Clone, Debug)]
pub struct PreparedStore {
    store: ArtifactStore,
    signature: u64,
    telemetry: Option<StoreTelemetry>,
}

impl PreparedStore {
    /// Opens a store rooted at `dir` (created lazily on first save).
    pub fn open(dir: impl Into<PathBuf>) -> Self {
        Self {
            store: ArtifactStore::new(dir),
            signature: options_signature(),
            telemetry: None,
        }
    }

    /// Bounds the on-disk store to `bytes`, enforced by recency after every
    /// save (the disk-tier analogue of
    /// [`crate::incremental::SessionCache::max_session_bytes`]).
    pub fn max_store_bytes(mut self, bytes: u64) -> Self {
        self.store = self.store.with_max_bytes(Some(bytes));
        self
    }

    /// Attaches store I/O telemetry (builder-style, like
    /// [`PreparedStore::max_store_bytes`]).
    pub fn telemetry(mut self, telemetry: StoreTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The underlying artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Loads and deserializes the artifact for `fingerprint`, if present
    /// and valid.  Returns the restored session plus the payload size in
    /// bytes (for the load-bytes counters).  Any failure — missing file,
    /// header/checksum rejection, or a payload that fails to decode — comes
    /// back as `None`, with the offending file quarantined, so callers fall
    /// through to a cold prepare.
    pub fn load(
        &self,
        analyzer: &Analyzer,
        fingerprint: Fingerprint,
    ) -> Option<(PreparedProgram, u64)> {
        let started = Instant::now();
        match self.store.load(fingerprint.0, self.signature) {
            LoadOutcome::Loaded(payload) => {
                match decode_prepared(&payload, analyzer) {
                    Ok(prepared) => {
                        if let Some(telemetry) = &self.telemetry {
                            telemetry.load_seconds.record(started.elapsed());
                            telemetry.loaded_bytes.add(payload.len() as u64);
                        }
                        Some((prepared, payload.len() as u64))
                    }
                    Err(_) => {
                        // The checksum matched but the payload did not
                        // decode: a schema drift the signature failed to
                        // catch.  Quarantine so it is never retried.
                        self.store.reject(fingerprint.0);
                        None
                    }
                }
            }
            LoadOutcome::Missing | LoadOutcome::Rejected(_) => None,
        }
    }

    /// Serializes and atomically writes `prepared`, returning the bytes
    /// written.  GC runs (and is timed) separately from the write itself,
    /// so the persist and gc series stay distinguishable.
    pub fn save(&self, prepared: &PreparedProgram) -> std::io::Result<u64> {
        let payload = encode_prepared(prepared);
        let started = Instant::now();
        let written =
            self.store
                .save_without_gc(prepared.fingerprint().0, self.signature, &payload)?;
        if let Some(telemetry) = &self.telemetry {
            telemetry.persist_seconds.record(started.elapsed());
            telemetry.persisted_bytes.add(written);
        }
        self.note_latest(prepared.program().name(), prepared.fingerprint());
        let gc_started = Instant::now();
        let _ = self.store.gc();
        if let Some(telemetry) = &self.telemetry {
            telemetry.gc_seconds.record(gc_started.elapsed());
        }
        Ok(written)
    }

    /// Path of the name-index sidecar for `name`.  Artifacts are keyed by
    /// the name-free structural fingerprint, so after an edit nothing would
    /// connect the new program to its predecessor's artifact; the sidecar
    /// remembers, per program name, the fingerprint last persisted under
    /// it.  It is purely advisory — a stale or colliding index costs a
    /// failed donor load, never correctness.
    fn named_index_path(&self, name: &str) -> PathBuf {
        self.store
            .dir()
            .join(format!("name-{:016x}.latest", fnv64(name.as_bytes())))
    }

    /// Best-effort atomic update of the name index after a save.  The temp
    /// name carries `.tmp.` so a crashed leftover is swept by the store GC.
    fn note_latest(&self, name: &str, fingerprint: Fingerprint) {
        let path = self.named_index_path(name);
        let temp = self.store.dir().join(format!(
            "name-{:016x}.tmp.{}",
            fnv64(name.as_bytes()),
            std::process::id()
        ));
        if std::fs::write(&temp, format!("{:016x}", fingerprint.0)).is_ok()
            && std::fs::rename(&temp, &path).is_err()
        {
            let _ = std::fs::remove_file(&temp);
        }
    }

    /// The *predecessor* artifact last persisted under `name`, if it is
    /// still loadable and is not the `exclude` fingerprint itself — the
    /// cross-restart donor for compositional summary reuse.  The decoded
    /// program's name must match: the index is a 64-bit hash, so a
    /// collision must read as a miss, not a donor.
    pub(crate) fn donor(
        &self,
        analyzer: &Analyzer,
        name: &str,
        exclude: Fingerprint,
    ) -> Option<PreparedProgram> {
        let hex = std::fs::read_to_string(self.named_index_path(name)).ok()?;
        let fingerprint = u64::from_str_radix(hex.trim(), 16).ok()?;
        if fingerprint == exclude.0 {
            return None;
        }
        let (prepared, _) = self.load(analyzer, Fingerprint(fingerprint))?;
        (prepared.program().name() == name).then_some(prepared)
    }

    /// Read-only full verification of every artifact in the store — the
    /// engine of `specan artifacts verify`.  Each file goes through the
    /// complete serve-path validation chain (header, checksum, options
    /// signature, payload decode, embedded-fingerprint check) without
    /// quarantining or touching recency.  Returns one `(fingerprint,
    /// result)` row per file, sorted by fingerprint; `Ok` carries the
    /// payload size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors listing the store directory (per-file read
    /// failures are reported in the rows instead).
    pub fn verify(&self, analyzer: &Analyzer) -> std::io::Result<Vec<(u64, Result<u64, String>)>> {
        let mut out = Vec::new();
        for entry in self.store.entries()? {
            let verdict = match std::fs::read(&entry.path) {
                Err(err) => Err(format!("cannot read: {err}")),
                Ok(bytes) => match spec_store::store::parse_artifact(
                    &bytes,
                    Some(entry.fingerprint),
                    Some(self.signature),
                ) {
                    Err(reason) => Err(reason.to_string()),
                    Ok((_, payload)) => match decode_prepared(payload, analyzer) {
                        Ok(prepared) if prepared.fingerprint().0 == entry.fingerprint => {
                            Ok(payload.len() as u64)
                        }
                        Ok(_) => Err("embedded fingerprint mismatch".to_string()),
                        Err(err) => Err(format!("payload does not decode: {err}")),
                    },
                },
            };
            out.push((entry.fingerprint, verdict));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;

    use spec_cache::CacheConfig;
    use spec_ir::builder::ProgramBuilder;
    use spec_ir::{BranchSemantics, IndexExpr, MemRef};

    use super::*;
    use crate::session::{comparison_configs, CacheStats};
    use crate::AnalysisOptions;

    fn sample_program(name: &str) -> Program {
        let mut b = ProgramBuilder::new(name);
        let table = b.region("table", 4 * 64, false);
        let key = b.secret_region("key", 64);
        let entry = b.entry_block("entry");
        let hot = b.block("hot");
        let done = b.block("done");
        b.load(entry, table, IndexExpr::Const(0));
        b.data_branch(
            entry,
            vec![MemRef::at(key, 0)],
            BranchSemantics::SecretBit { bit: 0 },
            hot,
            done,
        );
        b.load(hot, table, IndexExpr::secret(64));
        b.jump(hot, done);
        b.load(done, table, IndexExpr::Const(0));
        b.ret(done);
        b.finish().unwrap()
    }

    #[test]
    fn empty_session_round_trips() {
        let program = sample_program("empty");
        let analyzer = Analyzer::new();
        let prepared = analyzer.prepare(&program);
        let bytes = encode_prepared(&prepared);
        let restored = decode_prepared(&bytes, &analyzer).unwrap();
        assert_eq!(restored.fingerprint(), prepared.fingerprint());
        assert_eq!(restored.program(), prepared.program());
    }

    #[test]
    fn populated_session_round_trips_with_equal_reports() {
        let program = sample_program("populated");
        let analyzer = Analyzer::new();
        let prepared = analyzer.prepare(&program);
        let cache = CacheConfig::fully_associative(8, 64);
        let configs = comparison_configs(cache);
        let first = prepared.run_suite(&configs).report().without_timing();

        let bytes = encode_prepared(&prepared);
        let restored = decode_prepared(&bytes, &analyzer).unwrap();
        // Restored sessions start with zeroed counters...
        assert_eq!(restored.cache_stats().total_misses(), 0);
        // ...but serve byte-identical reports without rebuilding artifacts:
        // everything is replayed from the restored memo tables.
        let second = restored.run_suite(&configs).report().without_timing();
        assert_eq!(first.to_json(), second.to_json());
        let stats = restored.cache_stats();
        assert_eq!(stats.core_misses, 0, "cores came from disk");
        assert_eq!(stats.amap_misses, 0, "amaps came from disk");
        assert_eq!(stats.vcfg_misses, 0, "vcfgs came from disk");
        assert_eq!(stats.round_misses, 0, "rounds came from disk");
    }

    #[test]
    fn encoding_is_deterministic() {
        // Bytes and counters are functions of the session contents alone,
        // whatever the number of suite threads racing to fill the tables.
        let program = sample_program("deterministic");
        let cache = CacheConfig::fully_associative(8, 64);
        let make = |threads: usize| {
            let analyzer = Analyzer::new().max_suite_threads(NonZeroUsize::new(threads).unwrap());
            let prepared = analyzer.prepare(&program);
            prepared.run_suite(&comparison_configs(cache));
            (encode_prepared(&prepared), prepared.cache_stats())
        };
        let (bytes, stats) = make(1);
        for threads in [2, 4] {
            let (other_bytes, other_stats) = make(threads);
            assert!(other_bytes == bytes, "{threads} threads: bytes differ");
            assert_eq!(other_stats, stats, "{threads} threads");
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let program = sample_program("fp");
        let analyzer = Analyzer::new();
        let prepared = analyzer.prepare(&program);
        let mut bytes = encode_prepared(&prepared);
        bytes[0] ^= 0x01; // flip a fingerprint bit
        assert!(decode_prepared(&bytes, &analyzer).is_err());
    }

    #[test]
    fn corrupt_payloads_never_panic() {
        let program = sample_program("fuzz");
        let analyzer = Analyzer::new();
        let prepared = analyzer.prepare(&program);
        prepared.run(
            &AnalysisOptions::builder()
                .cache(CacheConfig::fully_associative(8, 64))
                .build()
                .unwrap(),
        );
        let bytes = encode_prepared(&prepared);
        for cut in (0..bytes.len()).step_by(7) {
            let _ = decode_prepared(&bytes[..cut], &analyzer);
        }
        for i in (0..bytes.len()).step_by(3) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            let _ = decode_prepared(&mutated, &analyzer);
        }
    }

    #[test]
    fn restored_sessions_re_encode_byte_identically() {
        let analyzer = Analyzer::new();
        let program = sample_program("restored");
        let prepared = analyzer.prepare(&program);
        let configs = comparison_configs(CacheConfig::fully_associative(8, 64));
        let baseline = prepared.run_suite(&configs).report().without_timing();
        prepared.run(&configs[0].1);
        let bytes = encode_prepared(&prepared);
        assert!(
            prepared
                .cores
                .entries()
                .iter()
                .any(|(_, core)| core.rounds.entries().len() > 1),
            "the contract needs a multi-entry round table to be meaningful"
        );

        let restored = decode_prepared(&bytes, &analyzer).unwrap();
        assert_eq!(encode_prepared(&restored), bytes);
        // Counters describe this process's executions only: the restore is
        // not an execution, so the growth stamp sits at its origin and
        // store dirty-tracking cannot misread the restore as growth.
        assert_eq!(restored.cache_stats(), CacheStats::default());
        assert_eq!(restored.growth_stamp(), 0);

        // The restore answers byte-identically from its tables alone.
        let report = restored.run_suite(&configs).report().without_timing();
        assert_eq!(report.to_json(), baseline.to_json());
        assert_eq!(restored.growth_stamp(), 0, "every artifact was replayed");
        assert_eq!(encode_prepared(&restored), bytes);
    }

    #[test]
    fn prepared_store_round_trips_and_quarantines() {
        let dir =
            std::env::temp_dir().join(format!("spec-core-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let analyzer = Analyzer::new();
        let store = PreparedStore::open(&dir);
        let program = sample_program("stored");
        let prepared = analyzer.prepare(&program);
        let cache = CacheConfig::fully_associative(8, 64);
        let baseline = prepared
            .run_suite(&comparison_configs(cache))
            .report()
            .without_timing();
        store.save(&prepared).unwrap();

        let (restored, bytes) = store.load(&analyzer, prepared.fingerprint()).unwrap();
        assert!(bytes > 0);
        let report = restored
            .run_suite(&comparison_configs(cache))
            .report()
            .without_timing();
        assert_eq!(report.to_json(), baseline.to_json());

        // Unknown fingerprint: miss.
        assert!(store
            .load(&analyzer, Fingerprint(prepared.fingerprint().0 ^ 1))
            .is_none());

        // A different options signature rejects (and quarantines) the file.
        let mut stale = store.clone();
        stale.signature ^= 0xdead;
        assert!(stale.load(&analyzer, prepared.fingerprint()).is_none());
        assert!(store.load(&analyzer, prepared.fingerprint()).is_none());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
