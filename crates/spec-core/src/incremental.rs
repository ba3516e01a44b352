//! Incremental diff-aware sessions: re-analyze only what changed.
//!
//! [`crate::session`] amortizes artifacts across *configurations* of one
//! program; this module amortizes them across *edits* of a workload.  The
//! paper's evaluation — and any tool living inside a developer's
//! modify-and-recheck loop — analyses the same programs over and over as
//! the code evolves.
//!
//! [`SessionCache`] is the shared table behind a [`CacheSession`]: one
//! [`PreparedProgram`] per program name, matched by the structural
//! fingerprints of [`spec_ir::fingerprint`].  Its public surface is the
//! builders that configure the front ([`SessionCache::new`],
//! [`SessionCache::with_analyzer`], [`SessionCache::artifact_store`],
//! [`SessionCache::max_session_bytes`]); every resolve goes through
//! [`CacheSession::acquire`].  An unchanged program is served warm, with
//! every memoized unroll variant, address map, VCFG and fixpoint round.  An
//! edited or renamed program misses, and its commit re-prepares it through
//! the same cold path as a new program; when the region table is
//! structurally unchanged, the new session adopts the replaced entry's
//! address maps.  Editing one program of a multi-program session leaves
//! every other program's artifacts bound.  A byte budget
//! ([`SessionCache::max_session_bytes`]) evicts whole programs, least
//! recently used first, which trades re-preparation for memory but never
//! changes a result.
//!
//! Across processes, the one persistent form is the artifact store
//! ([`SessionCache::artifact_store`]): misses load prepared sessions, with
//! their memoized rounds, by fingerprint and program name, and an edited
//! program re-prepares.  `specan serve`, `specan
//! analyze --incremental` and `specan scan --session-dir` all open their
//! directory this way (the latter through [`crate::batch::run_bundle_slice`]).
//!
//! # The bit-identical guarantee
//!
//! Every reuse path returns results that serialize to **exactly the bytes**
//! a fresh analysis would produce, once the execution-describing fields
//! (wall clocks and cache counters, see [`Report::without_timing`]) are
//! stripped: a warm hit reuses values that are pure functions of the
//! (structurally unchanged) program, and recomputation shares the one
//! deterministic solver with the fresh path.  The `incremental_equivalence`
//! property suite and the `cli_incremental` tests hold this line.
//!
//! [`Report::without_timing`]: crate::session::Report::without_timing
//! [`CacheSession`]: crate::cache_session::CacheSession
//! [`CacheSession::acquire`]: crate::cache_session::CacheSession::acquire
//!
//! # Example
//!
//! ```rust
//! use spec_core::cache_session::{CacheOutcome, CacheSession};
//! use spec_core::incremental::SessionCache;
//! use spec_core::session::comparison_configs;
//! use spec_cache::CacheConfig;
//! use spec_ir::builder::ProgramBuilder;
//! use spec_ir::fingerprint::ProgramDiff;
//! use spec_ir::IndexExpr;
//!
//! let build = |offset| {
//!     let mut b = ProgramBuilder::new("tiny");
//!     let t = b.region("t", 128, false);
//!     let entry = b.entry_block("entry");
//!     b.load(entry, t, IndexExpr::Const(offset));
//!     b.ret(entry);
//!     b.finish().unwrap()
//! };
//!
//! let sessions = CacheSession::new(SessionCache::new());
//! let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
//! let first = build(0);
//! let CacheOutcome::NeedsPrepare(guard) = sessions.acquire(&first) else {
//!     unreachable!("an empty session misses");
//! };
//! let prepared = guard.prepare(&first);
//! prepared.run_suite(&configs);
//! // Re-parsing an unchanged program is served warm, rounds included...
//! assert!(matches!(sessions.acquire(&build(0)), CacheOutcome::L0Hit(_)));
//! // ...while an edit misses and re-prepares; the diff localises it.
//! let edited = build(64);
//! let diff = ProgramDiff::between(prepared.program(), &edited);
//! assert_eq!(diff.changed_blocks.len(), 1);
//! let CacheOutcome::NeedsPrepare(guard) = sessions.acquire(&edited) else {
//!     unreachable!("an edit misses");
//! };
//! guard.prepare(&edited).run_suite(&configs);
//! let stats = sessions.stats();
//! assert_eq!((stats.inserted, stats.invalidated), (1, 1));
//! assert!(stats.reconciles());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spec_ir::fingerprint::{regions_fingerprint, Fingerprint};
use spec_ir::heap::HeapSize;
use spec_ir::Program;

use crate::artifact::PreparedStore;
use crate::session::{Analyzer, PreparedProgram};

/// Sentinel for "never measured/persisted at any stamp".
const STAMP_NEVER: u64 = u64::MAX;

/// One program's slot in a [`SessionCache`].
struct SessionEntry {
    /// Structural fingerprint of the prepared program.
    fingerprint: Fingerprint,
    /// Fingerprint of the region table alone (decides address-map reuse).
    regions: Fingerprint,
    /// Monotonic use tick: bumped by every lookup, reuse and install, so a
    /// byte budget evicts the least recently *used* program first.
    tick: u64,
    prepared: Arc<PreparedProgram>,
    /// Memoized [`SessionEntry::resident_bytes`] result, valid while the
    /// prepared session's growth stamp equals `size_stamp`.  Atomics (not a
    /// plain field) because measurement happens behind `&self` on the
    /// status/stats read path.
    size_bytes: AtomicU64,
    /// The [`PreparedProgram::growth_stamp`] at which `size_bytes` was
    /// measured ([`STAMP_NEVER`] = not yet measured).
    size_stamp: AtomicU64,
    /// The growth stamp at which this entry was last written to the
    /// artifact store; `None` means never persisted by this process.
    /// Dirty tracking for [`SessionCache::persist_dirty`].
    persisted: Option<u64>,
}

impl SessionEntry {
    fn new(
        fingerprint: Fingerprint,
        regions: Fingerprint,
        tick: u64,
        prepared: Arc<PreparedProgram>,
        persisted: Option<u64>,
    ) -> Self {
        Self {
            fingerprint,
            regions,
            tick,
            prepared,
            size_bytes: AtomicU64::new(0),
            size_stamp: AtomicU64::new(STAMP_NEVER),
            persisted,
        }
    }

    /// The deterministic [`HeapSize`] estimate of everything this slot
    /// keeps alive: the slot itself, its key string, and the prepared
    /// session with every memoized artifact.
    ///
    /// The walk over the memo tables is the expensive part, and a resident
    /// entry only grows when a run populates an artifact cache — which is
    /// exactly when its [`PreparedProgram::growth_stamp`] moves.  So the
    /// measurement is memoized per stamp: entries whose caches did not grow
    /// since the last enforcement point answer from the memo, entries that
    /// did are re-walked.  The measurement function itself is unchanged, so
    /// the `session: N bytes` accounting is identical to an unmemoized
    /// re-measure.
    fn resident_bytes(&self, name: &str) -> u64 {
        let stamp = self.prepared.growth_stamp();
        if self.size_stamp.load(Ordering::Acquire) == stamp {
            return self.size_bytes.load(Ordering::Relaxed);
        }
        let bytes = (std::mem::size_of::<Self>() + name.len() + self.prepared.heap_size()) as u64;
        // Benign race: the measurement is a pure function of the stamp, so
        // concurrent writers store identical values.  Release/Acquire on
        // the stamp orders it after its bytes.
        self.size_bytes.store(bytes, Ordering::Relaxed);
        self.size_stamp.store(stamp, Ordering::Release);
        bytes
    }
}

/// Which tier served a [`SessionCache::lookup_tiered`] hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SessionTier {
    /// The in-memory entry table (a warm reuse).
    Memory,
    /// The on-disk artifact store (deserialized, now resident in memory).
    Store,
}

/// The one ledger of a session: the lifetime counters of a
/// [`SessionCache`] and of the [`CacheSession`] front over it, snapshotted
/// together by [`CacheSession::stats`] and [`CacheSession::checkpoint`].
/// Each event is counted once: the table counts structural matches,
/// installs, evictions and store traffic under its lock, and the front
/// counts acquires, L0 and L1 hits and guard outcomes.
///
/// [`CacheSession`]: crate::cache_session::CacheSession
/// [`CacheSession::stats`]: crate::cache_session::CacheSession::stats
/// [`CacheSession::checkpoint`]: crate::cache_session::CacheSession::checkpoint
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Structural L1 matches: acquires whose program name and structural
    /// fingerprint matched a resident entry.  Renamed misses (a name-exact
    /// acquire that found the structure under other names and then
    /// re-prepared) are included; L0 hits are not.
    pub reused: u64,
    /// Installs that replaced a resident entry under the same name: an
    /// edited or renamed program re-prepared, or an older version loaded
    /// back from the store.
    pub invalidated: u64,
    /// Installs under a name with no resident entry: cold commits and
    /// store loads.
    pub inserted: u64,
    /// Address-map tables a re-prepared program adopted from the entry it
    /// replaced, because the edit left the region table structurally
    /// unchanged.
    pub amaps_adopted: u64,
    /// Whole [`PreparedProgram`]s evicted by the byte budget
    /// ([`SessionCache::max_session_bytes`]), least recently used first.
    /// Replacements of an entry under the same name are *not* evictions —
    /// so `inserted - session_evictions` is the number of resident
    /// entries, the invariant the eviction-equivalence suite reconciles.
    pub session_evictions: u64,
    /// Resident bytes at snapshot time: the summed [`HeapSize`] estimate
    /// of every held entry.  After an enforcement point this never exceeds
    /// the configured budget.
    pub session_bytes: u64,
    /// Acquires answered by deserializing a prepared session from the
    /// on-disk artifact store: one per [`CacheOutcome::StoreHit`].
    ///
    /// [`CacheOutcome::StoreHit`]: crate::cache_session::CacheOutcome::StoreHit
    pub store_hits: u64,
    /// Store lookups that found no usable artifact (missing file, rejected
    /// file, or a stored program whose region or block names differ) and
    /// fell through to a cold preparation.  Zero when no store is configured.
    pub store_misses: u64,
    /// Total payload bytes deserialized across every store hit.
    pub store_loaded_bytes: u64,
    /// Acquires served from a worker's thread-local L0 tier without taking
    /// the session lock.
    pub l0_hits: u64,
    /// Acquires served warm by the shared in-memory L1 tier: structural
    /// matches whose names also matched when the acquire was name-exact.
    pub l1_hits: u64,
    /// The session's invalidation generation at snapshot time: bumped on
    /// every entry replacement and budget eviction, so lock-free L0 tiers
    /// can detect that their pinned handles may be stale without
    /// cross-thread coordination.
    pub generation: u64,
    /// Acquires of any kind, name-exact and structural.
    pub acquires: u64,
    /// Miss guards committed: cold or renamed preparations installed.
    pub prepares: u64,
    /// Miss guards dropped uncommitted (an error between acquire and
    /// commit).
    pub abandoned: u64,
}

impl SessionStats {
    /// The ledger invariant: every acquire is accounted to exactly one
    /// tier or guard outcome, `l0 + l1 + store + prepares + abandoned ==
    /// acquires`.  Holds whenever no miss guard is in flight.
    pub fn reconciles(&self) -> bool {
        self.l0_hits + self.l1_hits + self.store_hits + self.prepares + self.abandoned
            == self.acquires
    }
}

/// A multi-program analysis session that survives edits: prepared artifacts
/// are invalidated per program, by structural fingerprint, instead of being
/// discarded with every re-parse.  Configure it with the builders, then
/// wrap it in a [`CacheSession`] — see the module docs.
///
/// [`CacheSession`]: crate::cache_session::CacheSession
pub struct SessionCache {
    analyzer: Analyzer,
    entries: HashMap<String, SessionEntry>,
    stats: SessionStats,
    /// Byte budget over the summed [`HeapSize`] estimates of every entry;
    /// `None` is unbounded.
    max_bytes: Option<u64>,
    /// Monotonic source of the entries' use ticks.
    tick: u64,
    /// Invalidation generation, shared (via `Arc`) with the lock-free L0
    /// tiers fronting this cache.  Bumped on every entry replacement and
    /// eviction — the events after which an L0-pinned handle may no longer
    /// match what this cache would serve.  Fresh-name inserts do *not*
    /// bump: they cannot make any existing handle stale.
    generation: Arc<AtomicU64>,
    /// Coarse tick of the last [`SessionCache::enforce_budget`] pass that
    /// left the session within budget: `(entry count, summed growth
    /// stamps)`.  Growth stamps are monotone and resident sizes are pure
    /// functions of them, so an unchanged tick over an unchanged entry set
    /// proves the sizes did not move — the enforcement pass (sort plus
    /// re-measure) is skipped.  Cleared by every entry-set mutation.
    budget_mark: Option<(usize, u64)>,
    /// Optional on-disk tier below the in-memory entries: misses try an
    /// artifact load (keyed by fingerprint and program name) before falling
    /// back to a cold preparation, installs write through, and evictions
    /// persist dirty entries first.
    store: Option<PreparedStore>,
}

impl SessionCache {
    /// An empty session with default [`Analyzer`] settings.
    pub fn new() -> Self {
        Self::with_analyzer(Analyzer::new())
    }

    /// An empty session whose programs are prepared by `analyzer` (its
    /// suite-thread cap).
    pub fn with_analyzer(analyzer: Analyzer) -> Self {
        Self {
            analyzer,
            entries: HashMap::new(),
            stats: SessionStats::default(),
            max_bytes: None,
            tick: 0,
            generation: Arc::new(AtomicU64::new(0)),
            budget_mark: None,
            store: None,
        }
    }

    /// The analyzer this cache prepares programs with.
    pub(crate) fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// A shared handle on the invalidation generation, for lock-free L0
    /// tiers: reading it never takes the session lock, and a changed value
    /// means some entry was replaced or evicted since the reader last
    /// synchronized.
    pub(crate) fn generation_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.generation)
    }

    /// The current invalidation generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Records an event after which a previously handed-out `Arc` handle
    /// may disagree with what this cache would serve for the same name.
    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Forgets the coarse budget tick: the entry set is about to change, so
    /// the next [`SessionCache::enforce_budget`] must run a full pass.
    fn touch_entries(&mut self) {
        self.budget_mark = None;
    }

    /// Attaches an on-disk artifact store as a second tier below memory.
    /// Misses consult the store before a cold preparation, installs write
    /// through, and budget evictions persist dirty entries before dropping
    /// them.  The store never changes results: a load is accepted only when
    /// the decoded program compares equal to the requested one, and every
    /// rejected or missing artifact falls back to the cold path.
    pub fn artifact_store(mut self, store: PreparedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached artifact store, if any.
    pub(crate) fn store(&self) -> Option<&PreparedStore> {
        self.store.as_ref()
    }

    /// Bounds the session to at most `bytes` resident bytes (the
    /// deterministic [`HeapSize`] estimate — see `spec_ir::heap` for what
    /// it counts), evicting whole [`PreparedProgram`]s in least recently
    /// used order whenever an enforcement point finds the session over
    /// budget.  Enforcement points are every install (a committed miss
    /// guard or a store load) and every `CacheSession::checkpoint`, which
    /// long-running holders make after every request because running
    /// configurations grows the memoized artifacts of a resident entry.
    ///
    /// Eviction never changes results: an evicted program is simply
    /// re-prepared on its next sighting, and the one deterministic solver
    /// reproduces every artifact bit-identically.  A budget smaller than a
    /// single entry degenerates to re-preparing on every request — slow,
    /// never wrong.
    pub fn max_session_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// The configured byte budget, if any.
    pub(crate) fn budget(&self) -> Option<u64> {
        self.max_bytes
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The summed byte estimate of every resident entry, re-measured now.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(name, entry)| entry.resident_bytes(name))
            .sum()
    }

    /// Re-measures every entry and evicts the least recently used whole
    /// programs until the session fits its byte budget (a no-op without
    /// one).  Returns the number of entries evicted by this call.
    ///
    /// Measurement happens here — not at install time — because a resident
    /// entry keeps growing as requests populate its memoized unrolls,
    /// VCFGs and fixpoint rounds; budget holders therefore call this after
    /// every request, and the resident-bytes invariant holds at every
    /// request boundary.
    ///
    /// The full pass (sort every entry, re-measure the grown ones) is
    /// skipped when a coarse tick proves nothing could have changed: the
    /// entry set is untouched since the last in-budget pass and no entry's
    /// growth stamp moved, so every resident size — a pure function of the
    /// stamp — is exactly what the last pass already verified fits.
    pub(crate) fn enforce_budget(&mut self) -> u64 {
        let Some(budget) = self.max_bytes else {
            return 0;
        };
        let coarse_tick = |entries: &HashMap<String, SessionEntry>| {
            let stamps: u64 = entries
                .values()
                .map(|entry| entry.prepared.growth_stamp())
                .sum();
            (entries.len(), stamps)
        };
        if self.budget_mark == Some(coarse_tick(&self.entries)) {
            return 0;
        }
        let mut sizes: Vec<(u64, u64, String)> = self
            .entries
            .iter()
            .map(|(name, entry)| (entry.tick, entry.resident_bytes(name), name.clone()))
            .collect();
        // Oldest tick first; the most recently used entry is the last
        // eviction candidate (and is evicted too when it alone overflows
        // the budget — the bound is strict).
        sizes.sort();
        let mut resident: u64 = sizes.iter().map(|(_, bytes, _)| bytes).sum();
        let mut evicted = 0;
        for (_, bytes, name) in &sizes {
            if resident <= budget {
                break;
            }
            // An evicted entry's memoized artifacts are about to leave
            // memory; flush them to the store tier first (when one is
            // configured and the entry grew since its last write) so the
            // next sighting loads instead of re-preparing.  A failed write
            // is not an error — the cold path reproduces everything.
            if let (Some(store), Some(entry)) = (self.store.as_ref(), self.entries.get(name)) {
                if entry.persisted != Some(entry.prepared.growth_stamp()) {
                    let _ = store.save(&entry.prepared);
                }
            }
            self.entries.remove(name);
            resident -= bytes;
            evicted += 1;
        }
        if evicted > 0 {
            // Evicted handles may still be pinned by an L0 tier; bumping
            // lets those workers drop them (a memory bound, not a
            // correctness one — an evicted-but-identical handle still
            // answers byte-identically).
            self.bump_generation();
        }
        self.stats.session_evictions += evicted;
        self.budget_mark = Some(coarse_tick(&self.entries));
        evicted
    }

    /// The first half of the two-phase resolve behind
    /// `CacheSession::acquire`, run under its lock: the in-memory entry when
    /// its structural fingerprint matches (counted as a reuse), then — when
    /// an artifact store is configured — a disk load keyed by fingerprint
    /// and program name, deserialized, verified against the requested
    /// program and installed as a resident entry.  Returns which tier
    /// answered; `None` means the caller must prepare cold, outside the
    /// lock, and [`SessionCache::install`] the result.
    ///
    /// The fingerprint is name-free, so a pure rename (same structure,
    /// different region or block names) still answers from memory; a
    /// name-exact acquire compares the returned session's program itself
    /// and classifies a mismatch as a `renamed` miss.  The store, whose
    /// loads become resident entries, accepts a load only when the decoded
    /// program compares equal to `program`: a rename falls through to the
    /// cold path instead of serving stale names.
    pub(crate) fn lookup_tiered(
        &mut self,
        program: &Program,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<PreparedProgram>, SessionTier)> {
        let tick = self.next_tick();
        if let Some(entry) = self.entries.get_mut(program.name()) {
            if entry.fingerprint == fingerprint {
                self.stats.reused += 1;
                entry.tick = tick;
                return Some((entry.prepared.clone(), SessionTier::Memory));
            }
        }
        let (prepared, stamp) = self.load_from_store(program, fingerprint)?;
        let prepared = self.install_with(prepared, Some(stamp));
        Some((prepared, SessionTier::Store))
    }

    /// Attempts a store load for `program`, counting hits/misses and
    /// loaded bytes.  Returns the deserialized session plus its growth
    /// stamp (its "already persisted at" mark — the on-disk bytes are what
    /// we just read).  Does not install.
    fn load_from_store(
        &mut self,
        program: &Program,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<PreparedProgram>, u64)> {
        let store = self.store.as_ref()?;
        match store.load_named(&self.analyzer, fingerprint, program.name()) {
            Some((prepared, bytes)) if prepared.program() == program => {
                self.stats.store_hits += 1;
                self.stats.store_loaded_bytes += bytes;
                let stamp = prepared.growth_stamp();
                Some((Arc::new(prepared), stamp))
            }
            _ => {
                self.stats.store_misses += 1;
                None
            }
        }
    }

    /// Writes `prepared` to the store tier now, returning the growth stamp
    /// the write captured (`None` when no store is configured or the write
    /// failed — the entry then stays dirty for a later attempt).
    fn persist_now(&self, prepared: &PreparedProgram) -> Option<u64> {
        let store = self.store.as_ref()?;
        let stamp = prepared.growth_stamp();
        store.save(prepared).ok()?;
        Some(stamp)
    }

    /// Writes every resident entry whose memoized artifacts grew since its
    /// last store write back to the artifact store.  Long-running holders
    /// call this at request boundaries (next to
    /// [`SessionCache::enforce_budget`]) so a restart finds warm artifacts
    /// on disk.  Returns the number of entries written; a no-op without a
    /// configured store.  External holders reach it through
    /// `CacheSession::checkpoint`.
    pub(crate) fn persist_dirty(&mut self) -> u64 {
        let SessionCache { store, entries, .. } = self;
        let Some(store) = store.as_ref() else {
            return 0;
        };
        let mut wrote = 0;
        for entry in entries.values_mut() {
            let stamp = entry.prepared.growth_stamp();
            if entry.persisted == Some(stamp) {
                continue;
            }
            if store.save(&entry.prepared).is_ok() {
                entry.persisted = Some(stamp);
                wrote += 1;
            }
        }
        wrote
    }

    /// `true` iff `prepared` is the resident entry for its name (not
    /// evicted, not replaced).
    pub(crate) fn is_resident(&self, prepared: &Arc<PreparedProgram>) -> bool {
        self.entries
            .get(prepared.program().name())
            .is_some_and(|entry| Arc::ptr_eq(&entry.prepared, prepared))
    }

    /// Second half of the two-phase resolve, behind `PrepareGuard::commit`:
    /// installs an externally prepared session, replacing whatever the name
    /// currently maps to (adopting the predecessor's address maps when the
    /// region table is structurally unchanged — a rename-only replacement
    /// qualifies trivially).  Every replacement counts as an invalidation,
    /// renames included, so the counters show a re-preparation happened
    /// even when the structural fingerprint did not move.  Last-writer-wins by design: racing cold preparations of
    /// one program produce interchangeable sessions, and a name-exact
    /// acquire relies on replacement to retire an entry whose *names* went
    /// stale.
    ///
    /// With an artifact store configured the installed session is written
    /// through to disk, so a later restart loads it instead of preparing.
    pub(crate) fn install(&mut self, prepared: Arc<PreparedProgram>) -> Arc<PreparedProgram> {
        let persisted = self.persist_now(&prepared);
        self.install_with(prepared, persisted)
    }

    fn install_with(
        &mut self,
        prepared: Arc<PreparedProgram>,
        persisted: Option<u64>,
    ) -> Arc<PreparedProgram> {
        let fingerprint = prepared.fingerprint();
        let regions = regions_fingerprint(prepared.program().regions());
        let name = prepared.program().name().to_string();
        let tick = self.next_tick();
        self.touch_entries();
        match self.entries.get_mut(&name) {
            Some(entry) => {
                self.stats.invalidated += 1;
                if entry.regions == regions {
                    self.stats.amaps_adopted += prepared.adopt_address_maps(&entry.prepared);
                }
                *entry = SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted);
                // The replaced handle may still be pinned by an L0 tier —
                // and, names being part of a prepared session, may now
                // serve stale names for this key.  Fresh-name inserts skip
                // the bump: no existing handle can go stale.
                self.bump_generation();
            }
            None => {
                self.stats.inserted += 1;
                self.entries.insert(
                    name,
                    SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted),
                );
            }
        }
        self.enforce_budget();
        prepared
    }

    /// Number of programs currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The table's lifetime counters, with [`SessionStats::session_bytes`]
    /// measured at call time.  The counters the front keeps (acquires, L0
    /// and L1 hits, guard outcomes) are zero here; `CacheSession::stats`
    /// adds them.
    pub(crate) fn stats(&self) -> SessionStats {
        SessionStats {
            session_bytes: self.resident_bytes(),
            generation: self.generation(),
            ..self.stats
        }
    }
}

impl Default for SessionCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::artifact_key;
    use crate::batch::{
        run_bundle, run_bundle_slice, BatchReport, ExecMode, PanelKind, PanelSpec, ScanOutcome,
    };
    use crate::cache_session::{CacheOutcome, CacheSession};
    use crate::options::AnalysisOptions;
    use crate::session::comparison_configs;
    use spec_cache::CacheConfig;
    use spec_ir::builder::ProgramBuilder;
    use spec_ir::fingerprint::{program_fingerprint, ProgramDiff};
    use spec_ir::text::parse_program;
    use spec_ir::IndexExpr;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn program(name: &str, offset: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let t = b.region("t", 256, false);
        let k = b.secret_region("k", 8);
        let entry = b.entry_block("entry");
        b.load(entry, t, IndexExpr::Const(offset));
        b.load(entry, k, IndexExpr::Const(0));
        b.ret(entry);
        b.finish().unwrap()
    }

    /// The two-phase resolve `CacheSession::acquire` runs, without the
    /// front: a warm or stored hit, or a cold preparation installed.
    /// Returns the handle and whether the table served it.
    fn resolve(session: &mut SessionCache, program: &Program) -> (Arc<PreparedProgram>, bool) {
        match session.lookup_tiered(program, program_fingerprint(program)) {
            Some((prepared, _)) => (prepared, true),
            None => {
                let prepared = Arc::new(Analyzer::new().prepare(program));
                (session.install(prepared), false)
            }
        }
    }

    fn renamed_program() -> Program {
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_renamed", 256, false);
        let k = renamed.secret_region("k_renamed", 8);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.load(entry, k, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert_eq!(
            program_fingerprint(&renamed),
            program_fingerprint(&program("a", 0))
        );
        renamed
    }

    #[test]
    fn unchanged_programs_rebind_and_edits_invalidate() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));

        assert!(
            !session.entries.contains_key("a"),
            "first sighting has no previous snapshot"
        );
        let (a0, hit) = resolve(&mut session, &program("a", 0));
        assert!(!hit);
        a0.run_suite(&configs);
        resolve(&mut session, &program("b", 0))
            .0
            .run_suite(&configs);
        assert_eq!(session.len(), 2);

        // Re-parse of `a`, unchanged: the same session object comes back,
        // with all its memoized rounds.
        let (a1, hit) = resolve(&mut session, &program("a", 0));
        assert!(hit);
        assert!(Arc::ptr_eq(&a1, &a0));
        assert!(ProgramDiff::between(a1.program(), &program("a", 0)).is_identical());

        // Edit `a`: invalidated, diff localised; `b` is untouched.
        let diff = ProgramDiff::between(a0.program(), &program("a", 64));
        assert_eq!(diff.changed_blocks.len(), 1);
        assert!(!diff.regions_changed);
        let (a2, hit) = resolve(&mut session, &program("a", 64));
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a2, &a0));
        assert!(resolve(&mut session, &program("b", 0)).1);

        let stats = session.stats();
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.invalidated, 1);
    }

    #[test]
    fn region_preserving_edits_adopt_address_maps() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        resolve(&mut session, &program("a", 0))
            .0
            .run_suite(&configs);
        let (edited, hit) = resolve(&mut session, &program("a", 128));
        assert!(!hit);
        assert_eq!(session.stats().amaps_adopted, 1);
        // The adopted map serves the re-run without a rebuild.
        edited.run_suite(&configs);
        let stats = edited.cache_stats();
        assert_eq!(stats.amap_adopted, 1);
        assert_eq!(stats.amap_misses, 0, "no address map was rebuilt");

        // A region-table edit must not adopt.
        let mut grown = ProgramBuilder::new("a");
        let t = grown.region("t", 512, false);
        let entry = grown.entry_block("entry");
        grown.load(entry, t, IndexExpr::Const(0));
        grown.ret(entry);
        let grown = grown.finish().unwrap();
        assert!(ProgramDiff::between(edited.program(), &grown).regions_changed);
        resolve(&mut session, &grown);
        assert_eq!(session.stats().amaps_adopted, 1, "unchanged");
    }

    #[test]
    fn two_phase_resolve_adopts_maps_and_counts_rename_installs() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);
        let fingerprint = program_fingerprint(&p);
        assert!(
            session.lookup_tiered(&p, fingerprint).is_none(),
            "cold lookup misses"
        );

        let installed = session.install(Arc::new(Analyzer::new().prepare(&p)));
        installed.run_suite(&configs); // builds the address map to adopt
        assert_eq!(
            session.lookup_tiered(&p, fingerprint).map(|(_, tier)| tier),
            Some(SessionTier::Memory),
            "installed entry is warm"
        );

        // A rename-only variant: same structural fingerprint, new names.
        let renamed = renamed_program();
        let fresh = Arc::new(Analyzer::new().prepare(&renamed));
        let swapped = session.install(fresh.clone());
        assert!(Arc::ptr_eq(&swapped, &fresh), "install is last-writer-wins");
        let stats = session.stats();
        assert_eq!(stats.inserted, 1);
        assert_eq!(
            stats.invalidated, 1,
            "a same-fingerprint replacement still counts as an invalidation"
        );
        assert_eq!(stats.reused, 1, "one warm lookup");
        assert_eq!(
            stats.amaps_adopted, 1,
            "the rename left the region table structurally unchanged"
        );
        assert_eq!(swapped.cache_stats().amap_adopted, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_programs() {
        // Probe one entry's (un-run) footprint; `a`, `b` and `c` are
        // structurally identical with equal-length names, so they account
        // identically.
        let mut probe = SessionCache::new();
        resolve(&mut probe, &program("a", 0));
        let one = probe.resident_bytes();
        assert!(one > 0);
        assert_eq!(probe.stats().session_bytes, one);

        let mut session = SessionCache::new().max_session_bytes(one * 2 + one / 2);
        resolve(&mut session, &program("a", 0));
        resolve(&mut session, &program("b", 0));
        // Touching `a` demotes `b` to least recently used...
        assert!(resolve(&mut session, &program("a", 0)).1);
        // ...so the third insert evicts `b`, not `a`.
        resolve(&mut session, &program("c", 0));
        assert!(session.entries.contains_key("a"), "recently used survives");
        assert!(
            !session.entries.contains_key("b"),
            "the LRU entry is the victim"
        );
        assert!(
            session.entries.contains_key("c"),
            "the newcomer is resident"
        );
        let stats = session.stats();
        assert_eq!(stats.session_evictions, 1);
        assert_eq!(
            stats.inserted - stats.session_evictions,
            session.len() as u64,
            "installs minus evictions is the resident population"
        );
        assert!(stats.session_bytes <= one * 2 + one / 2, "the bound holds");

        // An evicted program's next sighting is a plain re-insert — never
        // a stale rebind, and with nothing kept to diff against.
        let (_, hit) = resolve(&mut session, &program("b", 0));
        assert!(!hit);
        assert_eq!(session.stats().inserted, stats.inserted + 1);
        assert_eq!(session.stats().invalidated, stats.invalidated);
    }

    #[test]
    fn store_tier_restores_sessions_across_cache_instances() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);
        let fingerprint = program_fingerprint(&p);

        // First life: cold prepare (the store has nothing), run, persist.
        let mut first = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        assert!(
            first.lookup_tiered(&p, fingerprint).is_none(),
            "empty store misses"
        );
        let installed = first.install(Arc::new(Analyzer::new().prepare(&p)));
        let baseline = installed.run_suite(&configs).report().without_timing();
        assert_eq!(first.stats().store_misses, 1);
        assert_eq!(first.stats().store_hits, 0);
        assert!(first.persist_dirty() >= 1, "grown entry is flushed");
        assert_eq!(first.persist_dirty(), 0, "second flush finds nothing dirty");

        // Second life: a fresh cache over the same directory answers from
        // disk — no preparation, warm fixpoint rounds, identical report.
        let mut second = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        let (restored, tier) = second
            .lookup_tiered(&p, fingerprint)
            .expect("store tier hit");
        assert_eq!(tier, SessionTier::Store);
        let stats = second.stats();
        assert_eq!((stats.store_hits, stats.store_misses), (1, 0));
        assert!(stats.store_loaded_bytes > 0);
        let report = restored.run_suite(&configs).report().without_timing();
        assert_eq!(report.to_json(), baseline.to_json());
        assert_eq!(
            restored.cache_stats().round_misses,
            0,
            "every fixpoint round replayed from the restored memo tables"
        );
        // The disk load is now a resident memory entry.
        assert_eq!(
            second.lookup_tiered(&p, fingerprint).unwrap().1,
            SessionTier::Memory,
            "second resolve is a warm rebind"
        );
        assert_eq!(
            second.stats().store_hits,
            1,
            "a memory hit leaves the store counter alone"
        );

        // A rename-only variant shares the fingerprint but not the names:
        // the store must not serve it.
        let renamed = renamed_program();
        let mut third = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        assert!(
            third.lookup_tiered(&renamed, fingerprint).is_none(),
            "a rename falls through to the cold path"
        );
        assert_eq!(third.stats().store_misses, 1);
    }

    #[test]
    fn budget_eviction_flushes_dirty_entries_to_the_store() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));

        // Probe one run entry's footprint so the budget holds exactly one.
        let mut probe = SessionCache::new();
        resolve(&mut probe, &program("a", 0)).0.run_suite(&configs);
        let one = probe.resident_bytes();

        let mut session = SessionCache::new()
            .max_session_bytes(one + one / 2)
            .artifact_store(PreparedStore::open(&store_dir));
        resolve(&mut session, &program("a", 0))
            .0
            .run_suite(&configs);
        // `a` has grown since its install-time write; growing `b` to the
        // same footprint pushes the session over budget, so the next
        // enforcement point evicts `a` (the LRU entry) — which must flush
        // its grown artifacts first.
        resolve(&mut session, &program("b", 0))
            .0
            .run_suite(&configs);
        session.enforce_budget();
        assert!(!session.entries.contains_key("a"), "`a` was evicted");
        assert_eq!(session.stats().session_evictions, 1);

        // Its next sighting loads the *grown* session from disk: the
        // memoized rounds replay instead of being re-solved.
        let a = program("a", 0);
        let (restored, tier) = session
            .lookup_tiered(&a, program_fingerprint(&a))
            .expect("store hit");
        assert_eq!(tier, SessionTier::Store);
        restored.run_suite(&configs);
        assert_eq!(
            restored.cache_stats().round_misses,
            0,
            "the eviction-time flush captured the memoized rounds"
        );
    }

    #[test]
    fn memoized_byte_accounting_tracks_growth() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let (prepared, _) = resolve(&mut session, &program("a", 0));
        let before = session.resident_bytes();
        assert_eq!(
            session.resident_bytes(),
            before,
            "memoized answer is stable"
        );
        prepared.run_suite(&configs);
        let after = session.resident_bytes();
        assert!(
            after > before,
            "a grown round cache invalidates the per-entry size memo"
        );
        assert_eq!(session.stats().session_bytes, after);
    }

    static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            let dir = std::env::temp_dir().join(format!(
                "spec-incremental-test-{}-{}",
                std::process::id(),
                SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn write(&self, name: &str, contents: &str) -> PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, contents).unwrap();
            path
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const CLEAN: &str = "program {name}\nregion t 64\nblock main entry:\n  load t[{off}]\n  ret\n";

    fn spec_source(name: &str, off: u64) -> String {
        CLEAN
            .replace("{name}", name)
            .replace("{off}", &off.to_string())
    }

    fn leak_panel() -> PanelSpec {
        PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 8,
        }
    }

    /// One store-backed scan of the whole of `files`.
    fn scan(files: &[PathBuf], panel: PanelSpec, store: &Path) -> ScanOutcome {
        let store = Some(PreparedStore::open(store));
        run_bundle_slice(files, 0..files.len(), panel, 1, store).unwrap()
    }

    fn fresh_scan(files: &[PathBuf], panel: PanelSpec) -> BatchReport {
        run_bundle(files, panel, 1, &ExecMode::InProcess).unwrap()
    }

    fn store_session(dir: &Path) -> CacheSession {
        CacheSession::new(SessionCache::new().artifact_store(PreparedStore::open(dir)))
    }

    #[test]
    fn incremental_scan_reuses_unchanged_programs_and_matches_fresh() {
        let scratch = Scratch::new();
        // One structure under two names: the store keys artifacts by
        // fingerprint and program name, so each keeps its own file.
        let a = scratch.write("a.spec", &spec_source("alpha", 0));
        let b = scratch.write("b.spec", &spec_source("beta", 0));
        let files = vec![a, b];
        let store = scratch.0.join("store");

        let cold = scan(&files, leak_panel(), &store);
        assert_eq!((cold.reused, cold.analyzed), (0, 2));

        // No edits: both programs load from the store, and the report is
        // byte-identical to a store-less bundle run.
        let warm = scan(&files, leak_panel(), &store);
        assert_eq!((warm.reused, warm.analyzed), (2, 0));
        let fresh = fresh_scan(&files, leak_panel());
        assert_eq!(warm.report, fresh);
        assert_eq!(warm.report.to_json(), fresh.to_json());

        // Edit one file in place: only it is prepared again; bundle order
        // holds.
        scratch.write("a.spec", &spec_source("alpha", 32));
        let edited = scan(&files, leak_panel(), &store);
        assert_eq!((edited.reused, edited.analyzed), (1, 1));
        let fresh = fresh_scan(&files, leak_panel());
        assert_eq!(edited.report.to_json(), fresh.to_json());
        let names: Vec<&str> = edited
            .report
            .programs
            .iter()
            .map(|p| p.report.program.as_str())
            .collect();
        assert_eq!(names, ["alpha", "beta"]);
    }

    #[test]
    fn panel_changes_and_corrupt_sessions_cold_start() {
        let scratch = Scratch::new();
        let files = vec![scratch.write("a.spec", &spec_source("alpha", 0))];
        let store = scratch.0.join("store");
        scan(&files, leak_panel(), &store);

        // Artifacts do not depend on the panel: another panel restores the
        // stored session, solves its own rounds and answers like a fresh
        // run, never with the leak-check verdicts.
        let other = PanelSpec {
            kind: PanelKind::Comparison,
            cache_lines: 8,
        };
        let fresh = fresh_scan(&files, other);
        let outcome = scan(&files, other, &store);
        assert_eq!((outcome.reused, outcome.analyzed), (1, 0));
        assert_eq!(outcome.report, fresh);

        // Corrupt every stored artifact: the next scan degrades to cold...
        for entry in std::fs::read_dir(&store).unwrap().flatten() {
            if entry
                .path()
                .extension()
                .is_some_and(|ext| ext == "artifact")
            {
                std::fs::write(entry.path(), "not an artifact").unwrap();
            }
        }
        let outcome = scan(&files, other, &store);
        assert_eq!((outcome.reused, outcome.analyzed), (0, 1));
        assert_eq!(outcome.report, fresh);
        // ...and the rewritten store is healthy again.
        let outcome = scan(&files, other, &store);
        assert_eq!((outcome.reused, outcome.analyzed), (1, 0));
    }

    #[test]
    fn unwritable_session_still_returns_the_report() {
        let scratch = Scratch::new();
        let a = scratch.write("a.spec", &spec_source("alpha", 0));
        // A *file* where the store directory should be: nothing can be
        // written under it, but every scan must still answer.
        let blocked = scratch.write("blocked", "not a directory");
        let fresh = fresh_scan(std::slice::from_ref(&a), leak_panel());
        for _ in 0..2 {
            let outcome = scan(std::slice::from_ref(&a), leak_panel(), &blocked);
            assert_eq!((outcome.reused, outcome.analyzed), (0, 1));
            assert_eq!(outcome.report, fresh, "the verdict survives the failure");
        }
        assert_eq!(
            std::fs::read_to_string(&blocked).unwrap(),
            "not a directory"
        );
    }

    #[test]
    fn corrupt_stored_artifacts_cold_start_instead_of_loading() {
        let scratch = Scratch::new();
        let store = scratch.0.join("store");
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);
        let first = store_session(&store);
        let CacheOutcome::NeedsPrepare(guard) = first.acquire(&p) else {
            panic!("an empty store misses");
        };
        let fresh = guard
            .prepare(&p)
            .run_suite(&configs)
            .report()
            .without_timing();
        first.checkpoint();

        // Truncate the stored artifact in place: the next acquire must
        // prepare cold, not crash or serve the damaged session, and the
        // cold session answers exactly like the first.
        let path = PreparedStore::open(&store)
            .store()
            .path_for(artifact_key(program_fingerprint(&p), p.name()));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let second = store_session(&store);
        let CacheOutcome::NeedsPrepare(guard) = second.acquire(&p) else {
            panic!("a truncated artifact must not be served");
        };
        let report = guard
            .prepare(&p)
            .run_suite(&configs)
            .report()
            .without_timing();
        assert_eq!(report.to_json(), fresh.to_json());
        assert_eq!(second.stats().store_misses, 1);
        // The commit rewrote a healthy artifact.
        assert!(matches!(
            store_session(&store).acquire(&p),
            CacheOutcome::StoreHit(_)
        ));
    }

    #[test]
    fn identical_programs_under_different_signatures_never_collide() {
        let scratch = Scratch::new();
        let store = scratch.0.join("store");
        let p = program("a", 0);
        let cache = CacheConfig::fully_associative(4, 64);
        let speculative = [(
            "run",
            AnalysisOptions::builder().cache(cache).build().unwrap(),
        )];
        let baseline = [(
            "run",
            AnalysisOptions::builder()
                .baseline()
                .cache(cache)
                .build()
                .unwrap(),
        )];
        // One program stored after a run under one configuration...
        let first = store_session(&store);
        let CacheOutcome::NeedsPrepare(guard) = first.acquire(&p) else {
            panic!("an empty store misses");
        };
        guard.prepare(&p).run_suite(&speculative);
        first.checkpoint();

        // ...and restored under another: rounds are keyed by
        // configuration, so the restored session solves its own round and
        // answers like a fresh session, never with the stored one.
        let CacheOutcome::StoreHit(restored) = store_session(&store).acquire(&p) else {
            panic!("the stored artifact loads");
        };
        let report = restored.run_suite(&baseline).report().without_timing();
        assert!(restored.cache_stats().round_misses > 0);
        let fresh = Analyzer::new().prepare(&p).run_suite(&baseline);
        assert_eq!(report.to_json(), fresh.report().without_timing().to_json());
    }

    #[test]
    fn store_loads_survive_relayout_but_not_renames() {
        // `analyze --incremental` resolves through a name-exact acquire: a
        // re-parse of the stored program's text, comments and layout
        // included, loads from the store; a rename prepares afresh.
        let scratch = Scratch::new();
        let store = scratch.0.join("store");
        let source = spec_source("alpha", 0);
        let p = parse_program(&source).unwrap();
        let first = store_session(&store);
        let CacheOutcome::NeedsPrepare(guard) = first.acquire(&p) else {
            panic!("an empty store misses");
        };
        guard.prepare(&p);

        let relaid = format!("# a comment\n\n{}", source.replace("  load", "      load"));
        let relaid = parse_program(&relaid).unwrap();
        assert!(matches!(
            store_session(&store).acquire(&relaid),
            CacheOutcome::StoreHit(_)
        ));
        let renamed = source
            .replace("region t ", "region t2 ")
            .replace("load t[", "load t2[");
        let renamed = parse_program(&renamed).unwrap();
        assert_eq!(program_fingerprint(&renamed), program_fingerprint(&p));
        assert!(matches!(
            store_session(&store).acquire(&renamed),
            CacheOutcome::NeedsPrepare(_)
        ));
    }
}
