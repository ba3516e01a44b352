//! Incremental diff-aware sessions: re-analyze only what changed.
//!
//! [`crate::session`] amortizes artifacts across *configurations* of one
//! program; this module amortizes them across *edits* of a workload.  The
//! paper's evaluation — and any tool living inside a developer's
//! modify-and-recheck loop — analyses the same programs over and over as
//! the code evolves, and before this module every edit threw the whole
//! session away.
//!
//! [`SessionCache`] is built on the structural fingerprints of
//! [`spec_ir::fingerprint`].  It holds one
//! [`PreparedProgram`] per program name; [`SessionCache::update`]
//! fingerprints the newly parsed program and either **rebinds** the
//! previous session wholesale (fingerprint unchanged: every memoized
//! unroll variant, address map, VCFG and fixpoint round survives) or
//! re-prepares it, reporting *where* the program changed as a
//! [`ProgramDiff`] and rebinding the address maps whenever the edit left
//! the region table untouched (the memory layout is a pure function of the
//! regions).  In a multi-program session, editing one program leaves every
//! other program's artifacts bound — the [`SessionStats`] counters prove
//! it.  A long-lived holder bounds the session with
//! [`SessionCache::max_session_bytes`]: resident entries are byte-accounted
//! through [`spec_ir::heap::HeapSize`] and whole programs are evicted
//! least-recently-used first, which trades re-preparation for memory but
//! never changes a result.
//!
//! Across processes, the one persistent form is the artifact store
//! ([`SessionCache::artifact_store`]): misses load prepared sessions, with
//! their memoized rounds, by fingerprint, and an edited program is seeded
//! from the artifact last stored under its name.  `specan serve`, `specan
//! analyze --incremental` and `specan scan --session-dir` all open their
//! directory this way (the latter through [`crate::batch::run_bundle_slice`]).
//!
//! # The bit-identical guarantee
//!
//! Every reuse path returns results that serialize to **exactly the bytes**
//! a fresh analysis would produce, once the execution-describing fields
//! (wall clocks and cache counters, see [`Report::without_timing`]) are
//! stripped: rebinding reuses values that are pure functions of the
//! (structurally unchanged) program, and recomputation shares the one
//! deterministic solver with the fresh path.  The `incremental_equivalence`
//! property suite and the `cli_incremental` tests hold this line.
//!
//! [`Report::without_timing`]: crate::session::Report::without_timing
//!
//! # Example
//!
//! ```rust
//! use spec_core::incremental::SessionCache;
//! use spec_core::session::comparison_configs;
//! use spec_cache::CacheConfig;
//! use spec_ir::builder::ProgramBuilder;
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
//! let mut session = SessionCache::new();
//! let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
//! let first = session.update(&build(0));
//! first.prepared.run_suite(&configs);
//! // Re-parsing an unchanged program rebinds the whole session...
//! assert!(session.update(&build(0)).reused);
//! // ...while an edit re-prepares it and localises the change.
//! let edited = session.update(&build(64));
//! assert!(!edited.reused);
//! assert_eq!(edited.diff.unwrap().changed_blocks.len(), 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spec_ir::fingerprint::{program_fingerprint, regions_fingerprint, Fingerprint, ProgramDiff};
use spec_ir::heap::HeapSize;
use spec_ir::Program;

use crate::artifact::PreparedStore;
use crate::session::{Analyzer, CacheStats, PreparedProgram};

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
pub enum SessionTier {
    /// The in-memory entry table (a warm reuse).
    Memory,
    /// The on-disk artifact store (deserialized, now resident in memory).
    Store,
}

/// Lifetime counters of a [`SessionCache`] — the evidence that an edit to
/// one program did not disturb the others.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Updates that rebound an existing session wholesale (fingerprint
    /// unchanged — renames and formatting included).
    pub reused: u64,
    /// Updates that re-prepared a program because its structure changed.
    pub invalidated: u64,
    /// Updates that introduced a program the session had not seen.
    pub inserted: u64,
    /// Address-map tables rebound across an invalidation because the edit
    /// left the region table structurally unchanged.
    pub amaps_adopted: u64,
    /// Whole [`PreparedProgram`]s evicted by the byte budget
    /// ([`SessionCache::max_session_bytes`]), least recently used first.
    /// Replacements of an entry under the same name are *not* evictions —
    /// so `inserted - session_evictions` (minus explicit removals) is the
    /// number of resident entries, the invariant the eviction-equivalence
    /// suite reconciles.
    pub session_evictions: u64,
    /// Resident bytes at snapshot time: the summed [`HeapSize`] estimate
    /// of every held entry.  After an enforcement point this never exceeds
    /// the configured budget.
    pub session_bytes: u64,
    /// Cache misses answered by deserializing a prepared session from the
    /// on-disk artifact store instead of a cold preparation.
    pub store_hits: u64,
    /// Store lookups that found no usable artifact (missing file, rejected
    /// file, or a fingerprint collision under different names) and fell
    /// through to a cold preparation.  Zero when no store is configured.
    pub store_misses: u64,
    /// Total payload bytes deserialized across every store hit.
    pub store_loaded_bytes: u64,
    /// Acquires served from a worker's thread-local L0 tier without taking
    /// the session lock (see [`crate::cache_session::CacheSession`]).  Zero
    /// for sessions driven directly, without a `CacheSession` front.
    pub l0_hits: u64,
    /// Acquires served by the shared in-memory L1 tier (a warm rebind under
    /// the lock) through a `CacheSession`.  Zero for directly driven
    /// sessions, whose warm rebinds count as [`SessionStats::reused`] only.
    pub l1_hits: u64,
    /// The session's invalidation generation at snapshot time: bumped on
    /// every entry replacement (edit-driven re-prepare or rename install),
    /// budget eviction and removal, so lock-free L0 tiers can detect that
    /// their pinned handles may be stale without cross-thread coordination.
    pub generation: u64,
}

/// What [`SessionCache::update`] did for one program.
pub struct SessionUpdate {
    /// The session to run configurations against — rebound or freshly
    /// prepared.
    pub prepared: Arc<PreparedProgram>,
    /// `true` iff the previous session survived the update wholesale.
    pub reused: bool,
    /// Where the program changed relative to the previous snapshot.
    /// `None` for programs the session had not seen before; for reused
    /// updates the diff exists and [`ProgramDiff::is_identical`] holds.
    pub diff: Option<ProgramDiff>,
}

/// A multi-program analysis session that survives edits: prepared artifacts
/// are invalidated per program, by structural fingerprint, instead of being
/// discarded with every re-parse.  See the module docs.
pub struct SessionCache {
    analyzer: Analyzer,
    entries: HashMap<String, SessionEntry>,
    stats: SessionStats,
    /// Byte budget over the summed [`HeapSize`] estimates of every entry;
    /// `None` is unbounded (the pre-budget behaviour).
    max_bytes: Option<u64>,
    /// Monotonic source of the entries' use ticks.
    tick: u64,
    /// Invalidation generation, shared (via `Arc`) with any lock-free L0
    /// tier fronting this cache.  Bumped on every entry replacement,
    /// eviction and removal — the events after which an L0-pinned handle
    /// may no longer match what this cache would serve.  Fresh-name inserts
    /// do *not* bump: they cannot make any existing handle stale.
    generation: Arc<AtomicU64>,
    /// Coarse tick of the last [`SessionCache::enforce_budget`] pass that
    /// left the session within budget: `(entry count, summed growth
    /// stamps)`.  Growth stamps are monotone and resident sizes are pure
    /// functions of them, so an unchanged tick over an unchanged entry set
    /// proves the sizes did not move — the enforcement pass (sort plus
    /// re-measure) is skipped.  Cleared by every entry-set mutation.
    budget_mark: Option<(usize, u64)>,
    /// Optional on-disk tier below the in-memory entries: misses try a
    /// fingerprint-keyed artifact load before falling back to a cold
    /// preparation, installs write through, and evictions persist dirty
    /// entries first.
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
    /// means some entry was replaced, evicted or removed since the reader
    /// last synchronized.
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
    /// Misses consult the store before a cold preparation
    /// ([`SessionCache::lookup_tiered`], [`SessionCache::update`]),
    /// installs write through, and budget evictions persist dirty entries
    /// before dropping them.  The store never changes results: a load is
    /// accepted only when the decoded program compares equal to the
    /// requested one, and every rejected or missing artifact falls back to
    /// the cold path.
    pub fn artifact_store(mut self, store: PreparedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&PreparedStore> {
        self.store.as_ref()
    }

    /// Bounds the session to at most `bytes` resident bytes (the
    /// deterministic [`HeapSize`] estimate — see `spec_ir::heap` for what
    /// it counts), evicting whole [`PreparedProgram`]s in least recently
    /// used order whenever an enforcement point finds the session over
    /// budget.  Enforcement points are [`SessionCache::update`],
    /// [`SessionCache::install`], and explicit
    /// [`SessionCache::enforce_budget`] calls (which long-running holders
    /// make after every request, because running configurations grows the
    /// memoized artifacts of a resident entry).
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
    pub fn budget(&self) -> Option<u64> {
        self.max_bytes
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The summed byte estimate of every resident entry, re-measured now.
    pub fn resident_bytes(&self) -> u64 {
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

    /// Brings the session up to date with (a freshly parsed version of)
    /// `program` and returns the prepared session to run against.
    ///
    /// Programs are identified by name.  If the program is identical to
    /// the previous snapshot (fingerprint filter plus full comparison —
    /// the fingerprint alone is name-free and would rebind across a pure
    /// rename, serving stale names), the existing [`PreparedProgram`] —
    /// with every memoized artifact — is rebound; otherwise the program is
    /// re-prepared, and when the region table is structurally unchanged
    /// the previous session's address maps are adopted wholesale and its
    /// fixpoint summaries are offered as per-block seeds (unchanged blocks
    /// transplant their converged states; edited blocks and their
    /// transitive dependents re-solve — see `spec_core::summary`).
    pub fn update(&mut self, program: &Program) -> SessionUpdate {
        self.update_inner(program, true)
    }

    /// First half of the two-phase resolve for lock-averse callers: the
    /// warm session when the structural fingerprint matches the snapshot
    /// (counted as a reuse), `None` otherwise.  On a miss the caller runs
    /// the expensive [`Analyzer::prepare`] **outside** its lock and offers
    /// the result back through [`SessionCache::install`] — the analysis
    /// service's worker pool must not serialize every request behind one
    /// cold preparation.
    ///
    /// Crate-internal since the `CacheSession` redesign: external callers
    /// sequence the two-phase resolve through
    /// [`crate::cache_session::CacheSession::acquire`] instead.
    pub(crate) fn lookup_warm(&mut self, program: &Program) -> Option<Arc<PreparedProgram>> {
        let tick = self.next_tick();
        match self.entries.get_mut(program.name()) {
            // Matched by the name-free structural fingerprint: a pure
            // rename (same structure, different region or block names)
            // still answers warm here.  Callers that need name-exact
            // resolution compare the returned session's program themselves
            // — `CacheSession::acquire` classifies a mismatch as a
            // `renamed` miss, and [`SessionCache::update`] rebinds the
            // entry to the renamed program (adopting its artifacts) — so
            // the structural tier keeps serving rename-insensitive outputs
            // without leaking stale names into name-exact ones.
            Some(entry) if entry.fingerprint == program_fingerprint(program) => {
                self.stats.reused += 1;
                entry.tick = tick;
                Some(entry.prepared.clone())
            }
            _ => None,
        }
    }

    /// Two-tier resolve: the in-memory warm session first (exactly
    /// [`SessionCache::lookup_warm`]), then — when an artifact store is
    /// configured — a fingerprint-keyed disk load, deserialized, verified
    /// against the requested program and installed as a resident entry.
    /// Returns which tier answered; `None` means the caller must prepare
    /// cold and [`SessionCache::install`] the result.
    ///
    /// The store is keyed by the name-free structural fingerprint while a
    /// prepared session embeds names, so a load is accepted only when the
    /// decoded program compares equal to `program` — a rename falls
    /// through to the cold path instead of serving stale names.
    ///
    /// Crate-internal since the `CacheSession` redesign (see
    /// [`SessionCache::lookup_warm`]).
    pub(crate) fn lookup_tiered(
        &mut self,
        program: &Program,
    ) -> Option<(Arc<PreparedProgram>, SessionTier)> {
        if let Some(prepared) = self.lookup_warm(program) {
            return Some((prepared, SessionTier::Memory));
        }
        self.store.as_ref()?;
        let (prepared, stamp) = self.load_from_store(program)?;
        let prepared = self.install_with(prepared, Some(stamp));
        Some((prepared, SessionTier::Store))
    }

    /// Attempts a store load for `program`, counting hits/misses and
    /// loaded bytes.  Returns the deserialized session plus its growth
    /// stamp (its "already persisted at" mark — the on-disk bytes are what
    /// we just read).  Does not install.
    fn load_from_store(&mut self, program: &Program) -> Option<(Arc<PreparedProgram>, u64)> {
        let store = self.store.as_ref()?;
        let fingerprint = program_fingerprint(program);
        match store.load(&self.analyzer, fingerprint) {
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

    /// Second half of the two-phase resolve: installs an externally
    /// prepared session, replacing whatever the name currently maps to
    /// (adopting the predecessor's address maps when the region table is
    /// structurally unchanged, exactly like [`SessionCache::update`] — a
    /// rename-only replacement qualifies trivially).  Every replacement
    /// counts as an invalidation, renames included, so the counters show a
    /// re-preparation happened even when the structural fingerprint did
    /// not move.  Last-writer-wins by design: racing cold preparations of
    /// one program produce interchangeable sessions, and the
    /// name-sensitive service path relies on replacement to retire a
    /// rebound entry whose *names* went stale.
    ///
    /// With an artifact store configured the installed session is written
    /// through to disk, so a later restart loads it instead of preparing.
    ///
    /// Crate-internal since the `CacheSession` redesign: external callers
    /// commit cold preparations through `PrepareGuard::commit` (see
    /// [`SessionCache::lookup_warm`]).
    pub(crate) fn install(&mut self, prepared: Arc<PreparedProgram>) -> Arc<PreparedProgram> {
        // The donor lookup must precede the write-through: persisting
        // repoints the store's name index at the incoming session itself.
        if !self.entries.contains_key(prepared.program().name()) {
            self.adopt_store_donor(&prepared);
        }
        let persisted = self.persist_now(&prepared);
        self.install_with(prepared, persisted)
    }

    /// Cross-restart compositional reuse: a fresh-name install may still
    /// have a *predecessor* on the store tier — the artifact last persisted
    /// under this program's name, found through the store's name index
    /// (fingerprints alone are name-free, so after an edit nothing else
    /// connects the new program to its donor).  A region-table-preserving
    /// predecessor donates address maps and fixpoint summaries exactly like
    /// an in-memory one; the per-block structural gates at seeding time
    /// keep a stale or colliding index harmless.
    fn adopt_store_donor(&mut self, prepared: &Arc<PreparedProgram>) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let Some(donor) = store.donor(
            &self.analyzer,
            prepared.program().name(),
            prepared.fingerprint(),
        ) else {
            return;
        };
        if regions_fingerprint(donor.program().regions())
            == regions_fingerprint(prepared.program().regions())
        {
            self.stats.amaps_adopted += prepared.adopt_address_maps(&donor);
            prepared.adopt_summaries(&donor);
        }
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
                    // Same gate for the fixpoint summaries: the donor's
                    // converged states embed its memory layout, so only a
                    // region-table-preserving replacement may seed from
                    // them.  Block-level invalidation happens later, when
                    // the matching unroll variant is built.
                    prepared.adopt_summaries(&entry.prepared);
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

    fn update_inner(&mut self, program: &Program, want_diff: bool) -> SessionUpdate {
        let fingerprint = program_fingerprint(program);
        let regions = regions_fingerprint(program.regions());
        let name = program.name().to_string();
        let tick = self.next_tick();
        if let Some(entry) = self.entries.get_mut(&name) {
            if entry.fingerprint == fingerprint {
                entry.tick = tick;
                let diff =
                    want_diff.then(|| ProgramDiff::between(entry.prepared.program(), program));
                // The fingerprint is name-free, so an equal print does not
                // mean an equal program: serving the cached handle across a
                // pure rename would leak the pre-edit region and block
                // names into classification output.  Rebind a fresh session
                // to the renamed program instead and transplant the
                // artifacts — address maps verbatim (the region table is
                // structurally identical) and every block summary as a
                // fixpoint seed — so the next run re-derives *names*, not
                // fixpoints.
                let renamed = entry.prepared.program() != program;
                let adopted = if renamed {
                    let rebound = Arc::new(entry.prepared.rebound(program));
                    let adopted = rebound.adopt_address_maps(&entry.prepared);
                    rebound.adopt_summaries(&entry.prepared);
                    entry.prepared = rebound;
                    adopted
                } else {
                    0
                };
                let prepared = entry.prepared.clone();
                self.stats.reused += 1;
                self.stats.amaps_adopted += adopted;
                if renamed {
                    // The entry was replaced: unseat stale L0 seeds, like
                    // every other rebind (see `install_with`).
                    self.bump_generation();
                }
                return SessionUpdate {
                    prepared,
                    reused: true,
                    diff,
                };
            }
        }
        // Structural miss: diff against the predecessor (if any) first,
        // then resolve the new session — from the store tier when it has a
        // matching artifact, by cold preparation otherwise (written
        // through to the store so the next miss loads).
        let diff = match self.entries.get(&name) {
            Some(entry) => {
                want_diff.then(|| ProgramDiff::between(entry.prepared.program(), program))
            }
            None => None,
        };
        let (prepared, persisted) = match self.load_from_store(program) {
            Some((prepared, stamp)) => (prepared, Some(stamp)),
            None => {
                let prepared = Arc::new(self.analyzer.prepare(program));
                // No previous snapshot in memory: the store tier may still
                // hold this name's predecessor as a summary donor (and the
                // lookup must precede the write-through below, which
                // repoints the name index at the fresh session).
                if !self.entries.contains_key(&name) {
                    self.adopt_store_donor(&prepared);
                }
                let persisted = self.persist_now(&prepared);
                (prepared, persisted)
            }
        };
        self.touch_entries();
        match self.entries.get_mut(&name) {
            Some(entry) => {
                self.stats.invalidated += 1;
                if entry.regions == regions {
                    self.stats.amaps_adopted += prepared.adopt_address_maps(&entry.prepared);
                    // The compositional-reuse handoff (see the same call in
                    // `install_with`): the re-prepared session seeds the
                    // unchanged blocks' fixpoint states from the replaced
                    // snapshot, localised per block by the same structural
                    // identity `ProgramDiff` reports — only edited blocks
                    // and their transitive dependents re-solve.
                    prepared.adopt_summaries(&entry.prepared);
                }
                *entry = SessionEntry::new(fingerprint, regions, tick, prepared.clone(), persisted);
                // Edit-driven re-prepare: see the same bump in
                // `install_with`.
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
        SessionUpdate {
            prepared,
            reused: false,
            diff,
        }
    }

    /// The prepared session of a program, if it is cached.
    pub fn get(&self, name: &str) -> Option<&Arc<PreparedProgram>> {
        self.entries.get(name).map(|entry| &entry.prepared)
    }

    /// Number of programs currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no program is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The session's lifetime reuse/invalidation counters, with
    /// [`SessionStats::session_bytes`] measured at call time.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            session_bytes: self.resident_bytes(),
            generation: self.generation(),
            ..self.stats
        }
    }

    /// Aggregated artifact-cache counters across every held program — the
    /// per-program [`PreparedProgram::cache_stats`] summed up.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for entry in self.entries.values() {
            let s = entry.prepared.cache_stats();
            total.core_hits += s.core_hits;
            total.core_misses += s.core_misses;
            total.amap_hits += s.amap_hits;
            total.amap_misses += s.amap_misses;
            total.amap_adopted += s.amap_adopted;
            total.vcfg_hits += s.vcfg_hits;
            total.vcfg_misses += s.vcfg_misses;
            total.round_hits += s.round_hits;
            total.round_misses += s.round_misses;
            total.summary_hits += s.summary_hits;
            total.summary_misses += s.summary_misses;
            total.summaries_invalidated += s.summaries_invalidated;
        }
        total.session_evictions = self.stats.session_evictions;
        total.session_bytes = self.resident_bytes();
        total.store_hits = self.stats.store_hits;
        total.store_misses = self.stats.store_misses;
        total.store_loaded_bytes = self.stats.store_loaded_bytes;
        // `l0_hits`/`l1_hits` stay zero here: those tiers live in front of
        // this cache (inside `CacheSession`), which overlays its own
        // counters on this snapshot.
        total.generation = self.generation();
        total
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
    use crate::batch::{
        run_bundle, run_bundle_slice, BatchReport, ExecMode, PanelKind, PanelSpec, ScanOutcome,
    };
    use crate::cache_session::{CacheOutcome, CacheSession};
    use crate::options::AnalysisOptions;
    use crate::session::comparison_configs;
    use spec_cache::CacheConfig;
    use spec_ir::builder::ProgramBuilder;
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

    #[test]
    fn unchanged_programs_rebind_and_edits_invalidate() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));

        let a0 = session.update(&program("a", 0));
        assert!(!a0.reused);
        assert!(a0.diff.is_none(), "first sighting has no previous snapshot");
        a0.prepared.run_suite(&configs);
        let b0 = session.update(&program("b", 0));
        b0.prepared.run_suite(&configs);
        assert_eq!(session.len(), 2);

        // Re-parse of `a`, unchanged: the same session object comes back,
        // with all its memoized rounds.
        let a1 = session.update(&program("a", 0));
        assert!(a1.reused);
        assert!(Arc::ptr_eq(&a1.prepared, &a0.prepared));
        assert!(a1.diff.unwrap().is_identical());

        // Edit `a`: invalidated, diff localised; `b` is untouched.
        let a2 = session.update(&program("a", 64));
        assert!(!a2.reused);
        assert!(!Arc::ptr_eq(&a2.prepared, &a0.prepared));
        let diff = a2.diff.unwrap();
        assert_eq!(diff.changed_blocks.len(), 1);
        assert!(!diff.regions_changed);
        assert!(session.update(&program("b", 0)).reused);

        let stats = session.stats();
        assert_eq!(stats.inserted, 2);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.invalidated, 1);
    }

    #[test]
    fn region_preserving_edits_adopt_address_maps() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        session
            .update(&program("a", 0))
            .prepared
            .run_suite(&configs);
        let edited = session.update(&program("a", 128));
        assert!(!edited.reused);
        assert_eq!(session.stats().amaps_adopted, 1);
        // The adopted map serves the re-run without a rebuild.
        edited.prepared.run_suite(&configs);
        let stats = edited.prepared.cache_stats();
        assert_eq!(stats.amap_adopted, 1);
        assert_eq!(stats.amap_misses, 0, "no address map was rebuilt");

        // A region-table edit must not adopt.
        let mut grown = ProgramBuilder::new("a");
        let t = grown.region("t", 512, false);
        let entry = grown.entry_block("entry");
        grown.load(entry, t, IndexExpr::Const(0));
        grown.ret(entry);
        let update = session.update(&grown.finish().unwrap());
        assert!(update.diff.unwrap().regions_changed);
        assert_eq!(session.stats().amaps_adopted, 1, "unchanged");
    }

    #[test]
    fn two_phase_resolve_adopts_maps_and_counts_rename_installs() {
        let mut session = SessionCache::new();
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);
        assert!(session.lookup_warm(&p).is_none(), "cold lookup misses");

        let installed = session.install(Arc::new(Analyzer::new().prepare(&p)));
        installed.run_suite(&configs); // builds the address map to adopt
        assert!(session.lookup_warm(&p).is_some(), "installed entry is warm");

        // A rename-only variant: same structural fingerprint, new names.
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_renamed", 256, false);
        let k = renamed.secret_region("k_renamed", 8);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.load(entry, k, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert_eq!(program_fingerprint(&renamed), program_fingerprint(&p));

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
        probe.update(&program("a", 0));
        let one = probe.resident_bytes();
        assert!(one > 0);
        assert_eq!(probe.stats().session_bytes, one);

        let mut session = SessionCache::new().max_session_bytes(one * 2 + one / 2);
        session.update(&program("a", 0));
        session.update(&program("b", 0));
        // Touching `a` demotes `b` to least recently used...
        assert!(session.update(&program("a", 0)).reused);
        // ...so the third insert evicts `b`, not `a`.
        session.update(&program("c", 0));
        assert!(session.get("a").is_some(), "recently used survives");
        assert!(session.get("b").is_none(), "the LRU entry is the victim");
        assert!(session.get("c").is_some(), "the newcomer is resident");
        let stats = session.stats();
        assert_eq!(stats.session_evictions, 1);
        assert_eq!(
            stats.inserted - stats.session_evictions,
            session.len() as u64,
            "installs minus evictions is the resident population"
        );
        assert!(stats.session_bytes <= one * 2 + one / 2, "the bound holds");

        // An evicted program's next sighting is a plain re-insert — never
        // a stale rebind.
        let back = session.update(&program("b", 0));
        assert!(!back.reused);
        assert!(
            back.diff.is_none(),
            "the session kept nothing to diff against"
        );
    }

    #[test]
    fn store_tier_restores_sessions_across_cache_instances() {
        let scratch = Scratch::new();
        let store_dir = scratch.0.join("artifacts");
        let configs = comparison_configs(CacheConfig::fully_associative(4, 64));
        let p = program("a", 0);

        // First life: cold prepare (the store has nothing), run, persist.
        let mut first = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        assert!(first.lookup_tiered(&p).is_none(), "empty store misses");
        let installed = first.install(Arc::new(Analyzer::new().prepare(&p)));
        let baseline = installed.run_suite(&configs).report().without_timing();
        assert_eq!(first.stats().store_misses, 1);
        assert_eq!(first.stats().store_hits, 0);
        assert!(first.persist_dirty() >= 1, "grown entry is flushed");
        assert_eq!(first.persist_dirty(), 0, "second flush finds nothing dirty");

        // Second life: a fresh cache over the same directory answers from
        // disk — no preparation, warm fixpoint rounds, identical report.
        let mut second = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        let (restored, tier) = second.lookup_tiered(&p).expect("store tier hit");
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
            second.lookup_tiered(&p).unwrap().1,
            SessionTier::Memory,
            "second resolve is a warm rebind"
        );
        assert_eq!(
            second.cache_stats().store_hits,
            1,
            "cache_stats carries store counters"
        );

        // A rename-only variant shares the fingerprint but not the names:
        // the store must not serve it.
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_renamed", 256, false);
        let k = renamed.secret_region("k_renamed", 8);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.load(entry, k, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert_eq!(program_fingerprint(&renamed), program_fingerprint(&p));
        let mut third = SessionCache::new().artifact_store(PreparedStore::open(&store_dir));
        assert!(
            third.lookup_tiered(&renamed).is_none(),
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
        probe.update(&program("a", 0)).prepared.run_suite(&configs);
        let one = probe.resident_bytes();

        let mut session = SessionCache::new()
            .max_session_bytes(one + one / 2)
            .artifact_store(PreparedStore::open(&store_dir));
        session
            .update(&program("a", 0))
            .prepared
            .run_suite(&configs);
        // `a` has grown since its install-time write; growing `b` to the
        // same footprint pushes the session over budget, so the next
        // enforcement point evicts `a` (the LRU entry) — which must flush
        // its grown artifacts first.
        session
            .update(&program("b", 0))
            .prepared
            .run_suite(&configs);
        session.enforce_budget();
        assert!(session.get("a").is_none(), "`a` was evicted");
        assert_eq!(session.stats().session_evictions, 1);

        // Its next sighting loads the *grown* session from disk: the
        // memoized rounds replay instead of being re-solved.
        let (restored, tier) = session.lookup_tiered(&program("a", 0)).expect("store hit");
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
        let update = session.update(&program("a", 0));
        let before = session.resident_bytes();
        assert_eq!(
            session.resident_bytes(),
            before,
            "memoized answer is stable"
        );
        update.prepared.run_suite(&configs);
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
        // Two structures: the store keys artifacts by structural
        // fingerprint, so same-structure programs would share one file.
        let a = scratch.write("a.spec", &spec_source("alpha", 0));
        let b = scratch.write("b.spec", &spec_source("beta", 16));
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
    fn corrupt_stored_entries_cold_start_instead_of_replaying() {
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
            .path_for(program_fingerprint(&p).0);
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
    fn analyze_session_replays_by_canonical_text_and_signature() {
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
