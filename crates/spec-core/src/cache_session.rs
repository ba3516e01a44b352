//! The one caller-facing entry point of the tiered session caches.
//!
//! [`crate::incremental::SessionCache`] grew organically into eight public
//! methods that every holder — the analysis service, `specan analyze
//! --incremental`, `specan scan --session-dir` — sequenced by hand:
//! lookup, compare names, prepare, install, persist, enforce.  This module
//! replaces that sprawl with a single acquire/commit protocol wrapped
//! around the whole tier stack, and makes the warm path **lock-free**:
//!
//! ```text
//!   L0  per-worker thread-local LRU of pinned Arc handles   (no lock)
//!   L1  the shared SessionCache entry table                 (one mutex)
//!   L2  the on-disk PreparedStore artifact tier             (under L1)
//! ```
//!
//! [`CacheSession::acquire`] walks the tiers top-down and returns a
//! [`CacheOutcome`]: a hit hands back the prepared session (tagged with
//! the tier that answered), a miss hands back a [`PrepareGuard`] that
//! holds **no lock** — the expensive [`Analyzer::prepare`] provably runs
//! outside any critical section, and [`PrepareGuard::commit`] installs the
//! result under the lock afterwards.  Misuse the old surface permitted
//! (installing without looking up, forgetting the name check, enforcing
//! the budget before persisting) is unrepresentable here.
//!
//! # The L0 tier and generation invalidation
//!
//! Each worker thread keeps a small LRU of `(program name, structural
//! fingerprint) → Arc<PreparedProgram>` handles per session front,
//! following the two-tier decision-cache shape of Ferrous-DNS: reads
//! touch thread-local state only, and a monotonic **generation counter**
//! (bumped by the `SessionCache` on every entry replacement, budget
//! eviction and removal) invalidates every worker's L0 wholesale on the
//! next acquire — no cross-thread coordination, no per-entry messaging.
//!
//! Generations bound *memory*, not correctness: analysis results are pure
//! functions of the program, so even a handle the L1 already evicted
//! answers byte-identically.  Name-correctness never rests on the counter
//! either — a name-sensitive acquire compares the candidate's program
//! against the requested one directly, every time, on every tier (the
//! same rule the store tier applies at load).  What a stale generation
//! *could* cost is only a pinned `Arc` outliving its eviction, and the
//! bump reclaims exactly that.
//!
//! # Accounting
//!
//! Every acquire lands in exactly one counter — `l0_hits`, `l1_hits`,
//! `store_hits`, `prepares` (committed guards) or `abandoned` (dropped
//! guards) — so at quiescence [`AcquireStats::reconciles`] holds:
//! `l0 + l1 + store + prepares + abandoned == acquires`.  The property
//! suite in `tests/cache_session.rs` pins both that ledger and the
//! cross-worker staleness guarantee.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use spec_ir::fingerprint::{program_fingerprint, Fingerprint};
use spec_ir::Program;
use spec_telemetry::{Histogram, Registry};

use crate::artifact::PreparedStore;
use crate::incremental::{SessionCache, SessionStats, SessionTier};
use crate::session::{Analyzer, CacheStats, PreparedProgram};

/// How many prepared handles one worker thread pins per session front.
/// Small on purpose: the L0 exists to strip the lock from the steady-state
/// working set of a worker, not to mirror the L1 — and every slot pins a
/// whole prepared session against eviction until the next generation bump.
const L0_CAPACITY: usize = 16;

/// Process-unique ids so two `CacheSession`s living on one thread (tests,
/// nested tools) never read each other's L0 entries.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This worker's L0 tiers, keyed by session-front id.
    static L0_TIERS: RefCell<HashMap<u64, L0Tier>> = RefCell::new(HashMap::new());
}

/// One thread's lock-free cache over one session front.
struct L0Tier {
    /// The invalidation generation every held entry was seeded under.
    generation: u64,
    /// LRU order: most recently used last.
    entries: Vec<L0Entry>,
}

struct L0Entry {
    fingerprint: Fingerprint,
    prepared: Arc<PreparedProgram>,
}

/// Locks a mutex, recovering from poisoning.  A thread that panicked while
/// holding a session lock leaves plain data (maps and counters) behind, and
/// every consumer of that data re-validates what matters — fingerprints,
/// program equality — on use; abandoning the whole service over a poisoned
/// flag would turn one lost request into a dead pool.  Worst case the
/// survivors re-prepare cold, which is slow and correct.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lifetime acquire counters of one [`CacheSession`] — which tier answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcquireStats {
    /// Total [`CacheSession::acquire`]/[`CacheSession::acquire_structural`]
    /// calls.
    pub acquires: u64,
    /// Acquires answered from the calling thread's L0, without the lock.
    pub l0_hits: u64,
    /// Acquires answered by the shared in-memory L1 under the lock.
    pub l1_hits: u64,
    /// Acquires answered by deserializing from the on-disk store tier.
    pub store_hits: u64,
    /// Guards committed: cold (or renamed) preparations installed.
    pub prepares: u64,
    /// Guards dropped uncommitted (an error between acquire and commit).
    pub abandoned: u64,
}

impl AcquireStats {
    /// The ledger invariant: every acquire is accounted to exactly one
    /// tier or guard outcome.  Holds whenever no [`PrepareGuard`] is
    /// currently in flight.
    pub fn reconciles(&self) -> bool {
        self.l0_hits + self.l1_hits + self.store_hits + self.prepares + self.abandoned
            == self.acquires
    }
}

/// What [`CacheSession::acquire`] resolved, tier-tagged.
///
/// The three hit arms are interchangeable for correctness — the handle
/// answers byte-identically wherever it came from — and differ only in
/// cost and accounting.  The miss arm carries the obligation: prepare
/// (outside any lock) and [`PrepareGuard::commit`], or drop the guard to
/// abandon the request.
pub enum CacheOutcome<'a> {
    /// Served from the calling thread's L0 — no lock was taken.
    L0Hit(Arc<PreparedProgram>),
    /// Served warm from the shared in-memory L1.
    WarmHit(Arc<PreparedProgram>),
    /// Deserialized from the on-disk artifact store (now resident in L1).
    StoreHit(Arc<PreparedProgram>),
    /// Nothing usable is cached: prepare cold and commit the result.
    NeedsPrepare(PrepareGuard<'a>),
}

impl CacheOutcome<'_> {
    /// The accounting tag of this outcome (`l0`, `warm`, `store`,
    /// `renamed`, `prepared`) — the vocabulary of the service log lines.
    pub fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::L0Hit(_) => "l0",
            CacheOutcome::WarmHit(_) => "warm",
            CacheOutcome::StoreHit(_) => "store",
            CacheOutcome::NeedsPrepare(guard) if guard.renamed => "renamed",
            CacheOutcome::NeedsPrepare(_) => "prepared",
        }
    }
}

/// Per-tier acquire latency histograms, one series per answering tier.
/// Optional on a [`CacheSession`] — fronts without telemetry (one-shot
/// CLI runs, tests) record nothing and pay one relaxed pointer read.
///
/// `l0`/`l1`/`store` time the acquire probe itself; `cold` spans the whole
/// miss obligation — acquire through [`PrepareGuard::commit`] — so it
/// includes the preparation, which is the cost a cold request actually
/// pays.  Abandoned guards record nothing (there is no latency to a
/// request that failed before preparing).
pub struct TierTelemetry {
    l0: Histogram,
    l1: Histogram,
    store: Histogram,
    cold: Histogram,
}

impl TierTelemetry {
    /// Registers the `spec_cache_acquire_seconds{tier}` family on
    /// `registry` and returns the recording handles.
    pub fn registered(registry: &Registry) -> Self {
        let tier = |name: &'static str| {
            registry.histogram(
                "spec_cache_acquire_seconds",
                "Session acquire latency by answering tier (cold spans acquire through commit).",
                &[("tier", name)],
            )
        };
        Self {
            l0: tier("l0"),
            l1: tier("l1"),
            store: tier("store"),
            cold: tier("cold"),
        }
    }
}

/// The obligation half of a [`CacheOutcome::NeedsPrepare`]: proof that the
/// caller is *outside* every session lock, with [`PrepareGuard::commit`]
/// as the only way back in.  Dropping the guard without committing is
/// legal (the request failed before preparing) and counted as
/// [`AcquireStats::abandoned`].
pub struct PrepareGuard<'a> {
    session: &'a CacheSession,
    renamed: bool,
    committed: bool,
    /// When the acquire that produced this guard started — the cold-tier
    /// latency measures from here to the commit.
    started: Instant,
}

impl PrepareGuard<'_> {
    /// `true` when a structurally identical session was cached but its
    /// names differ from the requested program's — the caller asked for
    /// name-exact resolution, so it must re-prepare under the new names
    /// (the service logs these as `renamed` rather than `prepared`).
    pub fn renamed(&self) -> bool {
        self.renamed
    }

    /// Cold-prepares `program` with the session's analyzer — outside any
    /// lock — and commits the result.  The convenience path for callers
    /// with no analyzer of their own.
    pub fn prepare(self, program: &Program) -> Arc<PreparedProgram> {
        let prepared = Arc::new(self.session.inner.analyzer.prepare(program));
        self.commit(prepared)
    }

    /// Installs an externally prepared session into the shared cache
    /// (write-through to the store tier, budget enforced, L0 seeded) and
    /// returns the resident handle.  Last-writer-wins under races, exactly
    /// like the cache it fronts: concurrent preparations of one program
    /// are interchangeable.
    pub fn commit(mut self, prepared: Arc<PreparedProgram>) -> Arc<PreparedProgram> {
        self.committed = true;
        self.session.inner.prepares.fetch_add(1, Ordering::Relaxed);
        let installed = self.session.commit_prepared(prepared);
        if let Some(telemetry) = self.session.inner.telemetry.get() {
            telemetry.cold.record(self.started.elapsed());
        }
        installed
    }
}

impl Drop for PrepareGuard<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.session.inner.abandoned.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct SessionFront {
    id: u64,
    cache: Mutex<SessionCache>,
    /// A clone of the cache's analyzer, so guard commits prepare without
    /// touching the lock.
    analyzer: Analyzer,
    /// The cache's invalidation generation, shared so acquires read it
    /// without the lock.
    generation: Arc<AtomicU64>,
    /// Builder-time facts of the wrapped cache, cached here so the
    /// accounting fast path never locks.  The store handle also lets
    /// [`CacheSession::persist`] write outside the lock.
    store: Option<PreparedStore>,
    budget: Option<u64>,
    /// Per-tier acquire latency histograms, installed once by telemetry-
    /// carrying holders (the service); `get()` on the hot path is one
    /// relaxed load.
    telemetry: OnceLock<TierTelemetry>,
    acquires: AtomicU64,
    l0_hits: AtomicU64,
    l1_hits: AtomicU64,
    store_hits: AtomicU64,
    prepares: AtomicU64,
    abandoned: AtomicU64,
}

/// The single caller-facing handle over the L0/L1/store tier stack — see
/// the module docs for the protocol.  Cheap to clone (one `Arc`); all
/// methods take `&self` and the handle is `Sync`, so one session front is
/// shared across a whole worker pool.
#[derive(Clone)]
pub struct CacheSession {
    inner: Arc<SessionFront>,
}

impl CacheSession {
    /// Wraps `cache` — configured via its own builders (analyzer, byte
    /// budget, artifact store) — as a shared, lock-disciplined front.
    pub fn new(cache: SessionCache) -> Self {
        let analyzer = cache.analyzer().clone();
        let generation = cache.generation_handle();
        let store = cache.store().cloned();
        let budget = cache.budget();
        Self {
            inner: Arc::new(SessionFront {
                id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
                cache: Mutex::new(cache),
                analyzer,
                generation,
                store,
                budget,
                telemetry: OnceLock::new(),
                acquires: AtomicU64::new(0),
                l0_hits: AtomicU64::new(0),
                l1_hits: AtomicU64::new(0),
                store_hits: AtomicU64::new(0),
                prepares: AtomicU64::new(0),
                abandoned: AtomicU64::new(0),
            }),
        }
    }

    /// Installs per-tier latency histograms on this front (idempotent:
    /// the first install wins, later calls are ignored).  Fronts without
    /// telemetry record nothing.
    pub fn set_tier_telemetry(&self, telemetry: TierTelemetry) {
        let _ = self.inner.telemetry.set(telemetry);
    }

    /// Resolves `program` name-exactly: a hit requires the cached session's
    /// program to compare equal, names included, on every tier.  This is
    /// the tier for `analyze`-shaped output, which embeds region and block
    /// names the structural fingerprint deliberately ignores — a
    /// rename-only edit yields [`CacheOutcome::NeedsPrepare`] with
    /// [`PrepareGuard::renamed`] set instead of replaying stale names.
    pub fn acquire(&self, program: &Program) -> CacheOutcome<'_> {
        self.acquire_inner(program, true)
    }

    /// Resolves `program` by structural fingerprint under its program
    /// name, ignoring region/block renames — for name-insensitive outputs
    /// (`compare`, `scan` verdicts), which serialize identically across
    /// renames.
    pub fn acquire_structural(&self, program: &Program) -> CacheOutcome<'_> {
        self.acquire_inner(program, false)
    }

    fn acquire_inner(&self, program: &Program, name_exact: bool) -> CacheOutcome<'_> {
        let started = Instant::now();
        self.inner.acquires.fetch_add(1, Ordering::Relaxed);
        let fingerprint = program_fingerprint(program);
        let generation = self.inner.generation.load(Ordering::Acquire);
        if let Some(prepared) = self.l0_lookup(fingerprint, program, name_exact, generation) {
            self.inner.l0_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(telemetry) = self.inner.telemetry.get() {
                telemetry.l0.record(started.elapsed());
            }
            return CacheOutcome::L0Hit(prepared);
        }
        // L1, then the store, under the one lock.  The generation is read
        // back *inside* the critical section: bumps only happen under this
        // lock, so the value stamps exactly the state the handle came from.
        let (hit, stamped) = {
            let mut cache = relock(&self.inner.cache);
            (cache.lookup_tiered(program), cache.generation())
        };
        match hit {
            Some((prepared, tier)) => {
                if name_exact && prepared.program() != program {
                    return CacheOutcome::NeedsPrepare(PrepareGuard {
                        session: self,
                        renamed: true,
                        committed: false,
                        started,
                    });
                }
                self.l0_seed(fingerprint, prepared.clone(), stamped);
                match tier {
                    SessionTier::Memory => {
                        self.inner.l1_hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(telemetry) = self.inner.telemetry.get() {
                            telemetry.l1.record(started.elapsed());
                        }
                        CacheOutcome::WarmHit(prepared)
                    }
                    SessionTier::Store => {
                        self.inner.store_hits.fetch_add(1, Ordering::Relaxed);
                        if let Some(telemetry) = self.inner.telemetry.get() {
                            telemetry.store.record(started.elapsed());
                        }
                        CacheOutcome::StoreHit(prepared)
                    }
                }
            }
            None => CacheOutcome::NeedsPrepare(PrepareGuard {
                session: self,
                renamed: false,
                committed: false,
                started,
            }),
        }
    }

    /// The calling thread's L0 probe.  `generation` was loaded before the
    /// probe; per-thread read coherence on the monotone counter guarantees
    /// it is never older than what this thread stored, so a mismatch means
    /// "invalidations happened" and the tier is cleared wholesale.
    fn l0_lookup(
        &self,
        fingerprint: Fingerprint,
        program: &Program,
        name_exact: bool,
        generation: u64,
    ) -> Option<Arc<PreparedProgram>> {
        L0_TIERS.with(|tiers| {
            let mut tiers = tiers.borrow_mut();
            let tier = tiers.get_mut(&self.inner.id)?;
            if tier.generation != generation {
                tier.entries.clear();
                tier.generation = generation;
                return None;
            }
            // Same key discipline as the L1: entries are per program name,
            // matched by structural fingerprint — plus, for name-exact
            // acquires, full program equality.  Correctness never leans on
            // the generation: the comparison is against the handle itself.
            let index = tier.entries.iter().position(|entry| {
                entry.fingerprint == fingerprint
                    && entry.prepared.program().name() == program.name()
                    && (!name_exact || entry.prepared.program() == program)
            })?;
            let entry = tier.entries.remove(index);
            let prepared = Arc::clone(&entry.prepared);
            tier.entries.push(entry);
            Some(prepared)
        })
    }

    /// Seeds the calling thread's L0 with a handle stamped at `stamped`
    /// (the generation read under the lock that produced it).  A tier
    /// already ahead of the stamp skips the seed — the handle may predate
    /// an invalidation it never saw; a tier behind it is cleared first.
    fn l0_seed(&self, fingerprint: Fingerprint, prepared: Arc<PreparedProgram>, stamped: u64) {
        // A zero budget keeps nothing resident, so every seed would pin a
        // handle the install already evicted until the next bump.
        if self.inner.budget == Some(0) {
            return;
        }
        L0_TIERS.with(|tiers| {
            let mut tiers = tiers.borrow_mut();
            let tier = tiers.entry(self.inner.id).or_insert_with(|| L0Tier {
                generation: stamped,
                entries: Vec::new(),
            });
            if tier.generation > stamped {
                return;
            }
            if tier.generation < stamped {
                tier.entries.clear();
                tier.generation = stamped;
            }
            let name = prepared.program().name();
            tier.entries
                .retain(|entry| entry.prepared.program().name() != name);
            if tier.entries.len() >= L0_CAPACITY {
                tier.entries.remove(0);
            }
            tier.entries.push(L0Entry {
                fingerprint,
                prepared,
            });
        });
    }

    fn commit_prepared(&self, prepared: Arc<PreparedProgram>) -> Arc<PreparedProgram> {
        let fingerprint = prepared.fingerprint();
        let (installed, stamped) = {
            let mut cache = relock(&self.inner.cache);
            // The stamp is read *before* the install: an install that
            // replaces an entry or evicts over budget bumps the generation,
            // and a seed stamped after the bump would outlive exactly the
            // invalidation it just caused (a thrashing budget-0 session
            // would serve every repeat from a handle it already evicted).
            // Stamped before, the very next acquire sees the bump and
            // clears the tier — one L1 walk, then the seed re-forms.
            let stamped = cache.generation();
            let installed = cache.install(prepared);
            (installed, stamped)
        };
        self.l0_seed(fingerprint, Arc::clone(&installed), stamped);
        installed
    }

    /// The request-boundary maintenance pass, in the one correct order:
    /// flush dirty entries to the store tier (so a crash at any boundary
    /// finds warm artifacts on disk), then enforce the byte budget (which
    /// persists-before-evicting on its own), then snapshot the stats.
    /// Long-running holders call this after every request; both halves are
    /// no-ops without their respective configuration, and the budget half
    /// skips its re-measure entirely when a coarse growth tick proves no
    /// resident entry changed since the last in-budget pass.
    pub fn checkpoint(&self) -> SessionStats {
        let mut cache = relock(&self.inner.cache);
        if self.inner.store.is_some() {
            cache.persist_dirty();
        }
        cache.enforce_budget();
        self.overlay(cache.stats())
    }

    /// Writes `prepared`, a handle this caller ran, to the store tier when
    /// the byte budget evicted its entry before the run grew it; resident
    /// entries wait for [`CacheSession::checkpoint`].  One-shot holders
    /// call it after a run that grew the handle, so a budget smaller than
    /// one program still leaves the filled rounds on disk.  A no-op
    /// without a store.
    pub fn persist(&self, prepared: &Arc<PreparedProgram>) {
        let Some(store) = &self.inner.store else {
            return;
        };
        if !relock(&self.inner.cache).is_resident(prepared) {
            let _ = store.save(prepared);
        }
    }

    /// The wrapped cache's lifetime counters with the front's L0/L1 tier
    /// hits overlaid — the complete ledger.
    pub fn stats(&self) -> SessionStats {
        self.overlay(relock(&self.inner.cache).stats())
    }

    /// Aggregated artifact-cache counters across every resident program,
    /// with the front's tier hits overlaid.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = relock(&self.inner.cache).cache_stats();
        stats.l0_hits = self.inner.l0_hits.load(Ordering::Relaxed);
        stats.l1_hits = self.inner.l1_hits.load(Ordering::Relaxed);
        stats
    }

    /// This front's acquire ledger (see [`AcquireStats::reconciles`]).
    pub fn acquire_stats(&self) -> AcquireStats {
        AcquireStats {
            acquires: self.inner.acquires.load(Ordering::Relaxed),
            l0_hits: self.inner.l0_hits.load(Ordering::Relaxed),
            l1_hits: self.inner.l1_hits.load(Ordering::Relaxed),
            store_hits: self.inner.store_hits.load(Ordering::Relaxed),
            prepares: self.inner.prepares.load(Ordering::Relaxed),
            abandoned: self.inner.abandoned.load(Ordering::Relaxed),
        }
    }

    /// The current invalidation generation — lock-free.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Number of programs resident in the L1.
    pub fn len(&self) -> usize {
        relock(&self.inner.cache).len()
    }

    /// `true` iff the L1 holds no program.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The L1's byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.inner.budget
    }

    /// `true` iff an on-disk artifact tier is configured.
    pub fn has_store(&self) -> bool {
        self.inner.store.is_some()
    }

    /// The summed byte estimate of every L1-resident entry, measured now.
    /// L0-pinned handles are not additional memory: every L0 entry is an
    /// `Arc` onto (at most [`L0_CAPACITY`] per worker of) the same
    /// sessions, resident or recently evicted.
    pub fn resident_bytes(&self) -> u64 {
        relock(&self.inner.cache).resident_bytes()
    }

    fn overlay(&self, mut stats: SessionStats) -> SessionStats {
        stats.l0_hits = self.inner.l0_hits.load(Ordering::Relaxed);
        stats.l1_hits = self.inner.l1_hits.load(Ordering::Relaxed);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_ir::builder::ProgramBuilder;
    use spec_ir::IndexExpr;

    fn program(name: &str, offset: u64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let t = b.region("t", 256, false);
        let entry = b.entry_block("entry");
        b.load(entry, t, IndexExpr::Const(offset));
        b.ret(entry);
        b.finish().unwrap()
    }

    #[test]
    fn acquire_walks_l1_then_l0_and_reconciles() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);

        let CacheOutcome::NeedsPrepare(guard) = session.acquire(&p) else {
            panic!("an empty session must miss");
        };
        assert!(!guard.renamed());
        let prepared = guard.prepare(&p);
        assert_eq!(prepared.program(), &p);

        // The commit seeded this thread's L0: the re-acquire never locks.
        let CacheOutcome::L0Hit(hit) = session.acquire(&p) else {
            panic!("the committed handle must be in L0");
        };
        assert!(Arc::ptr_eq(&hit, &prepared));

        let stats = session.acquire_stats();
        assert_eq!(
            (stats.acquires, stats.l0_hits, stats.prepares),
            (2, 1, 1),
            "{stats:?}"
        );
        assert!(stats.reconciles());
        let session_stats = session.stats();
        assert_eq!(session_stats.l0_hits, 1);
        assert_eq!(session_stats.inserted, 1);
    }

    #[test]
    fn l1_serves_other_sessions_threads_and_seeds_l0() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);
        let CacheOutcome::NeedsPrepare(guard) = session.acquire(&p) else {
            panic!("cold miss expected");
        };
        guard.prepare(&p);

        // A different thread has an empty L0: its first acquire is a warm
        // L1 hit, its second an L0 hit off the seed.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(matches!(session.acquire(&p), CacheOutcome::WarmHit(_)));
                assert!(matches!(session.acquire(&p), CacheOutcome::L0Hit(_)));
            });
        });
        let stats = session.acquire_stats();
        assert_eq!((stats.l0_hits, stats.l1_hits, stats.prepares), (1, 1, 1));
        assert!(stats.reconciles());
    }

    #[test]
    fn two_fronts_on_one_thread_never_share_an_l0() {
        let first = CacheSession::new(SessionCache::new());
        let second = CacheSession::new(SessionCache::new());
        let p = program("a", 0);
        match first.acquire(&p) {
            CacheOutcome::NeedsPrepare(guard) => {
                guard.prepare(&p);
            }
            _ => panic!("cold miss expected"),
        }
        assert!(matches!(first.acquire(&p), CacheOutcome::L0Hit(_)));
        assert!(
            matches!(second.acquire(&p), CacheOutcome::NeedsPrepare(_)),
            "a sibling front must not see the other's L0 seed"
        );
        assert_eq!(second.acquire_stats().abandoned, 1, "dropped guard counts");
        assert!(second.acquire_stats().reconciles());
    }

    #[test]
    fn rename_yields_a_renamed_guard_instead_of_stale_names() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);
        match session.acquire(&p) {
            CacheOutcome::NeedsPrepare(guard) => guard.prepare(&p),
            _ => panic!("cold miss expected"),
        };

        // Same structure, renamed region: the structural tier serves it...
        let mut renamed = ProgramBuilder::new("a");
        let t = renamed.region("t_v2", 256, false);
        let entry = renamed.entry_block("entry");
        renamed.load(entry, t, IndexExpr::Const(0));
        renamed.ret(entry);
        let renamed = renamed.finish().unwrap();
        assert!(matches!(
            session.acquire_structural(&renamed),
            CacheOutcome::L0Hit(_) | CacheOutcome::WarmHit(_)
        ));
        // ...but the name-exact tier must re-prepare, and the commit
        // swaps the entry so the old names are gone everywhere.
        let outcome = session.acquire(&renamed);
        assert_eq!(outcome.tag(), "renamed");
        let CacheOutcome::NeedsPrepare(guard) = outcome else {
            unreachable!()
        };
        let swapped = guard.prepare(&renamed);
        assert_eq!(swapped.program(), &renamed);
        // The swap bumped the generation, so the commit's own seed is
        // already stale: the re-acquire rebinds warm from the L1 (and
        // re-seeds), never replaying the old names.
        match session.acquire(&renamed) {
            CacheOutcome::WarmHit(hit) => assert_eq!(hit.program(), &renamed),
            other => panic!("expected a warm hit, got `{}`", other.tag()),
        };
        match session.acquire(&renamed) {
            CacheOutcome::L0Hit(hit) => assert_eq!(hit.program(), &renamed),
            other => panic!("expected an L0 hit, got `{}`", other.tag()),
        };
    }

    #[test]
    fn generation_bumps_clear_the_l0() {
        let session = CacheSession::new(SessionCache::new());
        let p = program("a", 0);
        match session.acquire(&p) {
            CacheOutcome::NeedsPrepare(guard) => guard.prepare(&p),
            _ => panic!("cold miss expected"),
        };
        assert!(matches!(session.acquire(&p), CacheOutcome::L0Hit(_)));
        let before = session.generation();

        // An edit-driven replacement bumps the generation...
        let edited = program("a", 64);
        match session.acquire(&edited) {
            CacheOutcome::NeedsPrepare(guard) => guard.prepare(&edited),
            other => panic!("an edit must miss, got `{}`", other.tag()),
        };
        assert!(session.generation() > before);
        // ...and the stale-programmed L0 entry is unreachable: the edited
        // program is what every tier now serves.  The first re-acquire
        // clears the outdated tier and rebinds warm; the one after that is
        // lock-free again.
        match session.acquire(&edited) {
            CacheOutcome::WarmHit(hit) => assert_eq!(hit.program(), &edited),
            other => panic!("expected a warm hit, got `{}`", other.tag()),
        };
        match session.acquire(&edited) {
            CacheOutcome::L0Hit(hit) => assert_eq!(hit.program(), &edited),
            other => panic!("expected an L0 hit, got `{}`", other.tag()),
        };
    }

    #[test]
    fn l0_capacity_is_bounded() {
        let session = CacheSession::new(SessionCache::new());
        for i in 0..(L0_CAPACITY + 4) as u64 {
            let p = program(&format!("p{i:03}"), 0);
            match session.acquire(&p) {
                CacheOutcome::NeedsPrepare(guard) => guard.prepare(&p),
                _ => panic!("distinct names must miss"),
            };
        }
        L0_TIERS.with(|tiers| {
            let tiers = tiers.borrow();
            let tier = tiers.get(&session.inner.id).expect("tier exists");
            assert_eq!(tier.entries.len(), L0_CAPACITY, "the LRU bound holds");
        });
        // The oldest seeds fell out of L0 but stay warm in L1.
        assert!(matches!(
            session.acquire(&program("p000", 0)),
            CacheOutcome::WarmHit(_)
        ));
    }
}
