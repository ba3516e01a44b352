//! Session-based analysis: prepare a program once, run many configurations.
//!
//! The paper's whole evaluation is comparative — the *same* program analysed
//! under many configurations (baseline vs. speculative, merge strategies,
//! shadow on/off, depth bounds).  Re-running [`crate::CacheAnalysis`] from
//! scratch repeats loop unrolling, [`AddressMap`] construction and VCFG
//! building for every configuration.  This module makes those prepared
//! artifacts first-class and reusable:
//!
//! * [`Analyzer::prepare`] wraps a program into a [`PreparedProgram`];
//! * [`PreparedProgram::run`] analyses one configuration, computing each
//!   artifact at most once — unrolled programs are memoized per unrolling
//!   budget, address maps per cache geometry, and VCFGs per speculation
//!   *structure* (window length and merge strategy — the two knobs that
//!   actually shape the virtual control flow), so e.g. a shadow-variable
//!   ablation reuses the VCFG of the full configuration; individual
//!   fixpoint rounds are memoized too, so the zero-bounds seeding pass of
//!   dynamic depth bounding is solved once per solver setting instead of
//!   once per configuration;
//! * [`PreparedProgram::run_suite`] fans a labelled list of configurations
//!   out across scoped threads and returns a [`Suite`] whose [`Report`]
//!   serializes to JSON for tooling.
//!
//! Results are **bit-identical** to fresh [`crate::CacheAnalysis::run`]
//! calls with the same options: both paths share one solver back end
//! (`solve_prepared`), and the artifacts are pure functions of the program
//! and the options.
//!
//! # Example
//!
//! ```rust
//! use spec_core::session::Analyzer;
//! use spec_core::AnalysisOptions;
//! use spec_cache::CacheConfig;
//! use spec_ir::builder::ProgramBuilder;
//! use spec_ir::IndexExpr;
//!
//! let mut b = ProgramBuilder::new("tiny");
//! let t = b.region("t", 64, false);
//! let entry = b.entry_block("entry");
//! b.load(entry, t, IndexExpr::Const(0));
//! b.load(entry, t, IndexExpr::Const(0));
//! b.ret(entry);
//! let program = b.finish().unwrap();
//!
//! let cache = CacheConfig::fully_associative(4, 64);
//! let prepared = Analyzer::new().prepare(&program);
//! let suite = prepared.run_suite(&[
//!     ("baseline", AnalysisOptions::builder().baseline().cache(cache).build().unwrap()),
//!     ("speculative", AnalysisOptions::builder().cache(cache).build().unwrap()),
//! ]);
//! assert_eq!(suite.runs.len(), 2);
//! let json = suite.report().to_json();
//! assert!(json.contains("\"label\": \"baseline\""));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use spec_absint::SolveStats;
use spec_cache::{AddressMap, CacheConfig};
use spec_ir::fingerprint::{program_fingerprint, Fingerprint};
use spec_ir::heap::HeapSize;
use spec_ir::transform::{unroll_counted_loops, UnrollOptions, UnrollReport};
use spec_ir::{BlockId, Cfg, LoopForest, Program};
use spec_vcfg::{MergeStrategy, SpeculationConfig, Vcfg};

use crate::analysis::solve_prepared;
use crate::classify::AnalysisResult;
use crate::json;
use crate::options::AnalysisOptions;
use crate::state::SpecState;
use crate::summary::{summary_keys, CoreSummaries, DonorSnapshot, SummaryCtx, SummaryStore};

/// Entry point of the session API: a factory for [`PreparedProgram`]s.
///
/// The analyzer itself is cheap; all heavy lifting happens lazily (and is
/// memoized) inside the prepared program.
#[derive(Clone, Debug, Default)]
pub struct Analyzer {
    /// Applied to deserialized sessions as well: the suite-thread bound is
    /// per-process policy, not part of a program's serialized artifact.
    pub(crate) max_suite_threads: Option<NonZeroUsize>,
}

impl Analyzer {
    /// Creates an analyzer with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of worker threads [`PreparedProgram::run_suite`]
    /// uses.  Defaults to the machine's available parallelism.
    pub fn max_suite_threads(mut self, threads: NonZeroUsize) -> Self {
        self.max_suite_threads = Some(threads);
        self
    }

    /// Wraps `program` into a session that computes unrolled programs,
    /// address maps, CFG/loop information and VCFGs at most once each and
    /// shares them across every subsequent run.
    pub fn prepare(&self, program: &Program) -> PreparedProgram {
        PreparedProgram {
            fingerprint: program_fingerprint(program),
            program: program.clone(),
            max_suite_threads: self.max_suite_threads,
            cores: Memo::new(),
            amaps: Memo::new(),
            summaries: SummaryStore::new(),
        }
    }
}

/// A single-flight memo table with hit/miss/seed counters: the one
/// building block of every per-session artifact cache (unrolled cores,
/// address maps, VCFGs, fixpoint rounds).
///
/// Each key owns a slot that is filled at most once.  The map lock only
/// guards slot lookup, never a build, so readers that merely inspect the
/// table — above all the byte-accounting [`Memo::heap_bytes`] walk behind
/// `status` and budget enforcement — never block behind a slow artifact.
/// Callers racing for one key wait on its slot instead of building a
/// second copy: the thread whose closure runs counts the one miss, every
/// other caller (waiters included) a hit.  So every artifact is built
/// exactly once and the counters are a function of the requests alone,
/// whatever the thread schedule.
pub(crate) struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    seeded: AtomicU64,
}

impl<K: Eq + Hash, V> Memo<K, V> {
    pub(crate) fn new() -> Self {
        Self::from_entries(Vec::new())
    }

    /// Rebuilds a table from deserialized entries with zeroed counters.
    ///
    /// Counters describe *this process's* executions — a restored session
    /// starts counting from zero, exactly like a fresh prepare, so warm and
    /// cold sessions remain byte-identical after the timing strip.
    pub(crate) fn from_entries(entries: Vec<(K, Arc<V>)>) -> Self {
        Self {
            slots: Mutex::new(
                entries
                    .into_iter()
                    .map(|(key, value)| (key, Arc::new(OnceLock::from(value))))
                    .collect(),
            ),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
        }
    }

    fn slot(&self, key: K) -> Arc<OnceLock<Arc<V>>> {
        let mut slots = self.slots.lock().expect("memo table poisoned");
        Arc::clone(slots.entry(key).or_default())
    }

    /// The value of `key`, built by `make` if no caller has built it yet.
    pub(crate) fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> Arc<V> {
        let slot = self.slot(key);
        let mut built = false;
        let value = slot.get_or_init(|| {
            built = true;
            Arc::new(make())
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(value)
    }

    /// Fills the slot of `key` with `value` unless it is filled already;
    /// a fill counts as *seeded*, neither hit nor miss.
    fn seed(&self, key: K, value: Arc<V>) -> bool {
        let seeded = self.slot(key).set(value).is_ok();
        if seeded {
            self.seeded.fetch_add(1, Ordering::Relaxed);
        }
        seeded
    }

    /// `(hits, misses, seeded)` so far.
    fn counts(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.seeded.load(Ordering::Relaxed),
        )
    }

    /// Number of filled slots.
    fn len(&self) -> usize {
        let slots = self.slots.lock().expect("memo table poisoned");
        slots.values().filter(|slot| slot.get().is_some()).count()
    }

    /// Snapshot of the filled slots (for aggregation, adoption and
    /// serialization), in no particular order.
    pub(crate) fn entries(&self) -> Vec<(K, Arc<V>)>
    where
        K: Clone,
    {
        self.slots
            .lock()
            .expect("memo table poisoned")
            .iter()
            .filter_map(|(key, slot)| Some((key.clone(), Arc::clone(slot.get()?))))
            .collect()
    }

    /// Estimated owned heap bytes of the filled slots: per entry the key
    /// and the value handle, the key's heap, and the `Arc`-held value in
    /// full (see [`spec_ir::heap`]).
    fn heap_bytes(&self) -> usize
    where
        K: HeapSize,
        V: HeapSize,
    {
        self.slots
            .lock()
            .expect("memo table poisoned")
            .iter()
            .filter_map(|(key, slot)| {
                let value = slot.get()?;
                Some(
                    std::mem::size_of::<K>()
                        + std::mem::size_of::<Arc<V>>()
                        + key.heap_size()
                        + value.heap_size(),
                )
            })
            .sum()
    }
}

/// Key of one unrolled-program variant: whether unrolling runs at all, and
/// under which budget.
pub(crate) type UnrollKey = (bool, UnrollOptions);

/// The parts of a [`SpeculationConfig`] that shape the virtual control flow.
///
/// `Vcfg::build` consumes only the maximum window (`depth_on_miss` bounds
/// the speculative regions) and the merge strategy (resume regions and
/// commit points); `depth_on_hit` and dynamic depth bounding only steer the
/// solver.  Memoizing on this projection lets e.g. a dynamic-bounding
/// ablation share the VCFG of the full configuration.
pub(crate) type VcfgKey = (u32, MergeStrategy);

/// The converged states and solver statistics of one fixpoint round.  The
/// states are `Arc`-shared so cached replays hand them to results without
/// copying.
pub(crate) struct Round {
    pub(crate) states: Arc<Vec<SpecState>>,
    pub(crate) stats: SolveStats,
}

impl HeapSize for Round {
    fn heap_size(&self) -> usize {
        self.states.heap_size()
    }
}

/// Every input that feeds one fixpoint round: cache geometry, shadow
/// tracking, widening delay, the VCFG structure (window length + merge
/// strategy) and the per-color speculation bounds.  The solver is
/// deterministic, so a round is a pure function of this key (within one
/// unrolled program variant).
pub(crate) type RoundKey = (CacheConfig, bool, u32, u32, MergeStrategy, Vec<u32>);

/// Artifacts derived from one unrolled variant of the program.
pub(crate) struct PreparedCore {
    /// The program the analysis actually runs on (after unrolling).
    pub(crate) analyzed: Arc<Program>,
    /// Loop-unrolling statistics.
    pub(crate) unroll: UnrollReport,
    /// Headers of the loops that survived unrolling — the widening points.
    pub(crate) widen_headers: Vec<BlockId>,
    /// Per-block summary keys of `analyzed` (structural block
    /// fingerprints): what the compositional-reuse matcher compares, and
    /// what the artifact tier persists alongside the rounds.
    pub(crate) block_keys: Vec<u64>,
    /// The donor adopted at construction time, when the incremental layer
    /// offered one for this unroll variant: per-block matching plus the
    /// memoized per-VCFG seeding plans.  `None` for cold cores.
    pub(crate) summaries: Option<CoreSummaries>,
    /// Virtual CFGs, memoized per speculation structure.
    pub(crate) vcfgs: Memo<VcfgKey, Vcfg>,
    /// Fixpoint rounds, memoized per solver input.
    pub(crate) rounds: Memo<RoundKey, Round>,
}

impl PreparedCore {
    fn new(
        program: &Program,
        key: UnrollKey,
        donor: Option<DonorSnapshot>,
        store: &SummaryStore,
    ) -> Self {
        let (analyzed, unroll) = if key.0 {
            unroll_counted_loops(program, key.1)
        } else {
            (program.clone(), UnrollReport::default())
        };
        let cfg = Cfg::new(&analyzed);
        let forest = LoopForest::find(&analyzed, &cfg);
        let widen_headers = forest.loops().iter().map(|l| l.header).collect();
        let block_keys = summary_keys(&analyzed);
        let summaries = donor.map(|d| CoreSummaries::build(&analyzed, &block_keys, d, store));
        Self {
            analyzed: Arc::new(analyzed),
            unroll,
            widen_headers,
            block_keys,
            summaries,
            vcfgs: Memo::new(),
            rounds: Memo::new(),
        }
    }

    fn vcfg(&self, config: SpeculationConfig) -> Arc<Vcfg> {
        let key: VcfgKey = (config.depth_on_miss, config.merge_strategy);
        // Built from the key alone (as the static-depth configuration of
        // that structure): the VCFG records its config, so building from
        // the caller's would make the shared value — and the artifact bytes
        // — depend on which configuration happened to ask first.
        let structural = SpeculationConfig {
            depth_on_hit: config.depth_on_miss,
            dynamic_depth_bounding: false,
            ..config
        };
        self.vcfgs
            .get_or_insert_with(key, || Vcfg::build(&self.analyzed, structural))
    }
}

impl HeapSize for PreparedCore {
    fn heap_size(&self) -> usize {
        self.analyzed.heap_size()
            + self.widen_headers.heap_size()
            + self.block_keys.heap_size()
            + self.summaries.as_ref().map_or(0, HeapSize::heap_size)
            + self.vcfgs.heap_bytes()
            + self.rounds.heap_bytes()
    }
}

/// Hit/miss counters of every artifact cache inside a
/// [`PreparedProgram`], cumulative over the session's lifetime.
///
/// * *cores* — unrolled program variants (one per unrolling budget);
/// * *amaps* — address maps (one per cache geometry), including the count
///   *adopted* wholesale from a previous session snapshot by the
///   incremental layer (possible because the memory layout is a pure
///   function of the region table, which the edit left untouched);
/// * *vcfgs* — virtual CFGs (one per speculation structure);
/// * *rounds* — memoized fixpoint rounds;
/// * *summaries* — per-block fixpoint summaries (see `spec_core::summary`):
///   a hit is a block whose converged states were transplanted from an
///   adopted pre-edit session, a miss a block solved by iteration, and
///   *invalidated* counts the blocks an adoption discarded (edited blocks
///   plus transitive dependents).
///
/// For every row `hits + misses` equals the number of times the artifact
/// was requested, and a miss is the one build of that artifact: every table
/// is single-flight, so the counts do not depend on the thread schedule.
/// The counters describe *how* a
/// result was obtained, never *what* it is — [`Report::without_timing`]
/// strips them alongside the clocks so that cached and fresh runs of equal
/// programs serialize to equal bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Unrolled-variant lookups served from the session.
    pub core_hits: u64,
    /// Unrolled-variant recomputations.
    pub core_misses: u64,
    /// Address-map lookups served from the session.
    pub amap_hits: u64,
    /// Address-map recomputations.
    pub amap_misses: u64,
    /// Address maps rebound wholesale from a pre-edit session snapshot.
    pub amap_adopted: u64,
    /// VCFG lookups served from the session.
    pub vcfg_hits: u64,
    /// VCFG recomputations.
    pub vcfg_misses: u64,
    /// Fixpoint rounds replayed from the cache.
    pub round_hits: u64,
    /// Fixpoint rounds actually solved.
    pub round_misses: u64,
    /// Per-block summaries transplanted from an adopted donor session
    /// instead of re-solved, accumulated over every actually-solved round.
    /// Zero unless the incremental layer adopted a prior session.
    pub summary_hits: u64,
    /// Per-block summaries solved by fixpoint iteration, accumulated over
    /// every actually-solved round (a cold solve counts all its blocks
    /// here, so `summary_hits + summary_misses` is the total number of
    /// block summaries the session established).
    pub summary_misses: u64,
    /// Block summaries invalidated at donor-adoption time: the edited
    /// blocks plus their transitive dependents over the block CFG.
    pub summaries_invalidated: u64,
    /// Whole [`PreparedProgram`]s evicted by a session byte budget
    /// ([`crate::incremental::SessionCache::max_session_bytes`]).  Zero for
    /// plain (budget-free) sessions.
    pub session_evictions: u64,
    /// Resident bytes of the owning session cache at snapshot time (the
    /// [`spec_ir::heap::HeapSize`] estimate).  Zero for per-program stats.
    pub session_bytes: u64,
    /// Prepared programs loaded from the on-disk artifact store
    /// ([`crate::artifact::PreparedStore`]) instead of cold-prepared.  Zero
    /// for sessions without a store tier.
    pub store_hits: u64,
    /// Artifact-store lookups that fell through to a cold prepare (missing,
    /// stale or rejected artifact).  Zero for sessions without a store tier.
    pub store_misses: u64,
    /// Total payload bytes deserialized from the artifact store.
    pub store_loaded_bytes: u64,
    /// Acquires served by a worker's thread-local L0 tier without taking
    /// the session lock.  Non-zero only when the owning session is fronted
    /// by a [`crate::cache_session::CacheSession`].
    pub l0_hits: u64,
    /// Acquires served warm by the shared in-memory L1 tier through a
    /// `CacheSession` front (the lock-taking sibling of `l0_hits`).
    pub l1_hits: u64,
    /// The owning session's invalidation generation at snapshot time —
    /// bumped on every entry replacement, budget eviction and removal, and
    /// the signal that clears the L0 tiers.  Zero for per-program stats.
    pub generation: u64,
}

impl CacheStats {
    /// Total lookups served from a cache instead of recomputed.
    pub fn total_hits(&self) -> u64 {
        self.core_hits + self.amap_hits + self.vcfg_hits + self.round_hits
    }

    /// Total artifact recomputations.
    pub fn total_misses(&self) -> u64 {
        self.core_misses + self.amap_misses + self.vcfg_misses + self.round_misses
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cores {}h/{}m, amaps {}h/{}m (+{} adopted), vcfgs {}h/{}m, rounds {}h/{}m",
            self.core_hits,
            self.core_misses,
            self.amap_hits,
            self.amap_misses,
            self.amap_adopted,
            self.vcfg_hits,
            self.vcfg_misses,
            self.round_hits,
            self.round_misses
        )?;
        if self.summary_hits > 0 || self.summaries_invalidated > 0 {
            write!(
                f,
                ", summaries {}h/{}m ({} invalidated)",
                self.summary_hits, self.summary_misses, self.summaries_invalidated
            )?;
        }
        if self.session_bytes > 0 || self.session_evictions > 0 {
            write!(
                f,
                ", sessions {} bytes resident ({} evicted)",
                self.session_bytes, self.session_evictions
            )?;
        }
        if self.store_hits > 0 || self.store_misses > 0 {
            write!(
                f,
                ", store {}h/{}m ({} bytes loaded)",
                self.store_hits, self.store_misses, self.store_loaded_bytes
            )?;
        }
        if self.l0_hits > 0 || self.l1_hits > 0 {
            write!(
                f,
                ", tiers {} l0 / {} l1 (generation {})",
                self.l0_hits, self.l1_hits, self.generation
            )?;
        }
        Ok(())
    }
}

/// A program with its analysis artifacts prepared once and shared across
/// configurations (and threads).
///
/// Created by [`Analyzer::prepare`].  All methods take `&self`; the
/// memoization is internally synchronized, so a prepared program can be
/// shared freely across scoped threads.
pub struct PreparedProgram {
    pub(crate) program: Program,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) max_suite_threads: Option<NonZeroUsize>,
    pub(crate) cores: Memo<UnrollKey, PreparedCore>,
    /// Address maps, memoized per cache geometry.  These live on the
    /// program (not the unrolled core) because the memory layout reads only
    /// the region table, which unrolling preserves verbatim — so every
    /// unroll variant shares one map per geometry, and the incremental
    /// layer can rebind them across edits that leave the regions untouched.
    pub(crate) amaps: Memo<CacheConfig, AddressMap>,
    /// The compositional-summary tier: donor snapshots pending adoption
    /// (stashed by [`PreparedProgram::adopt_summaries`], consumed when the
    /// matching unroll variant's core is built) and the session's summary
    /// hit/miss/invalidation accounting.
    pub(crate) summaries: SummaryStore,
}

impl PreparedProgram {
    /// The original (pre-unrolling) program this session was prepared from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The structural fingerprint of [`PreparedProgram::program`], computed
    /// at preparation time (see [`spec_ir::fingerprint`]).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// A fresh session bound to `program`, carrying this session's
    /// analyzer settings but none of its artifacts — the caller
    /// transplants those via [`PreparedProgram::adopt_address_maps`] and
    /// [`PreparedProgram::adopt_summaries`].  Only sound when `program` is
    /// a pure rename of this session's program (equal name-free
    /// fingerprint): the adopted artifacts embed the analysed structure.
    /// Classification output re-derives names from the *new* program, so
    /// rebinding never leaks pre-rename labels.
    pub(crate) fn rebound(&self, program: &Program) -> PreparedProgram {
        debug_assert_eq!(program_fingerprint(program), self.fingerprint);
        PreparedProgram {
            fingerprint: self.fingerprint,
            program: program.clone(),
            max_suite_threads: self.max_suite_threads,
            cores: Memo::new(),
            amaps: Memo::new(),
            summaries: SummaryStore::new(),
        }
    }

    fn core(&self, options: &AnalysisOptions) -> Arc<PreparedCore> {
        let key: UnrollKey = (options.unroll_loops, options.unroll);
        self.cores.get_or_insert_with(key, || {
            let donor = self.summaries.take(&key);
            PreparedCore::new(&self.program, key, donor, &self.summaries)
        })
    }

    fn amap(&self, cache: CacheConfig) -> Arc<AddressMap> {
        self.amaps
            .get_or_insert_with(cache, || AddressMap::new(&self.program, &cache))
    }

    /// Copies every address map of `donor` that this session has not built
    /// yet.  Sound whenever the two programs' region tables are
    /// structurally equal (`spec_ir::fingerprint::regions_fingerprint`) —
    /// the check is the caller's job; [`crate::incremental::SessionCache`]
    /// performs it before every adoption.  Returns the number adopted.
    pub(crate) fn adopt_address_maps(&self, donor: &PreparedProgram) -> u64 {
        let mut adopted = 0;
        for (cache, amap) in donor.amaps.entries() {
            if self.amaps.seed(cache, amap) {
                adopted += 1;
            }
        }
        adopted
    }

    /// Snapshots every unroll variant of `donor` as a pending summary
    /// source for this session (see `spec_core::summary`): when this
    /// session builds the matching variant, unchanged blocks seed their
    /// fixpoint states from the snapshot instead of re-solving.
    ///
    /// Like [`PreparedProgram::adopt_address_maps`], the *caller* gates the
    /// call — [`crate::incremental::SessionCache`] only adopts across edits
    /// that preserve the region table (`regions_fingerprint`), because the
    /// donor's converged states embed the donor's memory layout.  Within
    /// that gate, reuse is further validated structurally per block and per
    /// VCFG at seeding time, so adoption never changes results — only how
    /// much of the fixpoint is recomputed.  Returns the number of variants
    /// stashed.
    pub(crate) fn adopt_summaries(&self, donor: &PreparedProgram) -> u64 {
        let mut stashed = 0;
        for (key, core) in donor.cores.entries() {
            self.summaries.stash(key, DonorSnapshot::of(&core));
            stashed += 1;
        }
        stashed
    }

    /// The cumulative [`CacheStats`] of this session.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        (stats.core_hits, stats.core_misses, _) = self.cores.counts();
        (stats.amap_hits, stats.amap_misses, stats.amap_adopted) = self.amaps.counts();
        (
            stats.summary_hits,
            stats.summary_misses,
            stats.summaries_invalidated,
        ) = self.summaries.counts();
        for (_, core) in self.cores.entries() {
            let (vh, vm, _) = core.vcfgs.counts();
            stats.vcfg_hits += vh;
            stats.vcfg_misses += vm;
            let (rh, rm, _) = core.rounds.counts();
            stats.round_hits += rh;
            stats.round_misses += rm;
        }
        stats
    }

    /// A cheap, monotone change detector over the session's artifact
    /// contents: the sum of every *miss* and *adoption* counter.
    ///
    /// Hits leave the memo tables untouched, so two equal stamps mean no
    /// artifact was built or adopted in between — exactly the condition
    /// under which both the [`HeapSize`] measurement and the serialized
    /// form of this session are unchanged.  Budget accounting and the
    /// artifact-store dirty tracking both key off this instead of
    /// re-walking the tables.
    pub fn growth_stamp(&self) -> u64 {
        let stats = self.cache_stats();
        stats.core_misses
            + stats.amap_misses
            + stats.amap_adopted
            + stats.vcfg_misses
            + stats.round_misses
    }

    /// Runs one configuration, reusing every prepared artifact.
    ///
    /// The returned result is bit-identical to
    /// `CacheAnalysis::new(*options).run(program)`; `result.elapsed` covers
    /// only this call, so second runs of a configuration family reflect the
    /// session savings.
    pub fn run(&self, options: &AnalysisOptions) -> AnalysisResult {
        let start = Instant::now();
        let core = self.core(options);
        let amap = self.amap(options.cache);
        let spec = options.effective_speculation();
        let vcfg = core.vcfg(spec);
        let widen_nodes = core
            .widen_headers
            .iter()
            .map(|header| vcfg.graph().first_node_of_block(*header).index())
            .collect();
        let vcfg_key: VcfgKey = (spec.depth_on_miss, spec.merge_strategy);
        let summary = SummaryCtx {
            seed: core.summaries.as_ref().and_then(|summaries| {
                summaries
                    .seed_for(vcfg_key, &core.analyzed, &vcfg, &widen_nodes)
                    .map(|plan| (plan, summaries))
            }),
            store: &self.summaries,
        };
        solve_prepared(
            options,
            &core.analyzed,
            core.unroll,
            &vcfg,
            &amap,
            &widen_nodes,
            &core.rounds,
            summary,
            start,
        )
    }

    /// Runs every labelled configuration, fanning out across scoped worker
    /// threads (bounded by [`Analyzer::max_suite_threads`] or the machine's
    /// parallelism), and returns the results in input order.
    ///
    /// Prepared artifacts are shared across the workers, so the suite does
    /// strictly less work than the equivalent sequence of fresh
    /// [`crate::CacheAnalysis::run`] calls even on a single core.
    pub fn run_suite<L: AsRef<str>>(&self, configs: &[(L, AnalysisOptions)]) -> Suite {
        let start = Instant::now();
        let labelled: Vec<(String, AnalysisOptions)> = configs
            .iter()
            .map(|(label, options)| (label.as_ref().to_string(), *options))
            .collect();
        let threads = self.suite_threads(labelled.len());
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<SuiteRun>>> =
            Mutex::new(labelled.iter().map(|_| None).collect());

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some((label, options)) = labelled.get(index) else {
                        break;
                    };
                    let result = self.run(options);
                    let run = SuiteRun {
                        label: label.clone(),
                        options: *options,
                        result,
                    };
                    slots.lock().expect("suite slots poisoned")[index] = Some(run);
                });
            }
        });

        let runs = slots
            .into_inner()
            .expect("suite slots poisoned")
            .into_iter()
            .map(|run| run.expect("every configuration was run"))
            .collect();
        Suite {
            program: self.program.name().to_string(),
            runs,
            elapsed: start.elapsed(),
            cache_stats: self.cache_stats(),
        }
    }

    fn suite_threads(&self, jobs: usize) -> usize {
        let available = self
            .max_suite_threads
            .map(NonZeroUsize::get)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        available.min(jobs).max(1)
    }
}

impl HeapSize for PreparedProgram {
    /// The deterministic byte estimate driving
    /// [`crate::incremental::SessionCache`] eviction: the program itself
    /// plus every memoized artifact (unrolled cores with their VCFGs and
    /// fixpoint rounds, address maps).  Grows as runs populate the memo
    /// tables, which is why budget holders re-measure after every request
    /// rather than caching the number at install time.
    fn heap_size(&self) -> usize {
        self.program.heap_size() + self.cores.heap_bytes() + self.amaps.heap_bytes()
    }
}

impl fmt::Debug for PreparedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedProgram")
            .field("program", &self.program.name())
            .field("fingerprint", &self.fingerprint)
            .field("prepared_variants", &self.cores.len())
            .finish()
    }
}

/// One labelled run of a [`Suite`].
#[derive(Debug)]
pub struct SuiteRun {
    /// The caller-supplied label of this configuration.
    pub label: String,
    /// The configuration that was run.
    pub options: AnalysisOptions,
    /// The analysis result.
    pub result: AnalysisResult,
}

/// Results of [`PreparedProgram::run_suite`], in input order.
#[derive(Debug)]
pub struct Suite {
    /// Name of the analysed program.
    pub program: String,
    /// One run per input configuration, in input order.
    pub runs: Vec<SuiteRun>,
    /// Wall-clock time of the whole suite.
    pub elapsed: Duration,
    /// The session's cumulative cache counters, captured when the suite
    /// finished.
    pub cache_stats: CacheStats,
}

impl Suite {
    /// The run with the given label, if any.
    pub fn get(&self, label: &str) -> Option<&SuiteRun> {
        self.runs.iter().find(|run| run.label == label)
    }

    /// Summarizes the suite into a unified, labelled [`Report`].
    pub fn report(&self) -> Report {
        Report {
            program: self.program.clone(),
            elapsed: Some(self.elapsed),
            cache: Some(self.cache_stats),
            rows: self
                .runs
                .iter()
                .map(|run| ReportRow::from_result(&run.label, &run.result))
                .collect(),
        }
    }
}

/// A unified, labelled summary of one or more analysis runs of a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// Name of the analysed program.
    pub program: String,
    /// Wall-clock time of the suite that produced this report, if any.
    pub elapsed: Option<Duration>,
    /// Session cache counters at report time, if the producer had a
    /// session.  Like `elapsed`, this describes the *execution*, not the
    /// result: [`Report::without_timing`] strips it.
    pub cache: Option<CacheStats>,
    /// One row per labelled run.
    pub rows: Vec<ReportRow>,
}

impl Report {
    /// Builds a report from individually labelled results (e.g. one-shot
    /// runs outside a suite).
    pub fn from_runs<'a, I>(program: impl Into<String>, runs: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a AnalysisResult)>,
    {
        Self {
            program: program.into(),
            elapsed: None,
            cache: None,
            rows: runs
                .into_iter()
                .map(|(label, result)| ReportRow::from_result(label, result))
                .collect(),
        }
    }

    /// Merges several reports of the **same program** into one, keeping the
    /// rows in input order (first report's rows first).  This is the
    /// config-axis fan-in primitive: when one program's configuration panel
    /// was split across invocations (e.g. different sweeps of the same
    /// program run on different machines), their labelled reports recombine
    /// here.  The program-axis counterpart — many programs, one panel — is
    /// [`crate::batch::BatchReport::merge`].
    ///
    /// The merged report carries no suite wall-clock (the inputs ran on
    /// different clocks), so merging is deterministic up to row times.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::Empty`] for an empty input,
    /// [`MergeError::ProgramMismatch`] when the reports disagree about the
    /// program name, and [`MergeError::DuplicateLabel`] when two rows carry
    /// the same label (a label must identify one configuration).
    pub fn merge(reports: impl IntoIterator<Item = Report>) -> Result<Report, MergeError> {
        let mut iter = reports.into_iter();
        let first = iter.next().ok_or(MergeError::Empty)?;
        let mut merged = Report {
            program: first.program,
            elapsed: None,
            cache: None,
            rows: Vec::new(),
        };
        let mut absorb = |report_rows: Vec<ReportRow>| -> Result<(), MergeError> {
            for row in report_rows {
                if merged.rows.iter().any(|r| r.label == row.label) {
                    return Err(MergeError::DuplicateLabel { label: row.label });
                }
                merged.rows.push(row);
            }
            Ok(())
        };
        absorb(first.rows)?;
        for report in iter {
            if report.program != merged.program {
                return Err(MergeError::ProgramMismatch {
                    expected: merged.program.clone(),
                    found: report.program,
                });
            }
            absorb(report.rows)?;
        }
        Ok(merged)
    }

    /// Strips the non-deterministic fields (suite wall-clock, per-row times
    /// and session cache counters), leaving only values that are pure
    /// functions of the program and the configurations.  Two runs of the
    /// same panel — threaded, sharded, sequential, or restored from an
    /// artifact store — agree bit-for-bit on the result, which is what
    /// makes [`crate::batch`] reports mergeable and diffable in CI.
    ///
    /// Per-row `iterations` (worklist pops) are stripped too: they describe
    /// how much of the fixpoint was *recomputed*, which compositional
    /// summary seeding legitimately shrinks without changing any result.
    pub fn without_timing(mut self) -> Report {
        self.elapsed = None;
        self.cache = None;
        for row in &mut self.rows {
            row.time = Duration::ZERO;
            row.iterations = 0;
        }
        self
    }

    /// Serializes the report as a JSON object, for tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"program\": {},\n",
            json::string(&self.program)
        ));
        if let Some(elapsed) = self.elapsed {
            out.push_str(&format!(
                "  \"suite_elapsed_secs\": {},\n",
                json::float(elapsed.as_secs_f64())
            ));
        }
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                "  \"session_cache\": {{\"core_hits\": {}, \"core_misses\": {}, \
                 \"amap_hits\": {}, \"amap_misses\": {}, \"amap_adopted\": {}, \
                 \"vcfg_hits\": {}, \"vcfg_misses\": {}, \"round_hits\": {}, \
                 \"round_misses\": {}, \
                 \"summary_hits\": {}, \"summary_misses\": {}, \
                 \"summaries_invalidated\": {}, \
                 \"session_evictions\": {}, \"session_bytes\": {}, \
                 \"store_hits\": {}, \"store_misses\": {}, \
                 \"store_loaded_bytes\": {}, \"l0_hits\": {}, \
                 \"l1_hits\": {}, \"generation\": {}}},\n",
                cache.core_hits,
                cache.core_misses,
                cache.amap_hits,
                cache.amap_misses,
                cache.amap_adopted,
                cache.vcfg_hits,
                cache.vcfg_misses,
                cache.round_hits,
                cache.round_misses,
                cache.summary_hits,
                cache.summary_misses,
                cache.summaries_invalidated,
                cache.session_evictions,
                cache.session_bytes,
                cache.store_hits,
                cache.store_misses,
                cache.store_loaded_bytes,
                cache.l0_hits,
                cache.l1_hits,
                cache.generation
            ));
        }
        out.push_str("  \"runs\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"label\": {}, ", json::string(&row.label)));
            out.push_str(&format!("\"accesses\": {}, ", row.accesses));
            out.push_str(&format!("\"must_hits\": {}, ", row.must_hits));
            out.push_str(&format!("\"misses\": {}, ", row.misses));
            out.push_str(&format!(
                "\"speculative_misses\": {}, ",
                row.speculative_misses
            ));
            out.push_str(&format!("\"secret_accesses\": {}, ", row.secret_accesses));
            out.push_str(&format!(
                "\"unsafe_secret_accesses\": {}, ",
                row.unsafe_secret_accesses
            ));
            out.push_str(&format!(
                "\"speculated_branches\": {}, ",
                row.speculated_branches
            ));
            out.push_str(&format!("\"iterations\": {}, ", row.iterations));
            out.push_str(&format!("\"rounds\": {}, ", row.rounds));
            out.push_str(&format!(
                "\"time_secs\": {}",
                json::float(row.time.as_secs_f64())
            ));
            out.push_str(if i + 1 == self.rows.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program `{}`", self.program)?;
        writeln!(
            f,
            "{:<24} {:>9} {:>9} {:>8} {:>8} {:>9} {:>11} {:>9}",
            "configuration",
            "accesses",
            "must-hit",
            "misses",
            "sp-miss",
            "branches",
            "iterations",
            "time(s)"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<24} {:>9} {:>9} {:>8} {:>8} {:>9} {:>11} {:>9.3}",
                row.label,
                row.accesses,
                row.must_hits,
                row.misses,
                row.speculative_misses,
                row.speculated_branches,
                row.iterations,
                row.time.as_secs_f64()
            )?;
        }
        if let Some(elapsed) = self.elapsed {
            writeln!(f, "suite wall-clock: {:.3}s", elapsed.as_secs_f64())?;
        }
        if let Some(cache) = &self.cache {
            writeln!(f, "session cache: {cache}")?;
        }
        Ok(())
    }
}

/// Why [`Report::merge`] refused to combine its inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No reports were supplied.
    Empty,
    /// The reports describe different programs.
    ProgramMismatch {
        /// Program of the first report.
        expected: String,
        /// Conflicting program encountered later.
        found: String,
    },
    /// Two rows carry the same configuration label.
    DuplicateLabel {
        /// The offending label.
        label: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "cannot merge zero reports"),
            MergeError::ProgramMismatch { expected, found } => write!(
                f,
                "cannot merge reports of different programs (`{expected}` vs `{found}`)"
            ),
            MergeError::DuplicateLabel { label } => {
                write!(f, "duplicate configuration label `{label}`")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Summary of one labelled analysis run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportRow {
    /// The run's label.
    pub label: String,
    /// Total memory accesses classified.
    pub accesses: usize,
    /// Accesses guaranteed to hit in every committed execution.
    pub must_hits: usize,
    /// Accesses that may miss in a committed execution (`#Miss`).
    pub misses: usize,
    /// Accesses that may miss during squashed speculation (`#SpMiss`).
    pub speculative_misses: usize,
    /// Accesses whose index depends on secret data.
    pub secret_accesses: usize,
    /// Secret-indexed accesses that are not provably timing-neutral: they
    /// may miss observably, or they may miss during squashed speculation.
    /// A nonzero count is the cache side-channel indicator.
    pub unsafe_secret_accesses: usize,
    /// Conditional branches that may speculate.
    pub speculated_branches: usize,
    /// Fixpoint iterations (worklist pops) across all rounds.  Execution
    /// detail, not a result: summary seeding shrinks it without changing
    /// any classification, so [`Report::without_timing`] zeroes it.
    pub iterations: u64,
    /// Fixpoint rounds (1 unless dynamic depth bounding refined).
    pub rounds: u32,
    /// Wall-clock time of this run.
    pub time: Duration,
}

impl ReportRow {
    /// Summarizes one analysis result under a label.
    pub fn from_result(label: &str, result: &AnalysisResult) -> Self {
        Self {
            label: label.to_string(),
            accesses: result.access_count(),
            must_hits: result.must_hit_count(),
            misses: result.miss_count(),
            speculative_misses: result.speculative_miss_count(),
            secret_accesses: result.secret_accesses().count(),
            unsafe_secret_accesses: result
                .secret_accesses()
                .filter(|a| !a.observable_hit || a.is_speculative_miss())
                .count(),
            speculated_branches: result.speculated_branches,
            iterations: result.iterations(),
            rounds: result.rounds,
            time: result.elapsed,
        }
    }
}

/// The standard comparison panel over one cache geometry: the labelled
/// configurations the paper's tables keep contrasting.  Used by the `specan
/// compare` subcommand and handy as a ready-made [`PreparedProgram::run_suite`]
/// input.
pub fn comparison_configs(cache: CacheConfig) -> Vec<(String, AnalysisOptions)> {
    let build = |builder: crate::options::AnalysisOptionsBuilder| {
        builder
            .cache(cache)
            .build()
            .expect("comparison presets are valid")
    };
    vec![
        (
            "baseline".to_string(),
            build(AnalysisOptions::builder().baseline()),
        ),
        ("speculative".to_string(), build(AnalysisOptions::builder())),
        (
            "merge-at-rollback".to_string(),
            build(AnalysisOptions::builder().merge_strategy(MergeStrategy::MergeAtRollback)),
        ),
        (
            "no-shadow".to_string(),
            build(AnalysisOptions::builder().shadow(false)),
        ),
        (
            "static-depth".to_string(),
            build(AnalysisOptions::builder().dynamic_depth_bounding(false)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_ir::builder::ProgramBuilder;
    use spec_ir::{BranchSemantics, IndexExpr, MemRef};

    fn diamond_program() -> Program {
        let mut b = ProgramBuilder::new("diamond");
        let table = b.region("table", 4 * 64, false);
        let flag = b.region("flag", 8, false);
        let entry = b.entry_block("entry");
        let then_bb = b.block("then");
        let else_bb = b.block("else");
        let done = b.block("done");
        b.load_sweep(entry, table, 0, 64, 4);
        b.load(entry, flag, IndexExpr::Const(0));
        b.data_branch(
            entry,
            vec![MemRef::at(flag, 0)],
            BranchSemantics::InputBit { bit: 0 },
            then_bb,
            else_bb,
        );
        b.load(then_bb, table, IndexExpr::Const(0));
        b.jump(then_bb, done);
        b.load(else_bb, table, IndexExpr::Const(64));
        b.jump(else_bb, done);
        b.load(done, table, IndexExpr::secret(64));
        b.ret(done);
        b.finish().unwrap()
    }

    #[test]
    fn vcfgs_are_shared_across_structurally_equal_configs() {
        let program = diamond_program();
        let prepared = Analyzer::new().prepare(&program);
        let cache = CacheConfig::fully_associative(6, 64);
        let full = AnalysisOptions::builder().cache(cache).build().unwrap();
        let no_shadow = AnalysisOptions::builder()
            .cache(cache)
            .shadow(false)
            .build()
            .unwrap();
        let static_depth = AnalysisOptions::builder()
            .cache(cache)
            .dynamic_depth_bounding(false)
            .build()
            .unwrap();
        prepared.run(&full);
        prepared.run(&no_shadow);
        prepared.run(&static_depth);
        let core = prepared.core(&full);
        assert_eq!(
            core.vcfgs.len(),
            1,
            "shadow and dynamic-bounding variants share one VCFG"
        );
        // The baseline (zero windows) is a different structure.
        prepared.run(
            &AnalysisOptions::builder()
                .baseline()
                .cache(cache)
                .build()
                .unwrap(),
        );
        assert_eq!(core.vcfgs.len(), 2);
        // The counters agree with the memo table: 4 runs requested a VCFG,
        // 2 were built.
        let stats = prepared.cache_stats();
        assert_eq!(stats.vcfg_misses, 2);
        assert_eq!(stats.vcfg_hits + stats.vcfg_misses, 4);
        assert_eq!(stats.amap_misses, 1, "one geometry, one address map");
        assert_eq!(stats.core_misses, 1, "one unroll budget, one core");
    }

    #[test]
    fn seeding_rounds_are_shared_across_dynamic_configs() {
        let program = diamond_program();
        let prepared = Analyzer::new().prepare(&program);
        let cache = CacheConfig::fully_associative(6, 64);
        let full = AnalysisOptions::builder().cache(cache).build().unwrap();
        let optimistic = AnalysisOptions::builder()
            .cache(cache)
            .speculation_depths(10, 200)
            .build()
            .unwrap();
        let first = prepared.run(&full);
        let second = prepared.run(&optimistic);
        let rounds_run = first.rounds + second.rounds;
        let rounds_solved = prepared.core(&full).rounds.len() as u32;
        assert!(
            rounds_solved < rounds_run,
            "the zero-bounds seeding pass must be solved once and replayed: \
             {rounds_run} rounds run, {rounds_solved} solved"
        );
    }

    #[test]
    fn suite_preserves_input_order_and_labels() {
        let program = diamond_program();
        let prepared = Analyzer::new().prepare(&program);
        let cache = CacheConfig::fully_associative(6, 64);
        let suite = prepared.run_suite(&comparison_configs(cache));
        let labels: Vec<&str> = suite.runs.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "baseline",
                "speculative",
                "merge-at-rollback",
                "no-shadow",
                "static-depth"
            ]
        );
        assert!(suite.get("speculative").is_some());
        assert!(suite.get("nonexistent").is_none());
    }

    #[test]
    fn report_json_is_well_formed_enough_for_tooling() {
        let program = diamond_program();
        let prepared = Analyzer::new().prepare(&program);
        let cache = CacheConfig::fully_associative(6, 64);
        let suite = prepared.run_suite(&[(
            "a \"quoted\" label".to_string(),
            AnalysisOptions::builder().cache(cache).build().unwrap(),
        )]);
        let json = suite.report().to_json();
        assert!(json.contains("\"a \\\"quoted\\\" label\""));
        assert!(json.contains("\"suite_elapsed_secs\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    fn toy_report(program: &str, labels: &[&str]) -> Report {
        Report {
            program: program.to_string(),
            elapsed: Some(Duration::from_secs(1)),
            cache: Some(CacheStats::default()),
            rows: labels
                .iter()
                .map(|label| ReportRow {
                    label: label.to_string(),
                    accesses: 1,
                    must_hits: 1,
                    misses: 0,
                    speculative_misses: 0,
                    secret_accesses: 0,
                    unsafe_secret_accesses: 0,
                    speculated_branches: 0,
                    iterations: 1,
                    rounds: 1,
                    time: Duration::from_millis(5),
                })
                .collect(),
        }
    }

    #[test]
    fn merge_concatenates_rows_in_input_order() {
        let merged = Report::merge([
            toy_report("p", &["a", "b"]),
            toy_report("p", &["c"]),
            toy_report("p", &[]),
            toy_report("p", &["d"]),
        ])
        .unwrap();
        let labels: Vec<&str> = merged.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c", "d"]);
        assert_eq!(merged.elapsed, None, "merged reports carry no wall-clock");
    }

    #[test]
    fn merge_rejects_duplicate_labels_and_mixed_programs() {
        assert_eq!(
            Report::merge([toy_report("p", &["a"]), toy_report("p", &["a"])]),
            Err(MergeError::DuplicateLabel {
                label: "a".to_string()
            })
        );
        // A duplicate within a single input is just as ambiguous.
        assert_eq!(
            Report::merge([toy_report("p", &["x", "x"])]),
            Err(MergeError::DuplicateLabel {
                label: "x".to_string()
            })
        );
        assert_eq!(
            Report::merge([toy_report("p", &["a"]), toy_report("q", &["b"])]),
            Err(MergeError::ProgramMismatch {
                expected: "p".to_string(),
                found: "q".to_string()
            })
        );
        assert_eq!(Report::merge([]), Err(MergeError::Empty));
    }

    #[test]
    fn without_timing_strips_every_clock() {
        let stripped = toy_report("p", &["a", "b"]).without_timing();
        assert_eq!(stripped.elapsed, None);
        assert_eq!(stripped.cache, None, "cache counters are execution detail");
        assert!(stripped.rows.iter().all(|r| r.time == Duration::ZERO));
        assert!(
            stripped.rows.iter().all(|r| r.iterations == 0),
            "worklist pops describe the recomputation, not the result"
        );
        // Everything else is untouched.
        assert_eq!(stripped.rows.len(), 2);
        assert_eq!(stripped.rows[0].accesses, 1);
    }

    #[test]
    fn memo_builds_each_value_once_under_contention() {
        let memo: Memo<u32, u32> = Memo::new();
        let builds = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let value = memo.get_or_insert_with(7, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(50));
                        42
                    });
                    assert_eq!(*value, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "the builder runs once");
        assert_eq!(memo.counts(), (7, 1, 0), "one miss, every waiter a hit");
        // A filled slot refuses a seed; an empty one takes it.
        assert!(!memo.seed(7, Arc::new(0)));
        assert!(memo.seed(8, Arc::new(0)));
        assert_eq!(memo.counts(), (7, 1, 1));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn suite_reports_surface_cache_counters() {
        let program = diamond_program();
        let prepared = Analyzer::new().prepare(&program);
        let cache = CacheConfig::fully_associative(6, 64);
        let suite = prepared.run_suite(&comparison_configs(cache));
        let report = suite.report();
        let stats = report.cache.expect("suites carry cache stats");
        assert_eq!(stats, prepared.cache_stats());
        assert!(stats.round_misses > 0);
        let json = report.to_json();
        assert!(json.contains("\"session_cache\""));
        assert!(json.contains(&format!("\"round_misses\": {}", stats.round_misses)));
        // The stripped form is free of execution detail.
        let stripped = report.without_timing();
        assert_eq!(stripped.cache, None);
        assert!(!stripped.to_json().contains("session_cache"));

        // Re-running every configuration replays it in full, matches a
        // fresh run, and keeps the ledger: every round is either replayed
        // or solved, and every run looks up one core and one address map.
        let configs = comparison_configs(cache);
        let mut total_rounds: u64 = suite.runs.iter().map(|r| u64::from(r.result.rounds)).sum();
        for (label, options) in &configs {
            let rerun = prepared.run(options);
            let fresh = Analyzer::new().prepare(&program).run(options);
            assert_eq!(rerun.accesses, fresh.accesses, "{label}");
            assert_eq!(rerun.rounds, fresh.rounds, "{label}");
            assert_eq!(rerun.bounds, fresh.bounds, "{label}");
            total_rounds += u64::from(rerun.rounds);
        }
        let after = prepared.cache_stats();
        assert_eq!(
            after.round_misses, stats.round_misses,
            "reruns solve nothing"
        );
        assert_eq!(after.round_hits + after.round_misses, total_rounds);
        assert_eq!(
            after.core_hits + after.core_misses,
            2 * configs.len() as u64
        );
        assert_eq!(
            after.amap_hits + after.amap_misses,
            2 * configs.len() as u64
        );
    }

    #[test]
    fn empty_suite_is_fine() {
        let program = diamond_program();
        let prepared = Analyzer::new().prepare(&program);
        let configs: [(&str, AnalysisOptions); 0] = [];
        let suite = prepared.run_suite(&configs);
        assert!(suite.runs.is_empty());
        assert_eq!(suite.report().rows.len(), 0);
    }
}
