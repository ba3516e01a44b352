//! Compositional-equivalence property suite.
//!
//! The compositional fixpoint (see `spec_core::summary`) lets an
//! incremental re-preparation seed unchanged blocks with their previously
//! converged states and re-solve only the edited region.  That is an
//! *optimization*, never a semantics: a partially-reused preparation must
//! produce byte-identical reports (after [`Report::without_timing`]) to a
//! cold preparation of the same program.  This suite drives random ladder
//! programs through random single-block edits and checks
//!
//! * **byte identity**: warm (summary-seeded) and cold reports agree
//!   byte-for-byte once timing is stripped;
//! * **the accounting ledger**: every actually-solved round classifies
//!   each block as exactly one of summary hit or summary miss, so
//!   `summary_hits + summary_misses = solved rounds × blocks`;
//! * **invalidation scope**: the summaries invalidated by an adoption are
//!   exactly the edited blocks plus their transitive successors (the
//!   dependency-tracked forward closure), once per adopted core.

use std::sync::Arc;
use std::time::Duration;

use spec_cache::CacheConfig;
use spec_core::{
    AnalysisOptions, Analyzer, CacheOutcome, CacheSession, PreparedProgram, Report, SessionCache,
};
use spec_ir::builder::ProgramBuilder;
use spec_ir::fingerprint::block_fingerprint;
use spec_ir::{program_fingerprint, BranchSemantics, IndexExpr, MemRef, Program, RegionId};

/// Deterministic LCG (Numerical Recipes constants): the suite must not
/// flake, only cover.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const REGION_BYTES: u64 = 4096;
const LINE: u64 = 64;

/// Builds a deterministic "ladder" program from `seed`: `segments` diamond
/// segments chained head → {then, else} → next head, every block carrying
/// a few random loads.  Blocks are created in a fixed order, so the block
/// at source index `i` is stable across calls with the same seed.
///
/// `overrides` maps a block index to a replacement byte offset for that
/// block's first load.  The RNG stream is consumed identically whether or
/// not an override applies, so two builds with the same seed differ in
/// exactly the overridden blocks — a surgical per-block edit.  Generated
/// offsets stay below `REGION_BYTES / 2`; pass an override at or above it
/// to guarantee the edit changes the block.
fn ladder(seed: u64, segments: usize, overrides: &[(usize, u64)]) -> Program {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut b = ProgramBuilder::new("ladder");
    let regions: Vec<RegionId> = (0..4)
        .map(|i| b.region(format!("r{i}"), REGION_BYTES, false))
        .collect();
    let p = b.region("p", LINE, false);

    // Pre-create every block in source order so block index == label index:
    // entry = 0, then per segment s: then = 3s+1, else = 3s+2, head = 3s+3.
    let entry = b.entry_block("entry");
    let mut blocks = vec![entry];
    for s in 0..segments {
        blocks.push(b.block(format!("then{s}")));
        blocks.push(b.block(format!("else{s}")));
        blocks.push(b.block(format!("head{}", s + 1)));
    }

    for (i, &block) in blocks.iter().enumerate() {
        let loads = 2 + rng.below(3);
        for l in 0..loads {
            let region = regions[rng.below(4) as usize];
            let drawn = rng.below(REGION_BYTES / (2 * 8)) * 8;
            let offset = match overrides.iter().find(|(bi, _)| *bi == i) {
                Some((_, replacement)) if l == 0 => *replacement,
                _ => drawn,
            };
            b.load(block, region, IndexExpr::Const(offset));
        }
        let bit = rng.below(8) as u32;
        // Heads branch into their segment's arms; arms rejoin at the next
        // head; the final head returns.
        let is_head = i % 3 == 0;
        if is_head && i / 3 < segments {
            let s = i / 3;
            b.load(block, p, IndexExpr::Const(0));
            b.data_branch(
                block,
                vec![MemRef::at(p, 0)],
                BranchSemantics::InputBit { bit },
                blocks[3 * s + 1],
                blocks[3 * s + 2],
            );
        } else if is_head {
            b.ret(block);
        } else {
            let s = (i - 1) / 3;
            b.jump(block, blocks[3 * s + 3]);
        }
    }
    b.finish().unwrap()
}

fn configs() -> Vec<(&'static str, AnalysisOptions)> {
    let cache = CacheConfig::fully_associative(8, 64);
    vec![
        (
            "baseline",
            AnalysisOptions::builder()
                .baseline()
                .cache(cache)
                .build()
                .unwrap(),
        ),
        (
            "speculative",
            AnalysisOptions::builder().cache(cache).build().unwrap(),
        ),
    ]
}

/// The cold reference: a fresh session, same configurations, stripped.
fn cold_report(program: &Program) -> Report {
    Analyzer::new()
        .prepare(program)
        .run_suite(&configs())
        .report()
        .without_timing()
}

/// Resolves `program` through the session front and demands a miss: an
/// edited program is prepared again, seeded from the entry it replaces.
fn prepare_miss(session: &CacheSession, program: &Program) -> Arc<PreparedProgram> {
    match session.acquire(program) {
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(program),
        other => panic!("a new program version must miss, got `{}`", other.tag()),
    }
}

/// The forward closure the invalidation must cover: block indices of the
/// new analyzed program whose per-block fingerprint differs positionally
/// from the donor's, plus every transitive successor.  Mirrors the
/// dependency tracking in `spec_core::summary` from the outside.
fn expected_invalidated(donor_analyzed: &Program, new_analyzed: &Program) -> u64 {
    let donor_keys: Vec<_> = donor_analyzed
        .blocks()
        .iter()
        .map(block_fingerprint)
        .collect();
    let n = new_analyzed.blocks().len();
    let mut invalid = vec![false; n];
    for (i, block) in new_analyzed.blocks().iter().enumerate() {
        if donor_keys.get(i) != Some(&block_fingerprint(block)) {
            invalid[i] = true;
        }
    }
    let mut work: Vec<usize> = (0..n).filter(|&i| invalid[i]).collect();
    while let Some(i) = work.pop() {
        for succ in new_analyzed.blocks()[i].term.successors() {
            if !invalid[succ.index()] {
                invalid[succ.index()] = true;
                work.push(succ.index());
            }
        }
    }
    invalid.iter().filter(|&&inv| inv).count() as u64
}

#[test]
fn one_block_edit_reuses_every_upstream_summary() {
    let segments = 4;
    let last = 3 * segments; // the final head: every other block is upstream
    let p1 = ladder(7, segments, &[]);
    let p2 = ladder(7, segments, &[(last, REGION_BYTES / 2)]);
    assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));

    let session = CacheSession::new(SessionCache::new());
    let up1 = prepare_miss(&session, &p1);
    let suite1 = up1.run_suite(&configs());
    assert_eq!(
        up1.cache_stats().summary_hits,
        0,
        "a cold preparation has no donor to seed from"
    );

    // An edited program must re-prepare: `prepare_miss` demands the miss.
    let up2 = prepare_miss(&session, &p2);
    let suite2 = up2.run_suite(&configs());
    let stats = up2.cache_stats();
    assert!(
        stats.summary_hits > 0,
        "editing the last block must reuse upstream summaries: {stats}"
    );
    assert!(stats.summaries_invalidated > 0, "the edited block itself");
    assert!(
        stats.summary_hits > stats.summaries_invalidated,
        "a tail edit freezes more than it invalidates: {stats}"
    );

    // The seeded run is byte-identical to a cold run once timing is
    // stripped — the tentpole's determinism guarantee.
    assert_eq!(
        suite2.report().without_timing().to_json(),
        cold_report(&p2).to_json()
    );
    // And the donor run itself was a plain cold run.
    assert_eq!(
        suite1.report().without_timing().to_json(),
        cold_report(&p1).to_json()
    );
}

#[test]
fn random_edits_are_byte_identical_and_keep_the_ledger() {
    let mut rng = Lcg(0x5eed_0bad_c0de_2026);
    let mut total_hits = 0u64;
    for trial in 0..12 {
        let seed = rng.next();
        let segments = 2 + rng.below(3) as usize;
        let block_count = 1 + 3 * segments;
        let edited = rng.below(block_count as u64) as usize;
        let replacement = REGION_BYTES / 2 + rng.below(REGION_BYTES / (2 * 8)) * 8;
        let p1 = ladder(seed, segments, &[]);
        let p2 = ladder(seed, segments, &[(edited, replacement)]);
        assert_ne!(
            program_fingerprint(&p1),
            program_fingerprint(&p2),
            "trial {trial}: the override must be a real edit"
        );

        let session = CacheSession::new(SessionCache::new());
        let suite1 = prepare_miss(&session, &p1).run_suite(&configs());
        let up2 = prepare_miss(&session, &p2);
        let suite2 = up2.run_suite(&configs());

        // Byte identity post-strip against a cold preparation.
        assert_eq!(
            suite2.report().without_timing().to_json(),
            cold_report(&p2).to_json(),
            "trial {trial} (edit at block {edited}): seeded and cold reports diverge"
        );

        // The ledger: every solved round classified each block exactly once.
        let stats = up2.cache_stats();
        let blocks = suite2.runs[0].result.program.blocks().len() as u64;
        assert_eq!(
            stats.summary_hits + stats.summary_misses,
            stats.round_misses * blocks,
            "trial {trial}: hits + misses must equal solved rounds × blocks: {stats}"
        );

        // Invalidation is the dependency-tracked forward closure, counted
        // once per adopted core.
        let donor_analyzed = &suite1.runs[0].result.program;
        let new_analyzed = &suite2.runs[0].result.program;
        let closure = expected_invalidated(donor_analyzed, new_analyzed);
        assert_eq!(
            stats.summaries_invalidated,
            stats.core_misses * closure,
            "trial {trial}: invalidation must cover exactly the closure of the edit"
        );
        assert!(closure >= 1, "trial {trial}: the edited block itself");

        total_hits += stats.summary_hits;
    }
    assert!(
        total_hits > 0,
        "across all trials, at least some summaries must have been reused"
    );
}

#[test]
fn unrelated_programs_do_not_seed_each_other() {
    // Different seeds produce structurally unrelated ladders: adoption may
    // stash a donor, but no block matches, so nothing is reused and the
    // result is still exactly the cold one.
    let p1 = ladder(11, 3, &[]);
    let p2 = ladder(13, 3, &[]);
    let session = CacheSession::new(SessionCache::new());
    prepare_miss(&session, &p1).run_suite(&configs());
    let up2 = prepare_miss(&session, &p2);
    let suite2 = up2.run_suite(&configs());
    assert_eq!(
        up2.cache_stats().summary_hits,
        0,
        "no block of an unrelated program may reuse a donor summary"
    );
    assert_eq!(
        suite2.report().without_timing().to_json(),
        cold_report(&p2).to_json()
    );
}

/// Cross-restart reuse: the store tier's name index connects an edited
/// program to its predecessor's artifact, so even a *fresh process* (here:
/// a fresh `SessionCache` over the same artifact directory) seeds its
/// re-preparation from the donor — and is still byte-identical to cold.
#[test]
fn summary_reuse_survives_a_restart_through_the_artifact_store() {
    let dir = std::env::temp_dir().join(format!(
        "spec-core-compositional-restart-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let segments = 4;
    let p1 = ladder(17, segments, &[]);
    let p2 = ladder(17, segments, &[(3 * segments, REGION_BYTES / 2)]);

    // First "process": analyse and persist the donor (checkpoint flushes
    // the memoized rounds to the artifact, the CLI's request-boundary
    // behaviour).
    {
        let session = CacheSession::new(
            SessionCache::new().artifact_store(spec_core::PreparedStore::open(&dir)),
        );
        let prepared = match session.acquire(&p1) {
            CacheOutcome::NeedsPrepare(guard) => guard.prepare(&p1),
            _ => panic!("an empty session must miss"),
        };
        prepared.run_suite(&configs());
        session.checkpoint();
    }

    // Second "process": edit arrived, memory is cold, only the store
    // remains.  The name index must surface the predecessor as a donor.
    let session =
        CacheSession::new(SessionCache::new().artifact_store(spec_core::PreparedStore::open(&dir)));
    let prepared = match session.acquire(&p2) {
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(&p2),
        other => panic!("the edited fingerprint cannot be stored: {}", other.tag()),
    };
    let suite = prepared.run_suite(&configs());
    let stats = prepared.cache_stats();
    assert!(
        stats.summary_hits > 0,
        "the store-tier donor must seed the re-preparation: {stats}"
    );
    assert_eq!(
        suite.report().without_timing().to_json(),
        cold_report(&p2).to_json()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the stale-name rebind: the structural fingerprint is
/// name-free, so a pure region rename fingerprints identically to its
/// donor, and serving the cached session on the fingerprint alone would
/// leak the *old* names into reports.  A name-exact acquire of the rename
/// misses as `renamed` instead, and the commit re-prepares under the new
/// names while adopting the donor's address maps and summaries.
#[test]
fn pure_rename_rebinds_to_the_new_names_without_losing_reuse() {
    fn tiny(region: &str) -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let t = b.region(region, 2 * LINE, false);
        let entry = b.entry_block("entry");
        b.load(entry, t, IndexExpr::Const(0));
        b.load(entry, t, IndexExpr::Const(0));
        b.ret(entry);
        b.finish().unwrap()
    }

    let old = tiny("t");
    let renamed = tiny("t_v2");
    assert_ne!(old, renamed);
    assert_eq!(
        program_fingerprint(&old),
        program_fingerprint(&renamed),
        "a pure rename is structurally identical — that is the trap"
    );

    let session = CacheSession::new(SessionCache::new());
    prepare_miss(&session, &old).run_suite(&configs());
    let CacheOutcome::NeedsPrepare(guard) = session.acquire(&renamed) else {
        panic!("a rename must not be served the donor's names");
    };
    assert!(
        guard.renamed(),
        "the structure was found: the miss is a rename, not an edit"
    );
    let rebound = guard.prepare(&renamed);
    assert_eq!(
        rebound.program(),
        &renamed,
        "the served session must carry the *new* names, not the donor's"
    );
    // The commit transplanted the donor's fixpoints: the renamed run
    // seeds from them instead of re-solving, and stays byte-identical.
    let renamed_suite = rebound.run_suite(&configs());
    let stats = rebound.cache_stats();
    assert!(
        stats.summary_hits > 0,
        "a rename must reuse the donor's summaries, got {stats}"
    );
    assert_eq!(
        cold_report(&renamed).to_json(),
        renamed_suite.report().without_timing().to_json(),
        "the rebound run must match a cold analysis of the renamed program"
    );

    // An identical re-parse is served warm — same handle, no new work.
    match session.acquire(&renamed) {
        CacheOutcome::L0Hit(hit) | CacheOutcome::WarmHit(hit) => {
            assert!(Arc::ptr_eq(&hit, &rebound));
        }
        other => panic!("an identical program is served warm, got `{}`", other.tag()),
    }
    let ledger = session.stats();
    assert_eq!((ledger.inserted, ledger.invalidated), (1, 1));
    assert!(ledger.reconciles());
}

/// `Report::without_timing` must strip *every* execution-dependent field —
/// the byte-identity guarantee leans on it.  `iterations` counts worklist
/// pops, which summary seeding legitimately shrinks.
#[test]
fn timing_strip_covers_iterations() {
    let p = ladder(5, 2, &[]);
    let report = Analyzer::new()
        .prepare(&p)
        .run_suite(&configs())
        .report()
        .without_timing();
    assert!(report.elapsed.is_none());
    assert!(report.cache.is_none());
    for row in &report.rows {
        assert_eq!(row.time, Duration::ZERO);
        assert_eq!(row.iterations, 0);
    }
}
