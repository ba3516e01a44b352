//! Edit-equivalence property suite for the incremental session layer.
//!
//! The contract under test: however a program is edited, running it through
//! a long-lived [`CacheSession`] produces a report **bit-identical** to a
//! fresh `Analyzer::prepare` run — same leak verdicts, same label order,
//! same serialized bytes once the execution-describing fields are stripped.
//! Rename-only edits must additionally be recognised as renames
//! (fingerprints ignore names) and re-prepared under the new names, and
//! edits to one program of a multi-program session must leave every other
//! program's artifacts bound.
//!
//! Like `property_soundness`, the generator is a deterministic xorshift
//! PRNG, so the workspace stays dependency-free and a failure reproduces
//! from the printed case number.

use std::sync::Arc;

use speculative_absint::cache::CacheConfig;
use speculative_absint::core::batch::ProgramVerdict;
use speculative_absint::core::cache_session::{CacheOutcome, CacheSession};
use speculative_absint::core::incremental::SessionCache;
use speculative_absint::core::session::comparison_configs;
use speculative_absint::core::{AnalysisOptions, Analyzer, PreparedProgram, Report, SessionStats};
use speculative_absint::ir::builder::ProgramBuilder;
use speculative_absint::ir::fingerprint::{program_fingerprint, ProgramDiff};
use speculative_absint::ir::{
    BasicBlock, BranchSemantics, IndexExpr, Inst, MemRef, MemoryRegion, Program, RegionId,
};
use speculative_absint::workloads::ete_suite;

const LINES: usize = 8;
const CASES: u64 = 24;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A random diamond-shaped program in the style of `property_soundness`,
/// with a couple of always-present regions so edits have material to work
/// with.
fn random_program(rng: &mut Rng, name: &str) -> Program {
    let mut b = ProgramBuilder::new(name);
    let table = b.region("table", 12 * 64, false);
    let flag = b.region("flag", 8, false);
    let _key = b.secret_region("key", 8);
    let entry = b.entry_block("entry");
    for i in 0..1 + rng.below(6) {
        b.load(entry, table, IndexExpr::Const((i % 12) * 64));
    }
    b.load(entry, flag, IndexExpr::Const(0));
    let mut current = entry;
    for d in 0..rng.below(3) {
        let then_bb = b.block(format!("then{d}"));
        let else_bb = b.block(format!("else{d}"));
        let join = b.block(format!("join{d}"));
        b.data_branch(
            current,
            vec![MemRef::at(flag, 0)],
            BranchSemantics::InputBit {
                bit: (d % 8) as u32,
            },
            then_bb,
            else_bb,
        );
        for _ in 0..rng.below(3) {
            b.load(then_bb, table, IndexExpr::Const(rng.below(12) * 64));
        }
        b.jump(then_bb, join);
        for _ in 0..rng.below(3) {
            b.load(else_bb, table, IndexExpr::Const(rng.below(12) * 64));
        }
        b.jump(else_bb, join);
        current = join;
    }
    if rng.below(2) == 1 {
        b.load(current, table, IndexExpr::secret(64));
    }
    b.ret(current);
    b.finish().expect("generated program is well-formed")
}

/// Rebuilds a program from edited parts.
fn rebuild(p: &Program, regions: Vec<MemoryRegion>, blocks: Vec<BasicBlock>) -> Program {
    Program::new(p.name(), regions, blocks, p.entry()).expect("edited program stays valid")
}

/// Applies one random single-function edit and describes it.
fn apply_edit(rng: &mut Rng, p: &Program) -> (Program, &'static str) {
    let mut blocks = p.blocks().to_vec();
    let mut regions = p.regions().to_vec();
    let block = rng.below(blocks.len() as u64) as usize;
    let table = RegionId::from_raw(0);
    match rng.below(6) {
        // Insert a random instruction at a random position.
        0 => {
            let inst = match rng.below(4) {
                0 => Inst::Load(MemRef::at(table, rng.below(12) * 64)),
                1 => Inst::Store(MemRef::at(table, rng.below(12) * 64)),
                2 => Inst::Compute {
                    latency: rng.below(5) as u32,
                },
                _ => Inst::Nop,
            };
            let at = rng.below(blocks[block].insts.len() as u64 + 1) as usize;
            blocks[block].insts.insert(at, inst);
            (rebuild(p, regions, blocks), "insert")
        }
        // Delete an instruction somewhere (if one exists).
        1 => {
            if let Some(block) = blocks.iter_mut().find(|b| !b.insts.is_empty()) {
                let at = rng.below(block.insts.len() as u64) as usize;
                block.insts.remove(at);
            }
            (rebuild(p, regions, blocks), "delete")
        }
        // Reorder: swap two instructions of one block.
        2 => {
            if let Some(block) = blocks.iter_mut().find(|b| b.insts.len() >= 2) {
                let i = rng.below(block.insts.len() as u64) as usize;
                let j = rng.below(block.insts.len() as u64) as usize;
                block.insts.swap(i, j);
            }
            (rebuild(p, regions, blocks), "reorder")
        }
        // Rename every block label and region: a structural no-op.
        3 => {
            for (i, block) in blocks.iter_mut().enumerate() {
                block.name = if rng.below(4) == 0 {
                    None
                } else {
                    Some(format!("relabel{i}"))
                };
            }
            for (i, region) in regions.iter_mut().enumerate() {
                region.name = format!("renamed{i}");
            }
            (rebuild(p, regions, blocks), "rename")
        }
        // Retarget a constant offset.
        4 => {
            if let Some(block) = blocks.iter_mut().find(|b| {
                b.insts
                    .iter()
                    .any(|i| matches!(i, Inst::Load(m) if m.index.is_static()))
            }) {
                for inst in &mut block.insts {
                    if let Inst::Load(m) = inst {
                        if m.index.is_static() {
                            *inst = Inst::Load(MemRef::at(m.region, rng.below(12) * 64));
                            break;
                        }
                    }
                }
            }
            (rebuild(p, regions, blocks), "retarget")
        }
        // Grow a region (changes the memory layout).
        _ => {
            regions[0].size_bytes += 64;
            (rebuild(p, regions, blocks), "grow-region")
        }
    }
}

fn configs() -> Vec<(String, AnalysisOptions)> {
    comparison_configs(CacheConfig::fully_associative(LINES, 64))
}

/// The deterministic report of a fresh, session-free analysis.
fn fresh_report(program: &Program) -> Report {
    Analyzer::new()
        .prepare(program)
        .run_suite(&configs())
        .report()
        .without_timing()
}

/// Resolves `program` through the session front, whichever tier answers.
/// Returns the handle and whether a tier served it (`false`: prepared).
fn acquire(session: &CacheSession, program: &Program) -> (Arc<PreparedProgram>, bool) {
    match session.acquire(program) {
        CacheOutcome::L0Hit(prepared)
        | CacheOutcome::WarmHit(prepared)
        | CacheOutcome::StoreHit(prepared) => (prepared, true),
        CacheOutcome::NeedsPrepare(guard) => (guard.prepare(program), false),
    }
}

#[test]
fn incremental_reports_are_bit_identical_to_fresh_runs() {
    let mut rng = Rng::new(0x5eed_1001);
    let configs = configs();
    for case in 0..CASES {
        let session = CacheSession::new(SessionCache::new());
        // A multi-program session: the edit below touches exactly one.
        let programs: Vec<Program> = (0..3)
            .map(|i| random_program(&mut rng, &format!("p{i}")))
            .collect();
        for program in &programs {
            acquire(&session, program).0.run_suite(&configs);
        }
        let warm = |stats: SessionStats| stats.l0_hits + stats.l1_hits;
        let warm_before = warm(session.stats());

        let victim = rng.below(3) as usize;
        let (edited, what) = apply_edit(&mut rng, &programs[victim]);
        let structurally_same =
            program_fingerprint(&edited) == program_fingerprint(&programs[victim]);

        // A tier serves the edited program only when it is identical; a
        // structurally equal one under other names is a renamed miss.
        let (prepared, hit, renamed) = match session.acquire(&edited) {
            CacheOutcome::NeedsPrepare(guard) => {
                let renamed = guard.renamed();
                (guard.prepare(&edited), false, renamed)
            }
            CacheOutcome::L0Hit(prepared)
            | CacheOutcome::WarmHit(prepared)
            | CacheOutcome::StoreHit(prepared) => (prepared, true, false),
        };
        assert_eq!(
            hit || renamed,
            structurally_same,
            "case {case} ({what}): reuse must track fingerprint equality exactly"
        );
        assert_eq!(
            hit,
            edited == programs[victim],
            "case {case} ({what}): only an identical program is served as is"
        );
        if what == "rename" {
            assert!(
                renamed,
                "case {case}: renames are recognised by structure and re-prepared"
            );
        }
        assert_eq!(
            ProgramDiff::between(&programs[victim], &edited).is_identical(),
            structurally_same,
            "case {case} ({what}): diff identity must agree with the fingerprint"
        );

        // The incremental report is bit-identical to a fresh analysis —
        // rows, label order, serialized bytes.
        let incremental = prepared.run_suite(&configs).report().without_timing();
        let fresh = fresh_report(&edited);
        assert_eq!(incremental, fresh, "case {case} ({what})");
        assert_eq!(
            incremental.to_json(),
            fresh.to_json(),
            "case {case} ({what}): serialized bytes must match"
        );
        let labels: Vec<&str> = incremental.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "baseline",
                "speculative",
                "merge-at-rollback",
                "no-shadow",
                "static-depth"
            ],
            "case {case}: label order"
        );
        // Leak verdicts agree (the batch layer's rule applied to both).
        let fingerprint = program_fingerprint(&edited);
        assert_eq!(
            ProgramVerdict::from_report(incremental, fingerprint).leak,
            ProgramVerdict::from_report(fresh, fingerprint).leak,
            "case {case} ({what})"
        );

        // The other programs' sessions were not disturbed: re-parsing them
        // is served warm with every prepared artifact.
        for (i, program) in programs.iter().enumerate() {
            if i != victim {
                let (other, hit) = acquire(&session, program);
                assert!(hit, "case {case}: untouched program {i} is served warm");
                let report = other.run_suite(&configs).report().without_timing();
                assert_eq!(report, fresh_report(program), "case {case}: program {i}");
            }
        }
        assert!(
            warm(session.stats()) >= warm_before + 2,
            "case {case}: both untouched programs must count as warm hits"
        );
        assert!(session.stats().reconciles(), "case {case}");
    }

    // A chain of edits through one long-lived session — each edit applied
    // to the previous edit's output — matches fresh runs at every step.
    let session = CacheSession::new(SessionCache::new());
    let mut program = random_program(&mut rng, "chained");
    for step in 0..4 {
        let report = acquire(&session, &program)
            .0
            .run_suite(&configs)
            .report()
            .without_timing();
        assert_eq!(report, fresh_report(&program), "chained step {step}");
        (program, _) = apply_edit(&mut rng, &program);
    }
}

/// Editing one program of a prepared multi-program session reuses all
/// cached artifacts of the untouched programs — the acceptance criterion,
/// asserted through the cache counters themselves.
#[test]
fn editing_one_program_reuses_untouched_artifacts() {
    let mut rng = Rng::new(0x5eed_1002);
    let configs = configs();
    let session = CacheSession::new(SessionCache::new());
    let programs: Vec<Program> = (0..3)
        .map(|i| random_program(&mut rng, &format!("q{i}")))
        .collect();
    let prepared: Vec<Arc<PreparedProgram>> = programs
        .iter()
        .map(|program| {
            let (prepared, _) = acquire(&session, program);
            prepared.run_suite(&configs);
            prepared
        })
        .collect();
    let baseline_stats: Vec<_> = prepared.iter().map(|p| p.cache_stats()).collect();

    // Edit q1 only; rerun the whole bundle through the session.
    let (edited, _) = apply_edit(&mut rng, &programs[1]);
    let rerun: Vec<(Arc<PreparedProgram>, bool)> = [&programs[0], &edited, &programs[2]]
        .into_iter()
        .map(|program| {
            let (prepared, hit) = acquire(&session, program);
            prepared.run_suite(&configs);
            (prepared, hit)
        })
        .collect();

    for i in [0, 2] {
        let (handle, hit) = &rerun[i];
        assert!(hit, "program {i} is served warm");
        assert!(
            Arc::ptr_eq(handle, &prepared[i]),
            "program {i} kept its PreparedProgram"
        );
        let stats = handle.cache_stats();
        // Untouched programs kept their PreparedProgram: the second suite
        // hit the memoized artifacts instead of rebuilding them.
        assert_eq!(
            stats.core_misses, baseline_stats[i].core_misses,
            "program {i}: no unroll variant was rebuilt"
        );
        assert_eq!(
            stats.amap_misses, baseline_stats[i].amap_misses,
            "program {i}: no address map was rebuilt"
        );
        assert_eq!(
            stats.vcfg_misses, baseline_stats[i].vcfg_misses,
            "program {i}: no VCFG was rebuilt"
        );
        assert_eq!(
            stats.round_misses, baseline_stats[i].round_misses,
            "program {i}: no fixpoint round was re-solved"
        );
        assert!(
            stats.round_hits > baseline_stats[i].round_hits,
            "program {i}: the second suite replayed memoized rounds"
        );
    }
    let stats = session.stats();
    assert_eq!(stats.l0_hits + stats.l1_hits, 2);
    assert_eq!(stats.inserted, 3);
    assert!(stats.reconciles());
}

/// Duplicates the last memory access of the last memory-touching block: a
/// surgical single-block edit that leaves the region table (and therefore
/// the address-map adoption gate) untouched, the typical in-place patch.
fn edit_one_block(program: &Program) -> Program {
    let mut blocks = program.blocks().to_vec();
    let victim = blocks
        .iter()
        .rposition(|b| b.insts.iter().any(|i| i.accesses_memory()))
        .expect("every ETE workload touches memory");
    let dup = blocks[victim]
        .insts
        .iter()
        .rev()
        .find(|i| i.accesses_memory())
        .copied()
        .expect("victim block has a memory access");
    blocks[victim].insts.push(dup);
    rebuild(program, program.regions().to_vec(), blocks)
}

/// A one-block edit of an ETE workload, re-prepared through the session
/// that holds its predecessor, reports exactly what a cold preparation
/// reports.
#[test]
fn one_block_ete_edits_re_prepare_and_match_cold() {
    const ETE_LINES: u64 = 16;
    let configs = comparison_configs(CacheConfig::fully_associative(ETE_LINES as usize, 64));
    let workloads: Vec<_> = ete_suite(ETE_LINES)
        .into_iter()
        .filter(|workload| ["jcphuff", "vga"].contains(&workload.name()))
        .collect();
    assert_eq!(workloads.len(), 2);
    for workload in workloads {
        let name = workload.name();
        let session = CacheSession::new(SessionCache::new());
        acquire(&session, &workload.program).0.run_suite(&configs);

        let edited = edit_one_block(&workload.program);
        let CacheOutcome::NeedsPrepare(guard) = session.acquire(&edited) else {
            panic!("`{name}`: an edited program must re-prepare");
        };
        let report = guard
            .prepare(&edited)
            .run_suite(&configs)
            .report()
            .without_timing();
        let cold = Analyzer::new()
            .prepare(&edited)
            .run_suite(&configs)
            .report()
            .without_timing();
        assert_eq!(
            report.to_json(),
            cold.to_json(),
            "`{name}`: the re-prepared report diverged from the cold one"
        );
    }
}

/// A "ladder" of `segments` diamonds (head → {then, else} → next head)
/// whose blocks carry a few loads drawn from `seed`.  Blocks are created in
/// source order (entry, then per segment: then, else, head), and
/// `edit = Some(i)` moves the first load of block `i` to an offset the
/// generator never draws, so two builds with the same seed differ in
/// exactly that block.
fn ladder(seed: u64, segments: usize, edit: Option<usize>) -> Program {
    const REGION_BYTES: u64 = 4096;
    let mut rng = Rng::new(seed);
    let mut b = ProgramBuilder::new("ladder");
    let regions: Vec<RegionId> = (0..4)
        .map(|i| b.region(format!("r{i}"), REGION_BYTES, false))
        .collect();
    let flag = b.region("p", 64, false);
    let mut blocks = vec![b.entry_block("entry")];
    for s in 0..segments {
        blocks.push(b.block(format!("then{s}")));
        blocks.push(b.block(format!("else{s}")));
        blocks.push(b.block(format!("head{}", s + 1)));
    }
    for (i, &block) in blocks.iter().enumerate() {
        for l in 0..2 + rng.below(3) {
            let region = regions[rng.below(4) as usize];
            let drawn = rng.below(REGION_BYTES / 16) * 8;
            let offset = if l == 0 && edit == Some(i) {
                REGION_BYTES / 2 + drawn
            } else {
                drawn
            };
            b.load(block, region, IndexExpr::Const(offset));
        }
        let bit = rng.below(8) as u32;
        if i % 3 == 0 && i / 3 < segments {
            let s = i / 3;
            b.load(block, flag, IndexExpr::Const(0));
            b.data_branch(
                block,
                vec![MemRef::at(flag, 0)],
                BranchSemantics::InputBit { bit },
                blocks[3 * s + 1],
                blocks[3 * s + 2],
            );
        } else if i % 3 == 0 {
            b.ret(block);
        } else {
            b.jump(block, blocks[3 * ((i - 1) / 3) + 3]);
        }
    }
    b.finish().expect("ladder is well-formed")
}

/// Random one-block edits, re-prepared through the session that holds the
/// original, report byte-identically to a cold `Analyzer::prepare` of the
/// edited program.
#[test]
fn random_one_block_edits_re_prepare_byte_identically_to_cold() {
    let mut rng = Rng::new(0x5eed_1003);
    let configs = configs();
    for trial in 0..12 {
        let seed = rng.next_u64();
        let segments = 2 + rng.below(3) as usize;
        let block = rng.below(1 + 3 * segments as u64) as usize;
        let original = ladder(seed, segments, None);
        let edited = ladder(seed, segments, Some(block));
        assert_eq!(
            ProgramDiff::between(&original, &edited)
                .changed_blocks
                .len(),
            1,
            "trial {trial}: the edit touches exactly block {block}"
        );

        let session = CacheSession::new(SessionCache::new());
        acquire(&session, &original).0.run_suite(&configs);
        let CacheOutcome::NeedsPrepare(guard) = session.acquire(&edited) else {
            panic!("trial {trial}: an edited program must re-prepare");
        };
        let report = guard
            .prepare(&edited)
            .run_suite(&configs)
            .report()
            .without_timing();
        assert_eq!(
            report.to_json(),
            fresh_report(&edited).to_json(),
            "trial {trial} (edit at block {block}): re-prepared and cold reports diverge"
        );
    }
}

/// A pure region rename fingerprints like its predecessor, so serving the
/// resident session on the fingerprint alone would leak the old names into
/// reports.  The name-exact acquire misses as a rename instead, and the
/// re-prepared session reports the new names.
#[test]
fn rename_only_re_prepare_reports_the_new_names() {
    fn tiny(region: &str) -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let t = b.region(region, 128, false);
        let entry = b.entry_block("entry");
        b.load(entry, t, IndexExpr::Const(0));
        b.load(entry, t, IndexExpr::Const(0));
        b.ret(entry);
        b.finish().unwrap()
    }

    let old = tiny("t");
    let renamed = tiny("t_v2");
    assert_ne!(old, renamed);
    assert_eq!(program_fingerprint(&old), program_fingerprint(&renamed));

    let session = CacheSession::new(SessionCache::new());
    acquire(&session, &old).0.run_suite(&configs());
    let CacheOutcome::NeedsPrepare(guard) = session.acquire(&renamed) else {
        panic!("a rename must not be served the old names");
    };
    assert!(
        guard.renamed(),
        "the structure was found: the miss is a rename"
    );
    let rebound = guard.prepare(&renamed);
    assert_eq!(rebound.program(), &renamed);
    let suite = rebound.run_suite(&configs());
    for run in &suite.runs {
        assert_eq!(run.result.program.regions()[0].name, "t_v2");
    }
    assert_eq!(
        suite.report().without_timing().to_json(),
        fresh_report(&renamed).to_json()
    );

    // An identical re-parse is served warm: same handle, no new work.
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
