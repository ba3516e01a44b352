//! Edit-equivalence property suite for the incremental session layer.
//!
//! The contract under test: however a program is edited, running it through
//! a long-lived [`SessionCache`] produces a report **bit-identical** to a
//! fresh `Analyzer::prepare` run — same leak verdicts, same label order,
//! same serialized bytes once the execution-describing fields are stripped.
//! Rename-only edits must additionally *rebind* the previous session
//! (fingerprints ignore names), and edits to one program of a multi-program
//! session must leave every other program's artifacts bound.
//!
//! Like `property_soundness`, the generator is a deterministic xorshift
//! PRNG, so the workspace stays dependency-free and a failure reproduces
//! from the printed case number.

use speculative_absint::cache::CacheConfig;
use speculative_absint::core::batch::ProgramVerdict;
use speculative_absint::core::incremental::SessionCache;
use speculative_absint::core::session::comparison_configs;
use speculative_absint::core::{AnalysisOptions, Analyzer, Report};
use speculative_absint::ir::builder::ProgramBuilder;
use speculative_absint::ir::fingerprint::program_fingerprint;
use speculative_absint::ir::{
    BasicBlock, BranchSemantics, IndexExpr, Inst, MemRef, MemoryRegion, Program, RegionId,
};

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

#[test]
fn incremental_reports_are_bit_identical_to_fresh_runs() {
    let mut rng = Rng::new(0x5eed_1001);
    let configs = configs();
    for case in 0..CASES {
        let mut session = SessionCache::new();
        // A multi-program session: the edit below touches exactly one.
        let programs: Vec<Program> = (0..3)
            .map(|i| random_program(&mut rng, &format!("p{i}")))
            .collect();
        for program in &programs {
            session.update(program).prepared.run_suite(&configs);
        }
        let reused_before = session.stats().reused;

        let victim = rng.below(3) as usize;
        let (edited, what) = apply_edit(&mut rng, &programs[victim]);
        let structurally_same =
            program_fingerprint(&edited) == program_fingerprint(&programs[victim]);

        let update = session.update(&edited);
        assert_eq!(
            update.reused, structurally_same,
            "case {case} ({what}): reuse must track fingerprint equality exactly"
        );
        if what == "rename" {
            assert!(
                update.reused,
                "case {case}: renames must never invalidate the session"
            );
        }
        if let Some(diff) = &update.diff {
            assert_eq!(
                diff.is_identical(),
                structurally_same,
                "case {case} ({what}): diff identity must agree with the fingerprint"
            );
        }

        // The incremental report is bit-identical to a fresh analysis —
        // rows, label order, serialized bytes.
        let incremental = update
            .prepared
            .run_suite(&configs)
            .report()
            .without_timing();
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
        // rebinds every prepared artifact.
        for (i, program) in programs.iter().enumerate() {
            if i != victim {
                let other = session.update(program);
                assert!(other.reused, "case {case}: untouched program {i} rebinds");
                let report = other.prepared.run_suite(&configs).report().without_timing();
                assert_eq!(report, fresh_report(program), "case {case}: program {i}");
            }
        }
        assert!(
            session.stats().reused >= reused_before + 2,
            "case {case}: both untouched programs must count as reused"
        );
    }

    // A chain of edits through one long-lived session — each edit applied
    // to the previous edit's output — matches fresh runs at every step.
    let mut session = SessionCache::new();
    let mut program = random_program(&mut rng, "chained");
    for step in 0..4 {
        let report = session
            .update(&program)
            .prepared
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
    let mut session = SessionCache::new();
    let programs: Vec<Program> = (0..3)
        .map(|i| random_program(&mut rng, &format!("q{i}")))
        .collect();
    for program in &programs {
        session.update(program).prepared.run_suite(&configs);
    }
    let baseline_stats: Vec<_> = programs
        .iter()
        .map(|p| session.get(p.name()).unwrap().cache_stats())
        .collect();

    // Edit q1 only; rerun the whole bundle through the session.
    let (edited, _) = apply_edit(&mut rng, &programs[1]);
    for program in [&programs[0], &edited, &programs[2]] {
        session.update(program).prepared.run_suite(&configs);
    }

    for (i, program) in programs.iter().enumerate() {
        let stats = session.get(program.name()).unwrap().cache_stats();
        if i == 1 {
            continue;
        }
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
    assert_eq!(session.stats().reused, 2);
    assert_eq!(session.stats().inserted, 3);
}
