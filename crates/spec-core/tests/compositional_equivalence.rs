//! Report-stripping checks for the equivalence suites.
//!
//! Every equivalence suite (incremental, artifact, service) compares a
//! warm report with a cold one byte-for-byte after
//! [`Report::without_timing`].  That comparison is only sound if the strip
//! removes every execution-dependent field, which this suite pins down on
//! a deterministic ladder program.

use std::time::Duration;

use spec_cache::CacheConfig;
use spec_core::{AnalysisOptions, Analyzer};
use spec_ir::builder::ProgramBuilder;
use spec_ir::{BranchSemantics, IndexExpr, MemRef, Program, RegionId};

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

/// `Report::without_timing` must strip *every* execution-dependent field —
/// the byte-identity guarantee leans on it.  `iterations` counts worklist
/// pops, a solver detail rather than a result of the analysis.
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
