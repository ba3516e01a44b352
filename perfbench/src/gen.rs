//! Seeded inputs: the `.spec` corpus rendered from `spec-workloads` at one
//! cache scale, renamed variants of it, and single-block edits.
//!
//! The program under test only ever sees the text this module writes; the
//! seed decides order, variants and edits, never the scale.

use spec_workloads::{crypto_suite, ete_suite};

/// The one cache scale (64-byte lines, fully associative) every workload
/// generates its inputs at and analyses them under.
pub const CACHE_LINES: u64 = 32;

/// The seed `BENCHMARK.json` runs are compared against; the golden digests
/// of seed-dependent outputs are recorded for it.
pub const DEFAULT_SEED: u64 = 1;

/// Deterministic LCG (the Numerical Recipes constants the compositional
/// equivalence suite uses): the same seed yields the same stream on every
/// platform.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform index into a slice of length `n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

/// One generated input program: its name and `.spec` text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// The 10 ETE and 10 crypto programs at [`CACHE_LINES`], in suite order.
pub fn corpus() -> Vec<Source> {
    let ete = ete_suite(CACHE_LINES).into_iter().map(|w| w.program);
    let crypto = crypto_suite(CACHE_LINES)
        .into_iter()
        .map(|(w, _)| w.program);
    ete.chain(crypto)
        .map(|program| Source {
            name: program.name().to_string(),
            text: program.to_string(),
        })
        .collect()
}

/// The corpus programs named in `names`, in that order.
pub fn select(corpus: &[Source], names: &[&str]) -> Vec<Source> {
    names
        .iter()
        .map(|name| {
            corpus
                .iter()
                .find(|source| source.name == *name)
                .unwrap_or_else(|| panic!("`{name}` is not a corpus program"))
                .clone()
        })
        .collect()
}

/// `source` under a new program name: only the `program` header changes,
/// so the variant is structurally identical to the original.
pub fn rename(source: &Source, name: &str) -> Source {
    let (header, body) = source
        .text
        .split_once('\n')
        .expect("rendered programs have a body");
    assert_eq!(header, format!("program {}", source.name));
    Source {
        name: name.to_string(),
        text: format!("program {name}\n{body}"),
    }
}

/// Variant `k` of `source`: the program itself for `k = 0`, otherwise
/// renamed to `<name>_v<k>` with `k` `nop`s closing its entry block.  The
/// padding gives every variant its own structural fingerprint (so its own
/// session and artifact) without changing a single cache access.
pub fn variant(source: &Source, k: usize) -> Source {
    if k == 0 {
        return source.clone();
    }
    let renamed = rename(source, &format!("{}_v{k}", source.name));
    let mut lines: Vec<String> = renamed.text.lines().map(str::to_string).collect();
    let entry = lines
        .iter()
        .position(|line| line.starts_with("block ") && line.ends_with(" entry:"))
        .expect("rendered programs mark their entry block");
    let terminator = (entry + 1..lines.len())
        .find(|&i| !lines[i].starts_with("  "))
        .unwrap_or(lines.len())
        - 1;
    for _ in 0..k {
        lines.insert(terminator, "  nop".to_string());
    }
    Source {
        name: renamed.name,
        text: join(&lines),
    }
}

/// What one edit-loop step does to the program text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Insert a constant-offset load into the block.
    Insert,
    /// Delete one constant-offset load of the block.
    Delete,
    /// Move one constant-offset load of the block to another offset.
    Retarget,
    /// Save the file unchanged.
    Resave,
}

/// Applies a seeded one-block edit of `kind` to `text` and returns the new
/// text with the kind actually applied.  The block is drawn uniformly among
/// those the kind applies to: any block for an insert, blocks with two or
/// more constant-offset loads for a delete (so one always remains), blocks
/// with one or more for a retarget; a kind no block admits becomes an
/// insert.  Inserted and retargeted loads reuse a `(region, offset)` some
/// other constant load of the program already has, so an edit never widens
/// the program's memory footprint and the edited program costs about what
/// the original does to analyse.  The region table never changes, which is
/// what lets the analysis reuse the summaries of every other block.
pub fn edit(text: &str, kind: EditKind, rng: &mut Lcg) -> (String, EditKind) {
    if kind == EditKind::Resave {
        return (text.to_string(), kind);
    }
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Every block as `(header line, terminator line)`: its instructions are
    // the indented lines in between, the terminator the last of them.
    let blocks: Vec<(usize, usize)> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("block "))
        .map(|start| {
            let end = (start + 1..lines.len())
                .find(|&i| !lines[i].starts_with("  "))
                .unwrap_or(lines.len());
            (start, end - 1)
        })
        .collect();
    let loads: Vec<(usize, String, u64)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, line)| const_load(line).map(|(region, offset)| (i, region, offset)))
        .collect();
    assert!(
        !loads.is_empty(),
        "the corpus programs have constant-offset loads"
    );
    let loads_in = |&(start, terminator): &(usize, usize)| -> Vec<usize> {
        loads
            .iter()
            .map(|(i, _, _)| *i)
            .filter(|i| (start + 1..terminator).contains(i))
            .collect()
    };
    let admits = |kind: EditKind, block: &(usize, usize)| match kind {
        EditKind::Delete => loads_in(block).len() >= 2,
        EditKind::Retarget => !loads_in(block).is_empty(),
        _ => true,
    };
    let kind = if blocks.iter().any(|block| admits(kind, block)) {
        kind
    } else {
        EditKind::Insert
    };
    let eligible: Vec<&(usize, usize)> = blocks.iter().filter(|b| admits(kind, b)).collect();
    let block = eligible[rng.index(eligible.len())];
    let (start, terminator) = *block;
    match kind {
        EditKind::Insert => {
            let (_, region, offset) = &loads[rng.index(loads.len())];
            let at = start + 1 + rng.index(terminator - start);
            lines.insert(at, format!("  load {region}[{offset}]"));
        }
        EditKind::Delete => {
            let in_block = loads_in(block);
            lines.remove(in_block[rng.index(in_block.len())]);
        }
        EditKind::Retarget => {
            let in_block = loads_in(block);
            let at = in_block[rng.index(in_block.len())];
            let (region, old) = const_load(&lines[at]).expect("filtered to constant loads");
            let mut offsets: Vec<u64> = loads
                .iter()
                .filter(|(_, r, offset)| *r == region && *offset != old)
                .map(|(_, _, offset)| *offset)
                .collect();
            offsets.sort_unstable();
            offsets.dedup();
            if offsets.is_empty() {
                // The region's only constant offset: load it twice instead.
                lines.insert(at, lines[at].clone());
                return (join(&lines), EditKind::Insert);
            }
            let offset = offsets[rng.index(offsets.len())];
            lines[at] = format!("  load {region}[{offset}]");
        }
        EditKind::Resave => unreachable!("handled above"),
    }
    (join(&lines), kind)
}

/// `(region, offset)` of a `  load region[<n>]` line.
fn const_load(line: &str) -> Option<(String, u64)> {
    let rest = line.strip_prefix("  load ")?;
    let (region, index) = rest.strip_suffix(']')?.split_once('[')?;
    Some((region.to_string(), index.parse().ok()?))
}

fn join(lines: &[String]) -> String {
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_ir::text::parse_program;

    fn steps(seed: u64, count: usize) -> Vec<String> {
        let source = &select(&corpus(), &["gtk"])[0];
        let mut rng = Lcg::new(seed);
        let mut text = source.text.clone();
        let kinds = [EditKind::Insert, EditKind::Delete, EditKind::Retarget];
        (0..count)
            .map(|_| {
                let kind = kinds[rng.index(kinds.len())];
                text = edit(&text, kind, &mut rng).0;
                text.clone()
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        assert_eq!(corpus(), corpus());
        assert_eq!(steps(7, 40), steps(7, 40));
        assert_ne!(steps(7, 40), steps(8, 40));
    }

    #[test]
    fn corpus_text_round_trips_through_the_parser() {
        let corpus = corpus();
        assert_eq!(corpus.len(), 20);
        for source in &corpus {
            let program = parse_program(&source.text).expect("rendered text parses");
            assert_eq!(program.name(), source.name);
            assert_eq!(program.to_string(), source.text);
        }
    }

    #[test]
    fn every_edit_changes_exactly_one_block_and_stays_valid() {
        let source = &select(&corpus(), &["gtk"])[0];
        let mut rng = Lcg::new(3);
        let mut before = parse_program(&source.text).unwrap();
        for kind in [EditKind::Insert, EditKind::Delete, EditKind::Retarget].repeat(10) {
            let (text, _) = edit(&before.to_string(), kind, &mut rng);
            let after = parse_program(&text).expect("edited text parses");
            let diff = spec_ir::fingerprint::ProgramDiff::between(&before, &after);
            assert!(!diff.regions_changed);
            assert_eq!(diff.changed_blocks.len(), 1, "{kind:?}");
            before = after;
        }
        let (same, kind) = edit(&before.to_string(), EditKind::Resave, &mut rng);
        assert_eq!((same, kind), (before.to_string(), EditKind::Resave));
    }

    #[test]
    fn edits_never_widen_the_footprint() {
        let footprint = |text: &str| -> std::collections::BTreeSet<(String, u64)> {
            text.lines().filter_map(const_load).collect()
        };
        for source in select(&corpus(), &["hash", "salsa", "encoder", "ocb"]) {
            let mut rng = Lcg::new(5);
            let mut text = source.text.clone();
            for kind in [EditKind::Insert, EditKind::Delete, EditKind::Retarget].repeat(20) {
                text = edit(&text, kind, &mut rng).0;
            }
            assert_ne!(text, source.text);
            assert!(footprint(&text).is_subset(&footprint(&source.text)));
        }
    }

    #[test]
    fn variants_have_their_own_fingerprints_and_the_same_accesses() {
        let source = &select(&corpus(), &["hash"])[0];
        let base = parse_program(&source.text).unwrap();
        let mut fingerprints = vec![spec_ir::program_fingerprint(&base)];
        for k in 1..4 {
            let variant = variant(source, k);
            let program = parse_program(&variant.text).expect("variant parses");
            assert_eq!(program.name(), format!("hash_v{k}"));
            assert_eq!(program.blocks().len(), base.blocks().len());
            fingerprints.push(spec_ir::program_fingerprint(&program));
        }
        fingerprints.sort();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 4);
        assert_eq!(variant(source, 0), *source);
    }

    #[test]
    fn a_rename_changes_only_the_header() {
        let source = &corpus()[0];
        let variant = rename(source, "renamed");
        let program = parse_program(&variant.text).unwrap();
        assert_eq!(program.name(), "renamed");
        assert_eq!(
            spec_ir::program_fingerprint(&program),
            spec_ir::program_fingerprint(&parse_program(&source.text).unwrap())
        );
    }
}
