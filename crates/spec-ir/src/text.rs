//! Parser for the textual program format emitted by the [`std::fmt::Display`]
//! implementation of [`Program`] (see [`crate::display`]).
//!
//! The grammar is line-based:
//!
//! ```text
//! program <name>
//! region <name> <bytes>
//! secret_region <name> <bytes>
//! block <label> [entry]:
//!   load <region>[<index>]
//!   store <region>[<index>]
//!   compute <latency>
//!   nop
//!   jump <label>
//!   ret
//!   branch [mem(<ref>, ...)] <semantics> -> <then-label>, <else-label>
//! ```
//!
//! where `<index>` is `<n>`, `loop*<n>`, `input*<n>` or `secret*<n>` and
//! `<semantics>` is `loop(<n>)`, `input_bit(<n>)`, `secret_bit(<n>)` or
//! `const(true|false)`.  Lines starting with `#` and blank lines are ignored.

use std::collections::HashMap;

use crate::builder::ProgramBuilder;
use crate::error::{IrError, IrResult};
use crate::ids::BlockId;
use crate::inst::{BranchSemantics, Condition, IndexExpr, Inst, MemRef};
use crate::program::Program;

/// Parses a program from its textual representation.
///
/// # Errors
///
/// Returns [`IrError::Parse`] describing the first offending line, or any
/// validation error raised when assembling the program.
pub fn parse_program(input: &str) -> IrResult<Program> {
    Parser::new(input).parse()
}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
}

/// A block body collected in the first parsing pass: source line, label,
/// instructions, terminator and whether it is the entry block.
type PendingBlock = (usize, String, Vec<Inst>, Option<PendingTerm>, bool);

#[derive(Debug)]
enum PendingTerm {
    Jump(String),
    Ret,
    Branch {
        refs: Vec<(String, IndexExpr)>,
        semantics: BranchSemantics,
        then_label: String,
        else_label: String,
    },
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let lines = input
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect();
        Self { lines }
    }

    fn err(line: usize, message: impl Into<String>) -> IrError {
        IrError::Parse {
            line,
            message: message.into(),
        }
    }

    fn parse(self) -> IrResult<Program> {
        let mut iter = self.lines.into_iter().peekable();

        // Header.
        let (line, first) = iter.next().ok_or_else(|| Self::err(0, "empty input"))?;
        let name = first
            .strip_prefix("program ")
            .ok_or_else(|| Self::err(line, "expected `program <name>`"))?
            .trim()
            .to_string();
        let mut builder = ProgramBuilder::new(name);
        let mut regions: HashMap<String, crate::ids::RegionId> = HashMap::new();

        // Regions.
        while let Some((_, l)) = iter.peek() {
            if l.starts_with("region ") || l.starts_with("secret_region ") {
                let (line, l) = iter.next().expect("peeked");
                let secret = l.starts_with("secret_region ");
                let rest = l
                    .split_once(' ')
                    .map(|(_, r)| r)
                    .ok_or_else(|| Self::err(line, "malformed region declaration"))?;
                let mut parts = rest.split_whitespace();
                let rname = parts
                    .next()
                    .ok_or_else(|| Self::err(line, "missing region name"))?;
                let size: u64 = parts
                    .next()
                    .ok_or_else(|| Self::err(line, "missing region size"))?
                    .parse()
                    .map_err(|_| Self::err(line, "region size is not a number"))?;
                let id = builder.region(rname, size, secret);
                regions.insert(rname.to_string(), id);
            } else {
                break;
            }
        }

        // Blocks: first pass collects labels and bodies, second pass wires
        // terminators (labels may be forward references).
        let mut block_ids: HashMap<String, BlockId> = HashMap::new();
        let mut bodies: Vec<PendingBlock> = Vec::new();

        let mut current: Option<PendingBlock> = None;
        for (line, l) in iter {
            if let Some(rest) = l.strip_prefix("block ") {
                if let Some(block) = current.take() {
                    bodies.push(block);
                }
                let header = rest
                    .strip_suffix(':')
                    .ok_or_else(|| Self::err(line, "block header must end with `:`"))?;
                let mut parts = header.split_whitespace();
                let label = parts
                    .next()
                    .ok_or_else(|| Self::err(line, "missing block label"))?
                    .to_string();
                let is_entry = parts.next() == Some("entry");
                current = Some((line, label, Vec::new(), None, is_entry));
            } else {
                let Some((_, _, insts, term, _)) = current.as_mut() else {
                    return Err(Self::err(line, "instruction outside of a block"));
                };
                if term.is_some() {
                    return Err(Self::err(line, "instruction after block terminator"));
                }
                if let Some(parsed_term) = Self::try_parse_terminator(line, l)? {
                    *term = Some(parsed_term);
                } else {
                    insts.push(Self::parse_inst(line, l, &regions)?);
                }
            }
        }
        if let Some(block) = current.take() {
            bodies.push(block);
        }

        // Allocate block ids.
        for (line, label, _, _, is_entry) in &bodies {
            if block_ids.contains_key(label) {
                return Err(Self::err(*line, format!("duplicate block label `{label}`")));
            }
            let id = if *is_entry {
                builder.entry_block(label.clone())
            } else {
                builder.block(label.clone())
            };
            block_ids.insert(label.clone(), id);
        }

        // Fill bodies and terminators.
        for (line, label, insts, term, _) in bodies {
            let id = block_ids[&label];
            for inst in insts {
                builder.push(id, inst);
            }
            let lookup = |lbl: &str| -> IrResult<BlockId> {
                block_ids
                    .get(lbl)
                    .copied()
                    .ok_or_else(|| Self::err(line, format!("unknown block label `{lbl}`")))
            };
            match term
                .ok_or_else(|| Self::err(line, format!("block `{label}` lacks a terminator")))?
            {
                PendingTerm::Jump(target) => {
                    builder.jump(id, lookup(&target)?);
                }
                PendingTerm::Ret => {
                    builder.ret(id);
                }
                PendingTerm::Branch {
                    refs,
                    semantics,
                    then_label,
                    else_label,
                } => {
                    let mut depends_on = Vec::new();
                    for (rname, index) in refs {
                        let region = regions.get(&rname).copied().ok_or_else(|| {
                            Self::err(line, format!("unknown region `{rname}` in condition"))
                        })?;
                        depends_on.push(MemRef::new(region, index));
                    }
                    builder.branch(
                        id,
                        Condition::new(depends_on, semantics),
                        lookup(&then_label)?,
                        lookup(&else_label)?,
                    );
                }
            }
        }
        builder.finish()
    }

    fn parse_inst(
        line: usize,
        l: &str,
        regions: &HashMap<String, crate::ids::RegionId>,
    ) -> IrResult<Inst> {
        if l == "nop" {
            return Ok(Inst::Nop);
        }
        if let Some(rest) = l.strip_prefix("compute ") {
            let latency = rest
                .trim()
                .parse()
                .map_err(|_| Self::err(line, "compute latency is not a number"))?;
            return Ok(Inst::Compute { latency });
        }
        if let Some(rest) = l.strip_prefix("load ") {
            let (rname, index) = Self::parse_ref(line, rest.trim())?;
            let region = regions
                .get(&rname)
                .copied()
                .ok_or_else(|| Self::err(line, format!("unknown region `{rname}`")))?;
            return Ok(Inst::Load(MemRef::new(region, index)));
        }
        if let Some(rest) = l.strip_prefix("store ") {
            let (rname, index) = Self::parse_ref(line, rest.trim())?;
            let region = regions
                .get(&rname)
                .copied()
                .ok_or_else(|| Self::err(line, format!("unknown region `{rname}`")))?;
            return Ok(Inst::Store(MemRef::new(region, index)));
        }
        Err(Self::err(line, format!("unrecognised instruction `{l}`")))
    }

    fn try_parse_terminator(line: usize, l: &str) -> IrResult<Option<PendingTerm>> {
        if l == "ret" {
            return Ok(Some(PendingTerm::Ret));
        }
        if let Some(rest) = l.strip_prefix("jump ") {
            return Ok(Some(PendingTerm::Jump(rest.trim().to_string())));
        }
        if let Some(rest) = l.strip_prefix("branch ") {
            let (cond_part, targets) = rest
                .split_once("->")
                .ok_or_else(|| Self::err(line, "branch lacks `->` targets"))?;
            let mut targets = targets.split(',').map(str::trim);
            let then_label = targets
                .next()
                .filter(|t| !t.is_empty())
                .ok_or_else(|| Self::err(line, "branch lacks then-target"))?
                .to_string();
            let else_label = targets
                .next()
                .filter(|t| !t.is_empty())
                .ok_or_else(|| Self::err(line, "branch lacks else-target"))?
                .to_string();

            let cond_part = cond_part.trim();
            let (refs, sem_text) = if let Some(rest) = cond_part.strip_prefix("mem(") {
                let close = rest
                    .find(')')
                    .ok_or_else(|| Self::err(line, "unterminated mem(...) clause"))?;
                let refs_text = &rest[..close];
                let mut refs = Vec::new();
                for piece in refs_text
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                {
                    refs.push(Self::parse_ref(line, piece)?);
                }
                (refs, rest[close + 1..].trim())
            } else {
                (Vec::new(), cond_part)
            };
            let semantics = Self::parse_semantics(line, sem_text)?;
            return Ok(Some(PendingTerm::Branch {
                refs,
                semantics,
                then_label,
                else_label,
            }));
        }
        Ok(None)
    }

    fn parse_semantics(line: usize, text: &str) -> IrResult<BranchSemantics> {
        let text = text.trim();
        let parse_arg = |prefix: &str| -> Option<&str> {
            text.strip_prefix(prefix).and_then(|r| r.strip_suffix(')'))
        };
        if let Some(arg) = parse_arg("loop(") {
            let trip_count = arg
                .parse()
                .map_err(|_| Self::err(line, "loop trip count is not a number"))?;
            return Ok(BranchSemantics::Loop { trip_count });
        }
        if let Some(arg) = parse_arg("input_bit(") {
            let bit = arg
                .parse()
                .map_err(|_| Self::err(line, "input bit is not a number"))?;
            return Ok(BranchSemantics::InputBit { bit });
        }
        if let Some(arg) = parse_arg("secret_bit(") {
            let bit = arg
                .parse()
                .map_err(|_| Self::err(line, "secret bit is not a number"))?;
            return Ok(BranchSemantics::SecretBit { bit });
        }
        if let Some(arg) = parse_arg("const(") {
            return match arg {
                "true" => Ok(BranchSemantics::Const(true)),
                "false" => Ok(BranchSemantics::Const(false)),
                _ => Err(Self::err(line, "const(...) takes true or false")),
            };
        }
        Err(Self::err(
            line,
            format!("unrecognised branch semantics `{text}`"),
        ))
    }

    /// Parses `name[index]` into a region name and index expression.
    fn parse_ref(line: usize, text: &str) -> IrResult<(String, IndexExpr)> {
        let open = text
            .find('[')
            .ok_or_else(|| Self::err(line, format!("memory reference `{text}` lacks `[`")))?;
        if !text.ends_with(']') {
            return Err(Self::err(
                line,
                format!("memory reference `{text}` lacks closing `]`"),
            ));
        }
        let name = text[..open].to_string();
        let idx = &text[open + 1..text.len() - 1];
        let index = if let Some(stride) = idx.strip_prefix("loop*") {
            IndexExpr::LoopIndexed {
                stride: stride
                    .parse()
                    .map_err(|_| Self::err(line, "loop stride is not a number"))?,
            }
        } else if let Some(stride) = idx.strip_prefix("input*") {
            IndexExpr::Input {
                stride: stride
                    .parse()
                    .map_err(|_| Self::err(line, "input stride is not a number"))?,
            }
        } else if let Some(stride) = idx.strip_prefix("secret*") {
            IndexExpr::Secret {
                stride: stride
                    .parse()
                    .map_err(|_| Self::err(line, "secret stride is not a number"))?,
            }
        } else {
            IndexExpr::Const(
                idx.parse()
                    .map_err(|_| Self::err(line, format!("offset `{idx}` is not a number")))?,
            )
        };
        Ok((name, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    const SAMPLE: &str = r#"
# A tiny program with one data-dependent branch.
program sample
region sbox 256
region p 8
secret_region key 8

block entry entry:
  load p[0]
  branch mem(p[0]) input_bit(0) -> taken, skipped

block taken:
  load sbox[secret*1]
  jump merge

block skipped:
  compute 2
  jump merge

block merge:
  nop
  ret
"#;

    #[test]
    fn parses_sample_program() {
        let p = parse_program(SAMPLE).unwrap();
        assert_eq!(p.name(), "sample");
        assert_eq!(p.regions().len(), 3);
        assert_eq!(p.blocks().len(), 4);
        assert_eq!(p.branch_count(), 1);
        assert_eq!(p.memory_access_count(), 2);
        assert!(p.region_by_name("key").is_some());
        assert_eq!(p.secret_regions().len(), 1);
    }

    #[test]
    fn roundtrips_through_display() {
        let p = parse_program(SAMPLE).unwrap();
        let text = p.to_string();
        let p2 = parse_program(&text).unwrap();
        assert_eq!(p.blocks().len(), p2.blocks().len());
        assert_eq!(p.regions(), p2.regions());
        assert_eq!(p.branch_count(), p2.branch_count());
        assert_eq!(p.memory_access_count(), p2.memory_access_count());
    }

    #[test]
    fn roundtrips_builder_programs() {
        let mut b = ProgramBuilder::new("built");
        let t = b.region("t", 640, false);
        let entry = b.entry_block("entry");
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.jump(entry, header);
        b.loop_branch(header, 10, body, exit);
        b.load(body, t, IndexExpr::loop_indexed(64));
        b.jump(body, header);
        b.ret(exit);
        let p = b.finish().unwrap();
        let reparsed = parse_program(&p.to_string()).unwrap();
        assert_eq!(reparsed.blocks().len(), 4);
        assert_eq!(reparsed.branch_count(), 1);
    }

    #[test]
    fn reports_unknown_region() {
        let err =
            parse_program("program x\nblock e entry:\n  load nothere[0]\n  ret\n").unwrap_err();
        match err {
            IrError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("nothere"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reports_missing_terminator() {
        let err = parse_program("program x\nblock e entry:\n  nop\n").unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }));
    }

    #[test]
    fn reports_unknown_label() {
        let err = parse_program("program x\nblock e entry:\n  jump nowhere\n").unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }));
    }

    #[test]
    fn reports_bad_semantics() {
        let err = parse_program(
            "program x\nblock e entry:\n  branch maybe(1) -> a, b\nblock a:\n  ret\nblock b:\n  ret\n",
        )
        .unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }));
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = parse_program("program x\nblock e entry:\n  ret\nblock e:\n  ret\n").unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }));
    }

    #[test]
    fn rejects_instruction_outside_block() {
        let err = parse_program("program x\n  nop\n").unwrap_err();
        assert!(matches!(err, IrError::Parse { .. }));
    }
}
