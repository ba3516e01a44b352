//! The correctness oracle.  Every check counts as one attempt; every
//! failed check counts into `failed`:
//!
//! * timing-stripped outputs equal a fresh one-shot run of the same source;
//! * golden digests of timing-stripped outputs;
//! * hand-written known answers for `examples/programs`;
//! * an independent check against the speculative simulator: an access the
//!   analysis reports as an observable must-hit never misses on the
//!   committed path of a simulated run.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use spec_core::AnalysisResult;
use spec_sim::{PredictorKind, SimConfig, SimInput, Simulator};

use crate::gen::Lcg;

/// Attempted and failed checks and ops, with the first failures kept for
/// the log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempt that failed with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
        ok
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Zeroes what describes *how* an output was computed rather than *what*
/// it is: wall clocks, iteration counts and session-cache counters.  The
/// same fields `Report::without_timing` clears, applied to rendered text
/// (JSON reports, `analyze` text and JSON).
pub fn strip_timing(output: &str) -> String {
    let mut out = String::with_capacity(output.len());
    for line in output.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"suite_elapsed_secs\"") || trimmed.starts_with("\"session_cache\"")
        {
            continue;
        }
        let mut line = line.to_string();
        for key in [
            "\"time_secs\": ",
            "\"iterations\": ",
            "fixpoint iterations: ",
            "analysis time: ",
        ] {
            line = zero_numbers_after(&line, key);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn zero_numbers_after(line: &str, key: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(key) {
        let (head, tail) = rest.split_at(at + key.len());
        out.push_str(head);
        let number = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+')))
            .unwrap_or(tail.len());
        out.push('0');
        rest = &tail[number..];
    }
    out.push_str(rest);
    out
}

/// 64-bit FNV-1a, hex: the digest golden files record.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Golden digests: `<workload> <key> <digest>` lines.
#[derive(Debug, Default)]
pub struct Golden {
    entries: BTreeMap<(String, String), String>,
    /// Digests recorded by this run, written back by `--bless`.
    seen: BTreeMap<(String, String), String>,
}

impl Golden {
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::parse(&text))
    }

    pub fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let workload = fields.next()?.to_string();
                let key = fields.next()?.to_string();
                Some(((workload, key), fields.next()?.to_string()))
            })
            .collect();
        Self {
            entries,
            seen: BTreeMap::new(),
        }
    }

    /// Checks the digest of `output` (timing-stripped) against the entry
    /// for `(workload, key)`; a missing entry is a failure too.
    pub fn check(&mut self, tally: &mut Tally, workload: &str, key: &str, output: &str) -> bool {
        let actual = digest(output);
        let id = (workload.to_string(), key.to_string());
        let expected = self.entries.get(&id).cloned();
        self.seen.insert(id, actual.clone());
        tally.check(expected.as_deref() == Some(actual.as_str()), || {
            format!(
                "golden {workload}/{key}: digest {actual}, expected {}",
                expected.as_deref().unwrap_or("(none recorded)")
            )
        })
    }

    /// The golden file with this run's digests for `workload` replacing
    /// its old entries.
    pub fn blessed(&self, workload: &str) -> String {
        let mut entries = self.entries.clone();
        entries.retain(|(w, _), _| w != workload);
        entries.extend(self.seen.clone());
        let mut text = String::from(
            "# Golden digests (64-bit FNV-1a) of timing-stripped outputs at the default\n\
             # seed.  Regenerate one workload's lines with `--bless`.\n",
        );
        for ((workload, key), digest) in entries {
            text.push_str(&format!("{workload} {key} {digest}\n"));
        }
        text
    }
}

/// The hand-written known answers for `examples/programs`, checked through
/// the real `specan leaks --json`: `(file, cache lines, baseline leak,
/// speculative leak)`.
const KNOWN_ANSWERS: [(&str, usize, bool, bool); 4] = [
    // Secret-indexed, never preloaded: leaks even without speculation.
    ("cold_lookup.spec", 8, true, true),
    // Fully preloaded and branchless: clean under every configuration.
    ("ct_sbox.spec", 8, false, false),
    // Fits 8 lines exactly, so only a mispredicted arm evicts the sbox...
    ("victim.spec", 8, false, true),
    // ...and with room to spare nothing is evicted at all.
    ("victim.spec", 64, false, false),
];

pub fn check_known_answers(tally: &mut Tally, specan: &Path, examples: &Path) {
    for (file, lines, baseline, speculative) in KNOWN_ANSWERS {
        let path = examples.join(file);
        let result = Command::new(specan)
            .arg("leaks")
            .arg(&path)
            .args(["--cache-lines", &lines.to_string(), "--json"])
            .output();
        let verdict = result.as_ref().ok().and_then(|output| {
            let doc = spec_core::json::JsonValue::parse(std::str::from_utf8(&output.stdout).ok()?)
                .ok()?;
            let leak = |key| doc.get(key).and_then(|v| v.as_bool());
            Some((
                output.status.code(),
                leak("baseline_leak")?,
                leak("speculative_leak")?,
            ))
        });
        let expected = (Some(i32::from(speculative)), baseline, speculative);
        tally.check(verdict == Some(expected), || {
            format!("known answer {file} at {lines} lines: got {verdict:?}, expected {expected:?}")
        });
    }
}

/// Simulates the analysed program on seeded inputs under an adversarial
/// and a realistic predictor; an access the analysis calls an observable
/// must-hit must hit on every committed execution.
pub fn check_simulator(tally: &mut Tally, result: &AnalysisResult, rng: &mut Lcg) {
    for predictor in [PredictorKind::AlwaysWrong, PredictorKind::TwoBit] {
        let input = SimInput::new(rng.below(1 << 16), rng.below(1 << 16));
        let report = Simulator::new(
            SimConfig::default()
                .with_cache(result.cache)
                .with_predictor(predictor),
        )
        .run(&result.program, &input);
        let violation = report.committed_events().find(|event| {
            !event.hit
                && result
                    .access_at(event.block, event.inst_index)
                    .is_some_and(|access| access.observable_hit)
        });
        tally.check(violation.is_none(), || {
            format!(
                "simulator: `{}` must-hit access {violation:?} missed ({predictor:?})",
                result.program.name()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_strip_zeroes_clocks_and_counters_only() {
        let report = "{\n  \"program\": \"p\",\n  \"suite_elapsed_secs\": 0.25,\n  \
                      \"session_cache\": {\"core_hits\": 4},\n  \"runs\": [\n    \
                      {\"label\": \"baseline\", \"misses\": 9, \"iterations\": 14, \
                      \"rounds\": 1, \"time_secs\": 1.5e-4}\n  ]\n}";
        assert_eq!(
            strip_timing(report),
            "{\n  \"program\": \"p\",\n  \"runs\": [\n    {\"label\": \"baseline\", \
             \"misses\": 9, \"iterations\": 0, \"rounds\": 1, \"time_secs\": 0}\n  ]\n}\n"
        );
        let text = "  speculated branches: 1   fixpoint iterations: 30   analysis time: 0.012s";
        assert_eq!(
            strip_timing(text),
            "  speculated branches: 1   fixpoint iterations: 0   analysis time: 0s\n"
        );
    }

    #[test]
    fn an_injected_oracle_failure_makes_the_failed_share_non_zero() {
        let mut tally = Tally::default();
        tally.check(true, String::new);
        let mut golden =
            Golden::parse(&format!("w good {}\nw bad 0000000000000000\n", digest("x")));
        assert!(golden.check(&mut tally, "w", "good", "x"));
        assert_eq!(
            (tally.attempted, tally.failed, tally.failed_share()),
            (2, 0, 0.0)
        );

        // The injected failure: a digest that cannot match.
        assert!(!golden.check(&mut tally, "w", "bad", "x"));
        // A key nobody recorded fails as well.
        assert!(!golden.check(&mut tally, "w", "missing", "x"));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.failed_share(), 0.5);
        assert_eq!(tally.notes.len(), 2);

        let blessed = Golden::parse(&golden.blessed("w"));
        let mut again = Tally::default();
        let mut blessed = blessed;
        assert!(blessed.check(&mut again, "w", "bad", "x"));
    }

    #[test]
    fn digests_are_stable() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_ne!(digest("a"), digest("b"));
    }
}
