//! `edit_loop`: the editor/CI re-verdict path.  A seeded sequence of steps
//! over a bundle directory; each step makes a one-block edit (insert,
//! delete or retarget a load, in a uniformly chosen block) or re-saves a
//! file unchanged, then one `specan` process re-verdicts it: `analyze
//! --incremental --artifact-dir` on the edited file for most steps, `scan
//! --session-dir` over the bundle for the rest.  An op is one step's
//! process, timed from spawn to exit.
//!
//! Steps come in rounds: every bundle file once, in seeded order, each
//! with its own seeded kind (one insert, one delete, one retarget, one
//! re-save), then one scan of the bundle, as a developer edits the files
//! of a change and then re-verdicts the change.  The 4 : 1 ratio of
//! analyze to scan steps is thus the bundle's size, not measured traffic.
//! Every round has the same mix of steps, so the median (an edit) and the
//! tail (a scan) stay steady from seed to seed.
//!
//! An edit applies to the original program, as `compositional_equivalence`
//! edits do, and replaces the file's previous edit: a saved file is
//! always its original with one block edited, so a re-verdict re-solves
//! the summaries of at most two blocks (the one edited now and the one
//! edited before).  Edits piled on edits would make the programs costlier
//! to analyse step by step (a cold scan of the bundle doubled over 25
//! rounds), and the op costs would drift with the seed and the run length.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use spec_core::artifact::{decode_prepared, encode_prepared};
use spec_core::batch::{run_bundle, ExecMode, PanelKind, PanelSpec};
use spec_core::service::{self, AnalyzeConfig};
use spec_core::{Analyzer, PreparedStore};
use spec_ir::fingerprint::{program_fingerprint, ProgramDiff};
use spec_ir::text::parse_program;
use spec_ir::Program;

use crate::gen::{self, EditKind, Lcg, Source, DEFAULT_SEED};
use crate::oracle::{self, Golden, Tally};
use crate::trace::Tracer;
use crate::{ratio, sys, Ctx, Measured};

pub const NAME: &str = "edit_loop";

/// The bundle: four programs whose cold comparison panels cost about the
/// same (~0.1 s each at the benchmark scale), so a scan's cost hardly
/// depends on which of them the seed leaves unedited in a round.
const BUNDLE: [&str; 4] = ["hash", "salsa", "encoder", "ocb"];

/// The kinds of a round's `analyze` steps, one per bundle file.
const KINDS: [EditKind; BUNDLE.len()] = [
    EditKind::Insert,
    EditKind::Delete,
    EditKind::Retarget,
    EditKind::Resave,
];

/// Byte budget of the `analyze --incremental` replay store: about two
/// outputs (4-10 KiB each), so a re-save replays only when its file was
/// among the last two analysed, and is restored from the artifact store
/// otherwise.
const REPLAY_BYTES: u64 = 20 * 1024;

/// Analyze steps checked against a fresh one-shot run: one in this many
/// (plus every step of the golden prefix).
const CHECK_ANALYZE_EVERY: u64 = 24;

/// Scan steps checked against a fresh one-shot scan: one in this many.
const CHECK_SCAN_EVERY: u64 = 12;

/// Samples of the pace point after each step (and before the first).
const PACE_SAMPLES: usize = 2;

/// Steps whose outputs the golden digest of the default seed covers:
/// the first three rounds.
const GOLDEN_STEPS: usize = 3 * (BUNDLE.len() + 1);

struct Dirs {
    bundle: PathBuf,
    session: PathBuf,
    scan_session: PathBuf,
    artifacts: PathBuf,
}

impl Dirs {
    fn fresh(work: &Path) -> Result<Self, String> {
        let dir = work.join("edit");
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = Dirs {
            bundle: dir.join("bundle"),
            session: dir.join("session"),
            scan_session: dir.join("scan-session"),
            artifacts: dir.join("artifacts"),
        };
        std::fs::create_dir_all(&dirs.bundle).map_err(|err| format!("mkdir: {err}"))?;
        Ok(dirs)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.bundle.join(format!("{name}.spec"))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Edit bundle file `.0` by kind `.1`, then `analyze` it.
    Analyze(usize, EditKind),
    Scan,
}

/// The next round's steps, last first (the loop pops them): every file
/// once, then a scan, which thus always re-analyses the three files the
/// round edited.
fn round(rng: &mut Lcg) -> Vec<Step> {
    let mut files: Vec<usize> = (0..BUNDLE.len()).collect();
    let mut kinds = KINDS;
    rng.shuffle(&mut files);
    rng.shuffle(&mut kinds);
    let mut steps: Vec<Step> = files
        .into_iter()
        .zip(kinds)
        .map(|(file, kind)| Step::Analyze(file, kind))
        .collect();
    steps.push(Step::Scan);
    steps.reverse();
    steps
}

/// What the CLI's stderr accounting lines said, summed over the steps.
#[derive(Default)]
struct Accounting {
    replays: u64,
    analysed: u64,
    store_hits: u64,
    summary_hits: u64,
    summary_misses: u64,
    summary_invalidated: u64,
    reanalysed: u64,
    spliced: u64,
}

impl Accounting {
    fn read(&mut self, stderr: &str) {
        for line in stderr.lines() {
            if line.starts_with("session: replayed ") {
                self.replays += 1;
            } else if line.starts_with("session: analysed ") {
                self.analysed += 1;
            } else if line.starts_with("artifacts: loaded ") {
                self.store_hits += 1;
            } else if let Some(rest) = line.strip_prefix("session: summaries ") {
                // `{h}h/{m}m ({i} invalidated) `path``
                let numbers: Vec<u64> = rest
                    .split(|c: char| !c.is_ascii_digit())
                    .filter(|s| !s.is_empty())
                    .take(3)
                    .filter_map(|s| s.parse().ok())
                    .collect();
                if let [hits, misses, invalidated] = numbers[..] {
                    self.summary_hits += hits;
                    self.summary_misses += misses;
                    self.summary_invalidated += invalidated;
                }
            } else if let Some(rest) = line.strip_prefix("session: ") {
                // `{N} program(s) reused, {M} analysed (dir)`
                if let Some((reused, rest)) = rest.split_once(" program(s) reused, ") {
                    let analysed = rest.split(' ').next().unwrap_or("");
                    if let (Ok(reused), Ok(analysed)) =
                        (reused.parse::<u64>(), analysed.parse::<u64>())
                    {
                        self.spliced += reused;
                        self.reanalysed += analysed;
                    }
                }
            }
        }
    }
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    golden: &mut Golden,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let mut dirs = None;
    let mut originals: Vec<Source> = Vec::new();
    while measured.wants_setup() {
        let started = Instant::now();
        originals = gen::select(&gen::corpus(), &BUNDLE);
        let fresh = Dirs::fresh(&ctx.work)?;
        prime(ctx, &fresh, &originals)?;
        dirs = Some(fresh);
        measured.push_setup(started.elapsed());
    }
    let dirs = dirs.expect("at least one set-up");
    let mut files = originals.clone();
    let probe_store = PreparedStore::open(ctx.work.join("probe-store"));
    let cli_store = PreparedStore::open(dirs.artifacts.clone());
    let mut programs: Vec<Program> = files
        .iter()
        .map(|source| parse_program(&source.text).expect("corpus programs parse"))
        .collect();

    let mut rng = Lcg::new(ctx.seed);
    let mut accounting = Accounting::default();
    let mut step_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut golden_prefix = String::new();
    let mut artifact_bytes = 0u64;
    let mut simulated = false;
    let mut off_clock = Duration::ZERO;
    measured.pace_point(PACE_SAMPLES);
    let children_before = sys::cpu_seconds("self")
        .ok_or("cannot read /proc/self/stat")?
        .1;
    let started = Instant::now();
    let mut schedule = Vec::new();
    let (mut analyze_steps, mut scan_steps) = (0u64, 0u64);
    let mut peaks_mib = Vec::new();
    while started.elapsed().saturating_sub(off_clock) < ctx.seconds {
        let op = measured.ops.len() as u64;
        tracer.set_op(op);
        if schedule.is_empty() {
            schedule = round(&mut rng);
        }
        let step = schedule.pop().expect("a round has steps");
        if let Step::Analyze(index, kind) = step {
            if kind != EditKind::Resave {
                files[index].text = gen::edit(&originals[index].text, kind, &mut rng).0;
            }
            std::fs::write(dirs.file(&files[index].name), &files[index].text)
                .map_err(|err| format!("write: {err}"))?;
        }
        let op_started = Instant::now();
        let output = match step {
            Step::Analyze(index, _) => analyze(ctx, &dirs, &dirs.file(&files[index].name)),
            Step::Scan => scan(ctx, &dirs),
        };
        let elapsed = op_started.elapsed();
        tracer.record("op", elapsed);
        let ms = elapsed.as_secs_f64() * 1e3;
        measured.push_op(elapsed);

        let check_started = Instant::now();
        let Ok((output, peak)) = output else {
            tally.check(false, || format!("step {op}: cannot spawn specan"));
            continue;
        };
        peaks_mib.push(peak);
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&output.stderr);
        let replayed = stderr.contains("session: replayed ");
        accounting.read(&stderr);
        let code = output.status.code();
        let program_check = match step {
            Step::Analyze(index, _) => {
                analyze_steps += 1;
                let label = if replayed { "replayed" } else { "analysed" };
                step_ms.entry(label).or_default().push(ms);
                tally.check(code == Some(0), || {
                    format!("step {op}: analyze exited {code:?}: {stderr}")
                });
                (op < GOLDEN_STEPS as u64 || analyze_steps % CHECK_ANALYZE_EVERY == 1)
                    .then(|| check_analyze(tally, op, &files[index], &stdout))
            }
            Step::Scan => {
                scan_steps += 1;
                step_ms.entry("scan").or_default().push(ms);
                if scan_steps % CHECK_SCAN_EVERY == 1 {
                    check_scan(tally, op, &dirs, &files, &stdout, code);
                } else {
                    tally.check(matches!(code, Some(0 | 1)), || {
                        format!("step {op}: scan exited {code:?}: {stderr}")
                    });
                }
                None
            }
        };
        if let Some(Some(result)) = program_check {
            if !simulated {
                oracle::check_simulator(tally, &result, &mut rng);
                simulated = true;
            }
        }
        if (op as usize) < GOLDEN_STEPS {
            golden_prefix.push_str(&oracle::strip_timing(&stdout));
            if op as usize + 1 == GOLDEN_STEPS && ctx.seed == DEFAULT_SEED {
                golden.check(
                    tally,
                    NAME,
                    &format!("seed{DEFAULT_SEED}-first{GOLDEN_STEPS}"),
                    &golden_prefix,
                );
            }
        }

        if let (true, Step::Analyze(index, kind)) = (tracer.enabled(), step) {
            // The input layers on the step's text, and the artifact layer
            // on what the step left in the store (outside the op span).
            let program = tracer.span("ir.parse", |_| parse_program(&files[index].text));
            if let Ok(program) = program {
                let fingerprint = tracer.span("ir.fingerprint", |_| program_fingerprint(&program));
                tracer.span("ir.diff", |_| {
                    ProgramDiff::between(&programs[index], &program)
                });
                if kind != EditKind::Resave {
                    let analyzer = Analyzer::new();
                    let loaded =
                        tracer.span("store.load", |_| cli_store.load(&analyzer, fingerprint));
                    if let Some((prepared, _)) = loaded {
                        let bytes = tracer.span("artifact.encode", |_| encode_prepared(&prepared));
                        artifact_bytes += bytes.len() as u64;
                        let _ =
                            tracer.span("artifact.decode", |_| decode_prepared(&bytes, &analyzer));
                        let _ = tracer.span("store.save", |_| probe_store.save(&prepared));
                    }
                }
                programs[index] = program;
            }
        }
        measured.pace_point(PACE_SAMPLES);
        off_clock += check_started.elapsed();
    }
    measured.wall = started.elapsed().saturating_sub(off_clock);
    measured.cpu_s = sys::cpu_seconds("self")
        .ok_or("cannot read /proc/self/stat")?
        .1
        - children_before;
    // The mean of the steps' peaks: a scan's peak depends on how its
    // threads' analyses happened to overlap, so the largest of them moved
    // by a sixth between runs of the same code, and the median step's
    // jumped between the bundle files' levels.
    measured.peak_rss_mib = ratio(peaks_mib.iter().sum(), peaks_mib.len() as f64);
    if tracer.enabled() {
        layers(&mut measured, tracer, &accounting, &step_ms, artifact_bytes);
    }
    Ok(measured)
}

/// Writes the bundle and runs one cold `scan` and one incremental
/// `analyze` per file, so the sessions and the artifact store are primed.
fn prime(ctx: &Ctx, dirs: &Dirs, files: &[Source]) -> Result<(), String> {
    for source in files {
        std::fs::write(dirs.file(&source.name), &source.text)
            .map_err(|err| format!("write: {err}"))?;
    }
    let check = |output: Run, what: &str| match output {
        Ok((output, _)) if matches!(output.status.code(), Some(0 | 1)) => Ok(()),
        Ok((output, _)) => Err(format!(
            "priming {what} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )),
        Err(err) => Err(format!("cannot spawn specan: {err}")),
    };
    check(scan(ctx, dirs), "scan")?;
    for source in files {
        check(analyze(ctx, dirs, &dirs.file(&source.name)), "analyze")?;
    }
    Ok(())
}

fn lines_arg() -> String {
    gen::CACHE_LINES.to_string()
}

/// One `specan` process run to its end: its output and its peak resident
/// set in MiB.
type Run = std::io::Result<(Output, f64)>;

fn analyze(ctx: &Ctx, dirs: &Dirs, file: &Path) -> Run {
    sys::output_and_peak_rss(
        Command::new(&ctx.specan)
            .args([
                "analyze",
                "--incremental",
                "--json",
                "--cache-lines",
                &lines_arg(),
            ])
            .arg("--session-dir")
            .arg(&dirs.session)
            .arg("--artifact-dir")
            .arg(&dirs.artifacts)
            .args(["--max-session-bytes", &REPLAY_BYTES.to_string()])
            .arg(file),
    )
}

fn scan(ctx: &Ctx, dirs: &Dirs) -> Run {
    sys::output_and_peak_rss(
        Command::new(&ctx.specan)
            .args(["scan", "--json", "--cache-lines", &lines_arg()])
            .arg("--session-dir")
            .arg(&dirs.scan_session)
            .arg(&dirs.bundle),
    )
}

/// The step's output against a fresh one-shot `analyze` of the same
/// source, after the timing strip; returns the fresh result for the
/// simulator check.
fn check_analyze(
    tally: &mut Tally,
    op: u64,
    source: &Source,
    stdout: &str,
) -> Option<spec_core::AnalysisResult> {
    let config = AnalyzeConfig {
        cache_lines: gen::CACHE_LINES as usize,
        json: true,
        ..AnalyzeConfig::default()
    };
    let program = parse_program(&source.text).ok()?;
    let prepared = Analyzer::new().prepare(&program);
    let fresh = service::analyze_output(&prepared, &config);
    let equal = fresh
        .as_ref()
        .is_ok_and(|fresh| oracle::strip_timing(fresh) == oracle::strip_timing(stdout));
    tally.check(equal, || {
        format!(
            "step {op}: analyze `{}` differs from a fresh run",
            source.name
        )
    });
    Some(prepared.run(&config.options().ok()?))
}

/// The step's output and exit code against a fresh one-shot scan of the
/// bundle.
fn check_scan(
    tally: &mut Tally,
    op: u64,
    dirs: &Dirs,
    files: &[Source],
    stdout: &str,
    code: Option<i32>,
) {
    let paths: Vec<PathBuf> = {
        let mut paths: Vec<PathBuf> = files.iter().map(|s| dirs.file(&s.name)).collect();
        paths.sort();
        paths
    };
    let panel = PanelSpec {
        kind: PanelKind::Comparison,
        cache_lines: gen::CACHE_LINES as usize,
    };
    let fresh = run_bundle(&paths, panel, 2, &ExecMode::InProcess);
    let ok = fresh.as_ref().is_ok_and(|report| {
        oracle::strip_timing(&service::scan_output(report, true)) == oracle::strip_timing(stdout)
            && code == Some(i32::from(report.any_leak()))
    });
    tally.check(ok, || {
        format!("step {op}: scan differs from a fresh scan (exit {code:?})")
    });
}

fn layers(
    measured: &mut Measured,
    tracer: &Tracer,
    accounting: &Accounting,
    step_ms: &BTreeMap<&'static str, Vec<f64>>,
    artifact_bytes: u64,
) {
    let times = tracer.self_times();
    let ms = |name: &str| times.get(name).map_or(0.0, |t| t.mean_ms());
    let mean = |label: &str| {
        step_ms
            .get(label)
            .map_or(0.0, |v| ratio(v.iter().sum(), v.len() as f64))
    };
    let summaries = (accounting.summary_hits + accounting.summary_misses) as f64;
    let layers = &mut measured.layers;
    for (name, value) in [
        ("ir.parse_ms", ms("ir.parse")),
        (
            "ir.parse_calls",
            times.get("ir.parse").map_or(0, |t| t.calls) as f64,
        ),
        ("ir.fingerprint_ms", ms("ir.fingerprint")),
        ("ir.diff_ms", ms("ir.diff")),
        ("summary.hits", accounting.summary_hits as f64),
        ("summary.misses", accounting.summary_misses as f64),
        ("summary.invalidated", accounting.summary_invalidated as f64),
        (
            "summary.reuse_ratio",
            ratio(accounting.summary_hits as f64, summaries),
        ),
        ("incremental.replays", accounting.replays as f64),
        ("incremental.update_ms", mean("analysed")),
        ("artifact.encode_ms", ms("artifact.encode")),
        ("artifact.decode_ms", ms("artifact.decode")),
        (
            "artifact.bytes",
            ratio(
                artifact_bytes as f64,
                times.get("artifact.encode").map_or(0, |t| t.calls) as f64,
            ),
        ),
        ("store.save_ms", ms("store.save")),
        ("store.load_ms", ms("store.load")),
        ("store.hits", accounting.store_hits as f64),
        (
            "store.misses",
            accounting.analysed.saturating_sub(accounting.store_hits) as f64,
        ),
        ("batch.scan_ms", mean("scan")),
        ("batch.reanalysed", accounting.reanalysed as f64),
        ("batch.spliced", accounting.spliced as f64),
    ] {
        layers.insert(name, value);
    }
}
