//! Batch scanning: analyse a *bundle* of programs under a labelled
//! configuration panel, sliced across threads and machines, with mergeable
//! reports.
//!
//! [`crate::session`] scales one program across threads of one process; this
//! module scales a **panel** — programs × labelled configurations — across
//! slices.  The unit of exchange between machines is a deterministic JSON
//! report ([`BatchReport`], timing stripped via
//! [`Report::without_timing`]), so the merged result of a sliced run is
//! **bit-identical** to an in-order run of the same panel, no matter how
//! the panel was split or which slice finished first.  That determinism is
//! what makes the reports CI-friendly: they can be diffed, cached, asserted
//! against and merged across machines.
//!
//! The pipeline:
//!
//! 1. [`discover_programs`] expands directories into a sorted, de-duplicated
//!    list of `.spec` files — the *bundle*;
//! 2. [`run_bundle_slice`] parses and fingerprints the bundle once, stamps
//!    a slice of it ([`shard_slice`], the `--shard K/N` arithmetic) and
//!    analyses the slice on scoped threads through one
//!    [`CacheSession`], backed by an artifact store when one is given;
//!    [`run_bundle`] is the whole-bundle, store-less case;
//! 3. [`BatchReport::merge`] recombines the slice reports in bundle order
//!    — verifying, via the [`BundleStamp`] every stamped report carries
//!    (the [`panel_checksum`] over the full bundle's program fingerprints
//!    plus the slice position), that the inputs are complete, compatible,
//!    non-overlapping slices of one bundle — and the result serializes
//!    with [`BatchReport::to_json`] / parses back with
//!    [`BatchReport::from_json`].  `specan merge` is this fan-in as a CLI
//!    step for artifacts produced on different machines.
//!
//! # Example
//!
//! ```rust
//! use spec_core::batch::{run_bundle, ExecMode, PanelKind, PanelSpec};
//!
//! let dir = std::env::temp_dir().join("spec-batch-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tiny.spec");
//! std::fs::write(&path, "program tiny\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n").unwrap();
//!
//! let panel = PanelSpec { kind: PanelKind::LeakCheck, cache_lines: 8 };
//! let report = run_bundle(&[path], panel, 1, &ExecMode::InProcess).unwrap();
//! assert_eq!(report.programs.len(), 1);
//! assert!(!report.any_leak());
//! // The JSON round-trips losslessly — the merge protocol depends on it.
//! let parsed = spec_core::batch::BatchReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(parsed, report);
//! ```

use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use spec_cache::CacheConfig;
use spec_ir::fingerprint::{combined_fingerprint, program_fingerprint, Fingerprint};
use spec_ir::text::parse_program;
use spec_ir::Program;

use crate::artifact::PreparedStore;
use crate::cache_session::{CacheOutcome, CacheSession};
use crate::incremental::SessionCache;
use crate::json::{self, JsonValue};
use crate::options::AnalysisOptions;
use crate::session::{comparison_configs, Analyzer, MergeError, Report, ReportRow};

/// The label of the row a program's leak verdict is read from: every panel
/// kind includes the paper's full speculative configuration under this
/// label, and a program *leaks* iff that row has a nonzero
/// `unsafe_secret_accesses` count.
pub const VERDICT_LABEL: &str = "speculative";

/// Which labelled configuration panel a scan runs per program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelKind {
    /// The two-row leak panel: non-speculative `baseline` vs. the paper's
    /// full `speculative` configuration.  The cheap CI gate.
    LeakCheck,
    /// The standard five-row comparison panel of
    /// [`comparison_configs`] — the paper's tables.
    Comparison,
}

impl PanelKind {
    fn as_str(self) -> &'static str {
        match self {
            PanelKind::LeakCheck => "leak-check",
            PanelKind::Comparison => "comparison",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "leak-check" => Some(PanelKind::LeakCheck),
            "comparison" => Some(PanelKind::Comparison),
            _ => None,
        }
    }
}

/// The serializable description of a panel: which configuration family to
/// run and on what cache geometry.  Carried inside every [`BatchReport`]
/// so slice reports are self-describing and a merge can reject slices
/// that ran different panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PanelSpec {
    /// The configuration family.
    pub kind: PanelKind,
    /// Cache size in 64-byte lines (fully associative, the paper's model).
    pub cache_lines: usize,
}

impl PanelSpec {
    /// Expands the spec into the labelled configurations every program of
    /// the bundle is analysed under.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::InvalidPanel`] when the cache geometry is
    /// degenerate (e.g. zero lines).
    pub fn configs(&self) -> Result<Vec<(String, AnalysisOptions)>, BatchError> {
        let cache = CacheConfig::fully_associative(self.cache_lines, 64);
        let check = |builder: crate::options::AnalysisOptionsBuilder| {
            builder
                .cache(cache)
                .build()
                .map_err(|err| BatchError::InvalidPanel(err.to_string()))
        };
        match self.kind {
            PanelKind::LeakCheck => Ok(vec![
                (
                    "baseline".to_string(),
                    check(AnalysisOptions::builder().baseline())?,
                ),
                (
                    VERDICT_LABEL.to_string(),
                    check(AnalysisOptions::builder())?,
                ),
            ]),
            PanelKind::Comparison => {
                check(AnalysisOptions::builder())?; // validate the geometry once
                Ok(comparison_configs(cache))
            }
        }
    }

    /// The stable signature folded into every bundle checksum: a checksum
    /// only matches across runs of the *same* configuration family on the
    /// same geometry.
    fn signature(&self) -> String {
        format!("specan-panel:{}:{}", self.kind.as_str(), self.cache_lines)
    }

    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"kind\": {}, \"cache_lines\": {}}}",
            json::string(self.kind.as_str()),
            self.cache_lines
        )
    }

    pub(crate) fn from_json(value: &JsonValue) -> Result<Self, BatchError> {
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .and_then(PanelKind::parse)
            .ok_or_else(|| BatchError::malformed("panel kind"))?;
        let cache_lines = value
            .get("cache_lines")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| BatchError::malformed("panel cache_lines"))?
            as usize;
        Ok(PanelSpec { kind, cache_lines })
    }
}

/// Where a report's programs sit inside the full panel — the integrity
/// stamp that lets a cross-machine fan-in ([`BatchReport::merge`]) verify
/// it is combining **complete, compatible** slices.
///
/// The `checksum` is [`panel_checksum`] over the *whole* bundle (every
/// program's structural fingerprint, in bundle order, folded with the
/// panel signature), so every slice of one `--shard K/N` matrix carries the
/// same checksum while any other bundle — an extra file, an edited program,
/// a different panel — carries a different one.  `start`/`total` place the
/// slice: concatenating slices whose starts tile `0..total` reproduces the
/// bundle, and anything else (overlap, gap, missing machine) is detected
/// before a merged report exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BundleStamp {
    /// [`panel_checksum`] of the full bundle this report slices.
    pub checksum: Fingerprint,
    /// Number of programs in the full bundle.
    pub total: usize,
    /// Bundle index of this report's first program.
    pub start: usize,
}

impl BundleStamp {
    fn to_json(self) -> String {
        format!(
            "{{\"checksum\": {}, \"total\": {}, \"start\": {}}}",
            json::string(&self.checksum.to_hex()),
            self.total,
            self.start
        )
    }

    fn from_json(value: &JsonValue) -> Result<Self, BatchError> {
        let checksum = value
            .get("checksum")
            .and_then(JsonValue::as_str)
            .and_then(Fingerprint::from_hex)
            .ok_or_else(|| BatchError::malformed("bundle checksum"))?;
        let field = |key: &str| -> Result<usize, BatchError> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| BatchError::malformed(&format!("bundle {key}")))
        };
        Ok(BundleStamp {
            checksum,
            total: field("total")?,
            start: field("start")?,
        })
    }
}

/// The checksum of one panel over an ordered list of program fingerprints
/// — the value a [`BundleStamp`] carries.  Reuses the stable FNV core of
/// [`spec_ir::fingerprint`], so checksums survive disk, sockets and
/// process boundaries.
pub fn panel_checksum(
    panel: PanelSpec,
    fingerprints: impl IntoIterator<Item = Fingerprint>,
) -> Fingerprint {
    combined_fingerprint(&panel.signature(), fingerprints)
}

/// How [`run_bundle`] executes its bundle: on scoped threads of this
/// process, the one executor.  Runs that span machines slice the bundle
/// with `--shard K/N` ([`shard_slice`]) and fan in through
/// [`BatchReport::merge`].
#[derive(Clone, Debug)]
pub enum ExecMode {
    /// Run the bundle on scoped threads of this process.
    InProcess,
}

/// Errors of the batch layer.
#[derive(Debug)]
pub enum BatchError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A program file failed to parse.
    Parse {
        /// The offending file.
        path: PathBuf,
        /// The parser's message.
        message: String,
    },
    /// No `.spec` files were found.
    NoPrograms,
    /// A discovered path is not valid UTF-8, so diagnostics and accounting
    /// lines could not name it losslessly.
    NonUtf8Path {
        /// The offending path (lossily rendered).
        path: PathBuf,
    },
    /// Two bundle files declare the same program name, which would make the
    /// merged report ambiguous.
    DuplicateProgram {
        /// The duplicated program name.
        name: String,
    },
    /// The panel configuration is invalid.
    InvalidPanel(String),
    /// A report is not valid JSON.
    Json(json::JsonError),
    /// A report is valid JSON but not a valid document.
    MalformedReport(String),
    /// Shard reports could not be merged.
    Merge(MergeError),
    /// Shard reports ran different panels.
    PanelMismatch,
    /// Shard reports disagree about the bundle they slice: different
    /// checksums or totals, or a mix of stamped and unstamped reports.
    StampMismatch,
    /// Two stamped shard reports cover the same bundle position.
    OverlappingShards {
        /// The first doubly-covered bundle index.
        index: usize,
    },
    /// The stamped shard reports do not cover the whole bundle.
    IncompleteBundle {
        /// Programs covered by the supplied slices.
        covered: usize,
        /// Programs in the full bundle.
        total: usize,
    },
    /// The merged verdicts do not reproduce the bundle checksum the shards
    /// claim — a slice was tampered with or belongs to a different bundle.
    ChecksumMismatch,
}

impl BatchError {
    fn malformed(what: &str) -> Self {
        BatchError::MalformedReport(format!("missing or malformed {what}"))
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            BatchError::Parse { path, message } => write!(f, "{}: {message}", path.display()),
            BatchError::NoPrograms => write!(f, "no .spec programs found"),
            BatchError::NonUtf8Path { path } => write!(
                f,
                "`{}` is not valid UTF-8 (program paths must be UTF-8 so \
                 every report and diagnostic names them exactly)",
                path.display()
            ),
            BatchError::DuplicateProgram { name } => {
                write!(f, "program `{name}` appears more than once in the bundle")
            }
            BatchError::InvalidPanel(message) => write!(f, "invalid panel: {message}"),
            BatchError::Json(err) => write!(f, "{err}"),
            BatchError::MalformedReport(message) => write!(f, "malformed report: {message}"),
            BatchError::Merge(err) => write!(f, "{err}"),
            BatchError::PanelMismatch => write!(f, "shard reports ran different panels"),
            BatchError::StampMismatch => write!(
                f,
                "shard reports do not slice the same bundle (bundle checksum, \
                 total, or stamp presence differs)"
            ),
            BatchError::OverlappingShards { index } => write!(
                f,
                "shard reports overlap: bundle position {index} is covered twice"
            ),
            BatchError::IncompleteBundle { covered, total } => write!(
                f,
                "shard reports cover only {covered} of {total} bundle programs \
                 (a slice is missing)"
            ),
            BatchError::ChecksumMismatch => write!(
                f,
                "merged programs do not reproduce the claimed bundle checksum"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<json::JsonError> for BatchError {
    fn from(err: json::JsonError) -> Self {
        BatchError::Json(err)
    }
}

impl From<MergeError> for BatchError {
    fn from(err: MergeError) -> Self {
        BatchError::Merge(err)
    }
}

/// Expands files and directories into the bundle's program list:
/// directories are walked recursively for `*.spec` files, explicit files
/// are taken as-is, and the result is sorted and de-duplicated — the
/// canonical panel order every sharding of the bundle reproduces.
///
/// # Errors
///
/// Returns [`BatchError::Io`] for unreadable paths and
/// [`BatchError::NoPrograms`] when the expansion comes up empty.
pub fn discover_programs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, BatchError> {
    // Directory symlink loops (`sub/back -> ..`) would recurse forever;
    // tracking each directory's canonical form visits every real directory
    // once, loop or no loop.
    fn walk(
        dir: &Path,
        out: &mut Vec<PathBuf>,
        visited: &mut Vec<PathBuf>,
    ) -> Result<(), BatchError> {
        let io_err = |error| BatchError::Io {
            path: dir.to_path_buf(),
            error,
        };
        let canonical = std::fs::canonicalize(dir).map_err(io_err)?;
        if visited.contains(&canonical) {
            return Ok(());
        }
        visited.push(canonical);
        let entries = std::fs::read_dir(dir).map_err(io_err)?;
        for entry in entries {
            let path = entry.map_err(io_err)?.path();
            if path.is_dir() {
                walk(&path, out, visited)?;
            } else if path.extension().is_some_and(|ext| ext == "spec") {
                // Reject a path that cannot be printed exactly here,
                // where the error can still name the directory entry.
                if path.to_str().is_none() {
                    return Err(BatchError::NonUtf8Path { path });
                }
                out.push(path);
            }
        }
        Ok(())
    }

    let mut programs = Vec::new();
    let mut visited = Vec::new();
    for path in paths {
        if path.is_dir() {
            walk(path, &mut programs, &mut visited)?;
        } else if path.is_file() {
            // Explicit files get the same UTF-8 guard as discovered ones.
            if path.to_str().is_none() {
                return Err(BatchError::NonUtf8Path { path: path.clone() });
            }
            programs.push(path.clone());
        } else {
            return Err(BatchError::Io {
                path: path.clone(),
                error: std::io::Error::new(std::io::ErrorKind::NotFound, "no such file"),
            });
        }
    }
    programs.sort();
    programs.dedup();
    if programs.is_empty() {
        return Err(BatchError::NoPrograms);
    }
    Ok(programs)
}

/// The K-th (1-based) of exactly `n` contiguous, near-even slices of
/// `n_items` (the first `n_items % n` slices hold one extra item).  Slices
/// may be empty when `n > n_items` — a CI fleet is allowed more machines
/// than programs.  This is the split arithmetic of the CLI's `--shard
/// K/N`, so every machine of a matrix computes the same slices.
///
/// # Panics
///
/// Panics unless `1 <= k <= n`.
pub fn shard_slice(n_items: usize, k: usize, n: usize) -> Range<usize> {
    assert!(k >= 1 && k <= n, "shard index {k} out of 1..={n}");
    let base = n_items / n;
    let extra = n_items % n;
    let start = (k - 1) * base + (k - 1).min(extra);
    start..start + base + usize::from(k - 1 < extra)
}

/// What [`run_bundle_slice`] did, alongside its deterministic report.
pub struct ScanOutcome {
    /// The slice report, byte-identical to a store-less run over the same
    /// files.
    pub report: BatchReport,
    /// Programs restored from the artifact store with their memoized
    /// rounds.
    pub reused: usize,
    /// Programs prepared by this run: new, edited, or missing from the
    /// store.
    pub analyzed: usize,
}

/// Runs a whole bundle on `jobs` scoped threads and returns its stamped
/// report, with no artifact store ([`run_bundle_slice`] over the whole
/// bundle).
///
/// # Errors
///
/// Everything [`run_bundle_slice`] raises.
pub fn run_bundle(
    programs: &[PathBuf],
    panel: PanelSpec,
    jobs: usize,
    mode: &ExecMode,
) -> Result<BatchReport, BatchError> {
    let ExecMode::InProcess = mode;
    Ok(run_bundle_slice(programs, 0..programs.len(), panel, jobs, None)?.report)
}

/// Runs the `slice` of a bundle and returns the **slice report**, stamped
/// against the full bundle: its [`BundleStamp`] carries the checksum over
/// *all* of `bundle`, so per-machine artifacts of a `--shard K/N` matrix
/// recombine, and verify, through [`BatchReport::merge`].  An empty slice
/// is legal (a CI fleet may have more machines than programs).
///
/// Every file is read, parsed and fingerprinted once.  The programs the
/// stamp folds over are the programs analysed, so a file saved mid-run
/// can never pair a stamp over its old content with a verdict of its new
/// content.  The slice's programs are then resolved through one
/// [`CacheSession`] on `jobs` scoped threads, each program's panel on one
/// thread (so `jobs` never fans out into `jobs × configs` threads).
/// With a `store`, an unchanged program loads with its memoized rounds,
/// and an edited one re-prepares; each program is persisted as soon as its
/// panel has filled its rounds.  Loads are name-exact, so a rename
/// prepares afresh.
///
/// The report is **bit-identical** however the bundle is sliced and
/// threaded and whatever the store held: verdicts are timing-stripped, and
/// restored sessions answer exactly like cold ones.  Store
/// failures are never errors; they cost warmth only.
///
/// # Errors
///
/// [`BatchError::NoPrograms`] for an empty *bundle* (not slice),
/// [`BatchError::Io`]/[`BatchError::Parse`] for unreadable or invalid
/// files, [`BatchError::DuplicateProgram`] when two files declare the same
/// program name and [`BatchError::InvalidPanel`] for a degenerate panel.
pub fn run_bundle_slice(
    bundle: &[PathBuf],
    slice: Range<usize>,
    panel: PanelSpec,
    jobs: usize,
    store: Option<PreparedStore>,
) -> Result<ScanOutcome, BatchError> {
    if bundle.is_empty() {
        return Err(BatchError::NoPrograms);
    }
    let programs = parse_bundle(bundle)?;
    let configs = panel.configs()?;
    let stamp = BundleStamp {
        checksum: panel_checksum(panel, programs.iter().map(|(_, fp)| *fp)),
        total: bundle.len(),
        start: slice.start,
    };
    let programs = &programs[slice];
    // Each program is acquired once, so nothing needs to stay resident: a
    // zero budget evicts every session at install, and the worker that ran
    // it persists it and lets it go — one program in memory per thread.
    let mut cache =
        SessionCache::with_analyzer(Analyzer::new().max_suite_threads(NonZeroUsize::MIN))
            .max_session_bytes(0);
    if let Some(store) = store {
        cache = cache.artifact_store(store);
    }
    let sessions = CacheSession::new(cache);
    let slots: Vec<OnceLock<(ProgramVerdict, bool)>> =
        programs.iter().map(|_| OnceLock::new()).collect();
    // Threads take the next program as they free up, so one costly solve
    // never queues cheap loads behind it.  Scoped threads even for a
    // single job: the session front's thread-local L0 tiers end with them.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, programs.len().max(1)) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some((program, _)) = programs.get(index) else {
                    break;
                };
                let _ = slots[index].set(verdict_of(&sessions, program, &configs));
            });
        }
    });
    let mut reused = 0;
    let verdicts: Vec<ProgramVerdict> = slots
        .into_iter()
        .map(|slot| {
            let (verdict, restored) = slot.into_inner().expect("every program was run");
            reused += usize::from(restored);
            verdict
        })
        .collect();
    Ok(ScanOutcome {
        analyzed: verdicts.len() - reused,
        reused,
        report: BatchReport {
            panel,
            stamp: Some(stamp),
            programs: verdicts,
        },
    })
}

/// Reads, parses and fingerprints every file of the bundle, in bundle
/// order, rejecting a program name declared twice.
fn parse_bundle(files: &[PathBuf]) -> Result<Vec<(Program, Fingerprint)>, BatchError> {
    let mut programs: Vec<(Program, Fingerprint)> = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(path).map_err(|error| BatchError::Io {
            path: path.clone(),
            error,
        })?;
        let program = parse_program(&source).map_err(|err| BatchError::Parse {
            path: path.clone(),
            message: err.to_string(),
        })?;
        if programs
            .iter()
            .any(|(seen, _)| seen.name() == program.name())
        {
            return Err(BatchError::DuplicateProgram {
                name: program.name().to_string(),
            });
        }
        let fingerprint = program_fingerprint(&program);
        programs.push((program, fingerprint));
    }
    Ok(programs)
}

/// One program's verdict, and whether a cache tier restored its session.
/// Scan verdicts carry no region or block names, so the acquire is
/// structural.
fn verdict_of(
    sessions: &CacheSession,
    program: &Program,
    configs: &[(String, AnalysisOptions)],
) -> (ProgramVerdict, bool) {
    let (prepared, restored) = match sessions.acquire_structural(program) {
        CacheOutcome::L0Hit(prepared)
        | CacheOutcome::WarmHit(prepared)
        | CacheOutcome::StoreHit(prepared) => (prepared, true),
        CacheOutcome::NeedsPrepare(guard) => (guard.prepare(program), false),
    };
    let grown_from = prepared.growth_stamp();
    let report = prepared.run_suite(configs).report().without_timing();
    if prepared.growth_stamp() != grown_from {
        sessions.persist(&prepared);
    }
    (
        ProgramVerdict::from_report(report, prepared.fingerprint()),
        restored,
    )
}

/// One program's slice of a [`BatchReport`]: its per-configuration report,
/// its structural fingerprint (the [`spec_ir::fingerprint`] value the
/// bundle checksum folds over), and the leak verdict derived from the
/// [`VERDICT_LABEL`] row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramVerdict {
    /// `true` iff the program has a secret-indexed access that is not
    /// provably timing-neutral under the full speculative configuration.
    pub leak: bool,
    /// The structural fingerprint of the analysed program.
    pub fingerprint: Fingerprint,
    /// The program's labelled (timing-stripped) report.
    pub report: Report,
}

impl ProgramVerdict {
    /// Derives the leak verdict from the report's [`VERDICT_LABEL`] row —
    /// the one place the "leaks iff `unsafe_secret_accesses > 0` under the
    /// full speculative configuration" rule lives.
    pub fn from_report(report: Report, fingerprint: Fingerprint) -> Self {
        let leak = report
            .rows
            .iter()
            .find(|row| row.label == VERDICT_LABEL)
            .is_some_and(|row| row.unsafe_secret_accesses > 0);
        Self {
            leak,
            fingerprint,
            report,
        }
    }
}

/// The deterministic merged report of a batch scan: one
/// [`ProgramVerdict`] per program, in panel order, under one panel, with
/// the [`BundleStamp`] placing the covered programs inside the full
/// bundle.
///
/// Equal panels over equal programs produce equal reports (`PartialEq`,
/// and bit-identical [`BatchReport::to_json`]) regardless of sharding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// The panel every program was analysed under.
    pub panel: PanelSpec,
    /// The slice's place in the full bundle; `None` for unstamped reports
    /// (hand-built reports), which merge without verification.
    pub stamp: Option<BundleStamp>,
    /// Per-program results, in panel (bundle) order.
    pub programs: Vec<ProgramVerdict>,
}

impl BatchReport {
    /// Combines shard reports into the **complete** bundle report,
    /// verifying — when the shards are stamped, which everything this
    /// workspace emits is — that they are compatible slices of one bundle
    /// and that together they cover it exactly.  This is the cross-machine
    /// fan-in behind `specan merge`: it refuses to fabricate a "green"
    /// merged artifact out of mismatched, overlapping or incomplete
    /// slices.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Merge`] for an empty input,
    /// [`BatchError::PanelMismatch`]/[`BatchError::StampMismatch`] for
    /// incompatible shards, [`BatchError::OverlappingShards`] when two
    /// slices cover the same bundle position,
    /// [`BatchError::IncompleteBundle`] when the (stamped) slices do not
    /// cover the whole bundle, [`BatchError::ChecksumMismatch`] when the
    /// merge does not reproduce the claimed checksum, and
    /// [`BatchError::DuplicateProgram`] / duplicate-label
    /// [`BatchError::Merge`] for ambiguous contents.
    pub fn merge(shards: impl IntoIterator<Item = BatchReport>) -> Result<Self, BatchError> {
        let merged = Self::merge_slices(shards)?;
        if let Some(stamp) = merged.stamp {
            if stamp.start != 0 || merged.programs.len() != stamp.total {
                return Err(BatchError::IncompleteBundle {
                    covered: merged.programs.len(),
                    total: stamp.total,
                });
            }
        }
        Ok(merged)
    }

    /// Combines shard reports into one contiguous slice report, the
    /// verification half of [`BatchReport::merge`].
    ///
    /// Stamped inputs are sorted by their bundle position and verified:
    /// same panel, same checksum and total, contiguous non-overlapping
    /// coverage; when the result happens to cover the whole bundle, the
    /// checksum is recomputed from the merged program fingerprints and
    /// compared against the claim.  Unstamped inputs are concatenated in
    /// input order, with only the panel and duplicate checks.
    fn merge_slices(shards: impl IntoIterator<Item = BatchReport>) -> Result<Self, BatchError> {
        let mut shards: Vec<BatchReport> = shards.into_iter().collect();
        let first = shards.first().ok_or(BatchError::Merge(MergeError::Empty))?;
        let panel = first.panel;
        let reference = first.stamp;
        for shard in &shards {
            if shard.panel != panel {
                return Err(BatchError::PanelMismatch);
            }
            match (shard.stamp, reference) {
                (Some(stamp), Some(reference))
                    if stamp.checksum == reference.checksum && stamp.total == reference.total => {}
                (None, None) => {}
                _ => return Err(BatchError::StampMismatch),
            }
        }
        let merged_stamp = match reference {
            Some(reference) => {
                // Slices in bundle order; verify they tile without overlap
                // or gap.  (Empty slices are legal anywhere their start
                // matches the running position.)
                shards.sort_by_key(|shard| shard.stamp.expect("checked stamped").start);
                let covered: usize = shards.iter().map(|shard| shard.programs.len()).sum();
                // Program-free slices cover nothing, so they play no part
                // in the tiling walk — wherever their start happens to sit
                // relative to the populated slices (a legal empty slice of
                // a small bundle can share a start with a populated one).
                let start = shards
                    .iter()
                    .find(|shard| !shard.programs.is_empty())
                    .map(|shard| shard.stamp.expect("checked stamped").start)
                    .unwrap_or(0);
                let mut position = start;
                for shard in &shards {
                    if shard.programs.is_empty() {
                        continue;
                    }
                    let stamp = shard.stamp.expect("checked stamped");
                    if stamp.start < position {
                        return Err(BatchError::OverlappingShards { index: stamp.start });
                    }
                    if stamp.start > position {
                        return Err(BatchError::IncompleteBundle {
                            covered,
                            total: reference.total,
                        });
                    }
                    position += shard.programs.len();
                }
                if position > reference.total {
                    return Err(BatchError::StampMismatch);
                }
                Some(BundleStamp {
                    checksum: reference.checksum,
                    total: reference.total,
                    start,
                })
            }
            None => None,
        };
        // Absorb every shard — the first included — through the duplicate
        // checks: a parsed foreign artifact may carry internal duplicates.
        let mut merged = BatchReport {
            panel,
            stamp: merged_stamp,
            programs: Vec::new(),
        };
        for shard in shards {
            for verdict in shard.programs {
                if merged
                    .programs
                    .iter()
                    .any(|p| p.report.program == verdict.report.program)
                {
                    return Err(BatchError::DuplicateProgram {
                        name: verdict.report.program,
                    });
                }
                for (i, row) in verdict.report.rows.iter().enumerate() {
                    if verdict.report.rows[..i]
                        .iter()
                        .any(|r| r.label == row.label)
                    {
                        return Err(BatchError::Merge(MergeError::DuplicateLabel {
                            label: row.label.clone(),
                        }));
                    }
                }
                merged.programs.push(verdict);
            }
        }
        if let Some(stamp) = merged.stamp {
            if stamp.start == 0 && merged.programs.len() == stamp.total {
                // A complete merge must reproduce the claimed checksum from
                // the verdicts it actually absorbed.
                let recomputed =
                    panel_checksum(panel, merged.programs.iter().map(|p| p.fingerprint));
                if recomputed != stamp.checksum {
                    return Err(BatchError::ChecksumMismatch);
                }
            }
        }
        Ok(merged)
    }

    /// Number of leaking programs.
    pub fn leak_count(&self) -> usize {
        self.programs.iter().filter(|p| p.leak).count()
    }

    /// `true` iff at least one program leaks — the scan's exit-1 condition.
    pub fn any_leak(&self) -> bool {
        self.programs.iter().any(|p| p.leak)
    }

    /// Serializes the report.  The output contains only deterministic
    /// fields (no wall-clock times), so equal panels serialize to equal
    /// bytes and shard outputs can be merged, cached and diffed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"panel\": {},\n", self.panel.to_json()));
        if let Some(stamp) = self.stamp {
            out.push_str(&format!("  \"bundle\": {},\n", stamp.to_json()));
        }
        out.push_str(&format!("  \"leaks\": {},\n", self.leak_count()));
        out.push_str("  \"programs\": [\n");
        for (i, verdict) in self.programs.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"program\": {},\n",
                json::string(&verdict.report.program)
            ));
            out.push_str(&format!(
                "      \"fingerprint\": {},\n",
                json::string(&verdict.fingerprint.to_hex())
            ));
            out.push_str(&format!("      \"leak\": {},\n", verdict.leak));
            out.push_str("      \"runs\": [\n");
            for (j, row) in verdict.report.rows.iter().enumerate() {
                out.push_str("        {");
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
                out.push_str(&format!("\"rounds\": {}", row.rounds));
                out.push_str(if j + 1 == verdict.report.rows.len() {
                    "}\n"
                } else {
                    "},\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 == self.programs.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }

    /// Parses a report back from [`BatchReport::to_json`] output (e.g. a
    /// `--shard K/N` artifact handed to `specan merge`).
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::Json`] for invalid JSON and
    /// [`BatchError::MalformedReport`] for a structurally wrong document.
    pub fn from_json(input: &str) -> Result<Self, BatchError> {
        let value = JsonValue::parse(input)?;
        let panel = PanelSpec::from_json(
            value
                .get("panel")
                .ok_or_else(|| BatchError::malformed("report panel"))?,
        )?;
        let stamp = value
            .get("bundle")
            .map(BundleStamp::from_json)
            .transpose()?;
        let mut programs = Vec::new();
        for entry in value
            .get("programs")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| BatchError::malformed("report programs"))?
        {
            let program = entry
                .get("program")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| BatchError::malformed("program name"))?
                .to_string();
            let fingerprint = entry
                .get("fingerprint")
                .and_then(JsonValue::as_str)
                .and_then(Fingerprint::from_hex)
                .ok_or_else(|| BatchError::malformed("program fingerprint"))?;
            let leak = entry
                .get("leak")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| BatchError::malformed("program leak flag"))?;
            let mut rows = Vec::new();
            for run in entry
                .get("runs")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| BatchError::malformed("program runs"))?
            {
                rows.push(parse_row(run)?);
            }
            programs.push(ProgramVerdict {
                leak,
                fingerprint,
                report: Report {
                    program,
                    elapsed: None,
                    cache: None,
                    rows,
                },
            });
        }
        Ok(BatchReport {
            panel,
            stamp,
            programs,
        })
    }
}

fn parse_row(run: &JsonValue) -> Result<ReportRow, BatchError> {
    let label = run
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| BatchError::malformed("run label"))?
        .to_string();
    let raw = |key: &str| -> Result<u64, BatchError> {
        run.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| BatchError::malformed(&format!("run {key}")))
    };
    // Checked narrowing: an out-of-range count is corruption and must fail
    // loudly, not wrap into a plausible-looking small number.
    let count = |key: &str| -> Result<usize, BatchError> {
        raw(key)?
            .try_into()
            .map_err(|_| BatchError::malformed(&format!("run {key}")))
    };
    Ok(ReportRow {
        label,
        accesses: count("accesses")?,
        must_hits: count("must_hits")?,
        misses: count("misses")?,
        speculative_misses: count("speculative_misses")?,
        secret_accesses: count("secret_accesses")?,
        unsafe_secret_accesses: count("unsafe_secret_accesses")?,
        speculated_branches: count("speculated_branches")?,
        iterations: raw("iterations")?,
        rounds: raw("rounds")?
            .try_into()
            .map_err(|_| BatchError::malformed("run rounds"))?,
        time: Duration::ZERO,
    })
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scanned {} program(s), {} leaking",
            self.programs.len(),
            self.leak_count()
        )?;
        for verdict in &self.programs {
            writeln!(
                f,
                "\n`{}`: {}",
                verdict.report.program,
                if verdict.leak { "LEAK" } else { "leak-free" }
            )?;
            writeln!(
                f,
                "{:<20} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}",
                "configuration", "accesses", "must-hit", "misses", "sp-miss", "secret", "unsafe"
            )?;
            for row in &verdict.report.rows {
                writeln!(
                    f,
                    "{:<20} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7}",
                    row.label,
                    row.accesses,
                    row.must_hits,
                    row.misses,
                    row.speculative_misses,
                    row.secret_accesses,
                    row.unsafe_secret_accesses
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

    /// A scratch directory holding the given `(file_stem, program_name)`
    /// pairs as minimal leak-free programs; removed on drop.
    struct Scratch {
        dir: PathBuf,
        files: Vec<PathBuf>,
    }

    impl Scratch {
        fn new(programs: &[(&str, &str)]) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "spec-batch-test-{}-{}",
                std::process::id(),
                SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let files = programs
                .iter()
                .map(|(stem, name)| {
                    let path = dir.join(format!("{stem}.spec"));
                    std::fs::write(
                        &path,
                        format!(
                            "program {name}\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n"
                        ),
                    )
                    .unwrap();
                    path
                })
                .collect();
            Self { dir, files }
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn leak_panel() -> PanelSpec {
        PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 8,
        }
    }

    /// The report of `files` without a bundle stamp, as a hand-built
    /// report carries none.
    fn unstamped(files: &[PathBuf]) -> BatchReport {
        let mut report = run_bundle(files, leak_panel(), 1, &ExecMode::InProcess).unwrap();
        report.stamp = None;
        report
    }

    #[test]
    fn shard_slices_are_contiguous_near_even_and_complete() {
        for n_items in 0..20 {
            for n in 1..8 {
                let mut covered = 0;
                let mut sizes = Vec::new();
                for k in 1..=n {
                    let range = shard_slice(n_items, k, n);
                    assert_eq!(range.start, covered, "slices must be contiguous");
                    covered = range.end;
                    sizes.push(range.len());
                }
                assert_eq!(covered, n_items, "every program must land in a slice");
                let (max, min) = (sizes.iter().max(), sizes.iter().min());
                assert!(
                    max.unwrap() - min.unwrap() <= 1,
                    "slices must be near-even: {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn shard_slice_allows_more_machines_than_programs() {
        // 3 items over 5 machines: the first three slices hold one each,
        // the rest are legally empty.
        let sizes: Vec<usize> = (1..=5).map(|k| shard_slice(3, k, 5).len()).collect();
        assert_eq!(sizes, [1, 1, 1, 0, 0]);
        assert_eq!(shard_slice(3, 4, 5), 3..3);
        // Slices tile the input contiguously.
        let mut covered = 0;
        for k in 1..=5 {
            let range = shard_slice(3, k, 5);
            assert_eq!(range.start, covered);
            covered = range.end;
        }
        assert_eq!(covered, 3);
    }

    #[test]
    fn discovery_sorts_and_recurses() {
        let scratch = Scratch::new(&[("b", "beta"), ("a", "alpha")]);
        let nested = scratch.dir.join("sub");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(
            nested.join("c.spec"),
            "program gamma\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n",
        )
        .unwrap();
        std::fs::write(nested.join("ignored.txt"), "not a program").unwrap();
        let found = discover_programs(std::slice::from_ref(&scratch.dir)).unwrap();
        let stems: Vec<String> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(stems, ["a.spec", "b.spec", "c.spec"]);
        // Passing a file and the directory containing it dedups.
        let again = discover_programs(&[scratch.files[0].clone(), scratch.dir.clone()]).unwrap();
        assert_eq!(again.len(), 3);
        assert!(matches!(
            discover_programs(&[]),
            Err(BatchError::NoPrograms)
        ));
    }

    #[cfg(unix)]
    #[test]
    fn discovery_rejects_non_utf8_paths() {
        use std::os::unix::ffi::OsStrExt as _;
        let scratch = Scratch::new(&[("ok", "ok")]);
        let bad_name = std::ffi::OsStr::from_bytes(b"bad\xff.spec");
        std::fs::write(
            scratch.dir.join(bad_name),
            "program bad\nregion t 64\nblock main entry:\n  load t[0]\n  ret\n",
        )
        .unwrap();
        // A lossily printed path could not be named exactly; fail up front.
        assert!(matches!(
            discover_programs(std::slice::from_ref(&scratch.dir)),
            Err(BatchError::NonUtf8Path { .. })
        ));
    }

    #[cfg(unix)]
    #[test]
    fn discovery_survives_directory_symlink_loops() {
        let scratch = Scratch::new(&[("a", "alpha")]);
        let nested = scratch.dir.join("sub");
        std::fs::create_dir_all(&nested).unwrap();
        // `sub/back` points at the scratch root: a cycle.
        std::os::unix::fs::symlink(&scratch.dir, nested.join("back")).unwrap();
        let found = discover_programs(std::slice::from_ref(&scratch.dir)).unwrap();
        // The loop terminates and the real file is found exactly once.
        assert_eq!(found.len(), 1);
        assert!(found[0].ends_with("a.spec"));
    }

    #[test]
    fn merge_keeps_shard_order_and_rejects_duplicates() {
        let scratch = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        let first = unstamped(&scratch.files[0..2]);
        let second = unstamped(&scratch.files[2..3]);
        let merged = BatchReport::merge([first.clone(), second.clone()]).unwrap();
        let names: Vec<&str> = merged
            .programs
            .iter()
            .map(|p| p.report.program.as_str())
            .collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        // A shard showing up twice duplicates its programs.
        assert!(matches!(
            BatchReport::merge([first.clone(), first.clone()]),
            Err(BatchError::DuplicateProgram { name }) if name == "alpha"
        ));
        // A duplicate *inside* the first shard (e.g. a corrupted foreign
        // artifact fed through from_json) is just as ambiguous.
        let mut corrupt = first.clone();
        corrupt.programs.push(corrupt.programs[0].clone());
        assert!(matches!(
            BatchReport::merge([corrupt]),
            Err(BatchError::DuplicateProgram { name }) if name == "alpha"
        ));
        // Shards from different panels don't merge.
        let mut foreign = second;
        foreign.panel.cache_lines = 16;
        assert!(matches!(
            BatchReport::merge([first, foreign]),
            Err(BatchError::PanelMismatch)
        ));
        assert!(matches!(
            BatchReport::merge(std::iter::empty()),
            Err(BatchError::Merge(MergeError::Empty))
        ));
    }

    #[test]
    fn duplicate_program_names_within_a_shard_are_rejected() {
        let scratch = Scratch::new(&[("one", "same"), ("two", "same")]);
        let result = run_bundle(&scratch.files, leak_panel(), 1, &ExecMode::InProcess);
        assert!(matches!(
            result,
            Err(BatchError::DuplicateProgram { name }) if name == "same"
        ));
    }

    #[test]
    fn batch_report_json_round_trips() {
        let scratch = Scratch::new(&[("x", "with \"quotes\""), ("y", "plain")]);
        let panel = PanelSpec {
            kind: PanelKind::Comparison,
            cache_lines: 8,
        };
        let report = run_bundle(&scratch.files, panel, 1, &ExecMode::InProcess).unwrap();
        let json = report.to_json();
        let parsed = BatchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        // Serialization is deterministic: re-emitting the parse is identical.
        assert_eq!(parsed.to_json(), json);
        assert!(BatchReport::from_json("{\"panel\": {}}").is_err());
    }

    #[test]
    fn every_report_row_field_survives_the_worker_protocol() {
        // A synthetic row with pairwise-distinct values pins each field of
        // the serialize/parse pair: a field dropped from (or miswired in)
        // BatchReport::to_json/parse_row breaks this equality even though
        // a slice and its merge would still agree with each other.
        let row = ReportRow {
            label: "pin".to_string(),
            accesses: 1,
            must_hits: 2,
            misses: 3,
            speculative_misses: 4,
            secret_accesses: 5,
            unsafe_secret_accesses: 6,
            speculated_branches: 7,
            iterations: 8,
            rounds: 9,
            time: std::time::Duration::ZERO,
        };
        let report = BatchReport {
            panel: leak_panel(),
            stamp: Some(BundleStamp {
                checksum: Fingerprint(11),
                total: 12,
                start: 10,
            }),
            programs: vec![ProgramVerdict {
                leak: true,
                fingerprint: Fingerprint(13),
                report: Report {
                    program: "pinned".to_string(),
                    elapsed: None,
                    cache: None,
                    rows: vec![row],
                },
            }],
        };
        assert_eq!(BatchReport::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn sharded_bundle_is_bit_identical_to_in_order_run() {
        let scratch = Scratch::new(&[
            ("a", "alpha"),
            ("b", "beta"),
            ("c", "gamma"),
            ("d", "delta"),
            ("e", "epsilon"),
        ]);
        let reference = run_bundle(&scratch.files, leak_panel(), 1, &ExecMode::InProcess).unwrap();
        for jobs in [2, 3, 5, 8] {
            let sharded =
                run_bundle(&scratch.files, leak_panel(), jobs, &ExecMode::InProcess).unwrap();
            assert_eq!(sharded, reference, "jobs={jobs} diverged");
            assert_eq!(sharded.to_json(), reference.to_json());
        }
    }

    #[test]
    fn stamped_slices_merge_back_to_the_unsharded_report() {
        let scratch = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        let full = run_bundle(&scratch.files, leak_panel(), 2, &ExecMode::InProcess).unwrap();
        let stamp = full.stamp.expect("bundle runs are stamped");
        assert_eq!((stamp.start, stamp.total), (0, 3));
        let slice = |range: std::ops::Range<usize>| {
            run_bundle_slice(&scratch.files, range, leak_panel(), 1, None)
                .unwrap()
                .report
        };
        let first = slice(0..2);
        let second = slice(2..3);
        assert_eq!(first.stamp.unwrap().start, 0);
        assert_eq!(second.stamp.unwrap().start, 2);
        assert_eq!(second.stamp.unwrap().checksum, stamp.checksum);
        // Order-independent fan-in, byte-identical to the unsharded run.
        let merged = BatchReport::merge([second.clone(), first.clone()]).unwrap();
        assert_eq!(merged, full);
        assert_eq!(merged.to_json(), full.to_json());
        // The same holds through the JSON artifacts a CI fleet exchanges.
        let merged = BatchReport::merge([
            BatchReport::from_json(&first.to_json()).unwrap(),
            BatchReport::from_json(&second.to_json()).unwrap(),
        ])
        .unwrap();
        assert_eq!(merged.to_json(), full.to_json());
        // An empty slice (more machines than programs) merges in silently —
        // wherever its start sits, including one shared with a populated
        // slice (the sort may then place it between populated slices).
        let empty = slice(3..3);
        assert!(empty.programs.is_empty());
        let merged = BatchReport::merge([empty, first.clone(), second.clone()]).unwrap();
        assert_eq!(merged, full);
        let zero_width = slice(0..0);
        assert_eq!(zero_width.stamp.unwrap().start, 0);
        let merged = BatchReport::merge([first, zero_width, second]).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn merge_rejects_overlapping_incomplete_and_mismatched_slices() {
        let scratch = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        let slice = |range: std::ops::Range<usize>| {
            run_bundle_slice(&scratch.files, range, leak_panel(), 1, None)
                .unwrap()
                .report
        };
        let first = slice(0..2);
        let second = slice(2..3);

        // The same slice twice covers bundle positions twice.
        assert!(matches!(
            BatchReport::merge([first.clone(), first.clone()]),
            Err(BatchError::OverlappingShards { index: 0 })
        ));
        // A missing slice (a machine's artifact never arrived) is refused.
        assert!(matches!(
            BatchReport::merge([first.clone()]),
            Err(BatchError::IncompleteBundle {
                covered: 2,
                total: 3
            })
        ));
        // So is a gap *between* the supplied slices.
        assert!(matches!(
            BatchReport::merge([slice(0..1), second.clone()]),
            Err(BatchError::IncompleteBundle {
                covered: 2,
                total: 3
            })
        ));
        // A slice of a *different* bundle (one program structurally edited)
        // cannot sneak in: its full-bundle checksum differs.  (Fingerprints
        // are name-free, so the edit must be structural, not a rename.)
        let other = Scratch::new(&[("a", "alpha"), ("b", "beta"), ("c", "gamma")]);
        std::fs::write(
            &other.files[2],
            "program gamma\nregion t 64\nblock main entry:\n  load t[0]\n  load t[0]\n  ret\n",
        )
        .unwrap();
        let foreign = run_bundle_slice(&other.files, 2..3, leak_panel(), 1, None)
            .unwrap()
            .report;
        assert!(matches!(
            BatchReport::merge([first.clone(), foreign]),
            Err(BatchError::StampMismatch)
        ));
        // Mixing stamped and unstamped reports is ambiguous, not legacy.
        let mut unstamped = second.clone();
        unstamped.stamp = None;
        assert!(matches!(
            BatchReport::merge([first.clone(), unstamped]),
            Err(BatchError::StampMismatch)
        ));
        // Tampered contents under a matching stamp fail the recompute.
        let mut tampered = second.clone();
        tampered.programs[0].fingerprint = Fingerprint(0x1234);
        assert!(matches!(
            BatchReport::merge([first.clone(), tampered]),
            Err(BatchError::ChecksumMismatch)
        ));
        // The honest pair still merges after all those rejections.
        assert!(BatchReport::merge([first, second]).is_ok());
    }

    #[test]
    fn merge_rejects_duplicate_labels_within_a_slice() {
        let row = |label: &str| ReportRow {
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
            time: Duration::ZERO,
        };
        // A foreign artifact whose rows duplicate a configuration label is
        // ambiguous — which "speculative" row is the verdict's?
        let doubled = BatchReport {
            panel: leak_panel(),
            stamp: None,
            programs: vec![ProgramVerdict {
                leak: false,
                fingerprint: Fingerprint(1),
                report: Report {
                    program: "dup".to_string(),
                    elapsed: None,
                    cache: None,
                    rows: vec![row("speculative"), row("speculative")],
                },
            }],
        };
        assert!(matches!(
            BatchReport::merge([doubled]),
            Err(BatchError::Merge(MergeError::DuplicateLabel { label })) if label == "speculative"
        ));
    }

    #[test]
    fn invalid_panels_and_unreadable_programs_error_cleanly() {
        let panel = PanelSpec {
            kind: PanelKind::LeakCheck,
            cache_lines: 0,
        };
        assert!(matches!(panel.configs(), Err(BatchError::InvalidPanel(_))));
        let run = |files: &[PathBuf]| run_bundle(files, leak_panel(), 1, &ExecMode::InProcess);
        let missing = [PathBuf::from("/nonexistent/x.spec")];
        assert!(matches!(run(&missing), Err(BatchError::Io { .. })));
        let scratch = Scratch::new(&[("ok", "ok")]);
        std::fs::write(scratch.dir.join("bad.spec"), "this is not a program").unwrap();
        let bad = [scratch.dir.join("bad.spec")];
        assert!(matches!(run(&bad), Err(BatchError::Parse { .. })));
    }
}
