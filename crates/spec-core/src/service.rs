//! A long-running analysis service with warm incremental sessions.
//!
//! The analysis is cheap to *query* but expensive to *prepare* (unrolling,
//! VCFG construction, fixpoint rounds), and the session layers built the
//! machinery — [`PreparedProgram`], [`SessionCache`], fingerprint-keyed
//! invalidation — that a persistent process can amortize across thousands
//! of requests, the way IDE-style inspection services do.  This module is
//! that process: `specan serve` speaks the protocol below over TCP, and
//! `specan submit` (or any client — the protocol is a few lines of JSON)
//! scripts against it.
//!
//! # Protocol
//!
//! Newline-delimited JSON over TCP, std-only, zero new dependencies: each
//! request is one line, each response is one line, and a connection may
//! pipeline as many requests as it likes.  Responses carry the request's
//! `id` and may arrive out of order (requests are scheduled onto a fixed
//! worker pool); clients reorder by `id`.
//!
//! ```text
//! → {"v": 1, "id": 0, "cmd": "analyze", "program": "<.spec source>",
//!    "cache_lines": 8, "json": true, "baseline": false, "shadow": true,
//!    "merge_at_rollback": false, "unroll": true}
//! → {"v": 1, "id": 1, "cmd": "compare", "program": "<.spec source>",
//!    "cache_lines": 8, "json": true}
//! → {"v": 1, "id": 2, "cmd": "scan", "panel": {"kind": "leak-check",
//!    "cache_lines": 8}, "json": true, "programs": ["<src>", "<src>"]}
//! → {"v": 1, "id": 3, "cmd": "status"}
//! → {"v": 1, "id": 4, "cmd": "metrics"}
//! → {"v": 1, "id": 5, "cmd": "shutdown"}
//! ← {"id": 0, "ok": true, "exit": 0, "output": "<rendered output>"}
//! ← {"id": 9, "ok": false, "exit": 2, "error": "<message>"}
//! ```
//!
//! `output` is **exactly** what the equivalent one-shot CLI invocation
//! prints to stdout, and `exit` is the code it would exit with — the
//! render functions in this module ([`analyze_output`],
//! [`compare_output`], [`scan_output`]) are shared by the CLI and the
//! server, so the equivalence is by construction, not by parallel
//! maintenance.  Once the execution-describing fields are stripped (wall
//! clocks and session-cache counters; scan reports carry neither), a warm
//! server response is **byte-identical** to a fresh CLI run — the
//! `service_equivalence` property suite and the CI `service-gate` job hold
//! that line.
//!
//! # Scheduling and warmth
//!
//! Requests from every connection are queued onto one fixed pool of
//! `jobs` workers (scoped threads).  Each worker resolves programs through
//! one shared [`CacheSession`] front over the [`SessionCache`]: a
//! re-submitted program — identified by name, invalidated by structural
//! fingerprint — reuses its warm [`PreparedProgram`] exactly as
//! `--incremental` reuses on-disk sessions, and a worker's steady-state
//! hits come from its own thread-local L0 tier without taking the session
//! lock at all (logged as `(l0)`; cross-worker warm hits stay `(warm)`).
//! Every memoized unroll variant, address map, VCFG and fixpoint round
//! survives across requests, and an edit re-prepares only the program it
//! touched.  `status` and `shutdown` are answered inline by the connection
//! reader (they must stay responsive while the pool is busy).
//!
//! With [`ServiceConfig::max_session_bytes`] set (`specan serve
//! --max-session-bytes`), the budget is enforced after every request —
//! whole sessions are evicted least recently used first until the resident
//! bytes fit, and a cheap coarse growth tick skips the re-measure whenever
//! no resident artifact changed — so a server fed a stream of distinct
//! programs stays memory-bounded.  An evicted program is re-prepared on its next
//! submission; the `eviction_equivalence` suite and the CI `eviction-gate`
//! prove responses are byte-identical (post timing-strip) either way.
//!
//! Hostile input cannot wedge the server: request lines are capped
//! ([`ServiceConfig::max_request_bytes`]) while being read, and documents
//! go through the hardened [`crate::json`] parser (size, depth, escape
//! validation).
//!
//! # Telemetry
//!
//! Every server carries a [`spec_telemetry::Registry`]: per-kind request
//! counters and latency histograms, queue-wait and per-phase
//! (acquire/prepare/run/persist) histograms, cache-tier acquire latencies
//! and store I/O timings.  The `metrics` request renders it in Prometheus
//! text-exposition format (`specan metrics <addr>` is the scrape client),
//! and [`ServiceConfig::trace_log`] streams one NDJSON event per request
//! through a bounded channel to a dedicated writer thread.  Telemetry is a
//! side channel by construction: response bytes are untouched, and the
//! equivalence suites keep passing with it enabled.

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs as _};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use spec_cache::CacheConfig;
use spec_ir::fingerprint::Fingerprint;
use spec_ir::text::parse_program;
use spec_ir::Program;
use spec_telemetry::{Gauge, Histogram, Registry, TraceLog, TraceSender};
use spec_vcfg::MergeStrategy;

use crate::artifact::{PreparedStore, StoreTelemetry};
use crate::batch::{panel_checksum, BatchReport, BundleStamp, PanelSpec, ProgramVerdict};
use crate::cache_session::{relock, CacheOutcome, CacheSession, TierTelemetry};
use crate::classify::AnalysisResult;
use crate::incremental::SessionCache;
use crate::json::{self, JsonValue, ParseLimits};
use crate::options::AnalysisOptions;
use crate::session::{comparison_configs, Analyzer, PreparedProgram, Report};

/// Version tag of the request/response protocol; requests carrying a
/// different `v` are rejected up front.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default `host:port` of `specan serve` / `specan submit`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4870";

/// The configuration knobs of one `analyze` request — the service-layer
/// mirror of the CLI's `analyze` flags, shared so the two render the same
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// Cache size in 64-byte lines (fully associative, the paper's model).
    pub cache_lines: usize,
    /// Render machine-readable JSON instead of the human text report.
    pub json: bool,
    /// Run the non-speculative baseline instead of the full analysis.
    pub baseline: bool,
    /// Keep shadow-variable join refinement on.
    pub shadow: bool,
    /// Merge speculative paths at rollback instead of at decode.
    pub merge_at_rollback: bool,
    /// Unroll counted loops before the analysis.
    pub unroll: bool,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self {
            cache_lines: 512,
            json: false,
            baseline: false,
            shadow: true,
            merge_at_rollback: false,
            unroll: true,
        }
    }
}

impl AnalyzeConfig {
    /// Builds the validated [`AnalysisOptions`] these knobs describe.
    ///
    /// # Errors
    ///
    /// Returns the builder's message for inconsistent configurations
    /// (e.g. a zero-line cache).
    pub fn options(&self) -> Result<AnalysisOptions, String> {
        let mut builder = AnalysisOptions::builder()
            .cache(CacheConfig::fully_associative(self.cache_lines, 64))
            .speculative(!self.baseline)
            .shadow(self.shadow)
            .unroll_loops(self.unroll);
        if self.merge_at_rollback {
            builder = builder.merge_strategy(MergeStrategy::MergeAtRollback);
        }
        builder
            .build()
            .map_err(|err| format!("invalid configuration: {err}"))
    }

    /// The row label of the configuration (`baseline` / `speculative`).
    pub fn label(&self) -> &'static str {
        if self.baseline {
            "baseline"
        } else {
            "speculative"
        }
    }
}

/// The banner line of human-readable single-program output.
pub fn banner(program: &Program, cache_lines: usize) -> String {
    format!(
        "analysing `{}` ({} blocks, {} instructions, {} branches) on a {}-line cache\n",
        program.name(),
        program.blocks().len(),
        program.instruction_count(),
        program.branch_count(),
        cache_lines
    )
}

/// Re-indents a nested JSON blob by two spaces (cosmetic only).
fn indent_json(json: &str) -> String {
    json.replace('\n', "\n  ")
}

/// Per-access JSON array for `analyze --json`.
fn accesses_json(result: &AnalysisResult) -> String {
    let mut out = String::from("[\n");
    let accesses = result.accesses();
    for (i, access) in accesses.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"block\": {}, ",
            json::string(&result.program.block(access.block).label())
        ));
        out.push_str(&format!(
            "\"region\": {}, ",
            json::string(&access.region_name)
        ));
        out.push_str(&format!("\"inst_index\": {}, ", access.inst_index));
        out.push_str(&format!("\"observable_hit\": {}, ", access.observable_hit));
        out.push_str(&format!(
            "\"speculative_miss\": {}, ",
            access.is_speculative_miss()
        ));
        out.push_str(&format!(
            "\"secret_dependent\": {}",
            access.secret_dependent
        ));
        out.push_str(if i + 1 == accesses.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]");
    out
}

/// Runs one `analyze` configuration against a prepared session and renders
/// the output the CLI prints — text or JSON per [`AnalyzeConfig::json`].
/// One render path serves `specan analyze` and the server, which is what
/// makes warm service responses byte-identical (post timing-strip) to
/// one-shot runs.
///
/// # Errors
///
/// Returns the message of an invalid configuration.
pub fn analyze_output(
    prepared: &PreparedProgram,
    config: &AnalyzeConfig,
) -> Result<String, String> {
    let options = config.options()?;
    let program = prepared.program();
    let result = prepared.run(&options);
    // The leak verdict, derived the same way `spec_analysis::detect_leaks`
    // derives it: a secret-indexed access leaks unless it is a must-hit
    // that also never misses during squashed speculation.
    let secret_accesses = result.secret_accesses().count();
    let findings = result
        .secret_accesses()
        .filter(|access| !access.observable_hit || access.is_speculative_miss())
        .count();
    let leak_detected = findings > 0;
    if config.json {
        let report = Report::from_runs(program.name(), [(config.label(), &result)]);
        // Wrap the summary row together with the per-access detail.
        return Ok(format!(
            "{{\n  \"summary\": {},\n  \"leak_detected\": {},\n  \"accesses\": {}\n}}",
            indent_json(&report.to_json()),
            leak_detected,
            accesses_json(&result)
        ));
    }
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", banner(program, config.cache_lines));
    let _ = writeln!(
        out,
        "== {} analysis of `{}` ==",
        config.label(),
        program.name()
    );
    let _ = writeln!(
        out,
        "  accesses: {}   guaranteed hits: {}   possible misses: {}   squashed misses: {}",
        result.access_count(),
        result.must_hit_count(),
        result.miss_count(),
        result.speculative_miss_count()
    );
    let _ = writeln!(
        out,
        "  speculated branches: {}   fixpoint iterations: {}   analysis time: {:.3}s",
        result.speculated_branches,
        result.iterations(),
        result.elapsed.as_secs_f64()
    );
    for access in result.accesses() {
        if access.observable_hit && !access.is_speculative_miss() {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:>10}  {:<20} {}{}",
            result.program.block(access.block).label(),
            format!("{}[#{}]", access.region_name, access.inst_index),
            if access.observable_hit {
                "hit, but may miss speculatively"
            } else {
                "may miss"
            },
            if access.secret_dependent {
                "  [secret-indexed]"
            } else {
                ""
            }
        );
    }
    if secret_accesses == 0 {
        let _ = writeln!(
            out,
            "  no secret-indexed accesses: side-channel check not applicable"
        );
    } else if leak_detected {
        let _ = writeln!(
            out,
            "  LEAK: {findings} of {secret_accesses} secret-indexed accesses may show secret-dependent timing"
        );
    } else {
        let _ = writeln!(out, "  no cache side-channel leak detected");
    }
    Ok(out.trim_end().to_string())
}

/// Runs the standard comparison panel against a prepared session and
/// renders single-program `compare` output — shared by the CLI and the
/// server.
///
/// # Errors
///
/// Returns the message of a degenerate cache geometry.
pub fn compare_output(
    prepared: &PreparedProgram,
    cache_lines: usize,
    render_json: bool,
) -> Result<String, String> {
    let cache = CacheConfig::fully_associative(cache_lines, 64);
    // Reject degenerate geometries with a usage error before the panel's
    // presets (which assume a valid cache) are built.
    AnalysisOptions::builder()
        .cache(cache)
        .build()
        .map_err(|err| format!("invalid configuration: {err}"))?;
    let suite = prepared.run_suite(&comparison_configs(cache));
    let report = suite.report();
    Ok(if render_json {
        report.to_json()
    } else {
        format!(
            "{}\n{}",
            banner(prepared.program(), cache_lines),
            report.to_string().trim_end()
        )
    })
}

/// Renders a scan report exactly as `specan scan` prints it.
pub fn scan_output(report: &BatchReport, render_json: bool) -> String {
    if render_json {
        report.to_json()
    } else {
        report.to_string().trim_end().to_string()
    }
}

/// One request of the service protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One `specan analyze` unit: a program source and its knobs.
    Analyze {
        /// The `.spec` source text.
        source: String,
        /// The configuration knobs.
        config: AnalyzeConfig,
    },
    /// One single-program `specan compare` run.
    Compare {
        /// The `.spec` source text.
        source: String,
        /// Cache size in 64-byte lines.
        cache_lines: usize,
        /// Render JSON instead of the table.
        json: bool,
    },
    /// A bundle scan over inline sources, in bundle order.
    Scan {
        /// The `.spec` sources, in bundle order.
        sources: Vec<String>,
        /// The panel to run every program under.
        panel: PanelSpec,
        /// Render JSON instead of the table.
        json: bool,
    },
    /// Service introspection: counters and session warmth.
    Status,
    /// Telemetry scrape: the server's metrics registry rendered in
    /// Prometheus text-exposition format.
    Metrics,
    /// Stop accepting connections and drain the worker pool.
    Shutdown,
}

impl Request {
    /// Serializes the request as one protocol line (no trailing newline).
    pub fn to_json(&self, id: u64) -> String {
        let head = format!("{{\"v\": {PROTOCOL_VERSION}, \"id\": {id}");
        match self {
            Request::Analyze { source, config } => format!(
                "{head}, \"cmd\": \"analyze\", \"cache_lines\": {}, \"json\": {}, \
                 \"baseline\": {}, \"shadow\": {}, \"merge_at_rollback\": {}, \
                 \"unroll\": {}, \"program\": {}}}",
                config.cache_lines,
                config.json,
                config.baseline,
                config.shadow,
                config.merge_at_rollback,
                config.unroll,
                json::string(source)
            ),
            Request::Compare {
                source,
                cache_lines,
                json: render_json,
            } => format!(
                "{head}, \"cmd\": \"compare\", \"cache_lines\": {cache_lines}, \
                 \"json\": {render_json}, \"program\": {}}}",
                json::string(source)
            ),
            Request::Scan {
                sources,
                panel,
                json: render_json,
            } => {
                let mut out = format!(
                    "{head}, \"cmd\": \"scan\", \"panel\": {}, \"json\": {render_json}, \
                     \"programs\": [",
                    panel.to_json()
                );
                for (i, source) in sources.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&json::string(source));
                }
                out.push_str("]}");
                out
            }
            Request::Status => format!("{head}, \"cmd\": \"status\"}}"),
            Request::Metrics => format!("{head}, \"cmd\": \"metrics\"}}"),
            Request::Shutdown => format!("{head}, \"cmd\": \"shutdown\"}}"),
        }
    }

    /// Parses one protocol line into `(id, request)`.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an error response: invalid JSON, an
    /// unsupported protocol version, or a malformed request shape.
    pub fn from_json(line: &str, limits: &ParseLimits) -> Result<(Option<u64>, Request), String> {
        let value = JsonValue::parse_with_limits(line, limits).map_err(|err| err.to_string())?;
        let id = value.get("id").and_then(JsonValue::as_u64);
        if let Some(version) = value.get("v").and_then(JsonValue::as_u64) {
            if version != PROTOCOL_VERSION {
                return Err(format!(
                    "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION})"
                ));
            }
        }
        let cmd = value
            .get("cmd")
            .and_then(JsonValue::as_str)
            .ok_or("missing `cmd`")?;
        let flag = |key: &str, default: bool| {
            value
                .get(key)
                .and_then(JsonValue::as_bool)
                .unwrap_or(default)
        };
        let cache_lines = || {
            value
                .get("cache_lines")
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| usize::try_from(n).ok())
                        .ok_or("malformed `cache_lines`")
                })
                .unwrap_or(Ok(512))
        };
        let source = || {
            value
                .get("program")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or("missing `program` source")
        };
        let request = match cmd {
            "analyze" => Request::Analyze {
                source: source()?,
                config: AnalyzeConfig {
                    cache_lines: cache_lines()?,
                    json: flag("json", false),
                    baseline: flag("baseline", false),
                    shadow: flag("shadow", true),
                    merge_at_rollback: flag("merge_at_rollback", false),
                    unroll: flag("unroll", true),
                },
            },
            "compare" => Request::Compare {
                source: source()?,
                cache_lines: cache_lines()?,
                json: flag("json", false),
            },
            "scan" => {
                let panel = PanelSpec::from_json(value.get("panel").ok_or("missing `panel`")?)
                    .map_err(|err| err.to_string())?;
                let sources = value
                    .get("programs")
                    .and_then(JsonValue::as_array)
                    .ok_or("missing `programs` array")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or("malformed program source")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Request::Scan {
                    sources,
                    panel,
                    json: flag("json", false),
                }
            }
            "status" => Request::Status,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown command `{other}`")),
        };
        Ok((id, request))
    }
}

/// One response of the service protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The request's `id`, echoed back (absent when the request had none
    /// or was too malformed to carry one).
    pub id: Option<u64>,
    /// Whether the request executed.
    pub ok: bool,
    /// The exit code the equivalent one-shot CLI run would end with
    /// (`0` clean, `1` leak for `scan`, `2` error).
    pub exit: u8,
    /// On success: exactly the bytes the CLI prints to stdout.
    pub output: String,
    /// On failure: the error message.
    pub error: Option<String>,
}

impl Response {
    pub(crate) fn success(id: Option<u64>, exit: u8, output: String) -> Self {
        Self {
            id,
            ok: true,
            exit,
            output,
            error: None,
        }
    }

    pub(crate) fn failure(id: Option<u64>, message: String) -> Self {
        Self {
            id,
            ok: false,
            exit: 2,
            output: String::new(),
            error: Some(message),
        }
    }

    /// Serializes the response as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        if let Some(id) = self.id {
            out.push_str(&format!("\"id\": {id}, "));
        }
        out.push_str(&format!("\"ok\": {}, \"exit\": {}", self.ok, self.exit));
        if let Some(error) = &self.error {
            out.push_str(&format!(", \"error\": {}", json::string(error)));
        } else {
            out.push_str(&format!(", \"output\": {}", json::string(&self.output)));
        }
        out.push('}');
        out
    }

    /// Parses one protocol line back into a response.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a valid response document.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let value = JsonValue::parse(line).map_err(|err| err.to_string())?;
        let ok = value
            .get("ok")
            .and_then(JsonValue::as_bool)
            .ok_or("missing `ok`")?;
        let exit = value
            .get("exit")
            .and_then(JsonValue::as_u64)
            .and_then(|code| u8::try_from(code).ok())
            .ok_or("missing `exit`")?;
        Ok(Response {
            id: value.get("id").and_then(JsonValue::as_u64),
            ok,
            exit,
            output: value
                .get("output")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            error: value
                .get("error")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
        })
    }
}

/// Server tuning.
///
/// [`ServiceConfig::max_session_bytes`] is the one memory bound: at every
/// request boundary it measures each resident session's memo tables in
/// full (unrolled cores, address maps, VCFGs and fixpoint rounds) and
/// evicts whole sessions.  Inside a session nothing is evicted: every
/// artifact is built once and kept for the session's lifetime.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Fixed worker-pool size (the request-level parallelism).
    pub jobs: NonZeroUsize,
    /// Per-request line cap; longer lines close the connection with an
    /// error response instead of buffering without bound.
    pub max_request_bytes: usize,
    /// Byte budget over the whole session cache (`--max-session-bytes`):
    /// resident [`PreparedProgram`]s are byte-accounted after every request
    /// and evicted least recently used first until the cache fits.  `None`
    /// (the default) keeps one warm session per program name forever —
    /// fine for a trusted workload, unbounded for a public endpoint fed a
    /// stream of distinct programs.  Eviction never changes responses.
    pub max_session_bytes: Option<u64>,
    /// Artifact-store directory (`--artifact-dir`): when set, prepared
    /// sessions persist across restarts — installs write through, dirty
    /// entries flush at request boundaries, and a cache miss tries a disk
    /// load before a cold preparation.  `None` (the default) keeps the
    /// service purely in-memory.  The store never changes responses.
    pub artifact_dir: Option<PathBuf>,
    /// Byte budget over the on-disk store (`--max-store-bytes`), enforced
    /// by recency-based GC after every write.  `None` is unbounded.
    pub max_store_bytes: Option<u64>,
    /// Trace-log path (`--trace-log`): when set, every completed request
    /// appends one NDJSON event (id, kind, fingerprint, tier, per-phase
    /// durations, worker) through a bounded channel to a dedicated writer
    /// thread.  A full channel drops events instead of blocking workers;
    /// the drop count is itself a metric.  `None` (the default) traces
    /// nothing.
    pub trace_log: Option<PathBuf>,
}

impl ServiceConfig {
    /// A config with `jobs` workers and default caps (8 MiB requests, no
    /// session byte budget, no artifact store).
    pub fn new(jobs: NonZeroUsize) -> Self {
        Self {
            jobs,
            max_request_bytes: 8 << 20,
            max_session_bytes: None,
            artifact_dir: None,
            max_store_bytes: None,
            trace_log: None,
        }
    }

    /// A validating builder seeded with [`ServiceConfig::new`]'s defaults,
    /// mirroring [`AnalysisOptions::builder`]: setters accumulate, and
    /// [`ServiceConfigBuilder::build`] rejects incoherent combinations
    /// instead of letting them reach a running server.
    pub fn builder(jobs: NonZeroUsize) -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: Self::new(jobs),
        }
    }
}

/// Why a [`ServiceConfigBuilder`] refused to build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceConfigError {
    /// The request line cap is zero, which would reject every request.
    ZeroRequestCap,
    /// A store byte budget was set without an artifact directory: there is
    /// no store to bound.
    StoreBudgetWithoutStore,
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroRequestCap => {
                write!(f, "max request bytes must be non-zero")
            }
            Self::StoreBudgetWithoutStore => {
                write!(f, "--max-store-bytes requires --artifact-dir")
            }
        }
    }
}

impl std::error::Error for ServiceConfigError {}

/// Builder for [`ServiceConfig`] — see [`ServiceConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Per-request line cap in bytes (default 8 MiB).
    pub fn max_request_bytes(mut self, bytes: usize) -> Self {
        self.config.max_request_bytes = bytes;
        self
    }

    /// Byte budget over the whole session cache (`--max-session-bytes`).
    pub fn max_session_bytes(mut self, bytes: u64) -> Self {
        self.config.max_session_bytes = Some(bytes);
        self
    }

    /// Artifact-store directory (`--artifact-dir`).
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.artifact_dir = Some(dir.into());
        self
    }

    /// Byte budget over the on-disk store (`--max-store-bytes`).  Only
    /// meaningful together with [`ServiceConfigBuilder::artifact_dir`].
    pub fn max_store_bytes(mut self, bytes: u64) -> Self {
        self.config.max_store_bytes = Some(bytes);
        self
    }

    /// NDJSON trace-log path (`--trace-log`).
    pub fn trace_log(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.trace_log = Some(path.into());
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ServiceConfigError`] for a zero request cap or a store budget
    /// without a store.
    pub fn build(self) -> Result<ServiceConfig, ServiceConfigError> {
        if self.config.max_request_bytes == 0 {
            return Err(ServiceConfigError::ZeroRequestCap);
        }
        if self.config.max_store_bytes.is_some() && self.config.artifact_dir.is_none() {
            return Err(ServiceConfigError::StoreBudgetWithoutStore);
        }
        Ok(self.config)
    }
}

/// Lifetime counters of one [`serve`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Requests parsed (including `status`/`shutdown`).
    pub requests: u64,
    /// Requests that failed (parse or execution).
    pub errors: u64,
}

/// The protocol commands a request ledger tracks, plus `invalid` for
/// lines that never parsed into a command at all.
pub(crate) const REQUEST_KINDS: [&str; 7] = [
    "analyze", "compare", "scan", "status", "metrics", "shutdown", "invalid",
];

/// The accounting kind of a parsed request — one of [`REQUEST_KINDS`].
pub(crate) fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Analyze { .. } => "analyze",
        Request::Compare { .. } => "compare",
        Request::Scan { .. } => "scan",
        Request::Status => "status",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// Emits one complete stderr line with a single `write_all` so per-request
/// accounting lines from concurrent workers never interleave mid-line (an
/// `eprintln!` with a formatted body may take the stderr lock per fragment
/// on some platforms; one pre-rendered buffer never does).
pub(crate) fn log_line(line: &str) {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    let _ = io::stderr().write_all(buf.as_bytes());
}

/// The request-ledger half of a server's telemetry: one ok/error counter
/// pair per protocol command and one end-to-end latency histogram per
/// *queued* command, pre-registered so the hot path records without ever
/// touching the registry lock.  Counting happens once, at completion —
/// which makes `requests == ok + errors` hold in every snapshot by
/// construction (the consistency the old free-running `AtomicU64` pair
/// could not promise a scraper).
pub(crate) struct RequestTelemetry {
    kinds: Vec<KindCell>,
}

struct KindCell {
    kind: &'static str,
    ok: spec_telemetry::Counter,
    error: spec_telemetry::Counter,
    /// Only the queued commands (`analyze`/`compare`/`scan`) get a latency
    /// series; inline commands answer from the reader thread in
    /// microseconds and would only pad the exposition.
    latency: Option<Histogram>,
}

impl RequestTelemetry {
    pub(crate) fn new(registry: &Registry, total_name: &str, seconds_name: &str) -> Self {
        let kinds = REQUEST_KINDS
            .iter()
            .map(|&kind| KindCell {
                kind,
                ok: registry.counter(
                    total_name,
                    "Requests completed, by protocol command and outcome.",
                    &[("kind", kind), ("outcome", "ok")],
                ),
                error: registry.counter(
                    total_name,
                    "Requests completed, by protocol command and outcome.",
                    &[("kind", kind), ("outcome", "error")],
                ),
                latency: matches!(kind, "analyze" | "compare" | "scan").then(|| {
                    registry.histogram(
                        seconds_name,
                        "End-to-end request latency (queue wait included), by command.",
                        &[("kind", kind)],
                    )
                }),
            })
            .collect();
        Self { kinds }
    }

    /// Records one finished request: outcome counter always, latency only
    /// for kinds that carry a histogram and calls that supply a duration.
    pub(crate) fn complete(&self, kind: &str, ok: bool, elapsed: Option<Duration>) {
        let cell = self
            .kinds
            .iter()
            .find(|cell| cell.kind == kind)
            .expect("kind is one of REQUEST_KINDS");
        if ok {
            cell.ok.inc();
        } else {
            cell.error.inc();
        }
        if let (Some(histogram), Some(elapsed)) = (&cell.latency, elapsed) {
            histogram.record(elapsed);
        }
    }
}

/// Everything `serve` measures, pre-registered on one [`Registry`] so the
/// record path is lock-free and a `metrics` scrape is one coherent
/// snapshot.
struct ServeTelemetry {
    registry: Registry,
    requests: RequestTelemetry,
    queue_wait: Histogram,
    phase_acquire: Histogram,
    phase_prepare: Histogram,
    phase_run: Histogram,
    phase_persist: Histogram,
    programs: Gauge,
    resident_bytes: Gauge,
}

impl ServeTelemetry {
    fn new() -> Self {
        let registry = Registry::new();
        let requests =
            RequestTelemetry::new(&registry, "spec_requests_total", "spec_request_seconds");
        let phase = |name: &'static str| {
            registry.histogram(
                "spec_phase_seconds",
                "Per-phase request latency: acquire, prepare, run, persist.",
                &[("phase", name)],
            )
        };
        Self {
            requests,
            queue_wait: registry.histogram(
                "spec_queue_wait_seconds",
                "Time a queued request waited for a pool worker.",
                &[],
            ),
            phase_acquire: phase("acquire"),
            phase_prepare: phase("prepare"),
            phase_run: phase("run"),
            phase_persist: phase("persist"),
            programs: registry.gauge(
                "spec_sessions_programs",
                "Programs resident in the session cache.",
                &[],
            ),
            resident_bytes: registry.gauge(
                "spec_session_resident_bytes",
                "Estimated bytes of resident prepared sessions.",
                &[],
            ),
            registry,
        }
    }
}

/// Per-request trace context, filled in along the execution path and
/// rendered as one NDJSON line when a `--trace-log` is configured.
#[derive(Default)]
struct RequestTrace {
    fingerprint: Option<Fingerprint>,
    tier: Option<&'static str>,
    acquire: Duration,
    prepare: Duration,
    run: Duration,
    persist: Duration,
}

impl RequestTrace {
    fn render(
        &self,
        id: Option<u64>,
        kind: &str,
        worker: usize,
        ok: bool,
        total: Duration,
    ) -> String {
        format!(
            "{{\"id\": {}, \"kind\": \"{kind}\", \"ok\": {ok}, \"worker\": {worker}, \
             \"fingerprint\": {}, \"tier\": {}, \"acquire_secs\": {}, \"prepare_secs\": {}, \
             \"run_secs\": {}, \"persist_secs\": {}, \"total_secs\": {}}}",
            id.map_or_else(|| "null".to_string(), |id| id.to_string()),
            self.fingerprint
                .map_or_else(|| "null".to_string(), |fp| format!("\"{}\"", fp.to_hex())),
            self.tier
                .map_or_else(|| "null".to_string(), |tier| format!("\"{tier}\"")),
            self.acquire.as_secs_f64(),
            self.prepare.as_secs_f64(),
            self.run.as_secs_f64(),
            self.persist.as_secs_f64(),
            total.as_secs_f64(),
        )
    }
}

struct ServerState {
    /// The tiered session front every worker resolves programs through:
    /// L0 hits stay on the worker's own thread, cold prepares run outside
    /// the shared lock by construction of the acquire/commit protocol.
    sessions: CacheSession,
    shutdown: AtomicBool,
    telemetry: ServeTelemetry,
    trace: Option<TraceSender>,
    jobs: usize,
    limits: ParseLimits,
    addr: SocketAddr,
}

struct Job {
    id: Option<u64>,
    request: Request,
    out: Arc<Mutex<TcpStream>>,
    /// When the reader queued the job — queue wait and end-to-end latency
    /// both measure from here.
    enqueued: Instant,
}

/// Runs the analysis service on `listener` until a `shutdown` request
/// arrives, then drains the worker pool and returns the lifetime counters.
///
/// Every connection gets a reader thread; work requests are queued onto
/// `config.jobs` pool workers sharing one warm [`SessionCache`].  One
/// `serve: <cmd> ...` line per request goes to stderr — the server's
/// accounting log, and the CI gate's evidence of warm reuse.
///
/// # Errors
///
/// Propagates listener-level I/O errors; per-connection failures only
/// close that connection.
pub fn serve(listener: TcpListener, config: &ServiceConfig) -> io::Result<ServiceReport> {
    let addr = listener.local_addr()?;
    let analyzer = Analyzer::new().max_suite_threads(NonZeroUsize::MIN);
    let mut cache = SessionCache::with_analyzer(analyzer);
    if let Some(bytes) = config.max_session_bytes {
        cache = cache.max_session_bytes(bytes);
    }
    let telemetry = ServeTelemetry::new();
    if let Some(dir) = &config.artifact_dir {
        let mut store =
            PreparedStore::open(dir).telemetry(StoreTelemetry::registered(&telemetry.registry));
        if let Some(bytes) = config.max_store_bytes {
            store = store.max_store_bytes(bytes);
        }
        cache = cache.artifact_store(store);
    }
    // Declared before `state` so its drop (which drains and joins the
    // writer thread) runs *after* the state's `TraceSender` clone is gone.
    let trace_log = config
        .trace_log
        .as_deref()
        .map(TraceLog::create)
        .transpose()?;
    let sessions = CacheSession::new(cache);
    sessions.set_tier_telemetry(TierTelemetry::registered(&telemetry.registry));
    let state = ServerState {
        sessions,
        shutdown: AtomicBool::new(false),
        trace: trace_log.as_ref().map(TraceLog::sender),
        telemetry,
        jobs: config.jobs.get(),
        limits: ParseLimits {
            max_bytes: config.max_request_bytes,
            ..ParseLimits::default()
        },
        addr,
    };
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        let rx = &rx;
        let state = &state;
        for worker in 0..state.jobs {
            scope.spawn(move || worker_loop(rx, state, worker));
        }
        loop {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(err) => {
                    // Transient by assumption: ECONNABORTED (peer reset
                    // mid-handshake) and EMFILE (fd pressure) both clear on
                    // their own, and a long-running service must outlive
                    // them.  The pause stops an error storm from spinning;
                    // the loop re-checks the shutdown flag either way.
                    if err.kind() != io::ErrorKind::Interrupted {
                        eprintln!("serve: accept error (retrying): {err}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    continue;
                }
            };
            if state.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection of the shutdown path.
                break;
            }
            let tx = tx.clone();
            scope.spawn(move || connection_loop(stream, tx, state));
        }
        // Dropping the accept loop's sender lets the pool drain and exit
        // once the connection readers (each holding a clone) finish.
        drop(tx);
    });
    let snapshot = state.telemetry.registry.snapshot();
    Ok(ServiceReport {
        requests: snapshot.counter_sum("spec_requests_total"),
        errors: snapshot.counter_sum_where("spec_requests_total", |labels| {
            labels.iter().any(|(k, v)| k == "outcome" && v == "error")
        }),
    })
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>, state: &ServerState, worker: usize) {
    loop {
        let job = {
            let rx = relock(rx);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // every sender is gone: drained
            }
        };
        state.telemetry.queue_wait.record(job.enqueued.elapsed());
        let kind = request_kind(&job.request);
        let mut trace = RequestTrace::default();
        // The backstop of the per-program containment in [`execute`]: a
        // panic anywhere in a request's execution must cost that request an
        // error response, never the whole server — unwinding out of a
        // scoped pool worker would tear down `serve` itself.  Shared state
        // stays coherent because every lock is taken through [`relock`].
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&job.request, state, &mut trace)
        }))
        .unwrap_or_else(|payload| {
            Err(format!(
                "internal: request panicked: {}",
                panic_message(payload.as_ref())
            ))
        });
        let response = match executed {
            Ok((exit, output)) => Response::success(job.id, exit, output),
            Err(message) => {
                // A failed request may still have grown resident artifacts
                // (e.g. a render error after the analysis ran); re-enforce
                // so the byte bound holds at *every* request boundary, not
                // just successful ones.
                session_accounting(state, &mut trace);
                Response::failure(job.id, message)
            }
        };
        // Counted before the response bytes leave: a client that scrapes
        // `metrics` right after reading its response must see this request
        // in the ledger.
        let elapsed = job.enqueued.elapsed();
        state
            .telemetry
            .requests
            .complete(kind, response.ok, Some(elapsed));
        write_response(&job.out, &response);
        if let Some(sender) = &state.trace {
            sender.emit(trace.render(job.id, kind, worker, response.ok, elapsed));
        }
    }
}

/// Re-enforces the session byte budget after a request and renders the
/// accounting tail of the per-request log line — the empty string on an
/// unbounded server, which then neither measures nor logs anything extra
/// (re-walking every resident artifact per request would be pure overhead
/// with no budget to enforce).  Enforcement happens *after* the analysis
/// because running configurations grows a resident entry's memoized
/// artifacts — measuring at install time alone would let the cache drift
/// over budget between installs.  Together with the error-path enforcement
/// in [`worker_loop`], its placement makes `session_bytes` ≤ budget an
/// invariant at every request boundary, which the soak test and the CI
/// eviction gate watch.
fn session_accounting(state: &ServerState, trace: &mut RequestTrace) -> String {
    let sessions = &state.sessions;
    // An unbounded, store-free server has nothing to flush, enforce or
    // log — and this check reads cached configuration, no lock taken.
    if !sessions.has_store() && sessions.budget().is_none() {
        return String::new();
    }
    // One checkpoint does the whole boundary pass in the right order:
    // flush entries whose memoized artifacts grew during this request (so
    // a crash or restart at any request boundary finds them on disk), then
    // enforce the byte budget — which skips its re-measure entirely when
    // the coarse growth tick proves nothing changed.
    let persist = Instant::now();
    let stats = sessions.checkpoint();
    let persist_elapsed = persist.elapsed();
    state.telemetry.phase_persist.record(persist_elapsed);
    trace.persist += persist_elapsed;
    let mut tail = String::new();
    if sessions.has_store() {
        // The store line is the restart gate's evidence that a warm answer
        // came from a disk load, not a re-preparation.
        tail.push_str(&format!(
            " store: {} hits, {} misses, {} bytes loaded",
            stats.store_hits, stats.store_misses, stats.store_loaded_bytes
        ));
    }
    if sessions.budget().is_some() {
        tail.push_str(&format!(
            " session: {} bytes resident, {} evicted",
            stats.session_bytes, stats.session_evictions
        ));
    }
    tail
}

/// Executes one queued request and returns `(exit code, output)`.
fn execute(
    request: &Request,
    state: &ServerState,
    trace: &mut RequestTrace,
) -> Result<(u8, String), String> {
    match request {
        Request::Analyze { source, config } => {
            // Validate the configuration before the program enters the
            // cache: a bad request must not leave side effects.
            config.options()?;
            let (prepared, how) = resolve_session(source, state, true, trace)?;
            let run = Instant::now();
            let output = analyze_output(&prepared, config);
            let run_elapsed = run.elapsed();
            state.telemetry.phase_run.record(run_elapsed);
            trace.run += run_elapsed;
            let output = output?;
            log_line(&format!(
                "serve: analyze `{}` ({how}){}",
                prepared.program().name(),
                session_accounting(state, trace)
            ));
            Ok((0, output))
        }
        Request::Compare {
            source,
            cache_lines,
            json: render_json,
        } => {
            AnalysisOptions::builder()
                .cache(CacheConfig::fully_associative(*cache_lines, 64))
                .build()
                .map_err(|err| format!("invalid configuration: {err}"))?;
            let (prepared, how) = resolve_session(source, state, false, trace)?;
            let run = Instant::now();
            let output = compare_output(&prepared, *cache_lines, *render_json);
            let run_elapsed = run.elapsed();
            state.telemetry.phase_run.record(run_elapsed);
            trace.run += run_elapsed;
            let output = output?;
            log_line(&format!(
                "serve: compare `{}` ({how}){}",
                prepared.program().name(),
                session_accounting(state, trace)
            ));
            Ok((0, output))
        }
        Request::Scan {
            sources,
            panel,
            json: render_json,
        } => {
            let configs = panel.configs().map_err(|err| err.to_string())?;
            if sources.is_empty() {
                return Err("no programs in scan request".to_string());
            }
            // Resolve (and, cold, prepare) every program in bundle order,
            // then fan the per-program suites out across scoped threads —
            // one pool worker owns the request, but the bundle itself runs
            // `jobs`-wide, matching what `specan scan` does locally.  The
            // transient oversubscription is bounded by `jobs` extra
            // threads per in-flight scan, and determinism is untouched:
            // verdicts are collected in bundle order.
            let mut sessions = Vec::with_capacity(sources.len());
            let mut warm = 0usize;
            for source in sources {
                let (prepared, how) = resolve_session(source, state, false, trace)?;
                if sessions.iter().any(|other: &Arc<PreparedProgram>| {
                    other.program().name() == prepared.program().name()
                }) {
                    return Err(format!(
                        "program `{}` appears more than once in the bundle",
                        prepared.program().name()
                    ));
                }
                warm += usize::from(matches!(how, "warm" | "l0"));
                sessions.push(prepared);
            }
            let threads = state.jobs.min(sessions.len()).max(1);
            let run = Instant::now();
            let verdicts = fan_out_catching(&sessions, threads, |prepared| {
                let report = prepared.run_suite(&configs).report().without_timing();
                ProgramVerdict::from_report(report, prepared.fingerprint())
            });
            let run_elapsed = run.elapsed();
            state.telemetry.phase_run.record(run_elapsed);
            trace.run += run_elapsed;
            let mut programs: Vec<ProgramVerdict> = Vec::with_capacity(sessions.len());
            for (slot, prepared) in verdicts.into_iter().zip(&sessions) {
                let name = prepared.program().name();
                match slot {
                    Some(Ok(verdict)) => programs.push(verdict),
                    // A poisoned slot — the worker's suite run panicked —
                    // fails this request with a verdict-shaped message and
                    // leaves the server (and the rest of the pool) alive.
                    Some(Err(panic)) => {
                        return Err(format!("internal: analysis of `{name}` panicked: {panic}"))
                    }
                    None => {
                        return Err(format!(
                            "internal: analysis of `{name}` produced no verdict"
                        ))
                    }
                }
            }
            log_line(&format!(
                "serve: scan {} program(s) ({} warm){}",
                sessions.len(),
                warm,
                session_accounting(state, trace)
            ));
            let stamp = BundleStamp {
                checksum: panel_checksum(*panel, programs.iter().map(|p| p.fingerprint)),
                total: programs.len(),
                start: 0,
            };
            let report = BatchReport {
                panel: *panel,
                stamp: Some(stamp),
                programs,
            };
            let exit = u8::from(report.any_leak());
            Ok((exit, scan_output(&report, *render_json)))
        }
        // Handled inline by the connection reader; reaching a worker is a
        // scheduling bug.
        Request::Status | Request::Metrics | Request::Shutdown => {
            Err("internal: unqueued request".to_string())
        }
    }
}

/// Renders a `catch_unwind` payload as the panic's message (the common
/// `&str`/`String` payloads verbatim, a placeholder otherwise).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Fans `work` out over `items` across at most `threads` scoped workers,
/// catching per-item panics: a poisoned item lands in its slot as
/// `Some(Err(message))` instead of unwinding the pool — which, inside
/// `serve`'s scoped worker threads, would kill the entire server.  Slots of
/// completed items are `Some(Ok(_))` in input order; `None` only if a
/// worker died outside the guarded region (which the guard makes
/// unreachable, but the type keeps the caller honest).
pub(crate) fn fan_out_catching<T, R, F>(
    items: &[T],
    threads: usize,
    work: F,
) -> Vec<Option<Result<R, String>>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<R, String>>>> =
        Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                // AssertUnwindSafe: a panicking `work` may leave `item`'s
                // interior caches half-updated, but every shared structure
                // it can reach is lock-protected and re-acquired through
                // `relock`, and the item's result is discarded as an error.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(item)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                relock(&slots)[index] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Parses `source` and resolves it through the tiered session front,
/// returning the session to run against plus the accounting tag (`l0`,
/// `warm`, `store`, `prepared`, `renamed`).
///
/// This is one [`CacheSession::acquire`] (name-exact, for `analyze`-shaped
/// output that embeds region and block names) or
/// [`CacheSession::acquire_structural`] (for rename-insensitive outputs):
/// a steady-state hit never takes the session lock at all, and a miss
/// hands back a guard whose expensive [`Analyzer::prepare`] provably runs
/// outside it — one cold request never serializes the whole pool.  Racing
/// preparations of the same program are benign (the sessions are
/// interchangeable; last writer wins).
fn resolve_session(
    source: &str,
    state: &ServerState,
    name_sensitive: bool,
    trace: &mut RequestTrace,
) -> Result<(Arc<PreparedProgram>, &'static str), String> {
    let acquire = Instant::now();
    let program = parse_program(source).map_err(|err| format!("cannot parse program: {err}"))?;
    let outcome = if name_sensitive {
        state.sessions.acquire(&program)
    } else {
        state.sessions.acquire_structural(&program)
    };
    let acquire_elapsed = acquire.elapsed();
    state.telemetry.phase_acquire.record(acquire_elapsed);
    trace.acquire += acquire_elapsed;
    let how = outcome.tag();
    trace.tier = Some(how);
    let prepared = match outcome {
        CacheOutcome::L0Hit(prepared)
        | CacheOutcome::WarmHit(prepared)
        | CacheOutcome::StoreHit(prepared) => prepared,
        CacheOutcome::NeedsPrepare(guard) => {
            let prepare = Instant::now();
            let prepared = guard.prepare(&program);
            let prepare_elapsed = prepare.elapsed();
            state.telemetry.phase_prepare.record(prepare_elapsed);
            trace.prepare += prepare_elapsed;
            prepared
        }
    };
    trace.fingerprint = Some(prepared.fingerprint());
    Ok((prepared, how))
}

fn status_output(state: &ServerState) -> String {
    let programs = state.sessions.len();
    let stats = state.sessions.stats();
    // Both counters come from one registry snapshot, so a scraper can never
    // observe `errors > requests` or a request counted in one field but not
    // the other — the old pair of free-running atomics could tear.
    let snapshot = state.telemetry.registry.snapshot();
    let requests = snapshot.counter_sum("spec_requests_total");
    let errors = snapshot.counter_sum_where("spec_requests_total", |labels| {
        labels.iter().any(|(k, v)| k == "outcome" && v == "error")
    });
    format!(
        "{{\"protocol\": {PROTOCOL_VERSION}, \"jobs\": {}, \"programs\": {}, \
         \"requests\": {}, \"errors\": {}, \"session\": {{\"inserted\": {}, \
         \"reused\": {}, \"invalidated\": {}, \"session_bytes\": {}, \
         \"session_evictions\": {}, \"store_hits\": {}, \"store_misses\": {}, \
         \"store_loaded_bytes\": {}, \"l0_hits\": {}, \"l1_hits\": {}, \
         \"generation\": {}}}}}",
        state.jobs,
        programs,
        requests,
        errors,
        stats.inserted,
        stats.reused,
        stats.invalidated,
        stats.session_bytes,
        stats.session_evictions,
        stats.store_hits,
        stats.store_misses,
        stats.store_loaded_bytes,
        stats.l0_hits,
        stats.l1_hits,
        stats.generation
    )
}

/// Renders the telemetry registry in Prometheus text-exposition format —
/// the body of a `metrics` response.  The session gauges are sampled here
/// (scrape time) rather than maintained on the hot path.
fn metrics_output(state: &ServerState) -> String {
    state.telemetry.programs.set(state.sessions.len() as f64);
    state
        .telemetry
        .resident_bytes
        .set(state.sessions.resident_bytes() as f64);
    state.telemetry.registry.render()
}

pub(crate) fn write_response(out: &Mutex<TcpStream>, response: &Response) {
    let mut line = response.to_json();
    line.push('\n');
    let mut stream = relock(out);
    // A client that hung up forfeits its response; the server carries on.
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

fn connection_loop(stream: TcpStream, tx: mpsc::Sender<Job>, state: &ServerState) {
    // The timeout is a shutdown poll, not a deadline: an idle connection
    // stays open, but a shutdown elsewhere releases this thread within a
    // beat so `serve` can return.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    loop {
        let line = match read_line_capped(&mut reader, state.limits.max_bytes, &state.shutdown) {
            Ok(Some(line)) => line,
            Ok(None) => return, // EOF or shutdown
            Err(err) => {
                // Oversized or undecodable input desynchronizes the line
                // protocol: answer once, then close the connection.
                state.telemetry.requests.complete("invalid", false, None);
                write_response(&out, &Response::failure(None, err.to_string()));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match Request::from_json(&line, &state.limits) {
            Ok((id, Request::Status)) => {
                // Counted before rendering so the status body's own
                // `requests` field includes this very request.
                state.telemetry.requests.complete("status", true, None);
                write_response(&out, &Response::success(id, 0, status_output(state)));
            }
            Ok((id, Request::Metrics)) => {
                state.telemetry.requests.complete("metrics", true, None);
                write_response(&out, &Response::success(id, 0, metrics_output(state)));
            }
            Ok((id, Request::Shutdown)) => {
                log_line("serve: shutdown requested");
                state.telemetry.requests.complete("shutdown", true, None);
                write_response(&out, &Response::success(id, 0, "shutting down".to_string()));
                state.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `serve` can wind down.
                let _ = TcpStream::connect(state.addr);
                return;
            }
            Ok((id, request)) => {
                let job = Job {
                    id,
                    request,
                    out: Arc::clone(&out),
                    enqueued: Instant::now(),
                };
                if tx.send(job).is_err() {
                    return; // the pool is gone: shutting down
                }
            }
            Err(message) => {
                state.telemetry.requests.complete("invalid", false, None);
                write_response(&out, &Response::failure(None, message));
            }
        }
    }
}

/// Reads one `\n`-terminated line, accumulating across read timeouts (which
/// double as shutdown polls) and enforcing the byte cap as data arrives —
/// a hostile peer cannot buffer unbounded garbage.  `Ok(None)` means EOF
/// (an unterminated trailing fragment is dropped) or shutdown.
pub(crate) fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    cap: usize,
    shutdown: &AtomicBool,
) -> io::Result<Option<String>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (consumed, done) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                    continue;
                }
                Err(err) => return Err(err),
            };
            if buf.is_empty() {
                return Ok(None);
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    line.extend_from_slice(&buf[..nl]);
                    (nl + 1, true)
                }
                None => {
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if line.len() > cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request line exceeds the {cap}-byte cap"),
            ));
        }
        if done {
            return String::from_utf8(line).map(Some).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "request is not valid UTF-8")
            });
        }
    }
}

/// Timeouts of one [`ServiceClient`] connection.
///
/// The default (`None`/`None`) blocks indefinitely, which is right for a
/// trusted local server but wrong for anything production-shaped: a hung
/// (or SIGSTOPped) backend would wedge the caller forever.  `specan submit
/// --connect-timeout-ms/--read-timeout-ms` and the gateway's probe and
/// forwarding paths all connect through [`ServiceClient::connect_with`]
/// with explicit deadlines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientOptions {
    /// Deadline on establishing the TCP connection (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Deadline on each read while waiting for a response line (`None` =
    /// block until the server answers or the connection dies).
    pub read_timeout: Option<Duration>,
}

/// A minimal blocking client for the service protocol — the guts of
/// `specan submit`, also used directly by the bench harness.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServiceClient {
    /// Connects to a running `specan serve` at `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit connect/read deadlines — the hardened path
    /// of `specan submit` and the gateway (a dead-but-routable or hung
    /// backend must cost a bounded wait, not a wedged caller).
    ///
    /// # Errors
    ///
    /// Propagates resolution and connection failures; a connect that
    /// exceeds `options.connect_timeout` surfaces as `TimedOut`.
    pub fn connect_with(addr: &str, options: ClientOptions) -> io::Result<Self> {
        let writer = match options.connect_timeout {
            Some(timeout) => {
                // `TcpStream::connect` has no deadline variant that also
                // resolves, so resolve first and race the candidates
                // sequentially, keeping the most recent failure.
                let mut last_err = None;
                let mut stream = None;
                for sockaddr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sockaddr, timeout) {
                        Ok(connected) => {
                            stream = Some(connected);
                            break;
                        }
                        Err(err) => last_err = Some(err),
                    }
                }
                stream.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("`{addr}` resolved to no addresses"),
                        )
                    })
                })?
            }
            None => TcpStream::connect(addr)?,
        };
        writer.set_read_timeout(options.read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            reader,
            writer,
            next_id: 0,
        })
    }

    /// Sends one request line (pipelining is fine) and returns its id.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = request.to_json(id);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Reads the next response line (responses may arrive out of id order).
    ///
    /// # Errors
    ///
    /// Propagates socket failures; a closed connection or malformed
    /// response surfaces as `UnexpectedEof`/`InvalidData`.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::from_json(line.trim_end())
            .map_err(|message| io::Error::new(io::ErrorKind::InvalidData, message))
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates [`ServiceClient::send`]/[`ServiceClient::recv`] failures.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let id = self.send(request)?;
        let response = self.recv()?;
        debug_assert_eq!(response.id, Some(id), "call() does not pipeline");
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PanelKind;

    // A cold secret-indexed lookup: leaks under every panel.
    const TINY: &str = "program tiny\nregion t 128\nsecret_region k 128\nblock main entry:\n  load t[0]\n  load k[secret*64]\n  ret\n";

    #[test]
    fn requests_round_trip_through_the_protocol() {
        let limits = ParseLimits::default();
        let requests = [
            Request::Analyze {
                source: TINY.to_string(),
                config: AnalyzeConfig {
                    cache_lines: 8,
                    json: true,
                    baseline: true,
                    shadow: false,
                    merge_at_rollback: true,
                    unroll: false,
                },
            },
            Request::Compare {
                source: "with \"quotes\"\nand newlines".to_string(),
                cache_lines: 16,
                json: false,
            },
            Request::Scan {
                sources: vec![TINY.to_string(), "second".to_string()],
                panel: PanelSpec {
                    kind: PanelKind::LeakCheck,
                    cache_lines: 8,
                },
                json: true,
            },
            Request::Status,
            Request::Metrics,
            Request::Shutdown,
        ];
        for (i, request) in requests.into_iter().enumerate() {
            let line = request.to_json(i as u64);
            assert!(!line.contains('\n'), "one request, one line: {line}");
            let (id, parsed) = Request::from_json(&line, &limits).unwrap();
            assert_eq!(id, Some(i as u64));
            assert_eq!(parsed, request);
        }
    }

    #[test]
    fn request_defaults_and_errors() {
        let limits = ParseLimits::default();
        // Omitted knobs fall back to the CLI defaults.
        let (_, parsed) =
            Request::from_json(r#"{"cmd": "analyze", "program": "p"}"#, &limits).unwrap();
        assert_eq!(
            parsed,
            Request::Analyze {
                source: "p".to_string(),
                config: AnalyzeConfig::default(),
            }
        );
        assert!(Request::from_json("not json", &limits).is_err());
        assert!(Request::from_json(r#"{"cmd": "frobnicate"}"#, &limits).is_err());
        assert!(Request::from_json(r#"{"cmd": "analyze"}"#, &limits).is_err());
        assert!(
            Request::from_json(r#"{"v": 99, "cmd": "status"}"#, &limits).is_err(),
            "foreign protocol versions are rejected"
        );
    }

    #[test]
    fn responses_round_trip_including_multiline_output() {
        let ok = Response::success(Some(7), 1, "line one\nline two\n".to_string());
        let line = ok.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(Response::from_json(&line).unwrap(), ok);
        let err = Response::failure(None, "boom \"quoted\"".to_string());
        assert_eq!(Response::from_json(&err.to_json()).unwrap(), err);
    }

    #[test]
    fn config_builder_validates() {
        let jobs = NonZeroUsize::new(2).unwrap();
        let config = ServiceConfig::builder(jobs)
            .max_request_bytes(1 << 20)
            .max_session_bytes(64 << 20)
            .artifact_dir("/tmp/store")
            .max_store_bytes(256 << 20)
            .build()
            .unwrap();
        assert_eq!(config.jobs, jobs);
        assert_eq!(config.max_request_bytes, 1 << 20);
        assert_eq!(config.max_session_bytes, Some(64 << 20));
        assert_eq!(config.max_store_bytes, Some(256 << 20));

        assert_eq!(
            ServiceConfig::builder(jobs)
                .max_request_bytes(0)
                .build()
                .unwrap_err(),
            ServiceConfigError::ZeroRequestCap
        );
        assert_eq!(
            ServiceConfig::builder(jobs)
                .max_store_bytes(1)
                .build()
                .unwrap_err(),
            ServiceConfigError::StoreBudgetWithoutStore
        );
        // The defaults themselves always validate.
        ServiceConfig::builder(jobs).build().unwrap();
    }

    #[test]
    fn fan_out_contains_a_poisoned_slot() {
        // One poisoned item (its work panics) must land as that slot's
        // error while every other item completes — before the catch, the
        // panic unwound the scoped pool and would have killed `serve`.
        let items: Vec<u32> = (0..8).collect();
        let slots = fan_out_catching(&items, 3, |&n| {
            assert!(n != 5, "slot 5 is poisoned");
            n * 2
        });
        assert_eq!(slots.len(), items.len());
        for (i, slot) in slots.iter().enumerate() {
            match slot {
                Some(Ok(doubled)) => {
                    assert_ne!(i, 5);
                    assert_eq!(*doubled, items[i] * 2);
                }
                Some(Err(message)) => {
                    assert_eq!(i, 5, "only the poisoned slot errors");
                    assert!(message.contains("slot 5 is poisoned"), "{message}");
                }
                None => panic!("slot {i} was never filled"),
            }
        }
    }

    #[test]
    fn panic_payloads_render_as_messages() {
        let caught = std::panic::catch_unwind(|| panic!("a formatted {}", "payload")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "a formatted payload");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(17_u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn client_read_timeout_bounds_a_hung_server() {
        // A server that accepts but never answers — the SIGSTOPped-backend
        // shape.  Without a read timeout `recv` blocks forever (the bug);
        // with one it must fail within the deadline.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept());
        let mut client = ServiceClient::connect_with(
            &addr,
            ClientOptions {
                connect_timeout: Some(Duration::from_secs(5)),
                read_timeout: Some(Duration::from_millis(100)),
            },
        )
        .unwrap();
        client.send(&Request::Status).unwrap();
        let started = std::time::Instant::now();
        let err = client.recv().expect_err("a silent server must time out");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the read deadline did not bound the wait"
        );
        drop(hold.join());
    }

    /// `status` is a wire format: `perfbench`'s warm-service workload reads
    /// the `session` object by key, so its key list and order are pinned.
    #[test]
    fn status_session_object_keeps_its_key_list_and_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServiceConfig::new(NonZeroUsize::MIN);
        let server = std::thread::spawn(move || serve(listener, &config));
        let mut client = ServiceClient::connect(&addr.to_string()).unwrap();
        let status = client.call(&Request::Status).unwrap();
        assert!(status.ok);
        let keys = |value: &JsonValue| match value {
            JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected an object, got {other:?}"),
        };
        let doc = JsonValue::parse(&status.output).unwrap();
        let top: Vec<String> = keys(&doc);
        assert_eq!(
            top,
            ["protocol", "jobs", "programs", "requests", "errors", "session"]
        );
        let session: Vec<String> = keys(doc.get("session").unwrap());
        assert_eq!(
            session,
            [
                "inserted",
                "reused",
                "invalidated",
                "session_bytes",
                "session_evictions",
                "store_hits",
                "store_misses",
                "store_loaded_bytes",
                "l0_hits",
                "l1_hits",
                "generation",
            ]
        );
        assert!(client.call(&Request::Shutdown).unwrap().ok);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn serve_loopback_warms_sessions_and_shuts_down() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServiceConfig::new(NonZeroUsize::new(2).unwrap());
        let server = std::thread::spawn(move || serve(listener, &config));

        let mut client = ServiceClient::connect(&addr.to_string()).unwrap();
        let scan = Request::Scan {
            sources: vec![TINY.to_string()],
            panel: PanelSpec {
                kind: PanelKind::LeakCheck,
                cache_lines: 8,
            },
            json: true,
        };
        let cold = client.call(&scan).unwrap();
        assert!(cold.ok, "{:?}", cold.error);
        assert_eq!(cold.exit, 1, "the tiny program leaks at 8 lines");
        // Scan output is timing-free, so the warm re-run is byte-identical.
        let warm = client.call(&scan).unwrap();
        assert_eq!(warm.output, cold.output);

        let status = client.call(&Request::Status).unwrap();
        assert!(status.ok);
        assert!(
            // Which tier answered depends on which pool worker drew the
            // re-run: the same worker hits its thread-local L0, a sibling
            // rebinds warm from the shared L1.  Either proves reuse.
            status.output.contains("\"reused\": 1") || status.output.contains("\"l0_hits\": 1"),
            "the warm re-run must reuse the session: {}",
            status.output
        );
        assert!(status.output.contains("\"programs\": 1"));

        // The metrics surface speaks Prometheus text exposition and has
        // already ledgered the scans.
        let metrics = client.call(&Request::Metrics).unwrap();
        assert!(metrics.ok);
        assert!(
            metrics
                .output
                .contains("# TYPE spec_requests_total counter"),
            "missing request ledger: {}",
            metrics.output
        );
        assert!(metrics
            .output
            .contains("spec_requests_total{kind=\"scan\",outcome=\"ok\"} 2"));
        assert!(metrics
            .output
            .contains("# TYPE spec_phase_seconds histogram"));

        // Malformed lines answer with an error and keep counting.
        let mut raw = ServiceClient::connect(&addr.to_string()).unwrap();
        raw.writer.write_all(b"{\"cmd\": \"nope\"}\n").unwrap();
        let rejected = raw.recv().unwrap();
        assert!(!rejected.ok);
        assert_eq!(rejected.exit, 2);

        let bye = client.call(&Request::Shutdown).unwrap();
        assert!(bye.ok);
        let report = server.join().unwrap().unwrap();
        assert!(report.requests >= 5);
        assert!(report.errors >= 1);
    }
}
