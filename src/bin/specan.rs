//! `specan` — analyse programs written in the textual IR format.
//!
//! ```text
//! specan analyze <program.spec...> [options]   one configuration, per-access detail
//! specan compare <program.spec...> [options]   the standard configuration panel, in parallel
//! specan leaks   <program.spec>    [options]   side-channel verdict; exit code 1 on a leak
//! specan scan    <dir|files...>    [options]   sharded bundle scan; exit code 1 on any leak
//! specan merge   <reports.json...> [options]   verified fan-in of sharded scan artifacts
//! specan serve   [--addr H:P] [--jobs N]       persistent analysis service (NDJSON over TCP)
//!                [--max-session-bytes B]       ... with a byte-bounded session cache
//!                [--artifact-dir DIR]          ... persisting prepared sessions across
//!                [--max-store-bytes B]             restarts (byte-bounded, GC by recency)
//! specan gateway --backend H:P...              federate several servers behind one
//!                [--addr H:P] [--jobs N]       endpoint: fingerprint-affinity routing,
//!                [--probe-interval-ms N]       health-checked ejection/readmission and
//!                [--eject-after N]             transparent retry with re-route
//!                [--connect-timeout-ms N]
//!                [--request-timeout-ms N]
//! specan submit  [--addr H:P] <cmd> <args...>  script a running server; prints what the
//!                [--connect-timeout-ms N]      one-shot command would print
//!                [--read-timeout-ms N]
//! specan metrics [<addr>]                      scrape a server or gateway: prints its
//!                [--connect-timeout-ms N]      Prometheus text exposition
//!                [--read-timeout-ms N]
//! specan artifacts <list|verify|gc>            inspect/validate/collect an artifact store
//!                --artifact-dir DIR [--json] [--max-store-bytes B]
//! ```
//!
//! Common options: `--cache-lines N` (default 512) and `--json` (emit
//! machine-readable output).  `analyze` additionally accepts `--baseline`,
//! `--no-shadow`, `--merge-at-rollback`, `--no-unroll` and `--incremental`
//! (keep prepared programs in an artifact store, default `.specan-session`,
//! overridable with `--artifact-dir DIR` or its older spelling
//! `--session-dir DIR`; `--max-session-bytes N` bounds the in-memory
//! session).  Bundle-aware commands (`analyze`, `compare`, `scan`) accept
//! several files, `--jobs N` (thread cap) and `--shard K/N` (run the K-th
//! of N contiguous slices of the sorted file list — for splitting one
//! bundle across CI machines).  `scan` also accepts directories (searched
//! recursively for `*.spec`), `--panel <leak-check|comparison>` and
//! `--artifact-dir DIR` (or `--session-dir DIR`): unchanged programs then
//! load from the store with their memoized rounds, and edited ones re-solve
//! only what the edit touched.  Its merged JSON report is deterministic —
//! bit-identical however the bundle was sliced and whatever the store held.
//!
//! Exit codes: `0` success (no leak), `1` leak detected (`leaks` and `scan`),
//! `2` usage or input error — so both gates are scriptable in CI:
//!
//! ```text
//! specan leaks examples/programs/victim.spec --cache-lines 8 || echo "LEAKY"
//! specan scan  examples/programs --jobs 4 --json > report.json
//! ```
//!
//! The program grammar is described in `spec_ir::text`; see
//! `examples/programs/` for ready-made inputs.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;

use spec_analysis::detect_leaks;
use spec_cache::CacheConfig;
use spec_core::batch::{self, discover_programs, run_bundle_slice, PanelKind, PanelSpec};
use spec_core::gateway::{self, GatewayConfig};
use spec_core::incremental::SessionCache;
use spec_core::service::{
    self, AnalyzeConfig, ClientOptions, Request, ServiceClient, ServiceConfig,
};
use spec_core::{
    AnalysisOptions, Analyzer, BatchReport, CacheOutcome, CacheSession, PreparedStore,
};
use spec_ir::text::parse_program;
use spec_ir::Program;

/// Default artifact store of `analyze --incremental`.
const DEFAULT_SESSION_DIR: &str = ".specan-session";

/// Prints a line to stdout, exiting quietly when the downstream consumer
/// closed the pipe (`specan ... | head` must not panic with a backtrace).
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            // 128 + SIGPIPE, the conventional status of a pipe-killed
            // process.  Exiting 0 here would fabricate a "no leak" verdict
            // for `specan leaks ... | grep -q` style pipelines.
            std::process::exit(141);
        }
    }};
}

const EXIT_LEAK: u8 = 1;
const EXIT_ERROR: u8 = 2;

enum Command {
    Analyze,
    Compare,
    Leaks,
    Scan,
    Merge,
    Serve,
    Gateway,
    Artifacts,
}

struct Cli {
    command: Command,
    paths: Vec<String>,
    cache_lines: usize,
    json: bool,
    /// Thread cap: suite threads, and bundle threads for `scan`.
    jobs: Option<NonZeroUsize>,
    /// `--shard K/N`: restrict to the K-th of N slices of the file list.
    shard: Option<(usize, usize)>,
    /// `scan`: which panel each program runs under.
    panel: PanelKind,
    /// `serve`/`gateway`: the `host:port` to listen on.
    addr: Option<String>,
    /// `gateway`: the backend fleet (`--backend H:P`, repeatable).
    backends: Vec<String>,
    /// `gateway`: milliseconds between health-probe sweeps.
    probe_interval_ms: Option<u64>,
    /// `gateway`: consecutive-failure ejection threshold.
    eject_after: Option<u32>,
    /// `gateway`: backend connect deadline in milliseconds.
    connect_timeout_ms: Option<u64>,
    /// `gateway`: read deadline on forwarded requests in milliseconds.
    request_timeout_ms: Option<u64>,
    /// `analyze`/`scan`: the older spelling of `--artifact-dir`, which
    /// wins when both are given.
    session_dir: Option<PathBuf>,
    /// `analyze`: keep prepared programs in the artifact store.
    incremental: bool,
    /// `serve`/`analyze --incremental`: byte budget on the warm in-memory
    /// session.  Evictions trade recomputation for memory, never output.
    max_session_bytes: Option<u64>,
    /// `serve`/`analyze --incremental`/`scan`/`artifacts`: where the
    /// persistent prepared-artifact store lives.
    artifact_dir: Option<PathBuf>,
    /// `serve`/`artifacts`: byte budget on the artifact store, enforced by
    /// recency-based GC.
    max_store_bytes: Option<u64>,
    /// `serve`/`gateway`: append one NDJSON telemetry event per request
    /// to this file.
    trace_log: Option<PathBuf>,
    // `analyze`-only configuration knobs.
    baseline: bool,
    shadow: bool,
    merge_at_rollback: bool,
    unroll: bool,
}

fn usage() -> String {
    "usage: specan <analyze|compare|leaks|scan|merge|serve|gateway|submit|metrics|artifacts> <inputs...> \n\
     \x20      [--cache-lines N] [--json]\n\
     \n\
     analyze   run one configuration and print the per-access classification\n\
     \x20         [--baseline] [--no-shadow] [--merge-at-rollback] [--no-unroll]\n\
     \x20         [--jobs N] [--shard K/N] [--incremental [--artifact-dir DIR]\n\
     \x20         [--max-session-bytes N]]; several files allowed (JSON\n\
     \x20         output becomes an array); --incremental keeps prepared\n\
     \x20         programs in an artifact store (default .specan-session;\n\
     \x20         --session-dir is the older spelling of --artifact-dir):\n\
     \x20         unchanged programs load with their fixpoint rounds, edited\n\
     \x20         ones re-solve only what the edit touched;\n\
     \x20         --max-session-bytes N bounds the in-memory session\n\
     compare   prepare once, run the standard configuration panel in parallel\n\
     \x20         [--jobs N] [--shard K/N]; several files allowed (JSON output\n\
     \x20         becomes the merged batch report)\n\
     leaks     side-channel verdict under the speculative analysis;\n\
     \x20         exits 1 when a leak is detected (CI-friendly)\n\
     scan      discover *.spec under the given files/directories, run the\n\
     \x20         panel per program on --jobs threads and print one merged\n\
     \x20         deterministic report; exits 1 if any program leaks.\n\
     \x20         [--jobs N] [--shard K/N] [--panel <leak-check|comparison>]\n\
     \x20         [--artifact-dir DIR] (or --session-dir DIR): programs\n\
     \x20         unchanged since the last scan against the store load from\n\
     \x20         it, edited ones re-solve only what the edit touched (the\n\
     \x20         merged report stays bit-identical to a fresh scan)\n\
     merge     verified fan-in of sharded scan/compare artifacts: checks the\n\
     \x20         slices share one bundle checksum and tile it completely,\n\
     \x20         then prints the merged report; exits 1 if any program\n\
     \x20         leaks, 2 on incomplete/overlapping/mismatched slices\n\
     serve     run the persistent analysis service on --addr (default\n\
     \x20         127.0.0.1:4870) with a --jobs worker pool; programs are\n\
     \x20         kept warm in a shared fingerprint-keyed session cache;\n\
     \x20         --max-session-bytes N bounds that cache (least recently\n\
     \x20         used programs are evicted and re-prepared on their next\n\
     \x20         submission — responses never change);\n\
     \x20         --artifact-dir DIR persists prepared sessions on disk so\n\
     \x20         a restarted server answers from warm artifacts instead of\n\
     \x20         re-preparing (--max-store-bytes N bounds the store, GC by\n\
     \x20         recency — responses never change either way);\n\
     \x20         --trace-log FILE appends one NDJSON telemetry event per\n\
     \x20         request (phase timings, cache tier, fingerprint)\n\
     gateway   federate several running servers behind one endpoint: listens\n\
     \x20         on --addr (default 127.0.0.1:4871) and forwards every\n\
     \x20         request to one of the --backend H:P servers (repeatable,\n\
     \x20         at least one).  The same program routes to the same warm\n\
     \x20         backend (structural-fingerprint rendezvous hashing);\n\
     \x20         backends failing --eject-after consecutive probes/requests\n\
     \x20         (default 3) are ejected and readmitted on a healthy probe\n\
     \x20         (every --probe-interval-ms, default 500); a request that\n\
     \x20         dies in transport is transparently retried on the next\n\
     \x20         ring candidate (responses never change).  --jobs N bounds\n\
     \x20         concurrent forwards; --connect-timeout-ms (default 1000)\n\
     \x20         and --request-timeout-ms (default 120000) bound each hop;\n\
     \x20         --trace-log FILE appends one NDJSON routing event per\n\
     \x20         request (backend, attempts, reroutes)\n\
     submit    send <analyze|compare|scan|status|metrics|shutdown> to a running\n\
     \x20         server or gateway ([--addr H:P]); prints exactly what the\n\
     \x20         one-shot command would print and exits with its code.\n\
     \x20         [--connect-timeout-ms N] [--read-timeout-ms N] bound the\n\
     \x20         connection and each response wait (default: no deadline);\n\
     \x20         if the connection dies mid-pipeline, the ids of the lost\n\
     \x20         in-flight requests are reported and the exit code is 2\n\
     metrics   scrape a running server or gateway ([<addr>], default\n\
     \x20         127.0.0.1:4870): prints the Prometheus text exposition —\n\
     \x20         request/phase/cache-tier latency histograms for `serve`,\n\
     \x20         plus per-backend health and forwarding series (the fleet's\n\
     \x20         expositions relabeled under backend=\"H:P\") for `gateway`.\n\
     \x20         [--connect-timeout-ms N] [--read-timeout-ms N]\n\
     artifacts inspect a persistent artifact store: `list` prints one line\n\
     \x20         per artifact, `verify` fully validates every file (exit 0\n\
     \x20         iff all pass), `gc` removes quarantined/temp leftovers and\n\
     \x20         enforces --max-store-bytes.  Requires --artifact-dir DIR;\n\
     \x20         list/verify accept --json"
        .to_string()
}

fn parse_shard(value: &str) -> Result<(usize, usize), String> {
    let err = || format!("`{value}` is not of the form K/N (e.g. 1/4)");
    let (k, n) = value.split_once('/').ok_or_else(err)?;
    let k: usize = k.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if n == 0 || k == 0 || k > n {
        return Err(format!("--shard needs 1 <= K <= N, got {k}/{n}"));
    }
    Ok((k, n))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut iter = args.iter().peekable();
    let command = match iter.next().map(String::as_str) {
        Some("analyze") => Command::Analyze,
        Some("compare") => Command::Compare,
        Some("leaks") => Command::Leaks,
        Some("scan") => Command::Scan,
        Some("merge") => Command::Merge,
        Some("serve") => Command::Serve,
        Some("gateway") => Command::Gateway,
        Some("artifacts") => Command::Artifacts,
        Some("--help" | "-h" | "help") | None => return Err(usage()),
        Some(other) => {
            return Err(format!("unrecognised command `{other}`\n{}", usage()));
        }
    };
    let mut cli = Cli {
        command,
        paths: Vec::new(),
        cache_lines: 512,
        json: false,
        jobs: None,
        shard: None,
        panel: PanelKind::Comparison,
        addr: None,
        backends: Vec::new(),
        probe_interval_ms: None,
        eject_after: None,
        connect_timeout_ms: None,
        request_timeout_ms: None,
        session_dir: None,
        incremental: false,
        max_session_bytes: None,
        artifact_dir: None,
        max_store_bytes: None,
        trace_log: None,
        baseline: false,
        shadow: true,
        merge_at_rollback: false,
        unroll: true,
    };
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--cache-lines"
                if matches!(
                    cli.command,
                    Command::Merge | Command::Serve | Command::Gateway | Command::Artifacts
                ) =>
            {
                return Err(format!("`--cache-lines` does not apply here\n{}", usage()));
            }
            "--cache-lines" => {
                let value = value_of("--cache-lines")?;
                cli.cache_lines = value
                    .parse()
                    .map_err(|_| format!("`{value}` is not a number"))?;
            }
            "--json" if matches!(cli.command, Command::Serve | Command::Gateway) => {
                return Err(format!("`--json` does not apply here\n{}", usage()));
            }
            "--json" => cli.json = true,
            "--addr" if !matches!(cli.command, Command::Serve | Command::Gateway) => {
                return Err(format!(
                    "`--addr` only applies to `serve` and `gateway` (and `submit`)\n{}",
                    usage()
                ));
            }
            "--addr" => cli.addr = Some(value_of("--addr")?),
            flag @ ("--backend"
            | "--probe-interval-ms"
            | "--eject-after"
            | "--connect-timeout-ms"
            | "--request-timeout-ms")
                if !matches!(cli.command, Command::Gateway) =>
            {
                return Err(format!("`{flag}` only applies to `gateway`\n{}", usage()));
            }
            "--backend" => cli.backends.push(value_of("--backend")?),
            "--probe-interval-ms" => {
                let value = value_of("--probe-interval-ms")?;
                cli.probe_interval_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a millisecond count"))?,
                );
            }
            "--eject-after" => {
                let value = value_of("--eject-after")?;
                cli.eject_after = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a failure count"))?,
                );
            }
            "--connect-timeout-ms" => {
                let value = value_of("--connect-timeout-ms")?;
                cli.connect_timeout_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a millisecond count"))?,
                );
            }
            "--request-timeout-ms" => {
                let value = value_of("--request-timeout-ms")?;
                cli.request_timeout_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a millisecond count"))?,
                );
            }
            "--jobs"
                if matches!(
                    cli.command,
                    Command::Leaks | Command::Merge | Command::Artifacts
                ) =>
            {
                return Err(format!("`--jobs` does not apply here\n{}", usage()));
            }
            "--jobs" => {
                let value = value_of("--jobs")?;
                cli.jobs = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a positive number"))?,
                );
            }
            "--shard"
                if !matches!(
                    cli.command,
                    Command::Analyze | Command::Compare | Command::Scan
                ) =>
            {
                return Err(format!("`--shard` does not apply here\n{}", usage()));
            }
            "--shard" => cli.shard = Some(parse_shard(&value_of("--shard")?)?),
            "--panel" if !matches!(cli.command, Command::Scan) => {
                return Err(format!("`--panel` only applies to `scan`\n{}", usage()));
            }
            "--panel" => {
                let value = value_of("--panel")?;
                cli.panel = match value.as_str() {
                    "leak-check" => PanelKind::LeakCheck,
                    "comparison" => PanelKind::Comparison,
                    other => {
                        return Err(format!(
                            "unknown panel `{other}` (expected leak-check or comparison)"
                        ))
                    }
                };
            }
            "--session-dir" if !matches!(cli.command, Command::Analyze | Command::Scan) => {
                return Err(format!(
                    "`--session-dir` only applies to `analyze` and `scan`\n{}",
                    usage()
                ));
            }
            "--session-dir" => {
                cli.session_dir = Some(PathBuf::from(value_of("--session-dir")?));
            }
            "--incremental" if !matches!(cli.command, Command::Analyze) => {
                return Err(format!(
                    "`--incremental` only applies to `analyze` (for `scan`, \
                     `--session-dir` alone enables it)\n{}",
                    usage()
                ));
            }
            "--incremental" => cli.incremental = true,
            "--max-session-bytes" if !matches!(cli.command, Command::Serve | Command::Analyze) => {
                return Err(format!(
                    "`--max-session-bytes` only applies to `serve` and \
                     `analyze --incremental`\n{}",
                    usage()
                ));
            }
            "--max-session-bytes" => {
                let value = value_of("--max-session-bytes")?;
                cli.max_session_bytes = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a byte count"))?,
                );
            }
            "--artifact-dir"
                if !matches!(
                    cli.command,
                    Command::Serve | Command::Analyze | Command::Scan | Command::Artifacts
                ) =>
            {
                return Err(format!(
                    "`--artifact-dir` only applies to `serve`, `analyze \
                     --incremental`, `scan` and `artifacts`\n{}",
                    usage()
                ));
            }
            "--artifact-dir" => {
                cli.artifact_dir = Some(PathBuf::from(value_of("--artifact-dir")?));
            }
            "--max-store-bytes" if !matches!(cli.command, Command::Serve | Command::Artifacts) => {
                return Err(format!(
                    "`--max-store-bytes` only applies to `serve` and `artifacts gc`\n{}",
                    usage()
                ));
            }
            "--max-store-bytes" => {
                let value = value_of("--max-store-bytes")?;
                cli.max_store_bytes = Some(
                    value
                        .parse()
                        .map_err(|_| format!("`{value}` is not a byte count"))?,
                );
            }
            "--trace-log" if !matches!(cli.command, Command::Serve | Command::Gateway) => {
                return Err(format!(
                    "`--trace-log` only applies to `serve` and `gateway`\n{}",
                    usage()
                ));
            }
            "--trace-log" => {
                cli.trace_log = Some(PathBuf::from(value_of("--trace-log")?));
            }
            flag @ ("--baseline" | "--no-shadow" | "--merge-at-rollback" | "--no-unroll")
                if !matches!(cli.command, Command::Analyze) =>
            {
                return Err(format!("`{flag}` only applies to `analyze`\n{}", usage()));
            }
            "--baseline" => cli.baseline = true,
            "--no-shadow" => cli.shadow = false,
            "--merge-at-rollback" => cli.merge_at_rollback = true,
            "--no-unroll" => cli.unroll = false,
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => cli.paths.push(other.to_string()),
            other => return Err(format!("unrecognised argument `{other}`\n{}", usage())),
        }
    }
    match cli.command {
        Command::Leaks => {
            if cli.paths.len() != 1 {
                return Err(format!(
                    "`leaks` takes exactly one <program.spec>\n{}",
                    usage()
                ));
            }
        }
        Command::Serve => {
            if !cli.paths.is_empty() {
                return Err(format!("`serve` takes no input files\n{}", usage()));
            }
        }
        Command::Gateway => {
            if !cli.paths.is_empty() {
                return Err(format!("`gateway` takes no input files\n{}", usage()));
            }
            if cli.backends.is_empty() {
                return Err(format!(
                    "`gateway` needs at least one `--backend H:P`\n{}",
                    usage()
                ));
            }
        }
        Command::Merge => {
            if cli.paths.is_empty() {
                return Err(format!("missing <report.json...>\n{}", usage()));
            }
        }
        Command::Artifacts => {
            let sub = cli.paths.first().map(String::as_str);
            if cli.paths.len() != 1 || !matches!(sub, Some("list" | "verify" | "gc")) {
                return Err(format!(
                    "`artifacts` takes exactly one of <list|verify|gc>\n{}",
                    usage()
                ));
            }
            if cli.artifact_dir.is_none() {
                return Err(format!(
                    "`artifacts` needs `--artifact-dir DIR`\n{}",
                    usage()
                ));
            }
            if cli.max_store_bytes.is_some() && sub != Some("gc") {
                return Err(format!(
                    "`artifacts --max-store-bytes` only applies to `gc`\n{}",
                    usage()
                ));
            }
        }
        Command::Analyze if cli.session_dir.is_some() && !cli.incremental => {
            return Err(format!(
                "`analyze --session-dir` needs `--incremental`\n{}",
                usage()
            ));
        }
        Command::Analyze if cli.artifact_dir.is_some() && !cli.incremental => {
            return Err(format!(
                "`analyze --artifact-dir` needs `--incremental` (it persists \
                 prepared sessions between runs)\n{}",
                usage()
            ));
        }
        Command::Analyze if cli.max_session_bytes.is_some() && !cli.incremental => {
            return Err(format!(
                "`analyze --max-session-bytes` needs `--incremental` (it bounds \
                 the in-memory session)\n{}",
                usage()
            ));
        }
        _ => {
            if cli.paths.is_empty() {
                return Err(format!("missing <program.spec>\n{}", usage()));
            }
        }
    }
    Ok(cli)
}

fn load_program(path: &str) -> Result<Program, String> {
    let source =
        std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
    parse_program(&source).map_err(|err| format!("cannot parse `{path}`: {err}"))
}

/// The `analyze` knobs of this invocation, in the shared service-layer
/// shape (one render path for the CLI and the server).
fn analyze_config(cli: &Cli) -> AnalyzeConfig {
    AnalyzeConfig {
        cache_lines: cli.cache_lines,
        json: cli.json,
        baseline: cli.baseline,
        shadow: cli.shadow,
        merge_at_rollback: cli.merge_at_rollback,
        unroll: cli.unroll,
    }
}

/// Expands the positional paths into the full sorted bundle plus the
/// `--shard K/N` slice range this machine works on.  An empty slice is
/// legal — a CI fleet may have more machines than programs — and the full
/// bundle stays visible so slice reports can be stamped against it.
fn select_bundle(cli: &Cli) -> Result<(Vec<PathBuf>, std::ops::Range<usize>), String> {
    let paths: Vec<PathBuf> = cli.paths.iter().map(PathBuf::from).collect();
    if !matches!(cli.command, Command::Scan) {
        if let Some(dir) = paths.iter().find(|p| p.is_dir()) {
            return Err(format!(
                "`{}` is a directory (only `scan` searches directories)",
                dir.display()
            ));
        }
    }
    let files = discover_programs(&paths).map_err(|err| err.to_string())?;
    // Machine K of N takes slice K of the same near-even contiguous split
    // the process-level sharding uses.
    let range = match cli.shard {
        Some((k, n)) => batch::shard_slice(files.len(), k, n),
        None => 0..files.len(),
    };
    Ok((files, range))
}

fn suite_analyzer(cli: &Cli) -> Analyzer {
    let mut analyzer = Analyzer::new();
    if let Some(jobs) = cli.jobs {
        analyzer = analyzer.max_suite_threads(jobs);
    }
    analyzer
}

/// `--jobs`, defaulting to the machine's parallelism.
fn effective_jobs(cli: &Cli) -> usize {
    cli.jobs
        .map(NonZeroUsize::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// One stderr accounting line naming the resolved parallelism, so a CI log
/// always shows what `--jobs` defaulted to on that machine.
fn echo_jobs(cli: &Cli, jobs: usize) {
    eprintln!(
        "jobs: {jobs}{}",
        if cli.jobs.is_some() {
            ""
        } else {
            " (auto-detected)"
        }
    );
}

/// `true` when the invocation addresses a bundle rather than one file —
/// several paths, or a `--shard` slice (whose size varies per machine, so
/// the output schema must not depend on it).
fn bundle_mode(cli: &Cli) -> bool {
    cli.paths.len() > 1 || cli.shard.is_some()
}

fn print_banner(cli: &Cli, program: &Program) {
    if !cli.json {
        outln!("{}", service::banner(program, cli.cache_lines));
    }
}

/// The artifact store of `scan` and `analyze --incremental`:
/// `--artifact-dir`, or its older spelling `--session-dir`.
fn store_dir(cli: &Cli) -> Option<&PathBuf> {
    cli.artifact_dir.as_ref().or(cli.session_dir.as_ref())
}

/// One `analyze` unit of work: its rendered output (text or JSON object),
/// from a prepared program that is warm in this run's shared front, loaded
/// from the artifact store, or prepared now.
fn analyze_one(
    cli: &Cli,
    path: &std::path::Path,
    sessions: &CacheSession,
) -> Result<String, String> {
    let config = analyze_config(cli);
    config.options()?; // surface configuration errors before any analysis
    let program = load_program(&path.display().to_string())?;
    // Acquires are name-exact (`analyze` output embeds region and block
    // names), so a renamed program prepares afresh and overwrites the
    // artifact.
    let prepared = match sessions.acquire(&program) {
        CacheOutcome::L0Hit(prepared) | CacheOutcome::WarmHit(prepared) => prepared,
        CacheOutcome::StoreHit(prepared) => {
            eprintln!("artifacts: loaded `{}` from the store", path.display());
            prepared
        }
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(&program),
    };
    let grown_from = prepared.growth_stamp();
    let output = service::analyze_output(&prepared, &config)?;
    // Compositional-reuse accounting: when this preparation was seeded from
    // a donor (in-memory predecessor or the store's name index), say how
    // many block summaries were transplanted vs re-solved — the line that
    // proves an incremental edit did *not* redo the whole fixpoint.
    let stats = prepared.cache_stats();
    if stats.summary_hits > 0 || stats.summaries_invalidated > 0 {
        eprintln!(
            "session: summaries {}h/{}m ({} invalidated) `{}`",
            stats.summary_hits,
            stats.summary_misses,
            stats.summaries_invalidated,
            path.display()
        );
    }
    // Persist *after* the run, so a stored artifact carries the fixpoint
    // rounds this configuration filled and the next run loads them.
    // Writes are best-effort: a failure only costs warmth, never output.
    if prepared.growth_stamp() != grown_from {
        sessions.persist(&prepared);
    }
    sessions.checkpoint();
    if cli.incremental {
        eprintln!("session: analysed `{}`", path.display());
    }
    Ok(output)
}

/// Runs `work` over every file, fanning out across at most `--jobs` scoped
/// threads, and returns the rendered outputs in input order.
fn map_files<F>(cli: &Cli, files: &[PathBuf], work: F) -> Result<Vec<String>, String>
where
    F: Fn(&PathBuf) -> Result<String, String> + Sync,
{
    let threads = effective_jobs(cli).min(files.len()).max(1);
    if threads == 1 {
        return files.iter().map(&work).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let slots: std::sync::Mutex<Vec<Option<Result<String, String>>>> =
        std::sync::Mutex::new(files.iter().map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(index) else {
                    break;
                };
                let output = work(file);
                slots.lock().expect("analyze slots poisoned")[index] = Some(output);
            });
        }
    });
    slots
        .into_inner()
        .expect("analyze slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every file was analysed"))
        .collect()
}

/// Prints `analyze` outputs with the bundle-aware wrapping: a JSON array
/// in bundle mode (even for zero or one file, so the schema never depends
/// on how a bundle split across machines), plain concatenation otherwise.
/// Shared by the local and the `submit` execution paths.
fn print_analyze_outputs(cli: &Cli, outputs: &[String]) {
    if cli.json && bundle_mode(cli) {
        outln!("[");
        for (i, output) in outputs.iter().enumerate() {
            let comma = if i + 1 == outputs.len() { "" } else { "," };
            outln!("{}{comma}", output.trim_end());
        }
        outln!("]");
    } else {
        for (i, output) in outputs.iter().enumerate() {
            if i > 0 {
                outln!();
            }
            outln!("{output}");
        }
    }
}

fn cmd_analyze(cli: &Cli) -> Result<u8, String> {
    let (bundle, range) = select_bundle(cli)?;
    let files = bundle[range].to_vec();
    echo_jobs(cli, effective_jobs(cli));
    // One shared tier front for the whole bundle: a re-listed program is
    // served warm, and `--incremental` attaches the artifact store below it.
    let mut cache = SessionCache::with_analyzer(Analyzer::new());
    if cli.incremental {
        let dir = store_dir(cli).map_or_else(|| PathBuf::from(DEFAULT_SESSION_DIR), Clone::clone);
        cache = cache.artifact_store(PreparedStore::open(dir));
        if let Some(bytes) = cli.max_session_bytes {
            cache = cache.max_session_bytes(bytes);
        }
    }
    let sessions = CacheSession::new(cache);
    let outputs = map_files(cli, &files, |path| analyze_one(cli, path, &sessions))?;
    print_analyze_outputs(cli, &outputs);
    Ok(0)
}

fn cmd_compare(cli: &Cli) -> Result<u8, String> {
    let (bundle, range) = select_bundle(cli)?;
    echo_jobs(cli, effective_jobs(cli));
    if !bundle_mode(cli) {
        // A plain single-file invocation: the original timed report.  A
        // one-file `--shard` slice stays on the batch path below so every
        // machine of a CI matrix emits the same (mergeable) schema.
        let path = &bundle[0];
        let program = load_program(&path.display().to_string())?;
        let prepared = suite_analyzer(cli).prepare(&program);
        let output = service::compare_output(&prepared, cli.cache_lines, cli.json)?;
        outln!("{output}");
        return Ok(0);
    }
    // Bundle: the deterministic merged batch report, computed in-process
    // and stamped against the full bundle so per-machine artifacts can be
    // fan-in verified by `specan merge`.
    let panel = PanelSpec {
        kind: PanelKind::Comparison,
        cache_lines: cli.cache_lines,
    };
    let report = run_bundle_slice(&bundle, range, panel, effective_jobs(cli), None)
        .map_err(|e| e.to_string())?
        .report;
    outln!("{}", service::scan_output(&report, cli.json));
    Ok(0)
}

fn cmd_leaks(cli: &Cli) -> Result<u8, String> {
    let program = load_program(&cli.paths[0])?;
    print_banner(cli, &program);
    let prepared = Analyzer::new().prepare(&program);
    let cache = CacheConfig::fully_associative(cli.cache_lines, 64);
    let baseline = AnalysisOptions::builder()
        .baseline()
        .cache(cache)
        .build()
        .map_err(|err| format!("invalid configuration: {err}"))?;
    let speculative = AnalysisOptions::builder()
        .cache(cache)
        .build()
        .map_err(|err| format!("invalid configuration: {err}"))?;
    let suite = prepared.run_suite(&[("baseline", baseline), ("speculative", speculative)]);
    let base_leaks = detect_leaks(&suite.runs[0].result);
    let spec_leaks = detect_leaks(&suite.runs[1].result);
    if cli.json {
        use spec_core::json;
        let mut findings = String::from("[");
        for (i, finding) in spec_leaks.findings.iter().enumerate() {
            if i > 0 {
                findings.push_str(", ");
            }
            findings.push_str(&format!(
                "{{\"region\": {}, \"inst_index\": {}, \"speculative_only\": {}}}",
                json::string(&finding.region),
                finding.inst_index,
                finding.speculative_only
            ));
        }
        findings.push(']');
        outln!(
            "{{\n  \"program\": {},\n  \"secret_accesses\": {},\n  \"baseline_leak\": {},\n  \
             \"speculative_leak\": {},\n  \"findings\": {}\n}}",
            json::string(&suite.program),
            spec_leaks.secret_accesses,
            base_leaks.leak_detected(),
            spec_leaks.leak_detected(),
            findings
        );
    } else {
        outln!("side-channel analysis of `{}`:", suite.program);
        outln!(
            "  baseline:    {}",
            if base_leaks.leak_detected() {
                "LEAK"
            } else {
                "leak-free"
            }
        );
        outln!(
            "  speculative: {}",
            if spec_leaks.leak_detected() {
                "LEAK"
            } else {
                "leak-free"
            }
        );
        for finding in &spec_leaks.findings {
            outln!(
                "  finding: {}[#{}]{}",
                finding.region,
                finding.inst_index,
                if finding.speculative_only {
                    "  (squashed execution only)"
                } else {
                    ""
                }
            );
        }
    }
    Ok(if spec_leaks.leak_detected() {
        EXIT_LEAK
    } else {
        0
    })
}

fn cmd_scan(cli: &Cli) -> Result<u8, String> {
    let (bundle, range) = select_bundle(cli)?;
    let panel = PanelSpec {
        kind: cli.panel,
        cache_lines: cli.cache_lines,
    };
    panel.configs().map_err(|err| err.to_string())?;
    let jobs = effective_jobs(cli);
    echo_jobs(cli, jobs);
    let store = store_dir(cli);
    let outcome = run_bundle_slice(&bundle, range, panel, jobs, store.map(PreparedStore::open))
        .map_err(|err| err.to_string())?;
    if let Some(dir) = store {
        eprintln!(
            "session: {} program(s) reused, {} analysed ({})",
            outcome.reused,
            outcome.analyzed,
            dir.display()
        );
    }
    let report = outcome.report;
    outln!("{}", service::scan_output(&report, cli.json));
    Ok(if report.any_leak() { EXIT_LEAK } else { 0 })
}

/// `specan merge <reports.json...>`: the verified cross-machine fan-in of
/// sharded scan/compare artifacts.
fn cmd_merge(cli: &Cli) -> Result<u8, String> {
    let mut reports = Vec::with_capacity(cli.paths.len());
    for path in &cli.paths {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("cannot read `{path}`: {err}"))?;
        let report = BatchReport::from_json(&text).map_err(|err| format!("`{path}`: {err}"))?;
        if report.stamp.is_none() {
            return Err(format!(
                "`{path}` carries no bundle stamp: regenerate the artifact with \
                 this specan version (unstamped slices cannot be verified)"
            ));
        }
        reports.push(report);
    }
    let merged = BatchReport::merge(reports).map_err(|err| err.to_string())?;
    eprintln!(
        "merge: {} slice(s) verified, {} program(s), {} leaking",
        cli.paths.len(),
        merged.programs.len(),
        merged.leak_count()
    );
    outln!("{}", service::scan_output(&merged, cli.json));
    Ok(if merged.any_leak() { EXIT_LEAK } else { 0 })
}

/// `specan serve`: the persistent analysis service.
fn cmd_serve(cli: &Cli) -> Result<u8, String> {
    let addr = cli.addr.as_deref().unwrap_or(service::DEFAULT_ADDR);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|err| format!("cannot bind `{addr}`: {err}"))?;
    let jobs = NonZeroUsize::new(effective_jobs(cli)).unwrap_or(NonZeroUsize::MIN);
    let local = listener
        .local_addr()
        .map_err(|err| format!("cannot resolve the bound address: {err}"))?;
    // First stderr line — it both scrapes cleanly (scripts read the port
    // of an `--addr 127.0.0.1:0` ephemeral bind from it) and doubles as
    // the resolved-`--jobs` accounting for `serve`.
    eprintln!(
        "serve: listening on {local} (jobs = {jobs}{}{}{})",
        if cli.jobs.is_some() {
            ""
        } else {
            ", auto-detected"
        },
        match cli.max_session_bytes {
            Some(bytes) => format!(", max-session-bytes = {bytes}"),
            None => String::new(),
        },
        match &cli.artifact_dir {
            Some(dir) => format!(", artifact-dir = {}", dir.display()),
            None => String::new(),
        }
    );
    let mut builder = ServiceConfig::builder(jobs);
    if let Some(bytes) = cli.max_session_bytes {
        builder = builder.max_session_bytes(bytes);
    }
    if let Some(dir) = &cli.artifact_dir {
        builder = builder.artifact_dir(dir.clone());
    }
    if let Some(bytes) = cli.max_store_bytes {
        builder = builder.max_store_bytes(bytes);
    }
    if let Some(path) = &cli.trace_log {
        builder = builder.trace_log(path.clone());
    }
    let config = builder.build().map_err(|err| err.to_string())?;
    let report =
        service::serve(listener, &config).map_err(|err| format!("service failed: {err}"))?;
    eprintln!(
        "serve: stopped after {} request(s), {} error(s)",
        report.requests, report.errors
    );
    Ok(0)
}

/// `specan gateway --backend H:P...`: the federation front — one endpoint
/// speaking the serve protocol, fanning requests out over a fleet of
/// backends with fingerprint-affinity routing and health-checked failover.
fn cmd_gateway(cli: &Cli) -> Result<u8, String> {
    let addr = cli.addr.as_deref().unwrap_or(gateway::DEFAULT_GATEWAY_ADDR);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|err| format!("cannot bind `{addr}`: {err}"))?;
    let jobs = NonZeroUsize::new(effective_jobs(cli)).unwrap_or(NonZeroUsize::MIN);
    let local = listener
        .local_addr()
        .map_err(|err| format!("cannot resolve the bound address: {err}"))?;
    // First stderr line, scrapeable like `serve`'s: ephemeral-port scripts
    // read the bound address from it.
    eprintln!(
        "gateway: listening on {local} (backends = {}, jobs = {jobs}{})",
        cli.backends.len(),
        if cli.jobs.is_some() {
            ""
        } else {
            ", auto-detected"
        }
    );
    for backend in &cli.backends {
        eprintln!("gateway: backend {backend}");
    }
    let mut builder = GatewayConfig::builder(cli.backends.clone(), jobs);
    if let Some(ms) = cli.probe_interval_ms {
        builder = builder.probe_interval(std::time::Duration::from_millis(ms));
    }
    if let Some(failures) = cli.eject_after {
        builder = builder.eject_after(failures);
    }
    if let Some(ms) = cli.connect_timeout_ms {
        builder = builder.connect_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = cli.request_timeout_ms {
        builder = builder.request_read_timeout(Some(std::time::Duration::from_millis(ms)));
    }
    if let Some(path) = &cli.trace_log {
        builder = builder.trace_log(path.clone());
    }
    let config = builder.build().map_err(|err| err.to_string())?;
    let report =
        gateway::gateway(listener, &config).map_err(|err| format!("gateway failed: {err}"))?;
    eprintln!(
        "gateway: stopped after {} request(s), {} error(s)",
        report.requests, report.errors
    );
    Ok(0)
}

/// `specan artifacts <list|verify|gc> --artifact-dir DIR`: offline
/// inspection of a persistent artifact store.  `verify` runs every file
/// through the complete serve-path validation chain (header, checksum,
/// options signature, full payload decode) without mutating the store, and
/// exits 0 iff every artifact passes — the restart gate's proof that what
/// is on disk is what a restarted server will load.
fn cmd_artifacts(cli: &Cli) -> Result<u8, String> {
    let dir = cli.artifact_dir.as_ref().expect("validated by parse_args");
    let mut store = PreparedStore::open(dir.clone());
    if let Some(bytes) = cli.max_store_bytes {
        store = store.max_store_bytes(bytes);
    }
    match cli.paths[0].as_str() {
        "list" => {
            let entries = store
                .store()
                .entries()
                .map_err(|err| format!("cannot list `{}`: {err}", dir.display()))?;
            if cli.json {
                let mut out = String::from("[");
                for (i, entry) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"fingerprint\": \"{:016x}\", \"file_bytes\": {}}}",
                        entry.fingerprint, entry.file_bytes
                    ));
                }
                out.push(']');
                outln!("{out}");
            } else {
                for entry in &entries {
                    outln!("{:016x}  {:>12} bytes", entry.fingerprint, entry.file_bytes);
                }
                outln!(
                    "{} artifact(s), {} bytes",
                    entries.len(),
                    entries.iter().map(|e| e.file_bytes).sum::<u64>()
                );
            }
            Ok(0)
        }
        "verify" => {
            let rows = store
                .verify(&Analyzer::new())
                .map_err(|err| format!("cannot verify `{}`: {err}", dir.display()))?;
            let failed = rows.iter().filter(|(_, r)| r.is_err()).count();
            if cli.json {
                let mut out = String::from("[");
                for (i, (fingerprint, result)) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&match result {
                        Ok(bytes) => format!(
                            "{{\"fingerprint\": \"{fingerprint:016x}\", \"ok\": true, \
                             \"payload_bytes\": {bytes}}}"
                        ),
                        Err(reason) => format!(
                            "{{\"fingerprint\": \"{fingerprint:016x}\", \"ok\": false, \
                             \"error\": {}}}",
                            spec_core::json::string(reason)
                        ),
                    });
                }
                out.push(']');
                outln!("{out}");
            } else {
                for (fingerprint, result) in &rows {
                    match result {
                        Ok(bytes) => outln!("{fingerprint:016x}  ok ({bytes} payload bytes)"),
                        Err(reason) => outln!("{fingerprint:016x}  FAILED: {reason}"),
                    }
                }
                outln!("{} artifact(s) verified, {} failed", rows.len(), failed);
            }
            Ok(if failed > 0 { EXIT_ERROR } else { 0 })
        }
        "gc" => {
            let stats = store
                .store()
                .gc()
                .map_err(|err| format!("cannot gc `{}`: {err}", dir.display()))?;
            outln!(
                "gc: {} artifact(s) evicted, {} leftover(s) removed, {} bytes remain",
                stats.evicted,
                stats.junk_removed,
                stats.remaining_bytes
            );
            Ok(0)
        }
        _ => unreachable!("validated by parse_args"),
    }
}

/// `specan submit [--addr H:P] <analyze|compare|scan|status|shutdown> ...`:
/// run a command against a running server, printing exactly what the
/// one-shot invocation would print and exiting with its code.
fn cmd_submit(args: &[String]) -> Result<u8, String> {
    // Peel off `--addr` and the connection deadlines wherever they appear;
    // everything else re-parses through the normal grammar, so submit
    // accepts the same flags.
    let mut addr = service::DEFAULT_ADDR.to_string();
    let mut options = ClientOptions::default();
    let mut rest: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let millis = |flag: &str, value: String| {
            value
                .parse()
                .map(std::time::Duration::from_millis)
                .map_err(|_| format!("`{value}` is not a millisecond count ({flag})"))
        };
        match arg.as_str() {
            "--addr" => addr = value_of("--addr")?,
            "--connect-timeout-ms" => {
                let value = value_of("--connect-timeout-ms")?;
                options.connect_timeout = Some(millis("--connect-timeout-ms", value)?);
            }
            "--read-timeout-ms" => {
                let value = value_of("--read-timeout-ms")?;
                options.read_timeout = Some(millis("--read-timeout-ms", value)?);
            }
            _ => rest.push(arg.clone()),
        }
    }
    let connect = || {
        ServiceClient::connect_with(&addr, options)
            .map_err(|err| format!("cannot connect to a specan server at `{addr}`: {err}"))
    };
    // status/metrics/shutdown have no flags or files of their own.
    if let Some(cmd @ ("status" | "metrics" | "shutdown")) = rest.first().map(String::as_str) {
        if rest.len() != 1 {
            return Err(format!("`submit {cmd}` takes no further arguments"));
        }
        let request = match cmd {
            "status" => Request::Status,
            "metrics" => Request::Metrics,
            _ => Request::Shutdown,
        };
        let response = connect()?
            .call(&request)
            .map_err(|err| format!("request failed: {err}"))?;
        return match response.error {
            None => {
                outln!("{}", response.output);
                Ok(response.exit)
            }
            Some(message) => Err(format!("server error: {message}")),
        };
    }
    let cli = parse_args(&rest)?;
    if !matches!(
        cli.command,
        Command::Analyze | Command::Compare | Command::Scan
    ) {
        return Err(format!(
            "`submit` supports analyze, compare, scan, status, metrics and shutdown\n{}",
            usage()
        ));
    }
    if cli.shard.is_some() {
        return Err(
            "`--shard` does not apply over the wire: shard locally and fan the \
             artifacts in with `specan merge`"
                .to_string(),
        );
    }
    if cli.incremental || store_dir(&cli).is_some() {
        return Err("sessions live inside the server: drop \
             `--incremental`/`--artifact-dir`/`--session-dir`"
            .to_string());
    }
    if cli.jobs.is_some() {
        return Err("`--jobs` is the server's knob (`specan serve --jobs N`)".to_string());
    }
    let (bundle, range) = select_bundle(&cli)?;
    let files = bundle[range].to_vec();
    let read_source = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read `{}`: {err}", path.display()))
    };
    let mut client = connect()?;
    let fail = |response: &spec_core::service::Response| {
        format!(
            "server error: {}",
            response.error.as_deref().unwrap_or("unknown failure")
        )
    };
    match cli.command {
        Command::Analyze => {
            // Pipeline one request per file; reorder responses by id.
            let config = analyze_config(&cli);
            let mut ids = Vec::with_capacity(files.len());
            for path in &files {
                let request = Request::Analyze {
                    source: read_source(path)?,
                    config,
                };
                ids.push(client.send(&request).map_err(|err| err.to_string())?);
            }
            let mut by_id = std::collections::HashMap::new();
            for _ in &ids {
                let response = match client.recv() {
                    Ok(response) => response,
                    Err(err) => {
                        // The connection died mid-pipeline.  Name exactly
                        // which in-flight requests never got an answer —
                        // "backend died" must be distinguishable from any
                        // analysis verdict, and the caller needs to know
                        // what to resubmit.
                        let lost: Vec<(u64, &PathBuf)> = ids
                            .iter()
                            .zip(&files)
                            .filter(|(id, _)| !by_id.contains_key(&Some(**id)))
                            .map(|(id, path)| (*id, path))
                            .collect();
                        for (id, path) in &lost {
                            eprintln!("submit: lost request {id} (`{}`)", path.display());
                        }
                        return Err(format!(
                            "connection to `{addr}` died mid-pipeline ({err}): {} of {} \
                             response(s) never arrived (lost request id(s): {})",
                            lost.len(),
                            ids.len(),
                            lost.iter()
                                .map(|(id, _)| id.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                };
                by_id.insert(response.id, response);
            }
            let mut outputs = Vec::with_capacity(ids.len());
            for id in ids {
                let response = by_id
                    .remove(&Some(id))
                    .ok_or_else(|| format!("server never answered request {id}"))?;
                if !response.ok {
                    return Err(fail(&response));
                }
                outputs.push(response.output);
            }
            print_analyze_outputs(&cli, &outputs);
            Ok(0)
        }
        Command::Compare if !bundle_mode(&cli) => {
            let response = client
                .call(&Request::Compare {
                    source: read_source(&files[0])?,
                    cache_lines: cli.cache_lines,
                    json: cli.json,
                })
                .map_err(|err| err.to_string())?;
            if !response.ok {
                return Err(fail(&response));
            }
            outln!("{}", response.output);
            Ok(0)
        }
        Command::Compare | Command::Scan => {
            // A compare bundle is a scan under the comparison panel (same
            // report, exit 0 regardless of leaks — compare never gates).
            let panel = PanelSpec {
                kind: if matches!(cli.command, Command::Scan) {
                    cli.panel
                } else {
                    PanelKind::Comparison
                },
                cache_lines: cli.cache_lines,
            };
            let sources = files
                .iter()
                .map(read_source)
                .collect::<Result<Vec<_>, _>>()?;
            let response = client
                .call(&Request::Scan {
                    sources,
                    panel,
                    json: cli.json,
                })
                .map_err(|err| err.to_string())?;
            if !response.ok {
                return Err(fail(&response));
            }
            outln!("{}", response.output);
            Ok(if matches!(cli.command, Command::Scan) {
                response.exit
            } else {
                0
            })
        }
        _ => unreachable!("gated above"),
    }
}

/// `specan metrics [<addr>]`: scrape the Prometheus text exposition of a
/// running server or gateway and print it verbatim.
fn cmd_metrics(args: &[String]) -> Result<u8, String> {
    let mut addr: Option<String> = None;
    let mut options = ClientOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let millis = |flag: &str, value: String| {
            value
                .parse()
                .map(std::time::Duration::from_millis)
                .map_err(|_| format!("`{value}` is not a millisecond count ({flag})"))
        };
        match arg.as_str() {
            "--connect-timeout-ms" => {
                let value = value_of("--connect-timeout-ms")?;
                options.connect_timeout = Some(millis("--connect-timeout-ms", value)?);
            }
            "--read-timeout-ms" => {
                let value = value_of("--read-timeout-ms")?;
                options.read_timeout = Some(millis("--read-timeout-ms", value)?);
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') && addr.is_none() => {
                addr = Some(other.to_string());
            }
            other => return Err(format!("unrecognised argument `{other}`\n{}", usage())),
        }
    }
    let addr = addr.unwrap_or_else(|| service::DEFAULT_ADDR.to_string());
    let response = ServiceClient::connect_with(&addr, options)
        .map_err(|err| format!("cannot connect to a specan server at `{addr}`: {err}"))?
        .call(&Request::Metrics)
        .map_err(|err| format!("request failed: {err}"))?;
    match response.error {
        None => {
            outln!("{}", response.output);
            Ok(response.exit)
        }
        Some(message) => Err(format!("server error: {message}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `submit` wraps another command, so it owns its own argument handling.
    if args.first().map(String::as_str) == Some("submit") {
        return match cmd_submit(&args[1..]) {
            Ok(code) => ExitCode::from(code),
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(EXIT_ERROR)
            }
        };
    }
    // `metrics` takes a positional address, not input files.
    if args.first().map(String::as_str) == Some("metrics") {
        return match cmd_metrics(&args[1..]) {
            Ok(code) => ExitCode::from(code),
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(EXIT_ERROR)
            }
        };
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let outcome = match cli.command {
        Command::Analyze => cmd_analyze(&cli),
        Command::Compare => cmd_compare(&cli),
        Command::Leaks => cmd_leaks(&cli),
        Command::Scan => cmd_scan(&cli),
        Command::Merge => cmd_merge(&cli),
        Command::Serve => cmd_serve(&cli),
        Command::Gateway => cmd_gateway(&cli),
        Command::Artifacts => cmd_artifacts(&cli),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}
