//! Telemetry overhead: warm request throughput of a `specan serve` with
//! the NDJSON trace log enabled vs a plain server, plus the proof that
//! telemetry is a side channel — every response byte-identical (post
//! timing-strip) between the two.
//!
//! The telemetry pitch is observability without a tax: the metric record
//! path is two relaxed `fetch_add`s, the trace log rides a bounded channel
//! to a dedicated writer thread, and neither touches response bytes.  This
//! harness runs the same warm analyze rounds against both servers and
//! asserts the traced server stays within `SPEC_BENCH_MAX_TELEMETRY_OVERHEAD`
//! (default 1.05 — five percent) of the plain one, then scrapes the traced
//! server's `metrics` exposition and reconciles it with the trace-log file.
//!
//! Knobs (environment):
//!
//! * `SPEC_BENCH_CACHE_LINES`              — cache/workload scale (default 128);
//! * `SPEC_BENCH_SERVICE_PROGRAMS`         — distinct programs (default 6);
//! * `SPEC_BENCH_SERVICE_ROUNDS`           — timed warm rounds (default 8);
//! * `SPEC_BENCH_MAX_TELEMETRY_OVERHEAD`   — throughput ratio gate (default 1.05);
//! * `SPECAN_BIN`                          — path to a built `specan` (required;
//!   the harness exits 0 with a note when unset).
//!
//! Pass `--json` to emit a machine-readable report (the CI bench-smoke job
//! uploads it as an artifact, feeding the BENCH trajectory).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spec_bench::service_harness::{strip_analyze_timing, Scratch, ServeProcess};
use spec_bench::{bench_cache_lines, fmt_secs, print_table};
use spec_core::service::{AnalyzeConfig, Request, ServiceClient};
use spec_workloads::ete_suite;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0)
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(default)
}

/// Renders `count` uniquely named program sources from the e2e workloads.
fn program_sources(count: usize, cache_lines: u64) -> Vec<String> {
    let suite = ete_suite(cache_lines);
    (0..count)
        .map(|i| {
            let workload = &suite[i % suite.len()];
            let text = workload.program.to_string();
            let (header, body) = text.split_once('\n').expect("program header");
            let name = header.strip_prefix("program ").expect("program header");
            format!("program tel{i:03}_{name}\n{body}")
        })
        .collect()
}

/// Pipelines one analyze request per source and returns outputs in order.
fn round(client: &mut ServiceClient, sources: &[String], config: AnalyzeConfig) -> Vec<String> {
    let mut ids = Vec::with_capacity(sources.len());
    for source in sources {
        let request = Request::Analyze {
            source: source.clone(),
            config,
        };
        ids.push(client.send(&request).expect("request sends"));
    }
    let mut by_id = std::collections::HashMap::new();
    for _ in &ids {
        let response = client.recv().expect("response arrives");
        assert!(response.ok, "request failed: {:?}", response.error);
        by_id.insert(response.id, response.output);
    }
    ids.into_iter()
        .map(|id| by_id.remove(&Some(id)).expect("every id answered"))
        .collect()
}

/// One server's cold round (fixing its reference outputs) plus `rounds`
/// timed warm rounds.  Returns (stripped outputs, warm req/s, warm wall).
fn measure(
    addr: &str,
    sources: &[String],
    config: AnalyzeConfig,
    rounds: usize,
) -> (Vec<String>, f64, Duration) {
    let mut client = ServiceClient::connect(addr).expect("server connects");
    let cold = round(&mut client, sources, config);
    let reference: Vec<String> = cold.iter().map(|o| strip_analyze_timing(o)).collect();
    let start = Instant::now();
    for _ in 0..rounds {
        let outputs = round(&mut client, sources, config);
        for (output, expected) in outputs.iter().zip(&reference) {
            assert_eq!(
                &strip_analyze_timing(output),
                expected,
                "a warm response diverged from the cold reference"
            );
        }
    }
    let wall = start.elapsed();
    let requests = (rounds * sources.len()) as f64;
    (reference, requests / wall.as_secs_f64().max(1e-9), wall)
}

/// One exact series value out of a Prometheus exposition.
fn series_value(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("exposition lacks `{series}`"))
        .parse()
        .expect("series value parses")
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cache_lines = bench_cache_lines();
    let programs = env_usize("SPEC_BENCH_SERVICE_PROGRAMS", 6);
    let rounds = env_usize("SPEC_BENCH_SERVICE_ROUNDS", 8);
    let max_overhead = env_f64("SPEC_BENCH_MAX_TELEMETRY_OVERHEAD", 1.05);

    let Some(specan) = std::env::var("SPECAN_BIN").ok().map(PathBuf::from) else {
        eprintln!("SPECAN_BIN not set: skipping the telemetry overhead benchmark");
        if json {
            println!("{{\"skipped\": true}}");
        }
        return;
    };
    if !specan.is_file() {
        eprintln!("SPECAN_BIN is not a file: skipping the telemetry overhead benchmark");
        if json {
            println!("{{\"skipped\": true}}");
        }
        return;
    }

    let sources = program_sources(programs, cache_lines);
    let config = AnalyzeConfig {
        cache_lines: cache_lines as usize,
        json: true,
        ..AnalyzeConfig::default()
    };

    // Phase 1 — plain: metrics record (they always do), no trace log.
    let mut plain = ServeProcess::start(&specan, 2);
    let (plain_reference, plain_rps, plain_wall) = measure(plain.addr(), &sources, config, rounds);
    plain.shutdown();

    // Phase 2 — traced: the same rounds with `--trace-log` streaming one
    // NDJSON event per request.
    let scratch = Scratch::new("telemetry-overhead");
    let trace_path = scratch.dir().join("trace.ndjson");
    let trace_flag = trace_path.to_str().expect("utf-8 scratch path");
    let mut traced = ServeProcess::start_with_args(&specan, 2, &["--trace-log", trace_flag]);
    let (traced_reference, traced_rps, traced_wall) =
        measure(traced.addr(), &sources, config, rounds);

    // The side-channel proof: both servers produced identical bytes.
    assert_eq!(
        plain_reference, traced_reference,
        "telemetry changed response bytes"
    );

    // The ledger agrees with the traffic before shutdown.
    let expected = ((rounds + 1) * programs) as f64;
    let mut client = ServiceClient::connect(traced.addr()).expect("traced connects");
    let metrics = client.call(&Request::Metrics).expect("metrics scrapes");
    assert!(metrics.ok);
    let exposition = metrics.output;
    assert_eq!(
        series_value(
            &exposition,
            "spec_requests_total{kind=\"analyze\",outcome=\"ok\"}"
        ),
        expected,
        "the request ledger must count every analyze"
    );
    let p50 = {
        let total: f64 = series_value(&exposition, "spec_request_seconds_sum{kind=\"analyze\"}");
        total / expected
    };
    drop(client);
    traced.shutdown();

    // One trace event per queued request: the cold round plus every warm
    // round.  Inline commands (metrics, status, shutdown) never log.
    let trace = std::fs::read_to_string(&trace_path).expect("trace log exists");
    let events = trace.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(
        events,
        (rounds + 1) * programs,
        "one trace event per queued request"
    );

    let overhead = plain_rps / traced_rps.max(1e-9);
    assert!(
        overhead <= max_overhead,
        "telemetry overhead {overhead:.3}x exceeds the {max_overhead:.2}x gate \
         (plain {plain_rps:.1} req/s, traced {traced_rps:.1} req/s)"
    );

    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cache_lines\": {cache_lines},\n"));
        out.push_str(&format!("  \"programs\": {programs},\n"));
        out.push_str(&format!("  \"rounds\": {rounds},\n"));
        out.push_str(&format!(
            "  \"plain_wall_secs\": {:.6},\n",
            plain_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"traced_wall_secs\": {:.6},\n",
            traced_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"plain_warm_requests_per_sec\": {plain_rps:.3},\n"
        ));
        out.push_str(&format!(
            "  \"traced_warm_requests_per_sec\": {traced_rps:.3},\n"
        ));
        out.push_str(&format!("  \"telemetry_overhead\": {overhead:.3},\n"));
        out.push_str(&format!("  \"mean_request_secs\": {p50:.6},\n"));
        out.push_str(&format!("  \"trace_events\": {events},\n"));
        out.push_str("  \"responses_deterministic\": true\n}");
        println!("{out}");
    } else {
        let total = rounds * programs;
        let rows = vec![
            vec![
                "plain serve".to_string(),
                fmt_secs(plain_wall),
                format!("{plain_rps:.1}"),
            ],
            vec![
                "serve --trace-log".to_string(),
                fmt_secs(traced_wall),
                format!("{traced_rps:.1}"),
            ],
        ];
        print_table(
            &format!(
                "Telemetry overhead ({rounds} warm rounds x {programs} programs = \
                 {total} requests per server, {cache_lines}-line cache)"
            ),
            &["Server", "Wall (s)", "Warm req/s"],
            &rows,
        );
        println!(
            "\nOverhead {overhead:.2}x (gate {max_overhead:.2}x); {events} trace \
             event(s) written; mean warm request {p50:.6}s.  All responses were \
             byte-identical with telemetry enabled (post timing-strip)."
        );
    }
}
