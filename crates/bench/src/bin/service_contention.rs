//! Service contention: warm requests/second under many pipelined
//! connections, one worker vs many.
//!
//! The lock-free L0 tier's pitch is that warm requests stop serializing on
//! the shared session lock: after the first visit each worker thread
//! answers repeats from its own thread-local handle, so adding workers
//! should multiply warm throughput instead of queueing on a mutex.  This
//! harness measures exactly that: it spawns a real `specan serve` twice —
//! once with a single worker, once with the contended worker count — feeds
//! each N concurrent pipelined connections submitting the same warm panel,
//! and reports the aggregate warm req/s of both together with their ratio.
//! Every warm response is checked byte-identical, post timing-strip, to
//! its cold counterpart, so the scaling never comes at the price of
//! determinism.
//!
//! Knobs (environment):
//!
//! * `SPEC_BENCH_CACHE_LINES`            — cache/workload scale (default 128);
//! * `SPEC_BENCH_SERVICE_PROGRAMS`       — distinct programs (default 6);
//! * `SPEC_BENCH_SERVICE_ROUNDS`         — warm rounds per connection (default 5);
//! * `SPEC_BENCH_CONTENTION_CONNECTIONS` — concurrent connections (default 8);
//! * `SPEC_BENCH_CONTENTION_WORKERS`     — contended worker count (default 4);
//! * `SPECAN_BIN`                        — path to a built `specan` (required;
//!   the harness exits 0 with a note when unset).
//!
//! Pass `--json` to emit a machine-readable report (the CI bench-smoke and
//! contention-gate jobs upload it as an artifact, feeding the BENCH
//! trajectory).

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use spec_bench::service_harness::{strip_analyze_timing, ServeProcess};
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

/// Renders `count` uniquely named program sources from the e2e workloads.
fn program_sources(count: usize, cache_lines: u64) -> Vec<String> {
    let suite = ete_suite(cache_lines);
    (0..count)
        .map(|i| {
            let workload = &suite[i % suite.len()];
            let text = workload.program.to_string();
            let (header, body) = text.split_once('\n').expect("program header");
            let name = header.strip_prefix("program ").expect("program header");
            format!("program svc{i:03}_{name}\n{body}")
        })
        .collect()
}

/// Pipelines one analyze request per source and returns the outputs in
/// request order together with the round's wall time.
fn round(
    client: &mut ServiceClient,
    sources: &[String],
    config: AnalyzeConfig,
) -> (Vec<String>, Duration) {
    let start = Instant::now();
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
    let outputs = ids
        .into_iter()
        .map(|id| by_id.remove(&Some(id)).expect("every id answered"))
        .collect();
    (outputs, start.elapsed())
}

/// One measured scenario: a `--jobs <workers>` server warmed over one
/// connection, then `connections` concurrent pipelined clients submitting
/// `rounds` warm panels each.  Returns the aggregate warm req/s; every
/// warm response is asserted byte-identical to its cold counterpart post
/// timing-strip.
fn scenario(
    specan: &std::path::Path,
    workers: usize,
    connections: usize,
    rounds: usize,
    sources: &[String],
    config: AnalyzeConfig,
) -> (f64, Duration) {
    let mut server = ServeProcess::start(specan, workers);

    // Warm-up: one cold round prepares every program and fixes the
    // deterministic reference outputs.
    let mut warmer = ServiceClient::connect(server.addr()).expect("client connects");
    let (cold_outputs, _) = round(&mut warmer, sources, config);
    let cold_stripped: Vec<String> = cold_outputs
        .iter()
        .map(|o| strip_analyze_timing(o))
        .collect();
    drop(warmer);

    // All connections start their timed warm rounds together, so the
    // server sees the full contention from the first request.
    let barrier = Barrier::new(connections + 1);
    let wall = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let barrier = &barrier;
                let cold_stripped = &cold_stripped;
                let addr = server.addr().to_string();
                s.spawn(move || {
                    let mut client = ServiceClient::connect(&addr).expect("client connects");
                    barrier.wait();
                    for _ in 0..rounds {
                        let (outputs, _) = round(&mut client, sources, config);
                        for (warm, cold) in outputs.iter().zip(cold_stripped) {
                            assert_eq!(
                                &strip_analyze_timing(warm),
                                cold,
                                "a contended warm response diverged from its \
                                 cold counterpart"
                            );
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            handle.join().expect("connection thread joins");
        }
        start.elapsed()
    });
    server.shutdown();

    let requests = (connections * rounds * sources.len()) as f64;
    (requests / wall.as_secs_f64().max(1e-9), wall)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cache_lines = bench_cache_lines();
    let programs = env_usize("SPEC_BENCH_SERVICE_PROGRAMS", 6);
    let rounds = env_usize("SPEC_BENCH_SERVICE_ROUNDS", 5);
    let connections = env_usize("SPEC_BENCH_CONTENTION_CONNECTIONS", 8);
    let workers = env_usize("SPEC_BENCH_CONTENTION_WORKERS", 4);

    let Some(specan) = std::env::var("SPECAN_BIN").ok().map(PathBuf::from) else {
        eprintln!("SPECAN_BIN not set: skipping the service contention benchmark");
        if json {
            println!("{{\"skipped\": true}}");
        }
        return;
    };
    if !specan.is_file() {
        eprintln!("SPECAN_BIN is not a file: skipping the service contention benchmark");
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

    let (baseline_rps, baseline_wall) = scenario(&specan, 1, connections, rounds, &sources, config);
    let (contended_rps, contended_wall) =
        scenario(&specan, workers, connections, rounds, &sources, config);
    let scaling = contended_rps / baseline_rps.max(1e-9);
    // Warm requests are CPU-bound, so the scaling a reader should expect
    // is bounded by the cores the machine can actually give the workers —
    // record it next to the ratio.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cache_lines\": {cache_lines},\n"));
        out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
        out.push_str(&format!("  \"programs\": {programs},\n"));
        out.push_str(&format!("  \"rounds\": {rounds},\n"));
        out.push_str(&format!("  \"connections\": {connections},\n"));
        out.push_str(&format!("  \"workers\": {workers},\n"));
        out.push_str(&format!(
            "  \"baseline_wall_secs\": {:.6},\n",
            baseline_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"contended_wall_secs\": {:.6},\n",
            contended_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"baseline_warm_requests_per_sec\": {baseline_rps:.3},\n"
        ));
        out.push_str(&format!(
            "  \"contended_warm_requests_per_sec\": {contended_rps:.3},\n"
        ));
        out.push_str(&format!("  \"scaling\": {scaling:.3},\n"));
        out.push_str("  \"responses_deterministic\": true\n}");
        println!("{out}");
    } else {
        let total = connections * rounds * programs;
        let rows = vec![
            vec![
                "1 worker".to_string(),
                fmt_secs(baseline_wall),
                format!("{baseline_rps:.1}"),
                "1.00x".to_string(),
            ],
            vec![
                format!("{workers} workers"),
                fmt_secs(contended_wall),
                format!("{contended_rps:.1}"),
                format!("{scaling:.2}x"),
            ],
        ];
        print_table(
            &format!(
                "Service contention ({connections} connections x {rounds} warm rounds \
                 x {programs} programs = {total} requests, {cache_lines}-line cache, \
                 {cores} cores)"
            ),
            &["Workers", "Wall (s)", "Warm req/s", "Scaling"],
            &rows,
        );
        println!(
            "\nAll contended warm responses were byte-identical to their cold \
             counterparts (post timing-strip)."
        );
    }
}
