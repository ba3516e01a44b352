//! Service throughput: requests/second against a live `specan serve`,
//! cold sessions vs warm.
//!
//! The service's pitch is amortization — preparation (unrolling, address
//! maps, VCFGs, fixpoint rounds) happens once per program fingerprint and
//! every later request reuses it.  This harness measures that directly:
//! it spawns a real `specan serve` on an ephemeral port, submits the same
//! panel of programs repeatedly over one pipelined connection, and
//! contrasts the first (cold: every program prepared) round with the
//! steady-state warm rounds.  Responses are also checked for determinism:
//! every warm response must equal its cold counterpart after the timing
//! strip.
//!
//! Knobs (environment):
//!
//! * `SPEC_BENCH_CACHE_LINES`     — cache/workload scale (default 128);
//! * `SPEC_BENCH_SERVICE_PROGRAMS`— distinct programs (default 6);
//! * `SPEC_BENCH_SERVICE_ROUNDS` — warm rounds (default 5);
//! * `SPECAN_BIN`                — path to a built `specan` (required;
//!   the harness exits 0 with a note when unset).
//!
//! Pass `--json` to emit a machine-readable report (the CI bench-smoke
//! job uploads it as an artifact, feeding the BENCH trajectory).

use std::num::NonZeroUsize;
use std::path::PathBuf;
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

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cache_lines = bench_cache_lines();
    let programs = env_usize("SPEC_BENCH_SERVICE_PROGRAMS", 6);
    let rounds = env_usize("SPEC_BENCH_SERVICE_ROUNDS", 5);
    let jobs = env_usize(
        "SPEC_BENCH_SCAN_JOBS",
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    );

    let Some(specan) = std::env::var("SPECAN_BIN").ok().map(PathBuf::from) else {
        eprintln!("SPECAN_BIN not set: skipping the service throughput benchmark");
        if json {
            println!("{{\"skipped\": true}}");
        }
        return;
    };
    if !specan.is_file() {
        eprintln!("SPECAN_BIN is not a file: skipping the service throughput benchmark");
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

    let mut server = ServeProcess::start(&specan, jobs);
    let mut client = ServiceClient::connect(server.addr()).expect("client connects");

    // Round 0 is cold: every program is prepared from scratch.
    let (cold_outputs, cold_wall) = round(&mut client, &sources, config);
    // Steady state: the same panel over warm sessions.
    let mut warm_walls = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (warm_outputs, wall) = round(&mut client, &sources, config);
        // Warm responses are deterministic: byte-identical post-strip.
        for (warm, cold) in warm_outputs.iter().zip(&cold_outputs) {
            assert_eq!(
                strip_analyze_timing(warm),
                strip_analyze_timing(cold),
                "a warm response diverged from its cold counterpart"
            );
        }
        warm_walls.push(wall);
    }
    let _ = client.call(&Request::Shutdown);
    server.shutdown();

    let warm_total: Duration = warm_walls.iter().sum();
    let warm_mean = warm_total / rounds as u32;
    let rps = |wall: Duration| programs as f64 / wall.as_secs_f64().max(1e-9);
    let (cold_rps, warm_rps) = (rps(cold_wall), rps(warm_mean));

    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cache_lines\": {cache_lines},\n"));
        out.push_str(&format!("  \"programs\": {programs},\n"));
        out.push_str(&format!("  \"rounds\": {rounds},\n"));
        out.push_str(&format!("  \"jobs\": {jobs},\n"));
        out.push_str(&format!(
            "  \"cold_wall_secs\": {:.6},\n",
            cold_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"warm_wall_secs_mean\": {:.6},\n",
            warm_mean.as_secs_f64()
        ));
        out.push_str(&format!("  \"cold_requests_per_sec\": {cold_rps:.3},\n"));
        out.push_str(&format!("  \"warm_requests_per_sec\": {warm_rps:.3},\n"));
        out.push_str(&format!(
            "  \"warm_speedup\": {:.3},\n",
            warm_rps / cold_rps.max(1e-9)
        ));
        out.push_str("  \"responses_deterministic\": true\n}");
        println!("{out}");
    } else {
        let rows = vec![
            vec![
                "cold".to_string(),
                fmt_secs(cold_wall),
                format!("{cold_rps:.1}"),
                "1.00x".to_string(),
            ],
            vec![
                "warm (mean)".to_string(),
                fmt_secs(warm_mean),
                format!("{warm_rps:.1}"),
                format!("{:.2}x", warm_rps / cold_rps.max(1e-9)),
            ],
        ];
        print_table(
            &format!(
                "Service throughput ({programs} programs x {rounds} warm rounds, \
                 {jobs} jobs, {cache_lines}-line cache)"
            ),
            &["Round", "Wall (s)", "Req/s", "Speedup"],
            &rows,
        );
        println!("\nAll warm responses were byte-identical to their cold counterparts (post timing-strip).");
    }
}
