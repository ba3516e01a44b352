//! Gateway failover: warm request latency through the federation gateway
//! vs a direct backend hit, and the cost of losing a backend mid-stream.
//!
//! The gateway's pitch is federation without a determinism tax: the same
//! request through `specan gateway` answers byte-identically (post
//! timing-strip) to a direct `specan serve` hit, the extra hop costs one
//! LAN round-trip, and a SIGKILLed backend costs a bounded re-route — not
//! an error surfaced to the client.  This harness measures all three: it
//! runs a warm analyze round directly against one backend, the same round
//! through a gateway fronting `SPEC_BENCH_GATEWAY_BACKENDS` backends, then
//! kills the backend holding the most warm programs and keeps submitting.
//! Every response, warm or failed-over, is checked byte-identical to its
//! direct counterpart.
//!
//! Knobs (environment):
//!
//! * `SPEC_BENCH_CACHE_LINES`       — cache/workload scale (default 128);
//! * `SPEC_BENCH_SERVICE_PROGRAMS`  — distinct programs (default 6);
//! * `SPEC_BENCH_SERVICE_ROUNDS`    — warm rounds per phase (default 4);
//! * `SPEC_BENCH_GATEWAY_BACKENDS`  — fleet size (default 3);
//! * `SPECAN_BIN`                   — path to a built `specan` (required;
//!   the harness exits 0 with a note when unset).
//!
//! Pass `--json` to emit a machine-readable report (the CI bench-smoke and
//! gateway-gate jobs upload it as an artifact, feeding the BENCH
//! trajectory).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spec_bench::service_harness::{strip_analyze_timing, GatewayProcess, ServeProcess};
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
            format!("program gwf{i:03}_{name}\n{body}")
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

/// `rounds` timed warm rounds through `client`, every response checked
/// byte-identical post-strip to `reference`.  Returns aggregate req/s.
fn timed_rounds(
    client: &mut ServiceClient,
    sources: &[String],
    config: AnalyzeConfig,
    rounds: usize,
    reference: &[String],
    label: &str,
) -> (f64, Duration) {
    let start = Instant::now();
    for _ in 0..rounds {
        let (outputs, _) = round(client, sources, config);
        for (output, expected) in outputs.iter().zip(reference) {
            assert_eq!(
                &strip_analyze_timing(output),
                expected,
                "a {label} response diverged from its direct counterpart"
            );
        }
    }
    let wall = start.elapsed();
    let requests = (rounds * sources.len()) as f64;
    (requests / wall.as_secs_f64().max(1e-9), wall)
}

/// The `"programs"` count of a backend's status document.
fn programs_on(addr: &str) -> u64 {
    let mut client = ServiceClient::connect(addr).expect("backend answers");
    let status = client.call(&Request::Status).expect("status round-trips");
    status
        .output
        .split("\"programs\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("status reports a program count")
}

/// A named counter out of the gateway's fleet status document.
fn gateway_counter(status: &str, name: &str) -> u64 {
    status
        .split(&format!("\"{name}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("status reports `{name}`"))
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let cache_lines = bench_cache_lines();
    let programs = env_usize("SPEC_BENCH_SERVICE_PROGRAMS", 6);
    let rounds = env_usize("SPEC_BENCH_SERVICE_ROUNDS", 4);
    let fleet = env_usize("SPEC_BENCH_GATEWAY_BACKENDS", 3).max(2);

    let Some(specan) = std::env::var("SPECAN_BIN").ok().map(PathBuf::from) else {
        eprintln!("SPECAN_BIN not set: skipping the gateway failover benchmark");
        if json {
            println!("{{\"skipped\": true}}");
        }
        return;
    };
    if !specan.is_file() {
        eprintln!("SPECAN_BIN is not a file: skipping the gateway failover benchmark");
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

    // Phase 1 — direct: one backend, a cold round fixing the reference
    // outputs, then timed warm rounds.
    let mut direct = ServeProcess::start(&specan, 2);
    let mut direct_client = ServiceClient::connect(direct.addr()).expect("direct connects");
    let (cold_outputs, _) = round(&mut direct_client, &sources, config);
    let reference: Vec<String> = cold_outputs
        .iter()
        .map(|o| strip_analyze_timing(o))
        .collect();
    let (direct_rps, direct_wall) = timed_rounds(
        &mut direct_client,
        &sources,
        config,
        rounds,
        &reference,
        "direct",
    );
    drop(direct_client);
    direct.shutdown();

    // Phase 2 — federated: the same warm rounds through a gateway fronting
    // a fresh fleet.
    let mut backends: Vec<ServeProcess> = (0..fleet)
        .map(|_| ServeProcess::start(&specan, 2))
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let addr_refs: Vec<&str> = addrs.iter().map(String::as_str).collect();
    let gateway = GatewayProcess::start(
        &specan,
        2,
        &addr_refs,
        &[
            "--probe-interval-ms",
            "100",
            "--eject-after",
            "1",
            "--connect-timeout-ms",
            "1000",
        ],
    );
    let mut client = ServiceClient::connect(gateway.addr()).expect("gateway connects");
    let (warm_outputs, _) = round(&mut client, &sources, config); // warm the fleet
    for (output, expected) in warm_outputs.iter().zip(&reference) {
        assert_eq!(&strip_analyze_timing(output), expected);
    }
    let (gateway_rps, gateway_wall) = timed_rounds(
        &mut client,
        &sources,
        config,
        rounds,
        &reference,
        "federated warm",
    );

    // Phase 3 — failover: SIGKILL the warmest backend, keep submitting.
    let victim = (0..backends.len())
        .max_by_key(|&i| programs_on(backends[i].addr()))
        .expect("at least two backends");
    backends[victim].kill();
    let (failover_rps, failover_wall) = timed_rounds(
        &mut client,
        &sources,
        config,
        rounds,
        &reference,
        "failover",
    );

    let status = client.call(&Request::Status).expect("fleet status");
    let rerouted = gateway_counter(&status.output, "rerouted");
    let ejected = gateway_counter(&status.output, "ejected");
    let overhead = direct_rps / gateway_rps.max(1e-9);
    assert!(rerouted > 0, "killing a warm backend must reroute requests");

    if json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cache_lines\": {cache_lines},\n"));
        out.push_str(&format!("  \"programs\": {programs},\n"));
        out.push_str(&format!("  \"rounds\": {rounds},\n"));
        out.push_str(&format!("  \"backends\": {fleet},\n"));
        out.push_str(&format!(
            "  \"direct_wall_secs\": {:.6},\n",
            direct_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"gateway_wall_secs\": {:.6},\n",
            gateway_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"failover_wall_secs\": {:.6},\n",
            failover_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"direct_warm_requests_per_sec\": {direct_rps:.3},\n"
        ));
        out.push_str(&format!(
            "  \"gateway_warm_requests_per_sec\": {gateway_rps:.3},\n"
        ));
        out.push_str(&format!(
            "  \"failover_warm_requests_per_sec\": {failover_rps:.3},\n"
        ));
        out.push_str(&format!("  \"gateway_overhead\": {overhead:.3},\n"));
        out.push_str(&format!("  \"rerouted\": {rerouted},\n"));
        out.push_str(&format!("  \"ejected\": {ejected},\n"));
        out.push_str("  \"responses_deterministic\": true\n}");
        println!("{out}");
    } else {
        let total = rounds * programs;
        let rows = vec![
            vec![
                "direct (1 server)".to_string(),
                fmt_secs(direct_wall),
                format!("{direct_rps:.1}"),
            ],
            vec![
                format!("gateway ({fleet} backends)"),
                fmt_secs(gateway_wall),
                format!("{gateway_rps:.1}"),
            ],
            vec![
                "gateway (1 killed)".to_string(),
                fmt_secs(failover_wall),
                format!("{failover_rps:.1}"),
            ],
        ];
        print_table(
            &format!(
                "Gateway failover ({rounds} warm rounds x {programs} programs = \
                 {total} requests per phase, {cache_lines}-line cache)"
            ),
            &["Path", "Wall (s)", "Warm req/s"],
            &rows,
        );
        println!(
            "\nGateway overhead {overhead:.2}x; {rerouted} request(s) rerouted and \
             {ejected} backend(s) ejected after the kill.  All responses were \
             byte-identical to their direct counterparts (post timing-strip)."
        );
    }
}
