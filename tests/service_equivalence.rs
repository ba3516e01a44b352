//! Property suite for the analysis service: for random programs × random
//! edits, `specan submit` responses from a **warm** server are
//! byte-identical — after the timing strip — to fresh one-shot `specan
//! analyze`/`scan` runs.
//!
//! The server process stays up across every case, so its shared
//! `SessionCache` accumulates warm `PreparedProgram`s and the edits
//! exercise fingerprint invalidation, not just cold paths.  Scan reports
//! are timing-free, so those comparisons are exact; `analyze` output
//! carries per-run wall clocks, which the strip zeroes on both sides
//! (mirroring what the CI gates' `sed` does).
//!
//! Like `property_soundness`, the generator is a deterministic xorshift
//! PRNG, so a failure reproduces from the printed case number.

use std::path::Path;
use std::process::{Command, Output};

use spec_bench::service_harness::{
    random_program_text, strip_analyze_timing, Rng, Scratch, ServeProcess,
};

const CASES: u64 = 6;

fn specan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specan"))
        .args(args)
        .output()
        .expect("specan runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// A `specan serve` child on an ephemeral port (shared harness), plus a
/// `specan submit` runner bound to its address.
struct Server(ServeProcess);

impl Server {
    fn start() -> Self {
        Self(ServeProcess::start(
            Path::new(env!("CARGO_BIN_EXE_specan")),
            2,
        ))
    }

    fn submit(&self, args: &[&str]) -> Output {
        let mut full = vec!["submit", "--addr", self.0.addr()];
        full.extend_from_slice(args);
        specan(&full)
    }
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

#[test]
fn warm_server_responses_match_fresh_one_shot_runs() {
    let server = Server::start();
    let scratch = Scratch::new("specan-service-equiv");
    let mut rng = Rng::new(0x5eca_2024);
    let dir = path_str(scratch.dir()).to_string();

    // Two programs live in the bundle for the whole test; each case edits
    // one of them in place, so the server's cache sees a mix of warm
    // rebinds and fingerprint invalidations every round.
    scratch.write("alpha.spec", &random_program_text(&mut rng, "alpha"));
    scratch.write("beta.spec", &random_program_text(&mut rng, "beta"));

    for case in 0..CASES {
        // Randomly edit one program (a regeneration is an in-place edit);
        // the other stays warm.
        let victim = if rng.below(2) == 0 { "alpha" } else { "beta" };
        let edited = random_program_text(&mut rng, victim);
        let victim_path = scratch.write(&format!("{victim}.spec"), &edited);
        let victim_path = path_str(&victim_path);

        // analyze: warm server vs fresh one-shot, byte-identical after the
        // timing strip.  Submit twice so at least one response comes from a
        // fully warm (fingerprint-rebound) session.
        let fresh = specan(&["analyze", victim_path, "--cache-lines", "8", "--json"]);
        assert_eq!(fresh.status.code(), Some(0), "case {case}: fresh analyze");
        for round in 0..2 {
            let served = server.submit(&["analyze", victim_path, "--cache-lines", "8", "--json"]);
            assert_eq!(
                served.status.code(),
                Some(0),
                "case {case}.{round}: served analyze ({})",
                String::from_utf8_lossy(&served.stderr)
            );
            assert_eq!(
                strip_analyze_timing(&stdout_of(&served)),
                strip_analyze_timing(&stdout_of(&fresh)),
                "case {case}.{round}: analyze responses must match the one-shot run"
            );
        }

        // scan: reports are timing-free, so the comparison is exact — and
        // the exit code (leak gate) must agree too.
        let fresh = specan(&["scan", &dir, "--cache-lines", "8", "--json"]);
        let served = server.submit(&["scan", &dir, "--cache-lines", "8", "--json"]);
        assert_eq!(
            served.status.code(),
            fresh.status.code(),
            "case {case}: scan exit codes must agree"
        );
        assert_eq!(
            stdout_of(&served),
            stdout_of(&fresh),
            "case {case}: scan responses must be byte-identical"
        );
    }

    // The server really was warm: its session counters saw reuse.
    let status = server.submit(&["status"]);
    let status = stdout_of(&status);
    assert!(
        status.contains("\"programs\": 2"),
        "both programs live in the cache: {status}"
    );
    let reused: u64 = status
        .split("\"reused\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("status reports reuse");
    assert!(reused > 0, "warm sessions must be rebound: {status}");
}

#[test]
fn rename_only_edits_render_current_names() {
    let server = Server::start();
    let scratch = Scratch::new("specan-service-equiv");
    let source = "program rn\nregion table 768\nregion flag 8\n\nblock main entry:\n  \
                  load table[0]\n  load flag[0]\n  load table[secret*64]\n  ret\n";
    let path = scratch.write("rn.spec", source);
    let path = path_str(&path);
    let served = server.submit(&["analyze", path, "--cache-lines", "8", "--json"]);
    assert_eq!(served.status.code(), Some(0));

    // Rename the region everywhere: the structural fingerprint is
    // name-free, so the session rebinds — but analyze output embeds the
    // names, and the server must render the *current* ones, exactly like a
    // fresh one-shot run.
    let renamed = source.replace("table", "lut");
    scratch.write("rn.spec", &renamed);
    let served = server.submit(&["analyze", path, "--cache-lines", "8", "--json"]);
    assert_eq!(served.status.code(), Some(0));
    let fresh = specan(&["analyze", path, "--cache-lines", "8", "--json"]);
    assert_eq!(
        strip_analyze_timing(&stdout_of(&served)),
        strip_analyze_timing(&stdout_of(&fresh)),
        "a rename-only edit must not replay the previous names"
    );
    assert!(stdout_of(&served).contains("\"lut\""));
    assert!(!stdout_of(&served).contains("\"table\""));

    // The swapped entry is warm again for the next unchanged submission.
    let again = server.submit(&["analyze", path, "--cache-lines", "8", "--json"]);
    assert_eq!(
        strip_analyze_timing(&stdout_of(&again)),
        strip_analyze_timing(&stdout_of(&served))
    );
}

#[test]
fn submit_rejects_flags_that_cannot_travel() {
    let server = Server::start();
    let out = server.submit(&["analyze", "x.spec", "--shard", "1/2"]);
    assert_eq!(out.status.code(), Some(2));
    let out = server.submit(&["analyze", "x.spec", "--incremental"]);
    assert_eq!(out.status.code(), Some(2));
    let out = server.submit(&["scan", ".", "--jobs", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let out = server.submit(&["scan", ".", "--session-dir", "s"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "the store lives inside the server"
    );
    let out = server.submit(&["leaks", "x.spec"]);
    assert_eq!(out.status.code(), Some(2), "leaks is not served");
}

#[test]
fn compare_submission_matches_one_shot_output() {
    let server = Server::start();
    let scratch = Scratch::new("specan-service-equiv");
    let mut rng = Rng::new(0xc0_fee);
    let path = scratch.write("gamma.spec", &random_program_text(&mut rng, "gamma"));
    let path = path_str(&path);

    // Single-file compare carries wall clocks and cache counters; strip
    // the JSON clock fields and the session_cache stanza on both sides.
    let strip = |out: &str| -> String {
        out.lines()
            .filter(|line| !line.contains("\"session_cache\""))
            .filter(|line| !line.contains("\"suite_elapsed_secs\""))
            .map(|line| {
                if let Some(at) = line.find("\"time_secs\": ") {
                    format!("{}\"time_secs\": 0}}", &line[..at])
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let fresh = specan(&["compare", path, "--cache-lines", "8", "--json"]);
    let served = server.submit(&["compare", path, "--cache-lines", "8", "--json"]);
    assert_eq!(served.status.code(), Some(0));
    assert_eq!(strip(&stdout_of(&served)), strip(&stdout_of(&fresh)));
}
