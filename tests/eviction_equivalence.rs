//! Eviction-equivalence property suite: byte-budgeted sessions must be
//! invisible in results.
//!
//! Random program sets × random byte budgets — including budgets that
//! force a thrash (every request evicts) — are driven through two layers:
//!
//! * a [`CacheSession`] front over a budgeted [`SessionCache`]: every suite
//!   report acquired through a budgeted session must serialize to exactly
//!   the bytes of a fresh, session-free run once the timing fields are
//!   stripped, the resident-bytes invariant must hold after every
//!   checkpoint, and the one ledger must reconcile — both
//!   `inserted - session_evictions = resident entries` and every acquire
//!   landing in exactly one tier counter;
//! * a live `specan serve --max-session-bytes` process (via the shared
//!   `spec_bench::service_harness`): responses from a thrashing server
//!   must be byte-identical, post timing-strip, to an unbounded server's.
//!
//! Like the other property suites, the generator is a deterministic
//! xorshift PRNG, so a failure reproduces from the printed case number.

use std::path::Path;
use std::process::{Command, Output};

use spec_bench::service_harness::{
    random_program_text, strip_analyze_timing, Rng, Scratch, ServeProcess,
};
use speculative_absint::cache::CacheConfig;
use speculative_absint::core::cache_session::{CacheOutcome, CacheSession};
use speculative_absint::core::incremental::SessionCache;
use speculative_absint::core::session::{comparison_configs, Analyzer, PreparedProgram};
use speculative_absint::ir::text::parse_program;

const CASES: u64 = 4;
const PROGRAMS_PER_CASE: usize = 4;

/// The stripped reference rendering of one program under the comparison
/// panel: what any session — warm, evicted, re-prepared — must reproduce.
fn fresh_report(source: &str, cache: CacheConfig) -> String {
    let program = parse_program(source).expect("generated programs parse");
    let prepared = Analyzer::new().prepare(&program);
    prepared
        .run_suite(&comparison_configs(cache))
        .report()
        .without_timing()
        .to_json()
}

/// Resolves one program through the session front's acquire/commit
/// protocol, whichever tier answers.
fn acquire_any(sessions: &CacheSession, source: &str) -> std::sync::Arc<PreparedProgram> {
    let program = parse_program(source).expect("generated programs parse");
    match sessions.acquire(&program) {
        CacheOutcome::L0Hit(prepared)
        | CacheOutcome::WarmHit(prepared)
        | CacheOutcome::StoreHit(prepared) => prepared,
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(&program),
    }
}

/// One pass of a program sequence through a session front, mirroring the
/// service's request loop: acquire, run the panel, checkpoint (which
/// enforces the budget).  Returns the stripped reports in sequence order.
fn drive_session(sessions: &CacheSession, sources: &[&str], cache: CacheConfig) -> Vec<String> {
    sources
        .iter()
        .map(|source| {
            let prepared = acquire_any(sessions, source);
            let report = prepared
                .run_suite(&comparison_configs(cache))
                .report()
                .without_timing()
                .to_json();
            sessions.checkpoint();
            if let Some(budget) = sessions.budget() {
                assert!(
                    sessions.resident_bytes() <= budget,
                    "resident {} bytes > budget {budget} after enforcement",
                    sessions.resident_bytes()
                );
            }
            assert!(
                sessions.stats().reconciles(),
                "every acquire lands in exactly one tier counter"
            );
            report
        })
        .collect()
}

#[test]
fn budgeted_sessions_reproduce_fresh_reports_bit_for_bit() {
    let cache = CacheConfig::fully_associative(8, 64);
    let mut rng = Rng::new(0xeb1c_7ed5);
    for case in 0..CASES {
        let names: Vec<String> = (0..PROGRAMS_PER_CASE).map(|i| format!("p{i}")).collect();
        let texts: Vec<String> = names
            .iter()
            .map(|name| random_program_text(&mut rng, name))
            .collect();
        // Visit each program twice, in a shuffled order, so warm rebinds,
        // evicted re-preparations and plain inserts all occur.
        let mut order: Vec<&str> = texts
            .iter()
            .chain(texts.iter())
            .map(String::as_str)
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let expected: Vec<String> = order.iter().map(|s| fresh_report(s, cache)).collect();

        // Calibrate budgets against measured per-program entry sizes (the
        // deterministic HeapSize estimate of a ran-in session), so the
        // sweep covers "fits nothing" through "fits everything" however
        // heavy the generated programs are.
        let entry_bytes: Vec<u64> = texts
            .iter()
            .map(|text| {
                let probe = CacheSession::new(SessionCache::new());
                drive_session(&probe, &[text.as_str()], cache);
                probe.resident_bytes()
            })
            .collect();
        let min_entry = *entry_bytes.iter().min().unwrap();
        let max_entry = *entry_bytes.iter().max().unwrap();
        assert!(min_entry > 0, "prepared sessions own heap memory");
        let budgets = [
            Some(0),              // thrash: every request evicts its own entry
            Some(min_entry / 2),  // thrash: no ran-in entry ever fits
            Some(max_entry * 2),  // partial: a working set of a few programs
            Some(max_entry * 64), // roomy: no evictions at all
            None,                 // unbounded reference
        ];
        for budget in budgets {
            let session = CacheSession::new(match budget {
                Some(bytes) => SessionCache::new().max_session_bytes(bytes),
                None => SessionCache::new(),
            });
            let got = drive_session(&session, &order, cache);
            assert_eq!(
                got, expected,
                "case {case}, budget {budget:?}: budgeted reports must be \
                 byte-identical to fresh session-free runs"
            );
            let stats = session.stats();
            assert_eq!(
                stats.inserted - stats.session_evictions,
                session.len() as u64,
                "case {case}, budget {budget:?}: installs minus evictions \
                 must equal the resident entries"
            );
            assert_eq!(stats.session_bytes, session.resident_bytes());
            match budget {
                // A sub-entry budget keeps nothing resident and evicts on
                // every sighting (each insert is followed by its eviction,
                // whose generation bump unseats the worker's L0 handle).
                Some(bytes) if bytes < min_entry => {
                    assert_eq!(session.len(), 0, "case {case}: nothing fits");
                    assert_eq!(stats.session_evictions, stats.inserted);
                    assert_eq!(
                        stats.l0_hits + stats.l1_hits,
                        0,
                        "nothing survives to be served warm"
                    );
                }
                Some(_) => {}
                None => {
                    assert_eq!(stats.session_evictions, 0, "unbounded never evicts");
                    assert!(
                        stats.l0_hits + stats.l1_hits > 0,
                        "second visits are served from a warm tier"
                    );
                }
            }
        }
    }
}

/// The acquire/commit protocol the service pool uses keeps its contract
/// under a byte budget: an eviction's generation bump turns the next
/// acquire into a miss (never a stale hit — not even from the worker's own
/// lock-free L0 handle), a commit over budget evicts at the checkpoint,
/// and results never change.
#[test]
fn two_phase_resolve_stays_correct_under_eviction() {
    let cache = CacheConfig::fully_associative(8, 64);
    let mut rng = Rng::new(0x2fa5_0e01);
    let a = random_program_text(&mut rng, "alpha");
    let b = random_program_text(&mut rng, "beta");
    let parse = |s: &str| parse_program(s).unwrap();

    // Budget sized to hold either program alone but never both: at least
    // the bigger ran-in entry, strictly below their sum.
    let probe_bytes = |text: &str| {
        let probe = CacheSession::new(SessionCache::new());
        drive_session(&probe, &[text], cache);
        probe.resident_bytes()
    };
    let (a_bytes, b_bytes) = (probe_bytes(&a), probe_bytes(&b));
    let budget = a_bytes.max(b_bytes) + a_bytes.min(b_bytes) / 2;
    let session = CacheSession::new(SessionCache::new().max_session_bytes(budget));

    // Cold alpha: resolved through the guard, ran in, checkpointed.
    let pa = match session.acquire(&parse(&a)) {
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(&parse(&a)),
        other => panic!("cold acquire must miss, got `{}`", other.tag()),
    };
    pa.run_suite(&comparison_configs(cache));
    session.checkpoint();
    match session.acquire(&parse(&a)) {
        CacheOutcome::L0Hit(_) | CacheOutcome::WarmHit(_) => {}
        other => panic!("alpha resident, got `{}`", other.tag()),
    };

    // Preparing (and running) beta pushes the session over budget; alpha
    // is the LRU victim at the checkpoint.
    let pb = match session.acquire(&parse(&b)) {
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(&parse(&b)),
        other => panic!("cold acquire must miss, got `{}`", other.tag()),
    };
    pb.run_suite(&comparison_configs(cache));
    session.checkpoint();
    match session.acquire(&parse(&b)) {
        CacheOutcome::L0Hit(_) | CacheOutcome::WarmHit(_) => {}
        other => panic!("beta resident, got `{}`", other.tag()),
    };
    // The eviction's generation bump unseats alpha's L0 handle too: the
    // acquire walks every tier and misses instead of replaying a handle
    // the session no longer owns.
    let guard = match session.acquire(&parse(&a)) {
        CacheOutcome::NeedsPrepare(guard) => guard,
        other => panic!(
            "alpha was evicted, acquire must miss, got `{}`",
            other.tag()
        ),
    };
    assert!(session.stats().session_evictions >= 1);

    // Re-preparing alpha after its eviction reproduces the fresh report.
    let re = guard.prepare(&parse(&a));
    let report = re
        .run_suite(&comparison_configs(cache))
        .report()
        .without_timing()
        .to_json();
    assert_eq!(report, fresh_report(&a, cache));
    let stats = session.stats();
    assert_eq!(
        stats.inserted - stats.session_evictions,
        session.len() as u64
    );
    assert!(stats.reconciles());
}

// ---------------------------------------------------------------------------
// Service layer: a live `specan serve --max-session-bytes` process.
// ---------------------------------------------------------------------------

fn specan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specan"))
        .args(args)
        .output()
        .expect("specan runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn submit(server: &ServeProcess, args: &[&str]) -> Output {
    let mut full = vec!["submit", "--addr", server.addr()];
    full.extend_from_slice(args);
    specan(&full)
}

#[test]
fn thrashing_server_responses_match_an_unbounded_server() {
    // One byte fits no prepared program: the bounded server evicts after
    // every request — the extreme end of the budget sweep — while the
    // unbounded server keeps everything warm.  Their responses must agree
    // byte-for-byte once the wall clocks are stripped.
    let specan_bin = Path::new(env!("CARGO_BIN_EXE_specan"));
    let bounded = ServeProcess::start_with_args(specan_bin, 2, &["--max-session-bytes", "1"]);
    let unbounded = ServeProcess::start(specan_bin, 2);
    let scratch = Scratch::new("specan-eviction-equiv");
    let mut rng = Rng::new(0x5e47_e001);

    let mut paths = Vec::new();
    for i in 0..4 {
        let name = format!("srv{i}");
        let path = scratch.write(
            &format!("{name}.spec"),
            &random_program_text(&mut rng, &name),
        );
        paths.push(path);
    }

    for round in 0..2 {
        for (i, path) in paths.iter().enumerate() {
            let path = path.to_str().unwrap();
            let args = ["analyze", path, "--cache-lines", "8", "--json"];
            let cold = submit(&bounded, &args);
            let warm = submit(&unbounded, &args);
            assert_eq!(
                cold.status.code(),
                Some(0),
                "round {round} program {i}: {}",
                String::from_utf8_lossy(&cold.stderr)
            );
            assert_eq!(
                strip_analyze_timing(&stdout_of(&cold)),
                strip_analyze_timing(&stdout_of(&warm)),
                "round {round} program {i}: eviction must be invisible"
            );
        }
        // Scan responses are timing-free: exact equality, same exit code.
        let dir = scratch.dir().to_str().unwrap();
        let args = ["scan", dir, "--cache-lines", "8", "--json"];
        let cold = submit(&bounded, &args);
        let warm = submit(&unbounded, &args);
        assert_eq!(cold.status.code(), warm.status.code());
        assert_eq!(stdout_of(&cold), stdout_of(&warm), "round {round}: scan");
    }

    // The bounded server really was thrashing: nothing resident, and
    // every install was followed by an eviction.
    let status = stdout_of(&submit(&bounded, &["status"]));
    assert!(
        status.contains("\"programs\": 0"),
        "a 1-byte budget keeps nothing: {status}"
    );
    let evictions: u64 = status
        .split("\"session_evictions\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("status reports evictions");
    assert!(evictions > 0, "the thrash must be visible: {status}");

    // ...while the unbounded server never evicted.
    let status = stdout_of(&submit(&unbounded, &["status"]));
    assert!(
        status.contains("\"session_evictions\": 0"),
        "unbounded never evicts: {status}"
    );
}
