//! Artifact-equivalence property suite: the persistent store must be
//! invisible in results and harmless when corrupted.
//!
//! Random programs are driven through three layers:
//!
//! * [`PreparedStore`] directly: a save/load round trip must reproduce the
//!   cold session's suite report byte-for-byte (post timing-strip), with
//!   the memoized fixpoint rounds replayed rather than recomputed;
//! * a live `specan serve --artifact-dir` process that is **hard-killed**
//!   (no shutdown handshake) and restarted over the same directory: the
//!   second life must answer byte-identically from disk-loaded artifacts;
//! * corrupted stores: truncations, flipped payload bytes, stale format
//!   versions and mismatched header fields must all fall back to a clean
//!   cold prepare — never a panic, never a stale answer — with the
//!   offending file quarantined, and `specan artifacts verify`/`gc` must
//!   surface and sweep the damage.
//!
//! Like the other property suites, the generator is a deterministic
//! xorshift PRNG, so a failure reproduces from the printed case number.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use spec_bench::service_harness::{
    random_program_text, strip_analyze_timing, Rng, Scratch, ServeProcess,
};
use speculative_absint::cache::CacheConfig;
use speculative_absint::core::artifact::artifact_key;
use speculative_absint::core::cache_session::{CacheOutcome, CacheSession};
use speculative_absint::core::incremental::SessionCache;
use speculative_absint::core::session::{comparison_configs, Analyzer, PreparedProgram};
use speculative_absint::core::PreparedStore;
use speculative_absint::ir::fingerprint::program_fingerprint;
use speculative_absint::ir::text::parse_program;
use speculative_absint::ir::Program;
use speculative_absint::workloads::ete_workload;

const CASES: u64 = 4;

fn cache() -> CacheConfig {
    CacheConfig::fully_associative(8, 64)
}

/// Runs the comparison panel and renders the stripped reference report:
/// what any session — cold, loaded, or recovered from corruption — must
/// reproduce exactly.
fn panel_report(prepared: &PreparedProgram) -> String {
    prepared
        .run_suite(&comparison_configs(cache()))
        .report()
        .without_timing()
        .to_json()
}

fn parse(source: &str) -> Program {
    parse_program(source).expect("generated programs parse")
}

// ---------------------------------------------------------------------------
// Store layer: save/load round trips.
// ---------------------------------------------------------------------------

#[test]
fn store_round_trips_reproduce_cold_reports_bit_for_bit() {
    let scratch = Scratch::new("specan-artifact-roundtrip");
    let analyzer = Analyzer::new();
    let store = PreparedStore::open(scratch.dir());
    let mut rng = Rng::new(0xa21f_ac75);

    // Random programs under the suite's panel, plus one ETE workload at
    // the scale the paper's tables start from.
    const ETE_LINES: u64 = 16;
    let mut inputs: Vec<(String, Program, CacheConfig)> = (0..CASES)
        .map(|case| {
            let text = random_program_text(&mut rng, &format!("rt{case}"));
            (format!("case {case}"), parse(&text), cache())
        })
        .collect();
    inputs.push((
        "ete jcphuff".to_string(),
        ete_workload("jcphuff", ETE_LINES).program,
        CacheConfig::fully_associative(ETE_LINES as usize, 64),
    ));

    for (label, program, cache) in inputs {
        let panel = |prepared: &PreparedProgram| {
            prepared
                .run_suite(&comparison_configs(cache))
                .report()
                .without_timing()
                .to_json()
        };
        let prepared = analyzer.prepare(&program);
        let expected = panel(&prepared);

        let written = store.save(&prepared).expect("artifact saves");
        assert!(written > 0, "{label}: artifacts are not empty");
        let (restored, loaded) = store
            .load(&analyzer, program_fingerprint(&program))
            .expect("a just-saved artifact loads");
        // `save` reports header + payload; `load` reports the payload the
        // counters account for.  The difference is the fixed 44-byte header.
        assert_eq!(written, loaded + 44, "{label}: loaded bytes match written");
        assert_eq!(
            restored.program(),
            &program,
            "{label}: the restored program is structurally identical"
        );

        assert_eq!(
            panel(&restored),
            expected,
            "{label}: a loaded session must reproduce the cold report"
        );
        // The panel above ran entirely from the artifact's memoized rounds:
        // a restored store is warm, not merely correct.
        assert_eq!(
            restored.cache_stats().round_misses,
            0,
            "{label}: memoized fixpoint rounds survive the round trip"
        );
    }
}

// ---------------------------------------------------------------------------
// Corruption robustness: every damaged file falls back to a cold prepare.
// ---------------------------------------------------------------------------

/// The on-disk path of `program`'s artifact inside `dir`.
fn artifact_path(dir: &Path, program: &Program) -> PathBuf {
    let key = artifact_key(program_fingerprint(program), program.name());
    dir.join(format!("{key:016x}.artifact"))
}

/// Applies `mutate` to the raw bytes of `path` and writes them back.
fn corrupt(path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).expect("artifact file reads");
    mutate(&mut bytes);
    std::fs::write(path, bytes).expect("corrupted artifact writes");
}

/// A named corruption: the label and the byte mutation it applies.
type Corruption = (&'static str, Box<dyn FnOnce(&mut Vec<u8>)>);

#[test]
fn corrupted_artifacts_fall_back_to_cold_prepare_and_quarantine() {
    // One corruption scenario per (label, mutation) — each exercises a
    // distinct rejection path in the header/checksum validation chain.
    let scenarios: Vec<Corruption> = vec![
        (
            "truncated-header",
            Box::new(|b: &mut Vec<u8>| b.truncate(20)),
        ),
        (
            "truncated-payload",
            Box::new(|b: &mut Vec<u8>| {
                let keep = 44 + (b.len() - 44) / 2;
                b.truncate(keep);
            }),
        ),
        (
            "flipped-payload-byte",
            Box::new(|b: &mut Vec<u8>| {
                let last = b.len() - 1;
                b[last] ^= 0xff;
            }),
        ),
        (
            "stale-format-version",
            Box::new(|b: &mut Vec<u8>| b[8..12].copy_from_slice(&99u32.to_le_bytes())),
        ),
        (
            "mismatched-fingerprint",
            Box::new(|b: &mut Vec<u8>| b[12] ^= 0xff),
        ),
        (
            "mismatched-signature",
            Box::new(|b: &mut Vec<u8>| b[20] ^= 0xff),
        ),
        ("bad-magic", Box::new(|b: &mut Vec<u8>| b[0] ^= 0xff)),
    ];

    let scratch = Scratch::new("specan-artifact-corruption");
    let analyzer = Analyzer::new();
    let mut rng = Rng::new(0xc0de_dead);

    for (label, mutation) in scenarios {
        let dir = scratch.dir().join(label);
        let store = PreparedStore::open(&dir);
        let program = parse(&random_program_text(&mut rng, label));
        let fingerprint = program_fingerprint(&program);

        // Write a valid artifact, then damage it.
        let prepared = analyzer.prepare(&program);
        let expected = panel_report(&prepared);
        store.save(&prepared).expect("artifact saves");
        let path = artifact_path(&dir, &program);
        corrupt(&path, mutation);

        // The direct load must refuse cleanly and quarantine the file.
        assert!(
            store
                .load_named(&analyzer, fingerprint, program.name())
                .is_none(),
            "{label}: a corrupted artifact must not load"
        );
        assert!(!path.exists(), "{label}: the damaged file is quarantined");
        let rejected: Vec<_> = std::fs::read_dir(&dir)
            .expect("store dir lists")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".rejected"))
            .collect();
        assert_eq!(rejected.len(), 1, "{label}: exactly one quarantined file");

        // A session front over the damaged store falls back to a cold
        // prepare — same report as ever — and the commit's write-through
        // heals the store.
        let session =
            CacheSession::new(SessionCache::new().artifact_store(PreparedStore::open(&dir)));
        let guard = match session.acquire(&program) {
            CacheOutcome::NeedsPrepare(guard) => guard,
            other => panic!(
                "{label}: nothing loadable remains after quarantine, got `{}`",
                other.tag()
            ),
        };
        let prepared = guard.prepare(&program);
        assert_eq!(
            panel_report(&prepared),
            expected,
            "{label}: the cold fallback must reproduce the reference report"
        );
        let stats = session.stats();
        assert_eq!(stats.store_hits, 0, "{label}: no hit came from the store");
        assert!(stats.store_misses >= 1, "{label}: the miss was counted");

        // The cold prepare was written back when the guard committed: a
        // fresh session now restores from disk again.
        let healed =
            CacheSession::new(SessionCache::new().artifact_store(PreparedStore::open(&dir)));
        match healed.acquire(&program) {
            CacheOutcome::StoreHit(_) => {}
            other => panic!("{label}: healed via the store, got `{}`", other.tag()),
        };
    }
}

// ---------------------------------------------------------------------------
// Service layer: hard-kill and restart over the same artifact directory.
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

/// Extracts the integer following `"key": ` in a JSON status blob.
fn status_counter(status: &str, key: &str) -> u64 {
    status
        .split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("status reports {key}: {status}"))
}

#[test]
fn killed_and_restarted_server_answers_byte_identically_from_the_store() {
    let specan_bin = Path::new(env!("CARGO_BIN_EXE_specan"));
    let scratch = Scratch::new("specan-artifact-restart");
    let artifact_dir = scratch.dir().join("artifacts");
    let artifact_dir_str = artifact_dir.to_str().unwrap().to_string();
    let mut rng = Rng::new(0x5708_e001);

    let mut paths = Vec::new();
    for i in 0..4 {
        let name = format!("life{i}");
        let path = scratch.write(
            &format!("{name}.spec"),
            &random_program_text(&mut rng, &name),
        );
        paths.push(path);
    }

    // Life 1: a cold server fills the store as it prepares.
    let mut life1 =
        ServeProcess::start_with_args(specan_bin, 2, &["--artifact-dir", &artifact_dir_str]);
    let mut first_life = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let out = submit(
            &life1,
            &[
                "analyze",
                path.to_str().unwrap(),
                "--cache-lines",
                "8",
                "--json",
            ],
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "life 1 program {i}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        first_life.push(stdout_of(&out));
    }
    let status = stdout_of(&submit(&life1, &["status"]));
    assert_eq!(
        status_counter(&status, "store_hits"),
        0,
        "the first life prepared everything cold"
    );
    // No shutdown handshake: the server dies as if the machine went down.
    life1.kill();

    // The store survives the dead process and verifies clean.
    let verify = specan(&["artifacts", "verify", "--artifact-dir", &artifact_dir_str]);
    assert_eq!(
        verify.status.code(),
        Some(0),
        "artifacts verify after the kill: {}",
        String::from_utf8_lossy(&verify.stderr)
    );

    // Life 2: a fresh server over the same directory answers every request
    // from disk — byte-identically, with the hits on the record.
    let mut life2 =
        ServeProcess::start_with_args(specan_bin, 2, &["--artifact-dir", &artifact_dir_str]);
    for (i, path) in paths.iter().enumerate() {
        let out = submit(
            &life2,
            &[
                "analyze",
                path.to_str().unwrap(),
                "--cache-lines",
                "8",
                "--json",
            ],
        );
        assert_eq!(out.status.code(), Some(0), "life 2 program {i}");
        assert_eq!(
            strip_analyze_timing(&stdout_of(&out)),
            strip_analyze_timing(&first_life[i]),
            "life 2 program {i}: the restart must be invisible"
        );
    }
    let status = stdout_of(&submit(&life2, &["status"]));
    assert_eq!(
        status_counter(&status, "store_hits"),
        paths.len() as u64,
        "every second-life request was served from the store: {status}"
    );
    assert!(
        status_counter(&status, "store_loaded_bytes") > 0,
        "the loads moved real bytes: {status}"
    );
    life2.shutdown();
}

// ---------------------------------------------------------------------------
// CLI layer: `specan artifacts verify` and `gc` against a damaged store.
// ---------------------------------------------------------------------------

#[test]
fn artifacts_verify_flags_corruption_and_gc_sweeps_the_quarantine() {
    let scratch = Scratch::new("specan-artifact-cli");
    let artifact_dir = scratch.dir().join("artifacts");
    let artifact_dir_str = artifact_dir.to_str().unwrap().to_string();
    let mut rng = Rng::new(0x6c1e_a11b);
    let source = random_program_text(&mut rng, "clip");
    let spec = scratch.write("clip.spec", &source);
    let spec_str = spec.to_str().unwrap();

    // Populate the store through the CLI's own incremental path.  Each
    // call gets a fresh output-session directory so the output replay
    // never short-circuits the artifact-store path under test.
    let analyze = |label: &str| {
        let session_dir = scratch.dir().join(format!("session-{label}"));
        let out = specan(&[
            "analyze",
            spec_str,
            "--incremental",
            "--session-dir",
            session_dir.to_str().unwrap(),
            "--artifact-dir",
            &artifact_dir_str,
            "--cache-lines",
            "8",
            "--json",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "analyze ({label}): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let cold = analyze("cold");
    let verify = specan(&["artifacts", "verify", "--artifact-dir", &artifact_dir_str]);
    assert_eq!(
        verify.status.code(),
        Some(0),
        "a fresh store verifies clean"
    );

    // Damage the artifact: verify must fail loudly without quarantining.
    let path = artifact_path(&artifact_dir, &parse(&source));
    corrupt(&path, |b| {
        let last = b.len() - 1;
        b[last] ^= 0xff;
    });
    let verify = specan(&["artifacts", "verify", "--artifact-dir", &artifact_dir_str]);
    assert_eq!(
        verify.status.code(),
        Some(2),
        "a corrupted store fails verification: {}",
        stdout_of(&verify)
    );
    assert!(path.exists(), "verify is read-only: no quarantine");

    // The analyze path recovers: cold fallback, identical output.  The
    // damaged file is quarantined on load, then the save-through both
    // heals the store and (via the gc pass every save runs) sweeps the
    // quarantine in the same breath.
    let recovered = analyze("recovered");
    assert_eq!(
        strip_analyze_timing(&stdout_of(&recovered)),
        strip_analyze_timing(&stdout_of(&cold)),
        "corruption must be invisible in analyze output"
    );
    let rejected_count = || {
        std::fs::read_dir(&artifact_dir)
            .expect("store dir lists")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".rejected"))
            .count()
    };
    assert_eq!(
        rejected_count(),
        0,
        "the save-through's gc swept the quarantine"
    );
    assert!(path.exists(), "the store was healed by the write-through");

    // A stray quarantine file (say, from a process that died mid-recovery)
    // is `artifacts gc`'s job to sweep.
    std::fs::write(
        artifact_dir.join("00000000deadbeef.artifact.rejected"),
        b"leftover",
    )
    .expect("stray rejected file writes");
    assert_eq!(rejected_count(), 1);
    let gc = specan(&["artifacts", "gc", "--artifact-dir", &artifact_dir_str]);
    assert_eq!(gc.status.code(), Some(0), "gc runs");
    assert_eq!(rejected_count(), 0, "gc removed the quarantined file");
    let verify = specan(&["artifacts", "verify", "--artifact-dir", &artifact_dir_str]);
    assert_eq!(verify.status.code(), Some(0), "the healed store verifies");
}
