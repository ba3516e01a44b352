//! End-to-end tests of the batch layer through the `specan` binary: the
//! `scan` subcommand, thread and `--shard K/N` slicing, merged-report
//! determinism and the bundle flags on `analyze`/`compare`.

use std::process::{Command, Output};

const PROGRAMS_DIR: &str = "examples/programs";
const VICTIM: &str = "examples/programs/victim.spec";
const CT_SBOX: &str = "examples/programs/ct_sbox.spec";
const COLD_LOOKUP: &str = "examples/programs/cold_lookup.spec";

fn specan(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specan"))
        .args(args)
        .output()
        .expect("specan runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn scan_exits_one_iff_any_program_leaks() {
    // The bundle contains cold_lookup, which leaks at every cache size.
    let out = specan(&["scan", PROGRAMS_DIR, "--json"]);
    assert_eq!(out.status.code(), Some(1), "a leaking bundle must exit 1");
    let stdout = stdout_of(&out);
    assert!(stdout.contains("\"program\": \"cold_lookup\""));
    assert!(stdout.contains("\"leak\": true"));
    // The always-leaky program is the *only* leak: the constant-time
    // program (and the victim, clean at 512 lines) must not be flagged.
    assert!(stdout.contains("\"program\": \"ct_sbox\""));
    assert!(stdout.contains("\"leaks\": 1"), "{stdout}");

    // A clean-only bundle exits 0.
    let out = specan(&["scan", CT_SBOX, "--json"]);
    assert_eq!(out.status.code(), Some(0), "a clean bundle must exit 0");
    assert!(stdout_of(&out).contains("\"leaks\": 0"));
}

#[test]
fn sharded_scan_is_bit_identical_to_the_in_order_run() {
    // The in-order reference: one thread, one slice.
    let reference = specan(&["scan", PROGRAMS_DIR, "--json", "--jobs", "1"]);
    assert_eq!(reference.status.code(), Some(1));
    let reference = stdout_of(&reference);
    assert!(
        reference.matches("\"program\":").count() >= 3,
        "the example bundle must hold at least three programs"
    );
    // Any thread count gives the same bytes...
    for jobs in ["2", "3"] {
        let out = specan(&["scan", PROGRAMS_DIR, "--json", "--jobs", jobs]);
        assert_eq!(out.status.code(), Some(1), "--jobs {jobs}");
        assert_eq!(stdout_of(&out), reference, "--jobs {jobs} diverged");
    }
    // ...and so does any `--shard K/N` slicing, merged back.
    let dir = std::env::temp_dir().join(format!("specan-batch-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for n in 1..=3 {
        let mut slices = Vec::new();
        for k in 1..=n {
            let shard = format!("{k}/{n}");
            let out = specan(&["scan", PROGRAMS_DIR, "--json", "--shard", &shard]);
            assert!(matches!(out.status.code(), Some(0 | 1)), "--shard {shard}");
            let path = dir.join(format!("slice-{k}-of-{n}.json"));
            std::fs::write(&path, &out.stdout).unwrap();
            slices.push(path.display().to_string());
        }
        let mut args = vec!["merge", "--json"];
        args.extend(slices.iter().map(String::as_str));
        let merged = specan(&args);
        assert_eq!(merged.status.code(), Some(1), "{n} slices");
        assert_eq!(stdout_of(&merged), reference, "{n} merged slices diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_leak_check_panel_and_smaller_cache() {
    // At 8 lines the victim leaks too; the cheap panel still catches both.
    let out = specan(&[
        "scan",
        PROGRAMS_DIR,
        "--panel",
        "leak-check",
        "--cache-lines",
        "8",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("\"kind\": \"leak-check\""));
    assert!(
        stdout.contains("\"leaks\": 2"),
        "victim and cold_lookup leak at 8 lines:\n{stdout}"
    );
}

#[test]
fn scan_shard_flag_slices_the_bundle_for_ci_fleets() {
    // Sorted bundle: cold_lookup, ct_sbox, victim.  Slice 1/2 takes the
    // first two, slice 2/2 the last one.
    let first = specan(&["scan", PROGRAMS_DIR, "--shard", "1/2", "--json"]);
    assert_eq!(first.status.code(), Some(1), "cold_lookup is in slice 1");
    let stdout = stdout_of(&first);
    assert!(stdout.contains("\"program\": \"cold_lookup\""));
    assert!(stdout.contains("\"program\": \"ct_sbox\""));
    assert!(!stdout.contains("\"program\": \"victim\""));

    let second = specan(&["scan", PROGRAMS_DIR, "--shard", "2/2", "--json"]);
    assert_eq!(
        second.status.code(),
        Some(0),
        "victim is clean at 512 lines"
    );
    assert!(stdout_of(&second).contains("\"program\": \"victim\""));

    // More machines than programs: the extra slice is legally empty.
    let empty = specan(&["scan", PROGRAMS_DIR, "--shard", "9/9", "--json"]);
    assert_eq!(empty.status.code(), Some(0));
    assert!(stdout_of(&empty).contains("\"programs\": [\n  ]"));
}

#[test]
fn empty_shard_slices_keep_analyze_and_compare_parseable() {
    // `analyze` renders the empty bundle as an empty JSON array...
    let out = specan(&["analyze", VICTIM, CT_SBOX, "--shard", "9/9", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout_of(&out).split_whitespace().collect::<String>(), "[]");

    // ...and `compare` as an empty merged batch report.
    let out = specan(&["compare", VICTIM, CT_SBOX, "--shard", "9/9", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("\"leaks\": 0"));
    assert!(stdout.contains("\"programs\": [\n  ]"));
}

#[test]
fn one_file_shard_slices_keep_the_bundle_schema() {
    // A slice that happens to hold one file must emit the same schema as
    // its sibling machines: an array for `analyze`...
    let out = specan(&[
        "analyze",
        COLD_LOOKUP,
        CT_SBOX,
        VICTIM,
        "--shard",
        "2/2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout_of(&out);
    assert!(
        stdout.trim_start().starts_with('['),
        "array expected:\n{stdout}"
    );
    assert!(stdout.trim_end().ends_with(']'));

    // ...and a merged batch report (not the timed single-file report) for
    // `compare`, so a cross-machine fan-in can parse every artifact.
    let out = specan(&[
        "compare",
        COLD_LOOKUP,
        CT_SBOX,
        VICTIM,
        "--shard",
        "2/2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("\"panel\":"),
        "batch schema expected:\n{stdout}"
    );
    assert!(!stdout.contains("suite_elapsed_secs"));
}

#[test]
fn compare_accepts_a_bundle_and_emits_the_merged_report() {
    let out = specan(&[
        "compare",
        VICTIM,
        CT_SBOX,
        "--cache-lines",
        "8",
        "--jobs",
        "2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("\"program\": \"ct_sbox\""));
    assert!(stdout.contains("\"program\": \"victim\""));
    assert!(stdout.contains("\"label\": \"static-depth\""));
    // Bundle ordering is sorted-path order, not argument order.
    let ct = stdout.find("\"program\": \"ct_sbox\"").unwrap();
    let victim = stdout.find("\"program\": \"victim\"").unwrap();
    assert!(ct < victim);
}

#[test]
fn analyze_accepts_a_bundle_and_the_shard_flag() {
    let out = specan(&[
        "analyze",
        COLD_LOOKUP,
        CT_SBOX,
        VICTIM,
        "--cache-lines",
        "8",
        "--jobs",
        "2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout_of(&out);
    assert!(
        stdout.trim_start().starts_with('['),
        "a bundle renders as a JSON array"
    );
    assert_eq!(stdout.matches("\"summary\":").count(), 3);

    // `--shard 2/2` of the three sorted files analyses only the third.
    let out = specan(&[
        "analyze",
        COLD_LOOKUP,
        CT_SBOX,
        VICTIM,
        "--shard",
        "2/2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = stdout_of(&out);
    assert_eq!(stdout.matches("\"summary\":").count(), 1);
    assert!(stdout.contains("\"program\": \"victim\""));
}

#[test]
fn scan_rejects_bad_usage_with_exit_two() {
    // Directories are a scan-only concept.
    let out = specan(&["analyze", PROGRAMS_DIR]);
    assert_eq!(out.status.code(), Some(2));
    // Degenerate shard expressions.
    for shard in ["0/2", "3/2", "x/2", "2"] {
        let out = specan(&["scan", PROGRAMS_DIR, "--shard", shard]);
        assert_eq!(out.status.code(), Some(2), "--shard {shard}");
    }
    // A scan of nothing is an input error.
    let out = specan(&["scan", "does/not/exist"]);
    assert_eq!(out.status.code(), Some(2));
    // Degenerate cache geometry.
    let out = specan(&["scan", PROGRAMS_DIR, "--cache-lines", "0"]);
    assert_eq!(out.status.code(), Some(2));
}
