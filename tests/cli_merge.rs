//! End-to-end tests of `specan merge`: the verified cross-machine fan-in
//! over `--shard K/N` scan artifacts.  The acceptance contract: merging
//! every slice reproduces the unsharded report byte-for-byte, and any
//! incomplete, overlapping or mismatched slice set is refused with a
//! nonzero exit.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn specan_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specan"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("specan runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

/// A scratch copy of the example bundle; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "specan-merge-cli-{}-{}",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(dir.join("programs")).unwrap();
        for name in ["victim.spec", "ct_sbox.spec", "cold_lookup.spec"] {
            std::fs::copy(
                Path::new("examples/programs").join(name),
                dir.join("programs").join(name),
            )
            .unwrap();
        }
        Self(dir)
    }

    /// Runs `scan programs --json` with `extra` flags, captures the report
    /// into `out`, and returns the exit code.
    fn scan(&self, out: &str, extra: &[&str]) -> i32 {
        self.scan_logged(out, extra).0
    }

    /// [`Scratch::scan`], also returning the run's stderr.
    fn scan_logged(&self, out: &str, extra: &[&str]) -> (i32, String) {
        let mut args = vec!["scan", "programs", "--json"];
        args.extend_from_slice(extra);
        let output = specan_in(&self.0, &args);
        std::fs::write(self.0.join(out), &output.stdout).unwrap();
        (output.status.code().unwrap(), stderr_of(&output))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn merge_reproduces_the_unsharded_report_byte_for_byte() {
    let scratch = Scratch::new();
    assert_eq!(scratch.scan("full.json", &[]), 1, "cold_lookup leaks");
    // Three machines, three slices (the bundle holds three programs).
    for k in 1..=3 {
        let code = scratch.scan(&format!("s{k}.json"), &["--shard", &format!("{k}/3")]);
        assert!(code == 0 || code == 1, "slice {k} ran");
    }
    // Fan-in, in arbitrary order, equals the unsharded run exactly.
    let merged = specan_in(
        &scratch.0,
        &["merge", "s3.json", "s1.json", "s2.json", "--json"],
    );
    assert_eq!(
        merged.status.code(),
        Some(1),
        "the merged bundle still leaks: {}",
        stderr_of(&merged)
    );
    let full = std::fs::read_to_string(scratch.0.join("full.json")).unwrap();
    assert_eq!(stdout_of(&merged), full, "merge must be byte-identical");
    assert!(stderr_of(&merged).contains("3 slice(s) verified"));

    // Text mode renders the merged table without gating differently.
    let text = specan_in(&scratch.0, &["merge", "s1.json", "s2.json", "s3.json"]);
    assert_eq!(text.status.code(), Some(1));
    assert!(stdout_of(&text).contains("scanned 3 program(s), 1 leaking"));
}

#[test]
fn merge_rejects_incomplete_overlapping_and_mismatched_slice_sets() {
    let scratch = Scratch::new();
    for k in 1..=2 {
        scratch.scan(&format!("s{k}.json"), &["--shard", &format!("{k}/2")]);
    }

    // A missing slice: nonzero exit, no report on stdout.
    let out = specan_in(&scratch.0, &["merge", "s1.json", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("cover only"),
        "{}",
        stderr_of(&out)
    );
    assert!(stdout_of(&out).is_empty());

    // The same slice twice: overlap.
    let out = specan_in(&scratch.0, &["merge", "s1.json", "s1.json", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("overlap"), "{}", stderr_of(&out));

    // Slices of different panels (another cache geometry) do not mix.
    scratch.scan("other.json", &["--shard", "2/2", "--cache-lines", "8"]);
    let out = specan_in(&scratch.0, &["merge", "s1.json", "other.json", "--json"]);
    assert_eq!(out.status.code(), Some(2));

    // A tampered slice under a matching stamp: the checksum recompute
    // catches it.
    let text = std::fs::read_to_string(scratch.0.join("s2.json")).unwrap();
    let start = text.find("\"fingerprint\": \"").unwrap() + "\"fingerprint\": \"".len();
    let mut tampered = text.clone();
    tampered.replace_range(start..start + 16, "0000000000000000");
    assert_ne!(tampered, text, "the fixture must actually change");
    std::fs::write(scratch.0.join("tampered.json"), tampered).unwrap();
    let out = specan_in(&scratch.0, &["merge", "s1.json", "tampered.json", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("checksum"), "{}", stderr_of(&out));

    // Garbage input is a usage error, not a panic.
    std::fs::write(scratch.0.join("junk.json"), "not json").unwrap();
    let out = specan_in(&scratch.0, &["merge", "junk.json"]);
    assert_eq!(out.status.code(), Some(2));
    let out = specan_in(&scratch.0, &["merge", "missing.json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn slices_sharing_one_store_merge_to_the_unsharded_report() {
    // Two machines' slices may share one artifact store: each slice's
    // programs land in it, and the slices still merge to the unsharded
    // report byte for byte.
    let scratch = Scratch::new();
    assert_eq!(scratch.scan("full.json", &[]), 1, "cold_lookup leaks");
    let slice = |k: usize| {
        let shard = format!("{k}/2");
        scratch.scan_logged(
            &format!("s{k}.json"),
            &["--shard", &shard, "--session-dir", "store"],
        )
    };
    let (code, log) = slice(1);
    assert_eq!(code, 1, "cold_lookup lives in slice 1");
    assert!(
        log.contains("session: 0 program(s) reused, 2 analysed"),
        "{log}"
    );
    let (code, log) = slice(2);
    assert_eq!(code, 0, "victim is clean at 512 lines");
    assert!(
        log.contains("session: 0 program(s) reused, 1 analysed"),
        "{log}"
    );
    let merged = specan_in(&scratch.0, &["merge", "s1.json", "s2.json", "--json"]);
    assert_eq!(merged.status.code(), Some(1));
    let full = std::fs::read_to_string(scratch.0.join("full.json")).unwrap();
    assert_eq!(stdout_of(&merged), full, "merge must be byte-identical");

    // A re-run of each slice loads every one of its programs from the
    // store, and still merges to the same bytes.
    let (_, log) = slice(1);
    assert!(
        log.contains("session: 2 program(s) reused, 0 analysed"),
        "{log}"
    );
    let (_, log) = slice(2);
    assert!(
        log.contains("session: 1 program(s) reused, 0 analysed"),
        "{log}"
    );
    let merged = specan_in(&scratch.0, &["merge", "s2.json", "s1.json", "--json"]);
    assert_eq!(stdout_of(&merged), full);
}
