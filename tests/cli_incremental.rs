//! End-to-end tests of the incremental CLI flows: `specan analyze
//! --incremental` and `specan scan --session-dir` keep prepared programs in
//! one artifact store, so unchanged programs load with their fixpoint
//! rounds and edited ones re-solve only what the edit touched — with
//! output equal to a fresh run after the timing strip either way.

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

/// Zeroes the timing fields of `analyze --json` output — the only
/// non-deterministic bytes.
fn strip_timing(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.lines() {
        if let Some(at) = line.find("\"time_secs\": ") {
            out.push_str(&line[..at]);
            out.push_str("\"time_secs\": 0");
            out.push_str(line[at..].find('}').map_or("", |_| "}"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

/// A scratch copy of the example bundle; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "specan-incremental-cli-{}-{}",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["victim.spec", "ct_sbox.spec", "cold_lookup.spec"] {
            std::fs::copy(Path::new("examples/programs").join(name), dir.join(name)).unwrap();
        }
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The one-block edit the tests apply to `victim.spec`.
fn edit_victim(dir: &Path) {
    let path = dir.join("victim.spec");
    let source = std::fs::read_to_string(&path).unwrap();
    assert!(source.contains("load sbox[0]"), "fixture changed?");
    std::fs::write(
        &path,
        source.replace("load sbox[0]", "load sbox[0]\n  load sbox[64]"),
    )
    .unwrap();
}

#[test]
fn analyze_incremental_replays_and_tracks_edits() {
    let scratch = Scratch::new();
    let args = [
        "analyze",
        "victim.spec",
        "--cache-lines",
        "8",
        "--json",
        "--incremental",
        "--session-dir",
        "session",
    ];
    let fresh_args = ["analyze", "victim.spec", "--cache-lines", "8", "--json"];

    // Cold: analysed and stored.
    let first = specan_in(&scratch.0, &args);
    assert_eq!(first.status.code(), Some(0));
    assert!(stderr_of(&first).contains("session: analysed `victim.spec`"));

    // Warm, in a second process: loaded from the store, and equal to a
    // fresh session-free run after the timing strip.
    let second = specan_in(&scratch.0, &args);
    assert_eq!(second.status.code(), Some(0));
    assert!(stderr_of(&second).contains("artifacts: loaded `victim.spec` from the store"));
    let fresh = specan_in(&scratch.0, &fresh_args);
    assert_eq!(
        strip_timing(&stdout_of(&second)),
        strip_timing(&stdout_of(&fresh))
    );

    // A flag change reuses the stored program but must render the new
    // configuration, not the stored one.
    let mut baseline_args = args.to_vec();
    baseline_args.push("--baseline");
    let other_flags = specan_in(&scratch.0, &baseline_args);
    let mut fresh_baseline = fresh_args.to_vec();
    fresh_baseline.push("--baseline");
    let fresh = specan_in(&scratch.0, &fresh_baseline);
    assert_eq!(
        strip_timing(&stdout_of(&other_flags)),
        strip_timing(&stdout_of(&fresh))
    );

    // Edit the file in place: re-analysed, and equal to fresh post-strip.
    edit_victim(&scratch.0);
    let edited = specan_in(&scratch.0, &args);
    assert!(stderr_of(&edited).contains("session: analysed `victim.spec`"));
    assert!(!stderr_of(&edited).contains("artifacts: loaded"));
    let fresh = specan_in(&scratch.0, &fresh_args);
    assert_eq!(
        strip_timing(&stdout_of(&edited)),
        strip_timing(&stdout_of(&fresh))
    );
    assert_ne!(
        strip_timing(&stdout_of(&edited)),
        strip_timing(&stdout_of(&first)),
        "the edit must change the analysis output"
    );
}

#[test]
fn scan_session_reuses_unchanged_programs_byte_identically() {
    let scratch = Scratch::new();
    let session_args = ["scan", ".", "--json", "--session-dir", "session"];
    let fresh_args = ["scan", ".", "--json"];

    let cold = specan_in(&scratch.0, &session_args);
    assert_eq!(cold.status.code(), Some(1), "cold_lookup leaks: exit 1");
    assert!(stderr_of(&cold).contains("session: 0 program(s) reused, 3 analysed"));

    let warm = specan_in(&scratch.0, &session_args);
    assert_eq!(warm.status.code(), Some(1));
    assert!(stderr_of(&warm).contains("session: 3 program(s) reused, 0 analysed"));

    let fresh = specan_in(&scratch.0, &fresh_args);
    assert_eq!(stdout_of(&cold), stdout_of(&fresh));
    assert_eq!(stdout_of(&warm), stdout_of(&fresh));

    // Renames change no verdict, so the report still matches a fresh scan
    // (whose output never contains block or region labels).  Store loads
    // are name-exact, though: the renamed program is prepared again.
    let source = std::fs::read_to_string(scratch.0.join("ct_sbox.spec")).unwrap();
    assert!(source.contains("block main entry:"), "fixture changed?");
    std::fs::write(
        scratch.0.join("ct_sbox.spec"),
        source
            .replace("block main entry:", "block main_renamed entry:")
            .replace("jump main", "jump main_renamed"),
    )
    .unwrap();
    let renamed = specan_in(&scratch.0, &session_args);
    assert!(stderr_of(&renamed).contains("session: 2 program(s) reused, 1 analysed"));
    assert_eq!(stdout_of(&renamed), stdout_of(&fresh));

    // A real edit re-analyses exactly the touched program.
    edit_victim(&scratch.0);
    let edited = specan_in(&scratch.0, &session_args);
    assert_eq!(edited.status.code(), Some(1));
    assert!(stderr_of(&edited).contains("session: 2 program(s) reused, 1 analysed"));
    let fresh = specan_in(&scratch.0, &fresh_args);
    assert_eq!(stdout_of(&edited), stdout_of(&fresh));
}

/// Every file under `dir`, relative to it.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    files
}

#[test]
fn edit_loop_command_lines_keep_their_shape() {
    // The exact command lines, and the stderr lines read back, of the
    // `perfbench` edit loop.
    let scratch = Scratch::new();
    let bundle = scratch.0.join("bundle");
    std::fs::create_dir_all(&bundle).unwrap();
    for name in ["victim.spec", "ct_sbox.spec", "cold_lookup.spec"] {
        std::fs::rename(scratch.0.join(name), bundle.join(name)).unwrap();
    }
    let analyze = [
        "analyze",
        "--incremental",
        "--json",
        "--cache-lines",
        "32",
        "--session-dir",
        "S",
        "--artifact-dir",
        "A",
        "--max-session-bytes",
        "20480",
        "bundle/victim.spec",
    ];
    let fresh_analyze = [
        "analyze",
        "--json",
        "--cache-lines",
        "32",
        "bundle/victim.spec",
    ];
    let scan = [
        "scan",
        "--json",
        "--cache-lines",
        "32",
        "--session-dir",
        "D",
        "bundle",
    ];
    let fresh_scan = ["scan", "--json", "--cache-lines", "32", "bundle"];
    let matches_fresh = |out: &Output, fresh: &[&str]| {
        let fresh = specan_in(&scratch.0, fresh);
        assert_eq!(out.status.code(), fresh.status.code());
        assert_eq!(
            strip_timing(&stdout_of(out)),
            strip_timing(&stdout_of(&fresh))
        );
    };

    let cold = specan_in(&scratch.0, &scan);
    assert_eq!(cold.status.code(), Some(1));
    assert!(stderr_of(&cold).contains("session: 0 program(s) reused, 3 analysed (D)"));
    matches_fresh(&cold, &fresh_scan);

    // Cold, then a re-save of the unchanged file, then a one-block edit.
    let first = specan_in(&scratch.0, &analyze);
    assert!(stderr_of(&first).contains("session: analysed `bundle/victim.spec`"));
    matches_fresh(&first, &fresh_analyze);
    let resaved = specan_in(&scratch.0, &analyze);
    let log = stderr_of(&resaved);
    assert!(log.contains("artifacts: loaded `bundle/victim.spec` from the store"));
    assert!(log.contains("session: analysed `bundle/victim.spec`"));
    matches_fresh(&resaved, &fresh_analyze);
    edit_victim(&bundle);
    let edited = specan_in(&scratch.0, &analyze);
    let log = stderr_of(&edited);
    assert!(log.contains("session: summaries "), "{log}");
    assert!(log.contains("session: analysed `bundle/victim.spec`"));
    matches_fresh(&edited, &fresh_analyze);

    let rescan = specan_in(&scratch.0, &scan);
    assert!(stderr_of(&rescan).contains("session: 2 program(s) reused, 1 analysed (D)"));
    matches_fresh(&rescan, &fresh_scan);

    // Everything persisted lives under the artifact directory (`A` wins
    // over `S`) and the scan's store `D`.
    for file in files_under(&scratch.0) {
        assert!(
            file.starts_with("A") || file.starts_with("D") || file.starts_with("bundle"),
            "{} written outside A and D",
            file.display()
        );
    }
    assert!(!scratch.0.join("S").exists());
    let bundle_files = files_under(&bundle).len();
    assert_eq!(bundle_files, 3, "nothing is written into the bundle");
}

#[test]
fn incremental_flag_validation() {
    let scratch = Scratch::new();
    // --session-dir without --incremental is a usage error on analyze...
    let out = specan_in(
        &scratch.0,
        &["analyze", "victim.spec", "--session-dir", "s"],
    );
    assert_eq!(out.status.code(), Some(2));
    // ...--incremental does not apply to scan (--session-dir alone does)...
    let out = specan_in(&scratch.0, &["scan", ".", "--incremental"]);
    assert_eq!(out.status.code(), Some(2));
    // ...and neither flag applies to leaks.
    let out = specan_in(&scratch.0, &["leaks", "victim.spec", "--session-dir", "s"]);
    assert_eq!(out.status.code(), Some(2));
}
