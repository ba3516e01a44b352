//! Cross-worker staleness property suite for the tiered session front.
//!
//! The lock-free L0 pins `Arc<PreparedProgram>` handles per OS thread, so
//! the dangerous interleavings are the cross-thread ones: worker A edits,
//! renames or evicts a program while worker B still holds yesterday's
//! handle in its own L0.  Three properties are held:
//!
//! * **edits and renames are never stale** — after worker A re-prepares a
//!   program (new body, or same structure under new region names), worker
//!   B's next acquire renders output byte-identical, post timing-strip, to
//!   a fresh session-free run of the new version — never its pinned
//!   handle's;
//! * **evictions are never stale** — under a thrashing byte budget, a
//!   worker's repeat acquire misses every tier (the eviction's generation
//!   bump unseats the L0 seed) instead of replaying an evicted handle;
//! * **the ledger reconciles** — across any concurrent mix of hits,
//!   prepares and abandoned guards, and across a store restart, every
//!   acquire lands in exactly one tier counter (`l0 + l1 + store +
//!   prepares + abandoned == acquires`), each counted once.
//!
//! Like the other property suites, the generator is a deterministic
//! xorshift PRNG, so a failure reproduces from the printed case number.

use std::sync::mpsc;
use std::thread;

use spec_bench::service_harness::{random_program_text, Rng, Scratch};
use speculative_absint::cache::CacheConfig;
use speculative_absint::core::cache_session::{CacheOutcome, CacheSession};
use speculative_absint::core::incremental::SessionCache;
use speculative_absint::core::session::{comparison_configs, Analyzer};
use speculative_absint::core::PreparedStore;
use speculative_absint::ir::text::parse_program;
use speculative_absint::ir::Program;

const CASES: u64 = 4;
const EDITS_PER_CASE: usize = 6;

fn cache() -> CacheConfig {
    CacheConfig::fully_associative(8, 64)
}

/// The stripped reference rendering of one program: what any tier — L0
/// handle, warm rebind, or re-prepare — must reproduce exactly.
fn fresh_report(program: &Program) -> String {
    Analyzer::new()
        .prepare(program)
        .run_suite(&comparison_configs(cache()))
        .report()
        .without_timing()
        .to_json()
}

/// Resolves `program` through the acquire/commit protocol — whichever
/// tier answers — and renders the stripped report.
fn acquire_report(sessions: &CacheSession, program: &Program) -> String {
    let prepared = match sessions.acquire(program) {
        CacheOutcome::L0Hit(prepared)
        | CacheOutcome::WarmHit(prepared)
        | CacheOutcome::StoreHit(prepared) => prepared,
        CacheOutcome::NeedsPrepare(guard) => guard.prepare(program),
    };
    prepared
        .run_suite(&comparison_configs(cache()))
        .report()
        .without_timing()
        .to_json()
}

#[test]
fn edits_on_worker_a_never_serve_stale_from_worker_bs_l0() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x10c4_0000 + case);
        let sessions = CacheSession::new(SessionCache::new());
        thread::scope(|s| {
            // Worker B lives on one OS thread for the whole case, so its
            // thread-local L0 accumulates handles across every version.
            let (to_b, b_rx) = mpsc::channel::<Program>();
            let (to_a, a_rx) = mpsc::channel::<String>();
            let worker = &sessions;
            s.spawn(move || {
                while let Ok(program) = b_rx.recv() {
                    to_a.send(acquire_report(worker, &program)).unwrap();
                }
            });

            let mut text = random_program_text(&mut rng, "hot");
            for edit in 0..EDITS_PER_CASE {
                // B serves (and L0-pins) the current version first.
                let program = parse_program(&text).expect("generated programs parse");
                to_b.send(program.clone()).unwrap();
                assert_eq!(
                    a_rx.recv().unwrap(),
                    fresh_report(&program),
                    "case {case} edit {edit}: the warm serve matches fresh"
                );

                // A commits a new version of the same key: alternately a
                // body edit (new fingerprint) and a region rename (same
                // structure, new names — the stale-names hazard, since
                // renames keep the structural fingerprint B's L0 is
                // keyed by).
                text = if edit % 2 == 0 {
                    random_program_text(&mut rng, "hot")
                } else {
                    text.replace("table", &format!("t{edit}"))
                };
                let edited = parse_program(&text).expect("edited programs parse");
                acquire_report(&sessions, &edited);

                // B's next acquire must render the new version — never
                // the handle still pinned in its L0.
                to_b.send(edited.clone()).unwrap();
                assert_eq!(
                    a_rx.recv().unwrap(),
                    fresh_report(&edited),
                    "case {case} edit {edit}: the post-edit serve must be \
                     byte-identical to a fresh run of the new version"
                );
            }
            drop(to_b);
        });
        assert!(
            sessions.stats().reconciles(),
            "case {case}: every acquire lands in exactly one tier counter"
        );
    }
}

#[test]
fn evictions_on_worker_a_never_serve_stale_from_worker_bs_l0() {
    let mut rng = Rng::new(0x0e71_c7ed);
    let text = random_program_text(&mut rng, "victim");
    let program = parse_program(&text).expect("generated programs parse");
    let expected = fresh_report(&program);
    // A zero budget evicts every install on the spot: the most hostile
    // schedule for a pinned L0 handle.
    let sessions = CacheSession::new(SessionCache::new().max_session_bytes(0));

    thread::scope(|s| {
        let (to_b, b_rx) = mpsc::channel::<()>();
        let (to_a, a_rx) = mpsc::channel::<(String, &'static str)>();
        let worker = &sessions;
        let victim = program.clone();
        s.spawn(move || {
            while b_rx.recv().is_ok() {
                let (prepared, how) = match worker.acquire(&victim) {
                    CacheOutcome::L0Hit(p) => (p, "l0"),
                    CacheOutcome::WarmHit(p) => (p, "warm"),
                    CacheOutcome::StoreHit(p) => (p, "store"),
                    CacheOutcome::NeedsPrepare(guard) => (guard.prepare(&victim), "prepared"),
                };
                let report = prepared
                    .run_suite(&comparison_configs(cache()))
                    .report()
                    .without_timing()
                    .to_json();
                to_a.send((report, how)).unwrap();
            }
        });

        for round in 0..4 {
            to_b.send(()).unwrap();
            let (report, how) = a_rx.recv().unwrap();
            assert_eq!(report, expected, "round {round}: eviction is invisible");
            assert_eq!(
                how, "prepared",
                "round {round}: a thrashing budget leaves nothing warm — \
                 the eviction's generation bump unseats worker B's L0 seed"
            );
            // Worker A's checkpoint re-enforces the budget; nothing stays.
            sessions.checkpoint();
            assert_eq!(sessions.len(), 0, "round {round}: nothing fits");
        }
        drop(to_b);
    });

    let stats = sessions.stats();
    assert!(stats.reconciles());
    assert_eq!(
        stats.l0_hits + stats.l1_hits,
        0,
        "no acquire was ever served from a handle the session had evicted"
    );
}

#[test]
fn counters_reconcile_under_concurrent_mixed_workloads() {
    const WORKERS: u64 = 4;
    const STEPS: u64 = 12;
    let mut rng = Rng::new(0x5ec5_ab1e);
    let programs: Vec<Program> = (0..6)
        .map(|i| {
            parse_program(&random_program_text(&mut rng, &format!("mix{i}")))
                .expect("generated programs parse")
        })
        .collect();
    let sessions = CacheSession::new(SessionCache::new());

    thread::scope(|s| {
        for worker_id in 0..WORKERS {
            let worker = sessions.clone();
            let programs = &programs;
            s.spawn(move || {
                let mut rng = Rng::new(0xab0a_0000 + worker_id);
                for step in 0..STEPS {
                    let program = &programs[rng.below(programs.len() as u64) as usize];
                    match worker.acquire(program) {
                        CacheOutcome::L0Hit(hit)
                        | CacheOutcome::WarmHit(hit)
                        | CacheOutcome::StoreHit(hit) => {
                            // Name-exact acquires only ever serve the
                            // exact program asked for.
                            assert_eq!(hit.program(), program);
                        }
                        CacheOutcome::NeedsPrepare(guard) => {
                            // Some guards are dropped uncommitted — a
                            // worker bailing mid-request — and must land
                            // in the abandoned counter, not vanish.
                            if step % 5 == 4 {
                                drop(guard);
                            } else {
                                guard.prepare(program);
                            }
                        }
                    }
                }
            });
        }
    });

    let stats = sessions.stats();
    assert_eq!(stats.acquires, WORKERS * STEPS);
    assert!(
        stats.reconciles(),
        "l0 {} + l1 {} + store {} + prepares {} + abandoned {} != acquires {}",
        stats.l0_hits,
        stats.l1_hits,
        stats.store_hits,
        stats.prepares,
        stats.abandoned,
        stats.acquires
    );
    assert!(stats.prepares >= 1, "someone prepared the pool");
}

#[test]
fn store_restart_ledger_counts_each_store_hit_once() {
    let scratch = Scratch::new("cache-session-ledger");
    let mut rng = Rng::new(0x1ed6_e700);
    let programs: Vec<Program> = (0..3)
        .map(|i| {
            parse_program(&random_program_text(&mut rng, &format!("led{i}")))
                .expect("generated programs parse")
        })
        .collect();
    let open = || {
        CacheSession::new(SessionCache::new().artifact_store(PreparedStore::open(scratch.dir())))
    };

    // First life: every program prepares cold; the checkpoint persists
    // the rounds its run filled.
    let first = open();
    for program in &programs {
        acquire_report(&first, program);
    }
    let stats = first.checkpoint();
    assert_eq!((stats.prepares, stats.store_hits), (3, 0));
    assert!(stats.reconciles());

    // Second life over the same directory: each program loads from the
    // store once, then is served from memory.
    let second = open();
    let mut store_outcomes = 0;
    for _ in 0..2 {
        for program in &programs {
            match second.acquire(program) {
                CacheOutcome::StoreHit(_) => store_outcomes += 1,
                CacheOutcome::L0Hit(_) | CacheOutcome::WarmHit(_) => {}
                CacheOutcome::NeedsPrepare(_) => panic!("a stored program must load"),
            }
        }
    }
    let stats = second.checkpoint();
    assert_eq!(store_outcomes, programs.len() as u64);
    assert_eq!(
        stats.store_hits, store_outcomes,
        "the ledger counts each store load once"
    );
    assert_eq!(stats.acquires, 2 * programs.len() as u64);
    assert!(stats.reconciles(), "{stats:?}");
}
