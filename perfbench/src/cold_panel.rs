//! `cold_panel`: in process, one op at a time.  An op takes the `.spec`
//! text of one corpus program (in seeded order), parses it, prepares it with
//! a fresh `Analyzer`, runs the 5-config comparison panel and renders the
//! JSON report — the first-verdict cost of a program nobody analysed yet.
//!
//! The timed phase runs whole passes over the 20 programs, one per
//! [`SECONDS_PER_PASS`] of `--seconds` (at least one), so every run times
//! the same multiset of ops whatever the seed.  The pass count follows
//! `--seconds` alone, never the speed of the code under test: the op
//! latencies are the spread of program sizes, so the tail percentile
//! (rank `n - 10` of `20 x passes` samples) must not shift when the
//! fixpoint gets faster.

use std::time::{Duration, Instant};

use spec_cache::{AddressMap, CacheConfig};
use spec_core::artifact::{decode_prepared, encode_prepared};
use spec_core::session::comparison_configs;
use spec_core::{AnalysisOptions, AnalysisResult, Analyzer, PreparedStore};
use spec_ir::fingerprint::program_fingerprint;
use spec_ir::text::parse_program;
use spec_ir::transform::{unroll_counted_loops, UnrollOptions};
use spec_ir::Program;
use spec_vcfg::{SpeculationConfig, Vcfg};

use crate::gen::{self, Lcg, Source};
use crate::oracle::{self, Golden, Tally};
use crate::trace::Tracer;
use crate::{ratio, sys, Ctx, Measured};

pub const NAME: &str = "cold_panel";

/// One pass over the corpus per this many seconds of `--seconds` (a pass
/// takes about 17 s on the 2-core reference machine).
const SECONDS_PER_PASS: u64 = 6;

/// Samples of the pace point after each op (and before the first).
const PACE_SAMPLES: usize = 5;

/// Programs whose speculative result is also checked against the
/// simulator, drawn by seed, per run.
const SIMULATED: usize = 2;

/// Counters summed over the ops of a traced run.
#[derive(Default)]
struct Counts {
    node_visits: u64,
    state_updates: u64,
    max_worklist: u64,
    rounds_solved: u64,
    rounds_replayed: u64,
    unrolled_insts: u64,
    mem_blocks: u64,
    vcfg_nodes: u64,
    vcfg_colors: u64,
    artifact_bytes: u64,
    render_bytes: u64,
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    golden: &mut Golden,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let mut order: Vec<Source> = Vec::new();
    while measured.wants_setup() {
        let started = Instant::now();
        order = gen::corpus();
        measured.push_setup(started.elapsed());
    }
    let mut rng = Lcg::new(ctx.seed);
    let simulated: Vec<String> = (0..SIMULATED)
        .map(|_| order[rng.index(order.len())].name.clone())
        .collect();

    let cache = CacheConfig::fully_associative(gen::CACHE_LINES as usize, 64);
    let configs = comparison_configs(cache);
    let store = PreparedStore::open(ctx.work.join("store"));
    let mut counts = Counts::default();
    let mut kept: Vec<AnalysisResult> = Vec::new();
    measured.pace_point(PACE_SAMPLES);
    sys::reset_peak_rss("self")?;
    let cpu_before = sys::cpu_seconds("self")
        .ok_or("cannot read /proc/self/stat")?
        .0;
    let passes = (ctx.seconds.as_secs() / SECONDS_PER_PASS).max(1);
    let mut off_clock = Duration::ZERO;
    let mut pacing = Duration::ZERO;
    let started = Instant::now();
    for _ in 0..passes {
        // Each pass in its own seeded order, so no program always follows
        // the same one.
        rng.shuffle(&mut order);
        for source in &order {
            let op = measured.ops.len() as u64;
            tracer.set_op(op);
            let op_started = Instant::now();
            let outcome = tracer.span("op", |t| one_op(t, source, &configs, &mut counts));
            measured.push_op(op_started.elapsed());
            // The oracle and the traced run's layer probes are off the
            // clock, so traced and untraced runs time the same work.
            let check_started = Instant::now();
            match outcome {
                Ok(OpOutput {
                    program,
                    prepared,
                    json,
                    speculative,
                }) => {
                    let stripped = oracle::strip_timing(&json);
                    golden.check(tally, NAME, &source.name, &stripped);
                    if kept.len() < SIMULATED && simulated.contains(&source.name) {
                        kept.push(speculative);
                    }
                    if tracer.enabled() {
                        layer_probes(tracer, &program, cache, &store, &prepared, &mut counts);
                    }
                }
                Err(message) => {
                    tally.check(false, || message);
                }
            }
            pacing += measured.pace_point(PACE_SAMPLES);
            off_clock += check_started.elapsed();
        }
    }
    measured.wall = started.elapsed().saturating_sub(off_clock);
    // The pace samples ran in this process one at a time, each on one
    // thread, so their CPU time is their wall time.
    measured.cpu_s = sys::cpu_seconds("self")
        .ok_or("cannot read /proc/self/stat")?
        .0
        - cpu_before
        - pacing.as_secs_f64();
    measured.peak_rss_mib = sys::peak_rss_mib("self").ok_or("cannot read VmHWM")?;

    for result in &kept {
        oracle::check_simulator(tally, result, &mut rng);
    }
    if tracer.enabled() {
        layers(&mut measured, tracer, &counts);
    }
    Ok(measured)
}

/// What an op produced: the parsed and prepared program, the rendered
/// report and the panel's speculative result.
struct OpOutput {
    program: Program,
    prepared: spec_core::PreparedProgram,
    json: String,
    speculative: AnalysisResult,
}

fn one_op(
    tracer: &mut Tracer,
    source: &Source,
    configs: &[(String, AnalysisOptions)],
    counts: &mut Counts,
) -> Result<OpOutput, String> {
    let program = tracer
        .span("ir.parse", |_| parse_program(&source.text))
        .map_err(|err| format!("{}: cannot parse: {err}", source.name))?;
    let prepared = tracer.span("session.prepare", |_| Analyzer::new().prepare(&program));
    let mut suite = tracer.span("fixpoint.run_suite", |_| prepared.run_suite(configs));
    let json = tracer.span("render", |_| suite.report().to_json());
    if tracer.enabled() {
        for run in &suite.runs {
            counts.node_visits += run.result.stats.node_visits;
            counts.state_updates += run.result.stats.state_updates;
            counts.max_worklist = counts
                .max_worklist
                .max(run.result.stats.max_worklist_len as u64);
        }
        counts.rounds_solved += suite.cache_stats.round_misses;
        counts.rounds_replayed += suite.cache_stats.round_hits;
        counts.render_bytes += json.len() as u64;
    }
    let speculative = suite
        .runs
        .iter()
        .position(|run| run.label == "speculative")
        .ok_or("the comparison panel has a `speculative` run")?;
    let speculative = suite.runs.swap_remove(speculative).result;
    Ok(OpOutput {
        program,
        prepared,
        json,
        speculative,
    })
}

/// The layers an op does not call one by one, probed on its program
/// outside the op span: the preparation stages the session runs lazily
/// inside the panel, each under its own span, then the artifact layer on
/// the prepared program (encode, decode, and a store save and load).
fn layer_probes(
    tracer: &mut Tracer,
    program: &Program,
    cache: CacheConfig,
    store: &PreparedStore,
    prepared: &spec_core::PreparedProgram,
    counts: &mut Counts,
) {
    tracer.span("ir.fingerprint", |_| program_fingerprint(program));
    let (unrolled, _) = tracer.span("ir.unroll", |_| {
        unroll_counted_loops(program, UnrollOptions::default())
    });
    counts.unrolled_insts += unrolled
        .blocks()
        .iter()
        .map(|b| b.insts.len() as u64)
        .sum::<u64>();
    let amap = tracer.span("cache.layout", |_| AddressMap::new(&unrolled, &cache));
    counts.mem_blocks += amap.total_blocks();
    let vcfg = tracer.span("vcfg.build", |_| {
        Vcfg::build(&unrolled, SpeculationConfig::paper_default())
    });
    counts.vcfg_nodes += vcfg.graph().len() as u64;
    counts.vcfg_colors += vcfg.num_colors() as u64;

    let bytes = tracer.span("artifact.encode", |_| encode_prepared(prepared));
    counts.artifact_bytes += bytes.len() as u64;
    let analyzer = Analyzer::new();
    let _ = tracer.span("artifact.decode", |_| decode_prepared(&bytes, &analyzer));
    let _ = tracer.span("store.save", |_| store.save(prepared));
    let _ = tracer.span("store.load", |_| {
        store.load(&analyzer, prepared.fingerprint())
    });
}

fn layers(measured: &mut Measured, tracer: &Tracer, counts: &Counts) {
    let times = tracer.self_times();
    let ms = |name: &str| times.get(name).map_or(0.0, |t| t.mean_ms());
    let calls = |name: &str| times.get(name).map_or(0, |t| t.calls) as f64;
    let solve_ns = times.get("fixpoint.run_suite").map_or(0, |t| t.self_ns) as f64;
    let op_ns = times.get("op").map_or(0, |t| t.total_ns) as f64;
    let rounds = (counts.rounds_solved + counts.rounds_replayed) as f64;
    let layers = &mut measured.layers;
    for (name, value) in [
        ("fixpoint.run_ms", ms("fixpoint.run_suite")),
        ("fixpoint.op_share", ratio(solve_ns, op_ns)),
        ("fixpoint.node_visits", counts.node_visits as f64),
        ("fixpoint.state_updates", counts.state_updates as f64),
        (
            "fixpoint.ns_per_visit",
            ratio(solve_ns, counts.node_visits as f64),
        ),
        ("fixpoint.rounds_solved", counts.rounds_solved as f64),
        ("fixpoint.rounds_replayed", counts.rounds_replayed as f64),
        (
            "fixpoint.round_hit_ratio",
            ratio(counts.rounds_replayed as f64, rounds),
        ),
        ("fixpoint.max_worklist", counts.max_worklist as f64),
        ("ir.parse_ms", ms("ir.parse")),
        ("ir.parse_calls", calls("ir.parse")),
        ("ir.fingerprint_ms", ms("ir.fingerprint")),
        ("ir.unroll_ms", ms("ir.unroll")),
        ("ir.unrolled_insts", counts.unrolled_insts as f64),
        ("cache.layout_ms", ms("cache.layout")),
        ("cache.mem_blocks", counts.mem_blocks as f64),
        ("vcfg.build_ms", ms("vcfg.build")),
        ("vcfg.nodes", counts.vcfg_nodes as f64),
        ("vcfg.colors", counts.vcfg_colors as f64),
        ("artifact.encode_ms", ms("artifact.encode")),
        ("artifact.decode_ms", ms("artifact.decode")),
        (
            "artifact.bytes",
            ratio(counts.artifact_bytes as f64, calls("artifact.encode")),
        ),
        ("store.save_ms", ms("store.save")),
        ("store.load_ms", ms("store.load")),
        ("render.ms", ms("render")),
        (
            "render.bytes",
            ratio(counts.render_bytes as f64, calls("render")),
        ),
    ] {
        layers.insert(name, value);
    }
}
