//! The repository's benchmark: one command runs a named workload from a
//! seed, checks every output, and prints every end-to-end metric by name
//! with its unit; `--trace 1` prints the per-layer metrics instead.
//!
//! ```text
//! perfbench --workload <cold_panel|edit_loop|warm_service> --seed N
//!           --seconds S --trace <0|1> --specan PATH [--work DIR]
//!           [--spans FILE] [--bless]
//! ```
//!
//! Run it from the root of a checkout: it reads `examples/programs` and
//! the golden digests in `perfbench/golden.txt` (which `--bless` rewrites
//! from this run), works in `--work` (default `.bench_work`, emptied
//! before and after) and writes a traced run's spans to `--spans`
//! (default `.bench_spans.ndjson`).
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are a human-readable table.
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer-to-end-to-end prediction table.

mod cold_panel;
mod edit_loop;
mod gen;
mod oracle;
mod pace;
mod stats;
mod sys;
mod trace;
mod warm_service;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use oracle::{Golden, Tally};
use pace::{Job, Pace};
use trace::Tracer;

/// The golden digests, relative to the checkout's root.
const GOLDEN: &str = "perfbench/golden.txt";
/// The programs with hand-written known answers.
const EXAMPLES: &str = "examples/programs";

/// A run sets its workload up at least this many times; `setup_s` is the
/// median of all set-ups...
const MIN_SETUPS: usize = 3;
/// ...and sets up again while all set-ups so far, with the pace samples
/// that follow each, took less than this.  A cheap set-up is thus sampled
/// over several seconds rather than in one short burst.
const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Samples of the pace point after each set-up (and before the first).
const SETUP_PACE_SAMPLES: usize = 2;

/// What every workload run needs.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// The `specan` binary under test.
    pub specan: PathBuf,
    /// Scratch directory inside the checkout, emptied before and after.
    pub work: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up.
    pub setups: Vec<Duration>,
    /// Wall time of the set-ups and of their pace points.
    setup_spent: Duration,
    /// The host's pace around each set-up...
    setup_pace: Pace,
    /// ...and between the ops of the timed phase, off its clock.
    pace: Pace,
    /// The latency of every op of the timed phase, in ms.
    pub ops: Vec<f64>,
    /// The pace stretch each op ran in.
    op_stretches: Vec<usize>,
    /// Wall time of the timed phase (off-clock oracle and probe work
    /// excluded).
    pub wall: Duration,
    /// CPU seconds of the process under test during the timed phase.
    pub cpu_s: f64,
    /// Peak resident set of the process under test, MiB.
    pub peak_rss_mib: f64,
    /// Per-layer metrics; filled in by traced runs.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Whether the workload should set itself up (once more).
    pub fn wants_setup(&mut self) -> bool {
        if self.setup_pace.points() == 0 {
            self.setup_spent += self.setup_pace.point(SETUP_PACE_SAMPLES);
        }
        self.setups.len() < MIN_SETUPS || self.setup_spent < SETUP_BUDGET
    }

    /// Records one set-up's wall time, then takes a pace point.
    pub fn push_setup(&mut self, took: Duration) {
        self.setups.push(took);
        self.setup_spent += took + self.setup_pace.point(SETUP_PACE_SAMPLES);
    }

    /// Each set-up's time at the reference pace, in s.
    pub fn paced_setups(&self) -> Vec<f64> {
        let stretches = 1..=self.setups.len();
        (self.setups.iter().zip(stretches))
            .map(|(took, k)| took.as_secs_f64() / self.setup_pace.slowdown(k))
            .collect()
    }

    /// Samples the timed phase's pace with `job` on `threads` threads at
    /// once (as many as the workload keeps busy) instead of with
    /// [`Job::Fixpoint`] on one.  Call it before the first pace point.
    pub fn pace_with(&mut self, job: Job, threads: usize) {
        self.pace = Pace::new(job, threads);
    }

    /// Takes a pace point of `samples` samples in the timed phase; returns
    /// the time it took, for the caller to keep off the clock.
    pub fn pace_point(&mut self, samples: usize) -> Duration {
        self.pace.point(samples)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall.as_secs_f64()
    }

    /// The pace stretch that work done now belongs to.
    pub fn pace_stretch(&self) -> usize {
        self.pace.points()
    }

    /// Records an op that ran in the current pace stretch.
    pub fn push_op(&mut self, latency: Duration) {
        self.push_op_in(latency, self.pace_stretch());
    }

    /// Records an op that ran in pace stretch `stretch`.
    pub fn push_op_in(&mut self, latency: Duration, stretch: usize) {
        self.ops.push(latency.as_secs_f64() * 1e3);
        self.op_stretches.push(stretch);
    }

    /// Each op's latency at the reference pace, in ms.
    pub fn paced_ops(&self) -> Vec<f64> {
        (self.ops.iter().zip(&self.op_stretches))
            .map(|(ms, &k)| ms / self.pace.slowdown(k))
            .collect()
    }

    /// The slowdown of the timed phase as a whole: measured op time over
    /// op time at the reference pace.  The op rate and CPU time, which no
    /// single op owns, are brought to the reference pace with it.
    pub fn slowdown(&self) -> f64 {
        ratio(self.ops.iter().sum(), self.paced_ops().iter().sum())
    }

    /// The mean op latency in ms.
    pub fn mean_ms(&self) -> f64 {
        ratio(self.ops.iter().sum(), self.ops.len() as f64)
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
/// Every time among them is at the reference machine's pace (see
/// [`pace`]).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run: `(name, unit)`.  A layer a
/// workload does not reach reports 0.  Times are means per call.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("fixpoint.run_ms", "ms"),
    ("fixpoint.op_share", "ratio"),
    ("fixpoint.node_visits", "count"),
    ("fixpoint.state_updates", "count"),
    ("fixpoint.ns_per_visit", "ns"),
    ("fixpoint.rounds_solved", "count"),
    ("fixpoint.rounds_replayed", "count"),
    ("fixpoint.round_hit_ratio", "ratio"),
    ("fixpoint.max_worklist", "count"),
    ("ir.parse_ms", "ms"),
    ("ir.parse_calls", "count"),
    ("ir.fingerprint_ms", "ms"),
    ("ir.diff_ms", "ms"),
    ("ir.unroll_ms", "ms"),
    ("ir.unrolled_insts", "count"),
    ("cache.layout_ms", "ms"),
    ("cache.mem_blocks", "count"),
    ("vcfg.build_ms", "ms"),
    ("vcfg.nodes", "count"),
    ("vcfg.colors", "count"),
    ("summary.hits", "count"),
    ("summary.misses", "count"),
    ("summary.invalidated", "count"),
    ("summary.reuse_ratio", "ratio"),
    ("incremental.replays", "count"),
    ("incremental.update_ms", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.decode_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("tier.l0_hits", "count"),
    ("tier.l1_hits", "count"),
    ("tier.store_hits", "count"),
    ("tier.cold", "count"),
    ("tier.hit_ratio", "ratio"),
    ("tier.l0.acquire_ms", "ms"),
    ("tier.l1.acquire_ms", "ms"),
    ("tier.store.acquire_ms", "ms"),
    ("session.evictions", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.acquire_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.persist_ms", "ms"),
    ("service.request_ms", "ms"),
    ("service.errors", "count"),
    ("service.transport_ms", "ms"),
    ("render.ms", "ms"),
    ("render.bytes", "bytes"),
    ("batch.scan_ms", "ms"),
    ("batch.reanalysed", "count"),
    ("batch.spliced", "count"),
    ("op.ms", "ms"),
    ("op.count", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("host.slowdown", "ratio"),
    ("host.pace_points", "count"),
];

/// `part / whole`, 0 for an empty whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    specan: PathBuf,
    work: PathBuf,
    bless: bool,
    /// Where a traced run writes its spans.
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        specan: PathBuf::new(),
        work: PathBuf::from(".bench_work"),
        bless: false,
        spans: PathBuf::from(".bench_spans.ndjson"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--specan" => args.specan = PathBuf::from(value()?),
            "--work" => args.work = PathBuf::from(value()?),
            "--spans" => args.spans = PathBuf::from(value()?),
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.specan.as_os_str().is_empty() {
        return Err("--specan is required".into());
    }
    if !args.specan.is_file() {
        return Err(format!("no specan binary at {}", args.specan.display()));
    }
    Ok(args)
}

type Workload = fn(&Ctx, &mut Tally, &mut Golden, &mut Tracer) -> Result<Measured, String>;

fn workload(name: &str) -> Option<Workload> {
    match name {
        cold_panel::NAME => Some(cold_panel::run),
        edit_loop::NAME => Some(edit_loop::run),
        warm_service::NAME => Some(warm_service::run),
        _ => None,
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let run_workload = workload(&args.workload).ok_or(format!(
        "unknown workload `{}` (cold_panel, edit_loop or warm_service)",
        args.workload
    ))?;
    let mut golden =
        Golden::load(Path::new(GOLDEN)).map_err(|err| format!("cannot read {GOLDEN}: {err}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds.max(1)),
        specan: args.specan.clone(),
        work: args.work.clone(),
    };
    let mut tally = Tally::default();
    oracle::check_known_answers(&mut tally, &ctx.specan, Path::new(EXAMPLES));

    let fresh_work = |work: &PathBuf| {
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work)
            .map_err(|err| format!("cannot create {}: {err}", work.display()))
    };
    fresh_work(&ctx.work)?;
    let outcome = if args.trace {
        // Half the time untraced, half traced: the ratio of their op rates,
        // each at the reference pace, is the tracing overhead.
        let half = Ctx {
            seconds: ctx.seconds / 2,
            ..ctx
        };
        let plain = run_workload(&half, &mut tally, &mut golden, &mut Tracer::new(false));
        fresh_work(&half.work)?;
        let mut tracer = Tracer::new(true);
        let outcome = plain.and_then(|plain| {
            let mut traced = run_workload(&half, &mut tally, &mut golden, &mut tracer)?;
            let (ops, traced_rate, op_ms) = (
                traced.ops.len() as f64,
                traced.ops_per_s(),
                traced.mean_ms(),
            );
            let overhead = ratio(
                traced_rate * traced.slowdown(),
                plain.ops_per_s() * plain.slowdown(),
            );
            let (slowdown, points) = (traced.slowdown(), traced.pace.points() as f64);
            let layers = &mut traced.layers;
            layers.insert("op.ms", op_ms);
            layers.insert("op.count", ops);
            layers.insert("trace.ops_per_s", traced_rate);
            layers.insert("trace.untraced_ops_per_s", plain.ops_per_s());
            layers.insert("trace.overhead_ratio", overhead);
            layers.insert("host.slowdown", slowdown);
            layers.insert("host.pace_points", points);
            tracer
                .write_ndjson(&args.spans)
                .map_err(|err| format!("cannot write {}: {err}", args.spans.display()))?;
            Ok(traced)
        });
        let _ = std::fs::remove_dir_all(&half.work);
        outcome
    } else {
        let outcome = run_workload(&ctx, &mut tally, &mut golden, &mut Tracer::new(false));
        let _ = std::fs::remove_dir_all(&ctx.work);
        outcome
    };
    let measured = outcome?;
    if measured.ops.is_empty() {
        return Err("no op completed in the timed phase".into());
    }
    if measured.pace.points() == 0 {
        return Err("the host's pace was not sampled".into());
    }
    if args.bless {
        std::fs::write(GOLDEN, golden.blessed(&args.workload))
            .map_err(|err| format!("cannot write {GOLDEN}: {err}"))?;
    }
    for note in &tally.notes {
        eprintln!("perfbench: FAILED {note}");
    }
    println!("{}", report(&args, &measured, &tally));
    Ok(())
}

/// The human-readable table, then the one-line JSON result.
fn report(args: &Args, measured: &Measured, tally: &Tally) -> String {
    let (mut ops, mut paced_ops) = (measured.ops.clone(), measured.paced_ops());
    ops.sort_by(f64::total_cmp);
    paced_ops.sort_by(f64::total_cmp);
    let (tail, paced_tail) = (stats::Tail::of(&ops), stats::Tail::of(&paced_ops));
    let setups: Vec<f64> = measured.setups.iter().map(Duration::as_secs_f64).collect();
    let slowdown = measured.slowdown();
    let cpu_ms_per_op = measured.cpu_s * 1e3 / ops.len() as f64;
    let as_measured = [
        stats::median(&setups),
        measured.ops_per_s(),
        stats::median(&ops),
        tail.value,
        cpu_ms_per_op,
        measured.peak_rss_mib,
    ];
    let end_to_end = [
        stats::median(&measured.paced_setups()),
        measured.ops_per_s() * slowdown,
        stats::median(&paced_ops),
        paced_tail.value,
        cpu_ms_per_op / slowdown,
        measured.peak_rss_mib,
    ];
    let mut out = format!(
        "workload {} seed {} scale {} lines nproc {} ops {}; tail = p{:.1} ({} beyond)\n\
         host slowdown {:.3} over {} pace points ({:.3} in set-up)\n\
         {:<18} {:>14} {:>14}\n",
        args.workload,
        args.seed,
        gen::CACHE_LINES,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        ops.len(),
        tail.percentile,
        tail.beyond,
        slowdown,
        measured.pace.points(),
        measured.setup_pace.overall(),
        "",
        "paced",
        "as measured",
    );
    for (((name, unit), value), raw) in END_TO_END.iter().zip(end_to_end).zip(as_measured) {
        out.push_str(&format!("  {name:<16} {value:>14.4} {raw:>14.4} {unit}\n"));
    }
    out.push_str(&format!(
        "  {:<16} {:>14.4} (failed {} of {} attempted)\n",
        "failed_share",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    ));
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        for (name, unit) in PER_LAYER {
            let value = measured.layers.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("  {name:<26} {value:>16.4} {unit}\n"));
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (
                    *name,
                    *unit,
                    measured.layers.get(name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|((name, unit), value)| (*name, *unit, value))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    out.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    ));
    out
}
