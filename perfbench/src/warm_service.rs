//! `warm_service`: the warm-reuse path of a live `specan serve --jobs
//! <nproc> --artifact-dir D --max-session-bytes B`.  Set-up prewarms it
//! serially with every (program, request kind) pair, so every round is
//! memoized and persisted; then `nproc` closed-loop connections each keep
//! one request outstanding, drawing analyze (text and JSON), compare and
//! two-program scan requests uniformly by seed: no measured traffic says
//! which kinds are more common.  An op is one request.
//!
//! The working set — 8 cheap corpus programs × 3 variants — exceeds both
//! the 16-entry per-worker L0 tier and `B`, so requests also reach the
//! shared L1 and reload evicted sessions from the store.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use spec_core::batch::{run_bundle, ExecMode, PanelKind, PanelSpec};
use spec_core::json::JsonValue;
use spec_core::service::{self, AnalyzeConfig, ClientOptions, Request, Response, ServiceClient};
use spec_core::{Analyzer, PreparedProgram};
use spec_ir::text::parse_program;

use crate::gen::{self, Lcg, Source};
use crate::oracle::{self, Golden, Tally};
use crate::pace::Job;
use crate::trace::Tracer;
use crate::{ratio, sys, Ctx, Measured};

pub const NAME: &str = "warm_service";

/// Base programs: the ETE and crypto programs whose cold panels are the
/// cheapest at the benchmark scale, which keeps the prewarm short.
const BASES: [&str; 8] = [
    "vga", "jcphuff", "g72", "str2key", "hash", "salsa", "ocb", "encoder",
];

/// Variants per base (see [`gen::variant`]): 24 programs in all.
const VARIANTS: usize = 3;

/// The server's session byte budget `B`: about half of what the 24
/// prewarmed sessions occupy, so budget evictions are routine.
const MAX_SESSION_BYTES: u64 = 6 * 1024 * 1024;

/// Length of a segment of the timed phase...
const SEGMENT: Duration = Duration::from_secs(1);
/// ...and the samples of the pace point after each (and before the first).
const PACE_SAMPLES: usize = 3;

/// Read deadline on every response; a request slower than this fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    AnalyzeText,
    AnalyzeJson,
    Compare,
    Scan,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::AnalyzeText,
        Kind::AnalyzeJson,
        Kind::Compare,
        Kind::Scan,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::AnalyzeText => "analyze_text",
            Kind::AnalyzeJson => "analyze_json",
            Kind::Compare => "compare",
            Kind::Scan => "scan",
        }
    }

    /// A request kind, every kind equally likely.
    fn draw(rng: &mut Lcg) -> Kind {
        Kind::ALL[rng.index(Kind::ALL.len())]
    }
}

/// Every request the benchmark can send, with the answer a fresh one-shot
/// run gives: `(kind, program index) → (request, exit, stripped output)`.
struct Expected {
    programs: Vec<Source>,
    answers: BTreeMap<(Kind, usize), (Request, u8, String)>,
    /// Fresh sessions of every program, kept warm for the render probe.
    prepared: Vec<PreparedProgram>,
}

fn analyze_config(json: bool) -> AnalyzeConfig {
    AnalyzeConfig {
        cache_lines: gen::CACHE_LINES as usize,
        json,
        ..AnalyzeConfig::default()
    }
}

fn scan_panel() -> PanelSpec {
    PanelSpec {
        kind: PanelKind::LeakCheck,
        cache_lines: gen::CACHE_LINES as usize,
    }
}

/// The scan request `i` covers programs `i` and `i + 1` (cyclically).
fn scan_pair(i: usize, n: usize) -> [usize; 2] {
    [i, (i + 1) % n]
}

impl Expected {
    fn compute(work: &Path) -> Result<Self, String> {
        let corpus = gen::corpus();
        let programs: Vec<Source> = gen::select(&corpus, &BASES)
            .iter()
            .flat_map(|base| (0..VARIANTS).map(|k| gen::variant(base, k)))
            .collect();
        let dir = work.join("expected");
        std::fs::create_dir_all(&dir).map_err(|err| format!("mkdir: {err}"))?;
        let mut answers = BTreeMap::new();
        let mut prepared = Vec::new();
        for (i, source) in programs.iter().enumerate() {
            let program = parse_program(&source.text).map_err(|err| err.to_string())?;
            let fresh = Analyzer::new().prepare(&program);
            let compare = service::compare_output(&fresh, gen::CACHE_LINES as usize, true)?;
            let request = Request::Compare {
                source: source.text.clone(),
                cache_lines: gen::CACHE_LINES as usize,
                json: true,
            };
            answers.insert(
                (Kind::Compare, i),
                (request, 0, oracle::strip_timing(&compare)),
            );
            for (kind, json) in [(Kind::AnalyzeText, false), (Kind::AnalyzeJson, true)] {
                let config = analyze_config(json);
                let output = service::analyze_output(&fresh, &config)?;
                let request = Request::Analyze {
                    source: source.text.clone(),
                    config,
                };
                answers.insert((kind, i), (request, 0, oracle::strip_timing(&output)));
            }
            std::fs::write(dir.join(format!("{}.spec", source.name)), &source.text)
                .map_err(|err| format!("write: {err}"))?;
            prepared.push(fresh);
        }
        for i in 0..programs.len() {
            let pair = scan_pair(i, programs.len());
            let files: Vec<PathBuf> = pair
                .iter()
                .map(|&j| dir.join(format!("{}.spec", programs[j].name)))
                .collect();
            let report = run_bundle(&files, scan_panel(), 1, &ExecMode::InProcess)
                .map_err(|e| e.to_string())?;
            let request = Request::Scan {
                sources: pair.iter().map(|&j| programs[j].text.clone()).collect(),
                panel: scan_panel(),
                json: true,
            };
            let output = oracle::strip_timing(&service::scan_output(&report, true));
            answers.insert(
                (Kind::Scan, i),
                (request, u8::from(report.any_leak()), output),
            );
        }
        Ok(Expected {
            programs,
            answers,
            prepared,
        })
    }

    /// Whether `response` is the expected answer; the reason if not.
    fn verify(&self, kind: Kind, index: usize, response: &Response) -> Result<(), String> {
        let (_, exit, output) = &self.answers[&(kind, index)];
        if !response.ok {
            return Err(format!("error response: {:?}", response.error));
        }
        if response.exit != *exit {
            return Err(format!("exit {} (expected {exit})", response.exit));
        }
        if oracle::strip_timing(&response.output) != *output {
            return Err("output differs from a fresh one-shot run".into());
        }
        Ok(())
    }
}

/// A running `specan serve`, shut down (or killed) when dropped.
struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn spawn(ctx: &Ctx, dir: &Path, jobs: usize) -> Result<Server, String> {
        let mut child = Command::new(&ctx.specan)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
            ])
            .arg("--artifact-dir")
            .arg(dir.join("artifacts"))
            .args(["--max-session-bytes", &MAX_SESSION_BYTES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|err| format!("cannot spawn specan serve: {err}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the address off the first line, then drains the per-request
        // log so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stderr).lines();
            let first = lines.next().and_then(Result::ok).unwrap_or_default();
            let _ = tx.send(first);
            for _ in lines {}
        });
        let mut server = Server {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let first = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "specan serve printed no address".to_string())?;
        server.addr = first
            .split_once("listening on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .ok_or(format!("unexpected serve banner `{first}`"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn client(&self) -> Result<ServiceClient, String> {
        ServiceClient::connect_with(
            &self.addr,
            ClientOptions {
                connect_timeout: Some(Duration::from_secs(10)),
                read_timeout: Some(READ_TIMEOUT),
            },
        )
        .map_err(|err| format!("cannot connect to {}: {err}", self.addr))
    }

    /// `metrics` scrape: every sample of the exposition by series.
    fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let response = self.inline(&Request::Metrics)?;
        Ok(response
            .output
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// `status`: the session counters.
    fn status(&self) -> Result<BTreeMap<String, f64>, String> {
        let response = self.inline(&Request::Status)?;
        let doc = JsonValue::parse(&response.output).map_err(|err| err.to_string())?;
        let session = doc.get("session").ok_or("status has no session")?;
        Ok([
            "l0_hits",
            "l1_hits",
            "store_hits",
            "store_misses",
            "session_evictions",
        ]
        .iter()
        .map(|key| {
            let value = session.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            (key.to_string(), value as f64)
        })
        .collect())
    }

    fn inline(&self, request: &Request) -> Result<Response, String> {
        let response = self
            .client()?
            .call(request)
            .map_err(|err| format!("{request:?} failed: {err}"))?;
        if response.ok {
            Ok(response)
        } else {
            Err(format!("error response: {:?}", response.error))
        }
    }

    /// Asks the server to stop and waits for it (killing it after 30 s).
    fn stop(&mut self) {
        if let Ok(mut client) = self.client() {
            let _ = client.call(&Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.stop();
        }
    }
}

/// `round_misses` / `round_hits` of a compare response's session counters.
fn round_counts(response: &Response) -> Option<(u64, u64)> {
    let doc = JsonValue::parse(&response.output).ok()?;
    let cache = doc.get("session_cache")?;
    Some((
        cache.get("round_misses")?.as_u64()?,
        cache.get("round_hits")?.as_u64()?,
    ))
}

/// One request of the timed phase.
struct Sample {
    kind: Kind,
    index: usize,
    started: Instant,
    finished: Instant,
    /// The pace stretch (segment) it ran in.
    stretch: usize,
    rounds: Option<(u64, u64)>,
    failure: Option<String>,
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    golden: &mut Golden,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let mut measured = Measured::default();
    let expected = Expected::compute(&ctx.work)?;
    for kind in Kind::ALL {
        let outputs: String = (0..expected.programs.len())
            .map(|i| expected.answers[&(kind, i)].2.as_str())
            .collect();
        golden.check(tally, NAME, kind.name(), &outputs);
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Set up from scratch as often as `wants_setup` asks; the last server
    // serves the run.
    let mut server = None;
    let mut last_rounds: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    while measured.wants_setup() {
        if let Some(mut previous) = server.take() {
            Server::stop(&mut previous);
        }
        let dir = ctx.work.join(format!("serve{}", measured.setups.len()));
        let started = Instant::now();
        let live = Server::spawn(ctx, &dir, jobs)?;
        let mut client = live.client()?;
        for (&(kind, index), (request, _, _)) in &expected.answers {
            let response = client
                .call(request)
                .map_err(|err| format!("prewarm {} #{index} failed: {err}", kind.name()))?;
            if let Err(why) = expected.verify(kind, index, &response) {
                tally.check(false, || format!("prewarm {} #{index}: {why}", kind.name()));
            }
            if kind == Kind::Compare {
                if let Some(rounds) = round_counts(&response) {
                    last_rounds.insert(index, rounds);
                }
            }
        }
        measured.push_setup(started.elapsed());
        server = Some(live);
    }
    let server = server.expect("at least one set-up");
    let pid = server.pid();
    // The peak resident set of the timed phase alone, not of the prewarm.
    sys::reset_peak_rss(&pid)?;

    let metrics_before = server.metrics()?;
    let status_before = server.status()?;
    let cpu_before = sys::cpu_seconds(&pid)
        .ok_or("cannot read the server's stat")?
        .0;
    // The timed phase runs in segments; between two, with the server idle,
    // the host's pace is sampled with the render job on as many threads as
    // the server has workers.  The connections stay open across segments.
    let mut connections = (0..jobs)
        .map(|c| {
            Ok(Connection {
                rng: Lcg::new(ctx.seed.wrapping_mul(31).wrapping_add(c as u64)),
                client: Some(server.client()?),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut samples: Vec<Sample> = Vec::new();
    let mut wall = Duration::ZERO;
    measured.pace_with(Job::Render, jobs);
    measured.pace_point(PACE_SAMPLES);
    while wall < ctx.seconds {
        let stretch = measured.pace_stretch();
        let segment_started = Instant::now();
        let deadline = segment_started + SEGMENT.min(ctx.seconds - wall);
        std::thread::scope(|scope| {
            let workers: Vec<_> = connections
                .iter_mut()
                .map(|connection| {
                    let expected = &expected;
                    scope.spawn(move || closed_loop(connection, expected, deadline, stretch))
                })
                .collect();
            for worker in workers {
                samples.extend(worker.join().expect("client thread panicked"));
            }
        });
        wall += segment_started.elapsed();
        measured.pace_point(PACE_SAMPLES);
    }
    measured.wall = wall;
    measured.cpu_s = sys::cpu_seconds(&pid)
        .ok_or("cannot read the server's stat")?
        .0
        - cpu_before;
    measured.peak_rss_mib = sys::peak_rss_mib(&pid).ok_or("cannot read the server's VmHWM")?;
    let metrics_after = server.metrics()?;
    let status_after = server.status()?;
    drop(server);

    samples.sort_by_key(|sample| sample.finished);
    let (mut rounds_solved, mut rounds_replayed) = (0u64, 0u64);
    for sample in &samples {
        measured.push_op_in(sample.finished - sample.started, sample.stretch);
        let failure = sample.failure.clone();
        tally.check(failure.is_none(), || {
            format!(
                "{} #{}: {}",
                sample.kind.name(),
                sample.index,
                failure.unwrap_or_default()
            )
        });
        // Session counters start from zero in a restored or re-prepared
        // session, so a drop below the last value seen means a new
        // session and the new value counts whole.
        if let Some((misses, hits)) = sample.rounds {
            let (last_misses, last_hits) =
                last_rounds.get(&sample.index).copied().unwrap_or((0, 0));
            let grew = |now: u64, last: u64| if now >= last { now - last } else { now };
            rounds_solved += grew(misses, last_misses);
            rounds_replayed += grew(hits, last_hits);
            last_rounds.insert(sample.index, (misses, hits));
        }
    }
    if tracer.enabled() {
        for sample in &samples {
            tracer.record_between("op", sample.started, sample.finished);
        }
        let render_bytes = render_probes(tracer, &expected);
        let delta = |name: &str| {
            metrics_after.get(name).copied().unwrap_or(0.0)
                - metrics_before.get(name).copied().unwrap_or(0.0)
        };
        let status = |key: &str| status_after[key] - status_before[key];
        let mean_ms = |family: &str, labels: &str| {
            1e3 * ratio(
                delta(&format!("{family}_sum{labels}")),
                delta(&format!("{family}_count{labels}")),
            )
        };
        let request_sum: f64 = ["analyze", "compare", "scan"]
            .iter()
            .map(|kind| delta(&format!("spec_request_seconds_sum{{kind=\"{kind}\"}}")))
            .sum();
        let request_count: f64 = ["analyze", "compare", "scan"]
            .iter()
            .map(|kind| delta(&format!("spec_request_seconds_count{{kind=\"{kind}\"}}")))
            .sum();
        let errors: f64 = metrics_after
            .keys()
            .filter(|series| {
                series.starts_with("spec_requests_total") && series.contains("outcome=\"error\"")
            })
            .map(|series| delta(series))
            .sum();
        let request_ms = 1e3 * ratio(request_sum, request_count);
        let client_ms = measured.mean_ms();
        let cold = delta("spec_cache_acquire_seconds_count{tier=\"cold\"}");
        let warm = status("l0_hits") + status("l1_hits") + status("store_hits");
        let times = tracer.self_times();
        let layers = &mut measured.layers;
        for (name, value) in [
            ("fixpoint.rounds_solved", rounds_solved as f64),
            ("fixpoint.rounds_replayed", rounds_replayed as f64),
            (
                "fixpoint.round_hit_ratio",
                ratio(
                    rounds_replayed as f64,
                    (rounds_solved + rounds_replayed) as f64,
                ),
            ),
            ("tier.l0_hits", status("l0_hits")),
            ("tier.l1_hits", status("l1_hits")),
            ("tier.store_hits", status("store_hits")),
            ("tier.cold", cold),
            ("tier.hit_ratio", ratio(warm, warm + cold)),
            (
                "tier.l0.acquire_ms",
                mean_ms("spec_cache_acquire_seconds", "{tier=\"l0\"}"),
            ),
            (
                "tier.l1.acquire_ms",
                mean_ms("spec_cache_acquire_seconds", "{tier=\"l1\"}"),
            ),
            (
                "tier.store.acquire_ms",
                mean_ms("spec_cache_acquire_seconds", "{tier=\"store\"}"),
            ),
            ("session.evictions", status("session_evictions")),
            (
                "service.queue_wait_ms",
                mean_ms("spec_queue_wait_seconds", ""),
            ),
            (
                "service.acquire_ms",
                mean_ms("spec_phase_seconds", "{phase=\"acquire\"}"),
            ),
            (
                "service.run_ms",
                mean_ms("spec_phase_seconds", "{phase=\"run\"}"),
            ),
            (
                "service.persist_ms",
                mean_ms("spec_phase_seconds", "{phase=\"persist\"}"),
            ),
            ("service.request_ms", request_ms),
            ("service.errors", errors),
            ("service.transport_ms", client_ms - request_ms),
            (
                "store.load_ms",
                mean_ms("spec_store_io_seconds", "{op=\"load\"}"),
            ),
            (
                "store.save_ms",
                mean_ms("spec_store_io_seconds", "{op=\"persist\"}"),
            ),
            ("store.hits", status("store_hits")),
            ("store.misses", status("store_misses")),
            (
                "artifact.bytes",
                ratio(
                    delta("spec_store_io_bytes_total{op=\"load\"}"),
                    delta("spec_store_io_seconds_count{op=\"load\"}"),
                ),
            ),
            (
                "render.ms",
                times.get("render").map_or(0.0, |t| t.mean_ms()),
            ),
            ("render.bytes", render_bytes),
        ] {
            layers.insert(name, value);
        }
    }
    Ok(measured)
}

/// One client connection and the seeded stream its requests follow; the
/// connection is dropped once a transport error breaks it.
struct Connection {
    rng: Lcg,
    client: Option<ServiceClient>,
}

/// One connection's closed loop until `deadline`, in pace stretch
/// `stretch`: a request drawn from its stream, its answer, repeat.
fn closed_loop(
    connection: &mut Connection,
    expected: &Expected,
    deadline: Instant,
    stretch: usize,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let n = expected.programs.len();
    while let (Some(client), true) = (&mut connection.client, Instant::now() < deadline) {
        let rng = &mut connection.rng;
        let kind = Kind::draw(rng);
        let index = rng.index(n);
        let (request, _, _) = &expected.answers[&(kind, index)];
        let started = Instant::now();
        let response = client.call(request);
        let finished = Instant::now();
        let (rounds, failure) = match &response {
            Ok(response) => (
                (kind == Kind::Compare)
                    .then(|| round_counts(response))
                    .flatten(),
                expected.verify(kind, index, response).err(),
            ),
            Err(err) => (None, Some(format!("transport: {err}"))),
        };
        if response.is_err() {
            connection.client = None;
        }
        samples.push(Sample {
            kind,
            index,
            started,
            finished,
            stretch,
            rounds,
            failure,
        });
    }
    samples
}

/// The render layer alone: each request kind re-rendered from the fresh,
/// already-run local sessions (every round memoized, so no fixpoint work).
/// Returns the mean rendered bytes.
fn render_probes(tracer: &mut Tracer, expected: &Expected) -> f64 {
    let mut outputs = Vec::new();
    for prepared in &expected.prepared {
        for json in [false, true] {
            outputs.push(tracer.span("render", |_| {
                service::analyze_output(prepared, &analyze_config(json))
            }));
        }
        outputs.push(tracer.span("render", |_| {
            service::compare_output(prepared, gen::CACHE_LINES as usize, true)
        }));
    }
    let bytes: usize = outputs.iter().flatten().map(String::len).sum();
    ratio(bytes as f64, outputs.len() as f64)
}
