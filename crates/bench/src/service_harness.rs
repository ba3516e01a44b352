//! Shared harness for driving a real `specan serve` process — used by the
//! `service_throughput` bench bin and the workspace's service-facing
//! integration suites (`service_equivalence`, `eviction_equivalence`,
//! `service_soak`), so the banner-scrape, log-drain, timing-strip,
//! program-generator and scratch-dir logic evolves in one place.

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

use spec_core::service::{Request, ServiceClient};

/// A spawned `specan serve` child on an ephemeral port.
///
/// [`ServeProcess::start`] scrapes the bound address from the server's
/// first stderr line (`serve: listening on <addr> ...`) and keeps a
/// background thread draining the per-request log so the server never
/// blocks on a full pipe.  Call [`ServeProcess::shutdown`] — or drop the
/// value — to stop it.
pub struct ServeProcess {
    child: Child,
    addr: String,
}

impl ServeProcess {
    /// Spawns `<specan> serve --addr 127.0.0.1:0 --jobs <jobs>`.
    ///
    /// # Panics
    ///
    /// Panics when the binary cannot be spawned or the banner line does
    /// not arrive — both setup failures a harness should fail loudly on.
    pub fn start(specan: &Path, jobs: usize) -> ServeProcess {
        Self::start_with_args(specan, jobs, &[])
    }

    /// Like [`ServeProcess::start`], with extra `serve` flags appended
    /// (e.g. `["--max-session-bytes", "65536"]` for the eviction suites).
    ///
    /// # Panics
    ///
    /// Same as [`ServeProcess::start`].
    pub fn start_with_args(specan: &Path, jobs: usize, extra: &[&str]) -> ServeProcess {
        let mut child = Command::new(specan)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
            ])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("specan serve spawns");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("serve prints its address");
        let addr = line
            .strip_prefix("serve: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
            .to_string();
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        ServeProcess { child, addr }
    }

    /// The `host:port` the server actually bound.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Hard-kills the server without a shutdown handshake — the harness's
    /// stand-in for a crash (or SIGKILL) in the warm-restart suites, which
    /// must prove that whatever survives on disk is enough to answer again.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Requests a graceful shutdown and reaps the child.  Best-effort and
    /// idempotent: a server that already died is simply reaped.
    pub fn shutdown(&mut self) {
        if let Ok(mut client) = ServiceClient::connect(&self.addr) {
            let _ = client.call(&Request::Shutdown);
        }
        let _ = self.child.wait();
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A spawned `specan gateway` child on an ephemeral port, fronting a fleet
/// of already-running backends.  Same banner-scrape and log-drain contract
/// as [`ServeProcess`]; the gateway's `shutdown` stops only the gateway —
/// each backend keeps its own lifecycle.
pub struct GatewayProcess {
    child: Child,
    addr: String,
}

impl GatewayProcess {
    /// Spawns `<specan> gateway --addr 127.0.0.1:0 --jobs <jobs>` with one
    /// `--backend <addr>` per entry of `backends`, plus `extra` flags
    /// (e.g. `["--probe-interval-ms", "100"]`).
    ///
    /// # Panics
    ///
    /// Panics when the binary cannot be spawned or the banner line does
    /// not arrive — both setup failures a harness should fail loudly on.
    pub fn start(specan: &Path, jobs: usize, backends: &[&str], extra: &[&str]) -> GatewayProcess {
        let mut command = Command::new(specan);
        command.args([
            "gateway",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
        ]);
        for backend in backends {
            command.args(["--backend", backend]);
        }
        let mut child = command
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("specan gateway spawns");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("gateway prints its address");
        let addr = line
            .strip_prefix("gateway: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected gateway banner: {line:?}"))
            .to_string();
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        GatewayProcess { child, addr }
    }

    /// The `host:port` the gateway actually bound.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests a graceful shutdown and reaps the child.  Best-effort and
    /// idempotent: a gateway that already died is simply reaped.
    pub fn shutdown(&mut self) {
        if let Ok(mut client) = ServiceClient::connect(&self.addr) {
            let _ = client.call(&Request::Shutdown);
        }
        let _ = self.child.wait();
    }
}

impl Drop for GatewayProcess {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Deterministic xorshift64* generator: the seed-reproducible randomness
/// behind every service property suite.
pub struct Rng(u64);

impl Rng {
    /// A generator from a fixed seed (zero is mapped to one).
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A draw uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A random textual program: straight-line loads, an optional input-branch
/// diamond, an optional secret-indexed lookup.  The same `name` across
/// regenerations makes a regeneration an in-place *edit* of the program —
/// which is what the warm-cache suites feed their servers.
pub fn random_program_text(rng: &mut Rng, name: &str) -> String {
    let mut out = format!("program {name}\nregion table 768\nregion flag 8\n\n");
    out.push_str("block main entry:\n");
    for _ in 0..1 + rng.below(5) {
        out.push_str(&format!("  load table[{}]\n", rng.below(12) * 64));
    }
    out.push_str("  load flag[0]\n");
    if rng.below(2) == 1 {
        out.push_str("  branch mem(flag[0]) input_bit(0) -> left, right\n\n");
        out.push_str(&format!(
            "block left:\n  load table[{}]\n  jump tail\n\n",
            rng.below(12) * 64
        ));
        out.push_str(&format!(
            "block right:\n  load table[{}]\n  jump tail\n\n",
            rng.below(12) * 64
        ));
        out.push_str("block tail:\n");
    }
    if rng.below(2) == 1 {
        out.push_str("  load table[secret*64]\n");
    } else {
        out.push_str(&format!("  load table[{}]\n", rng.below(12) * 64));
    }
    out.push_str("  ret\n");
    out
}

static SCRATCH_ID: AtomicUsize = AtomicUsize::new(0);

/// A process-unique scratch directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<tmp>/<label>-<pid>-<seq>`.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "{label}-{}-{}",
            std::process::id(),
            SCRATCH_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    /// The scratch directory itself.
    pub fn dir(&self) -> &Path {
        &self.0
    }

    /// Writes `contents` under `name` and returns the full path.
    ///
    /// # Panics
    ///
    /// Panics when the write fails.
    pub fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Zeroes the execution-describing fields of `analyze`/`compare` JSON
/// output — `"time_secs"` wall clocks and `"iterations"` worklist-pop
/// counts, which describe how a result was computed — the bytes
/// the byte-identity contracts strip on both sides (the CI gates' `sed`
/// is the shell twin of this function).
pub fn strip_analyze_timing(output: &str) -> String {
    let mut out = String::with_capacity(output.len());
    for line in output.lines() {
        let line = zero_numeric_field(line, "\"iterations\": ");
        if let Some(at) = line.find("\"time_secs\": ") {
            out.push_str(&line[..at]);
            out.push_str("\"time_secs\": 0");
            out.push_str(line[at..].find('}').map_or("", |_| "}"));
        } else {
            out.push_str(&line);
        }
        out.push('\n');
    }
    out
}

/// Replaces the integer following `prefix` with `0`, leaving the rest of
/// the line untouched.  No-op when the prefix is absent.
fn zero_numeric_field(line: &str, prefix: &str) -> String {
    let Some(at) = line.find(prefix) else {
        return line.to_string();
    };
    let start = at + prefix.len();
    let end = line[start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |offset| start + offset);
    format!("{}{prefix}0{}", &line[..at], &line[end..])
}
