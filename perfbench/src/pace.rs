//! The host's pace: how long a fixed reference job takes on this machine
//! right now, against how long it took on the reference machine.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! with its neighbours' load, by a third or more over seconds and by up to
//! 1.8 times between runs of the same 60 `cold_panel` ops.  Every workload
//! therefore stops at *pace points* between its ops — off the clock, while
//! nothing else of the benchmark runs — and times a reference job there.
//! The stretch of the timed phase between two points ran at a *slowdown*:
//! the median of both points' samples over the job's reference time.  The
//! end-to-end times are reported at the reference machine's pace: each op's
//! latency divided by its stretch's slowdown.  An op and the samples around
//! it see the same seconds of the host, so this also takes out most of the
//! op-to-op noise.  The jobs are the benchmark's own code, so a change to
//! the code under test never changes them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A reference job, chosen to slow down with the host as the workload
/// does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Job {
    /// What the analysis does most: clone, age and join small ordered maps
    /// in a worklist fixpoint, then render the states as text and parse
    /// them back.  Its working set is far larger than a core's L1 cache, so
    /// it also feels the host's memory traffic, as the analysis does.
    Fixpoint,
    /// What a warm server does most: render numbers into a short text and
    /// parse them back, in a buffer that stays in L1.  A warm server's
    /// request time hardly moves with the host's memory traffic, which
    /// slows [`Job::Fixpoint`] by up to a fifth from run to run; this job
    /// slows only with the host's CPUs.
    Render,
}

impl Job {
    /// Runs the job once; returns a checksum, so none of it is optimised
    /// away.
    pub fn run(self) -> u64 {
        match self {
            Job::Fixpoint => fixpoint_job(),
            Job::Render => render_job(),
        }
    }

    /// Median time of one run, in ms, on the reference machine (2 vCPUs
    /// of a shared Xeon host): both jobs are sized to take 3 ms there.
    pub fn reference_ms(self) -> f64 {
        3.0
    }
}

/// Graph size of the fixpoint job.
const NODES: usize = 600;
/// Distinct memory blocks its nodes access.
const BLOCKS: u64 = 300;
/// Its cache associativity (ages are `0..WAYS`).
const WAYS: u8 = 32;

/// Numbers per text of the render job...
const NUMBERS: usize = 64;
/// ...and texts per run.
const TEXTS: usize = 800;

/// A must-cache fixpoint over a fixed pseudo-random graph (ages in ordered
/// maps, cloned per visit, aged per access, joined by intersection and
/// maximum), then every state rendered as text and parsed back.
fn fixpoint_job() -> u64 {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let succs: Vec<[usize; 2]> = (0..NODES)
        .map(|n| [(n + 1) % NODES, next() as usize % NODES])
        .collect();
    let accesses: Vec<[u32; 4]> = (0..NODES)
        .map(|_| std::array::from_fn(|_| (next() % BLOCKS) as u32))
        .collect();
    let mut states: Vec<Option<BTreeMap<u32, u8>>> = vec![None; NODES];
    states[0] = Some(BTreeMap::new());
    let mut worklist = vec![0];
    while let Some(node) = worklist.pop() {
        let mut state = states[node].clone().expect("queued nodes have a state");
        for &block in &accesses[node] {
            let age = state.get(&block).copied().unwrap_or(WAYS);
            for other in state.values_mut() {
                if *other < age {
                    *other += 1;
                }
            }
            state.retain(|_, other| *other < WAYS);
            state.insert(block, 0);
        }
        for &succ in &succs[node] {
            let joined = match &states[succ] {
                None => state.clone(),
                Some(old) => old
                    .iter()
                    .filter_map(|(block, age)| Some((*block, (*age).max(*state.get(block)?))))
                    .collect(),
            };
            if states[succ].as_ref() != Some(&joined) {
                states[succ] = Some(joined);
                worklist.push(succ);
            }
        }
    }
    let mut text = String::new();
    for state in states.iter().flatten() {
        for (block, age) in state {
            let _ = write!(text, "{block}:{age},");
        }
        text.push('\n');
    }
    text.split([',', '\n', ':'])
        .filter_map(|field| field.parse::<u64>().ok())
        .fold(0, |sum, value| sum.wrapping_mul(31).wrapping_add(value))
}

/// Pseudo-random numbers rendered as one short comma-separated text at a
/// time, in one reused buffer, and parsed back.
fn render_job() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut text = String::with_capacity(NUMBERS * 12);
    let mut sum = 0u64;
    for _ in 0..TEXTS {
        text.clear();
        for _ in 0..NUMBERS {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let _ = write!(text, "{},", x >> 40);
        }
        sum = text
            .split(',')
            .filter_map(|field| field.parse::<u64>().ok())
            .fold(sum, |sum, value| sum.wrapping_mul(31).wrapping_add(value));
    }
    sum
}

/// The reference job's times at the pace points of one phase of a run.
///
/// The job runs on threads of its own that live as long as the `Pace`, as
/// many at once as the workload keeps busy (so the host is sampled under
/// the same load).  The allocator gives each thread its own arena, so the
/// job's time does not depend on how the workload left this process's
/// heap.  Each sample runs the job twice and times the second run, which
/// thus starts with warm caches whatever ran before it.
#[derive(Debug)]
pub struct Pace {
    job: Job,
    threads: usize,
    /// The samples of each point, in ms.
    points: Vec<Vec<f64>>,
    pacers: Vec<Pacer>,
}

impl Default for Pace {
    fn default() -> Self {
        Pace::new(Job::Fixpoint, 1)
    }
}

#[derive(Debug)]
struct Pacer {
    requests: mpsc::Sender<()>,
    times: mpsc::Receiver<Duration>,
    thread: JoinHandle<()>,
}

impl Pacer {
    fn spawn(job: Job) -> Pacer {
        let (requests, asked) = mpsc::channel::<()>();
        let (timed, times) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for () in asked {
                std::hint::black_box(job.run());
                let started = Instant::now();
                std::hint::black_box(job.run());
                if timed.send(started.elapsed()).is_err() {
                    break;
                }
            }
        });
        Pacer {
            requests,
            times,
            thread,
        }
    }
}

impl Pace {
    /// A pace whose samples run `job` on `threads` threads at once.
    pub fn new(job: Job, threads: usize) -> Pace {
        Pace {
            job,
            threads: threads.max(1),
            points: Vec::new(),
            pacers: Vec::new(),
        }
    }

    /// A pace point: `samples` times, the job on every thread at once
    /// (blocking while it runs); returns how long that took, for the caller
    /// to keep off the clock.
    pub fn point(&mut self, samples: usize) -> Duration {
        let started = Instant::now();
        while self.pacers.len() < self.threads {
            self.pacers.push(Pacer::spawn(self.job));
        }
        let mut times = Vec::new();
        for _ in 0..samples {
            for pacer in &self.pacers {
                pacer
                    .requests
                    .send(())
                    .expect("the pace threads run while their Pace lives");
            }
            for pacer in &self.pacers {
                let time = pacer
                    .times
                    .recv()
                    .expect("the pace threads run while their Pace lives");
                times.push(time.as_secs_f64() * 1e3);
            }
        }
        self.points.push(times);
        started.elapsed()
    }

    /// Points taken so far.  Work done now belongs to stretch
    /// `points()`, the one that the next point ends.
    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// How many times slower than the reference machine stretch `k` (from
    /// point `k - 1` to point `k`) ran: the median sample of those two
    /// points (of those that exist) over the job's reference time.
    /// Measured times divided by it are at the reference machine's pace.
    pub fn slowdown(&self, k: usize) -> f64 {
        let around: Vec<f64> = self.points[k.saturating_sub(1)..(k + 1).min(self.points.len())]
            .iter()
            .flatten()
            .copied()
            .collect();
        crate::stats::median(&around) / self.job.reference_ms()
    }

    /// The median slowdown over the whole phase.
    pub fn overall(&self) -> f64 {
        let all: Vec<f64> = self.points.iter().flatten().copied().collect();
        crate::stats::median(&all) / self.job.reference_ms()
    }
}

impl Drop for Pace {
    fn drop(&mut self) {
        for Pacer {
            requests,
            times,
            thread,
        } in self.pacers.drain(..)
        {
            drop((requests, times));
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_runs_at_the_median_of_the_points_around_it() {
        for job in [Job::Fixpoint, Job::Render] {
            assert_eq!(job.run(), job.run());
        }
        let mut pace = Pace::default();
        let reference = Job::Fixpoint.reference_ms();
        let at = |slowdowns: &[f64]| slowdowns.iter().map(|s| s * reference).collect();
        pace.points = vec![at(&[1.0, 1.0]), at(&[3.0, 2.0]), at(&[5.0, 5.0])];
        assert_eq!(pace.slowdown(0), 1.0);
        assert_eq!(pace.slowdown(1), 1.5);
        assert_eq!(pace.slowdown(2), 4.0);
        // A stretch no point has ended yet: the last point alone.
        assert_eq!(pace.slowdown(3), 5.0);
        assert_eq!(pace.overall(), 2.5);
        assert!(pace.point(2) > Duration::ZERO);
        assert_eq!((pace.points(), pace.points[3].len()), (4, 2));
        let mut pair = Pace::new(Job::Render, 2);
        pair.point(3);
        assert_eq!(pair.points[0].len(), 6);
        assert!(pair.slowdown(1) > 0.0);
    }
}
