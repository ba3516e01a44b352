//! CPU time and peak memory of the process under test, read from `/proc`
//! (and, for reaped children, from `wait4`).

use std::io::Read as _;
use std::os::unix::process::ExitStatusExt as _;
use std::process::{Command, ExitStatus, Output, Stdio};

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`sysconf(_SC_CLK_TCK)`, 100 on every Linux configuration in use).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds from `/proc/<pid>/stat`: `(user + system of the process,
/// user + system of its waited-for children)`.  `pid` may be `"self"`.
pub fn cpu_seconds(pid: &str) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime/stime/cutime/cstime are fields 14–17.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    let [utime, stime, cutime, cstime] = fields[..] else {
        return None;
    };
    Some((
        (utime + stime) / CLOCK_TICKS_PER_SEC,
        (cutime + cstime) / CLOCK_TICKS_PER_SEC,
    ))
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the process's `VmHWM` to its current resident set, so a later
/// [`peak_rss_mib`] covers only what ran after the reset.  Fails on a
/// kernel without `clear_refs` mode 5 (before Linux 4.0).
pub fn reset_peak_rss(pid: &str) -> Result<(), String> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
        .map_err(|err| format!("cannot reset the VmHWM of {pid}: {err}"))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux 64-bit ABI: two timevals, then 14 longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Runs `command` to its end like [`Command::output`], and also returns
/// the child's peak resident set in MiB.  The child is reaped with
/// `wait4`, whose `ru_maxrss` belongs to this child alone; once reaped,
/// its `/proc` entry and `VmHWM` are gone.
pub fn output_and_peak_rss(command: &mut Command) -> std::io::Result<(Output, f64)> {
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let stderr = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = stderr.read_to_end(&mut bytes);
        bytes
    });
    let mut stdout = Vec::new();
    let _ = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let stderr = stderr.join().unwrap_or_default();
    let pid = child.id() as i32;
    let mut status = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live and writable, `usage` has
        // the layout of the 64-bit Linux `struct rusage`, and `pid` is an
        // unreaped child of this process (`Child` never waited for it).
        if unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let output = Output {
        status: ExitStatus::from_raw(status),
        stdout,
        stderr,
    };
    Ok((output, usage.maxrss as f64 / 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process_and_a_reaped_child() {
        let (own, _) = cpu_seconds("self").expect("/proc/self/stat parses");
        assert!(own >= 0.0);
        assert!(peak_rss_mib("self").expect("VmHWM present") > 0.0);
        reset_peak_rss("self").expect("clear_refs accepts mode 5");
        assert!(peak_rss_mib("self").expect("VmHWM present") > 0.0);
        let (output, peak) =
            output_and_peak_rss(Command::new("sh").args(["-c", "echo out; echo err >&2; exit 3"]))
                .expect("spawn sh");
        assert_eq!(output.status.code(), Some(3));
        assert_eq!(
            (&output.stdout[..], &output.stderr[..]),
            (&b"out\n"[..], &b"err\n"[..])
        );
        assert!(peak > 0.0);
    }
}
