//! Child processes of the program under test, reaped with `wait4(2)` so
//! each one's CPU time and peak resident set come from the kernel.

use std::ffi::{c_int, c_long};
use std::io;
use std::process::{Child, Command};
use std::time::Instant;

/// `struct timeval` as Linux defines it for `struct rusage`.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux defines it: two `timeval`s then fourteen
/// `long` counters, of which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_rest: [c_long; 13],
}

extern "C" {
    // The C library std already links provides this.
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// What the kernel reported about a reaped child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Wall-clock seconds from spawn to reaping.
    pub wall_s: f64,
    /// User plus system CPU seconds of the child and all its threads.
    pub cpu_s: f64,
    /// Peak resident set size, kilobytes.
    pub max_rss_kb: u64,
    /// Whether the child exited normally with status 0.
    pub success: bool,
}

/// A spawned child that is always reaped: dropping it kills and reaps the
/// process if [`Running::wait`] was never called, so no run leaves a
/// process behind on any exit path.
#[derive(Debug)]
pub struct Running {
    child: Option<Child>,
    started: Instant,
}

impl Running {
    /// Spawns `command`, starting the wall clock just before the fork.
    ///
    /// # Errors
    ///
    /// Any error from spawning.
    pub fn spawn(command: &mut Command) -> io::Result<Running> {
        let started = Instant::now();
        let child = command.spawn()?;
        Ok(Running {
            child: Some(child),
            started,
        })
    }

    /// When the child was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Blocks until the child exits and reaps it.
    ///
    /// # Errors
    ///
    /// Any error from `wait4` other than an interrupted call.
    #[allow(clippy::zombie_processes)] // `reap` waits with wait4(2).
    pub fn wait(mut self) -> io::Result<Exit> {
        let child = self.child.take().expect("a running child is reaped once");
        reap(&child, self.started)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(&child, self.started);
        }
    }
}

fn reap(child: &Child, started: Instant) -> io::Result<Exit> {
    let pid = c_int::try_from(child.id()).expect("Linux pids fit in a C int");
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` that wait4 fills; `pid` names a
        // child of this process that nothing else reaps (`Child::wait` is
        // never called on it).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Exit {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: seconds(&usage.ru_utime) + seconds(&usage.ru_stime),
        max_rss_kb: u64::try_from(usage.ru_maxrss).unwrap_or(0),
        // WIFEXITED with WEXITSTATUS 0 is exactly a zero status word.
        success: status == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaps_exit_status_cpu_and_rss() {
        let ok = Running::spawn(Command::new("true").arg("x"))
            .expect("spawn true")
            .wait()
            .expect("reap");
        assert!(ok.success);
        assert!(ok.max_rss_kb > 0);
        assert!(ok.wall_s > 0.0);
        let failed = Running::spawn(&mut Command::new("false"))
            .expect("spawn false")
            .wait()
            .expect("reap");
        assert!(!failed.success);
    }

    #[test]
    fn dropping_kills_and_reaps_the_child() {
        let sleeper = Running::spawn(Command::new("sleep").arg("30")).expect("spawn sleep");
        let pid = sleeper.child.as_ref().expect("still running").id();
        drop(sleeper);
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "the child was killed and reaped"
        );
    }
}
