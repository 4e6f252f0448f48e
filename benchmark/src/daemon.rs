//! Spawning, watching and reaping the real `escaped`, and the run
//! directory everything the benchmark writes lives in.
//!
//! [`RunDir`] owns every daemon of a run: whatever path leaves the run —
//! return, failed check, panic, SIGINT — drops it, which kills and waits
//! for each child and removes sockets, state dirs and their copies.

use crate::gen::Observability;
use crate::run::Target;
use escape_ctl::proto::{CtlRequest, CtlResponse};
use escape_ctl::CtlClient;
use std::fs;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SIGINT/SIGTERM set a flag the run loop polls between rounds, so an
/// interrupted run still unwinds through [`RunDir`]'s cleanup. Same
/// libc-free `signal(2)` shim as `escape_ctl::server`.
pub mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the POSIX function of that signature, and
        // the handler only stores to an atomic, which is async-signal-safe.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// CPUs this process was started on. `available_parallelism` honours the
/// affinity mask, so it reads 1 once pinned: the first call keeps the
/// answer, and [`pin_to_one_cpu`] makes it before it narrows the mask.
pub fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins this process — and with it every daemon it spawns — to the
/// highest-numbered CPU. The calibrated clock divides the daemon's time
/// by a kernel timed on the generator's thread, which is only right when
/// both ran on the same core: on this host each core changes speed on its
/// own. The run is a closed loop, so generator and daemon take turns and
/// one core loses little. Returns the CPU, or `None` if the kernel
/// refused (the run then goes ahead unpinned and says so).
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = host_cpus().checked_sub(1).filter(|c| *c < 64)?;
    let mask: u64 = 1 << cpu;
    // SAFETY: `sched_setaffinity(2)` with pid 0 (this thread, before any
    // other is started) reads `cpusetsize` bytes from `mask`, which is a
    // live 8-byte value.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (rc == 0).then_some(cpu)
}

/// The directory a run works in, relative to the checkout root so unix
/// socket paths stay far below the 108-byte limit.
pub const RUN_DIR: &str = "target/benchmark/run";

pub struct RunDir {
    dir: PathBuf,
    escaped: PathBuf,
    children: Vec<(Child, PathBuf)>,
}

impl RunDir {
    /// Claims the run directory. Refuses if a daemon of an earlier run
    /// still answers on a socket in it; otherwise clears what that run
    /// left behind.
    pub fn claim(escaped: &Path) -> Result<RunDir, String> {
        let dir = PathBuf::from(RUN_DIR);
        if let Ok(entries) = fs::read_dir(&dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "sock") && UnixStream::connect(&p).is_ok() {
                    return Err(format!(
                        "a daemon from an earlier run still answers on {}; stop it first",
                        p.display()
                    ));
                }
            }
            fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        if !escaped.is_file() {
            return Err(format!("no escaped binary at {}", escaped.display()));
        }
        Ok(RunDir {
            dir,
            escaped: escaped.to_path_buf(),
            children: Vec::new(),
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Starts `escaped` on `<name>.sock` with `--state-dir <state>` and
    /// waits until the socket accepts. Returns the child's pid and a
    /// connected client.
    pub fn spawn(
        &mut self,
        name: &str,
        topo: &Path,
        state: &Path,
        seed: u64,
        obs: Observability,
    ) -> Result<(u32, CtlClient), String> {
        let socket = self.path(&format!("{name}.sock"));
        let log = fs::File::create(self.path(&format!("{name}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(&self.escaped)
            .arg("--socket")
            .arg(&socket)
            .arg("--topo")
            .arg(topo)
            .arg("--state-dir")
            .arg(state)
            .args(["--seed", &seed.to_string()])
            .args(["--flight-recorder", &obs.flight_recorder.to_string()])
            .args(["--sample-ms", &obs.sample_ms.to_string()])
            .args(["--sample-retention", &obs.sample_retention.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.escaped.display()))?;
        let pid = child.id();
        self.children.push((child, socket.clone()));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(c) = CtlClient::connect(&socket) {
                return Ok((pid, c));
            }
            let (child, _) = self.children.last_mut().expect("just pushed");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "escaped exited ({status}): {}",
                    self.log_tail(name)
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("escaped never accepted on {}", socket.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `kill -9`s one daemon and waits for it: the crash the recovery
    /// trials restart from, and how every daemon of a run ends (a
    /// graceful shutdown would spend a second tearing 120 chains down).
    pub fn kill(&mut self, pid: u32) {
        if let Some(i) = self.children.iter().position(|(c, _)| c.id() == pid) {
            let (mut child, socket) = self.children.remove(i);
            let _ = child.kill();
            let _ = child.wait();
            let _ = fs::remove_file(socket);
        }
    }

    pub fn log_tail(&self, name: &str) -> String {
        let text = fs::read_to_string(self.path(&format!("{name}.log"))).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(5).collect();
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        for (mut child, _) in self.children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// The daemon's socket as a [`Target`].
pub struct Socket {
    pub client: CtlClient,
    pub pid: u32,
}

impl Target for Socket {
    fn call(&mut self, req: &CtlRequest) -> Result<CtlResponse, String> {
        self.client.call(req).map_err(|e| format!("socket: {e}"))
    }

    /// The daemon's main thread is its environment loop; it sleeps in
    /// `recv_timeout` exactly when nothing is left to do.
    fn quiesce(&mut self) {
        let stat = format!("/proc/{}/stat", self.pid);
        for _ in 0..100_000 {
            let text = fs::read_to_string(&stat).unwrap_or_default();
            let state = text.rsplit_once(") ").map_or("", |(_, rest)| rest);
            if !state.starts_with('R') {
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// Copies a state directory (flat: `wal.log`, `snapshot.json`) and
/// syncs the copy. The original is durable — the daemon fsynced every
/// record — so the copy must be too, or the restarted daemon's first
/// fsync would pay for flushing it and `recover_s` would time the disk.
pub fn copy_state(from: &Path, to: &Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("copy state {}: {e}", from.display());
    fs::create_dir_all(to).map_err(err)?;
    for e in fs::read_dir(from).map_err(err)? {
        let e = e.map_err(err)?;
        let copy = to.join(e.file_name());
        fs::copy(e.path(), &copy).map_err(err)?;
        fs::File::open(&copy)
            .and_then(|f| f.sync_all())
            .map_err(err)?;
    }
    fs::File::open(to).and_then(|d| d.sync_all()).map_err(err)
}

/// Bytes held by a state directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// What `/proc/<pid>` says about a daemon.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub hwm_kb: u64,
    pub rss_kb: u64,
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

pub fn proc_stat(pid: u32) -> Result<ProcStat, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let field = |key: &str| -> u64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 Hz on Linux).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|n| n.parse::<u64>().ok())
        .sum();
    Ok(ProcStat {
        hwm_kb: field("VmHWM:"),
        rss_kb: field("VmRSS:"),
        cpu_s: ticks as f64 / 100.0,
        ctx_switches: field("voluntary_ctxt_switches:") + field("nonvoluntary_ctxt_switches:"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_reads_this_process() {
        let s = proc_stat(std::process::id()).unwrap();
        assert!(s.hwm_kb >= s.rss_kb && s.rss_kb > 0, "{s:?}");
    }
}
