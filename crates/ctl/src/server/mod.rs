//! The `escaped` daemon core: one live [`Session`] behind a unix socket.
//!
//! Concurrency model: an accept thread hands each connection to its own
//! reader thread, but every decoded request funnels through ONE mpsc
//! channel into the environment loop on the calling thread. That queue is
//! the serialization point — commands execute strictly one at a time
//! against the session, so admission control (soft/hard watermarks,
//! bounded queue) applies its backpressure to external callers exactly as
//! it does in-process: a hard-rejected deploy comes back as a framed
//! [`CtlError::RejectedHard`], never a dropped connection.
//!
//! Virtual time only advances when a client asks (`run-for`) unless
//! `tick_ms > 0` opts into background ticks — the default keeps same-seed
//! daemon runs byte-identical regardless of wall-clock scheduling. With a
//! `--state-dir`, each background tick is journaled through the WAL as a
//! synthetic `run-for` so tick-driven progress survives a crash.
//!
//! This file is the loop and its configuration. Each concern around it
//! owns its state in its own module: [`socket`] (signals, listener,
//! connection threads), [`watch`] (subscribers and the demand-driven
//! publisher), [`durable`] (idempotency window, write-ahead dispatch,
//! compaction, recovery) and [`exec`] (verb → session call → response).

mod durable;
mod exec;
mod socket;
mod watch;

pub use exec::execute;

use crate::proto::{CtlError, CtlEvent, CtlRequest, CtlResponse};
use durable::Durability;
use escape::Session;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use watch::{Publisher, Subscriber};

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket to listen on.
    pub socket: PathBuf,
    /// Virtual milliseconds to advance per idle poll interval; `0`
    /// (the default) advances time only on explicit `run-for` commands
    /// so same-seed runs stay byte-identical.
    pub tick_ms: u64,
    /// Directory to flush final telemetry into on shutdown
    /// (`metrics.prom` + `metrics.json`); `None` skips the flush.
    pub artifacts: Option<PathBuf>,
    /// Install SIGINT/SIGTERM handlers. In-process test daemons leave
    /// this off so they don't hijack the test runner's signals.
    pub handle_signals: bool,
    /// Durable state directory (write-ahead intent log + snapshot).
    /// `None` runs without crash safety; with a directory, every
    /// state-mutating verb is journaled and a restart on the same
    /// directory reconciles back to the pre-crash state.
    pub state_dir: Option<PathBuf>,
    /// Compact the WAL into a snapshot every this many committed
    /// mutations; `0` never compacts.
    pub wal_compact_every: u64,
}

/// Default WAL compaction interval (committed mutations per snapshot).
pub const DEFAULT_WAL_COMPACT_EVERY: u64 = 64;

impl DaemonConfig {
    pub fn new(socket: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket: socket.into(),
            tick_ms: 0,
            artifacts: None,
            handle_signals: false,
            state_dir: None,
            wal_compact_every: DEFAULT_WAL_COMPACT_EVERY,
        }
    }
}

/// What a connection thread asks of the environment loop.
enum Command {
    /// One request expecting exactly one response; the `Option<String>`
    /// is the client's idempotency `request_id`, if stamped.
    Request(CtlRequest, Option<String>, mpsc::Sender<CtlResponse>),
    /// A connection registering for server-push [`CtlEvent`] frames.
    Subscribe {
        sub: Subscriber,
        /// Journal cursor to resume from (`watch --since`).
        since: Option<u64>,
        /// Answered once the subscriber is registered, with the history
        /// `since` asked for (empty without it). The connection thread
        /// writes it between the ack and the live stream, so a replay is
        /// bounded by the journal and not by the subscriber's queue.
        replay: mpsc::Sender<Vec<CtlEvent>>,
    },
}

/// The daemon entry point. [`Daemon::run`] blocks the calling thread as
/// the environment loop until a `shutdown` verb or a termination signal
/// arrives, then tears down gracefully.
pub struct Daemon;

impl Daemon {
    /// Serves `session` on `cfg.socket` until shutdown. With a
    /// `state_dir`, durable state is recovered *before* the socket is
    /// claimed — a corrupt log refuses startup with a typed diagnosis
    /// instead of serving a silently partial environment. On exit every
    /// live chain is torn down transactionally, telemetry is flushed to
    /// `cfg.artifacts` if set, and the socket + state files are removed.
    pub fn run(mut session: Session, cfg: DaemonConfig) -> io::Result<()> {
        let mut durable = Durability::open(&mut session, &cfg).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("state recovery: {e}"))
        })?;
        let listener = socket::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        if cfg.handle_signals {
            socket::sig::install();
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Command>();
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || socket::accept_loop(listener, tx, shutdown))
        };

        let mut publisher = Publisher::default();
        loop {
            if cfg.handle_signals && socket::sig::requested() {
                break;
            }
            // The next command to execute and who (if anyone) waits for
            // its answer.
            let (req, request_id, reply) = match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Command::Request(CtlRequest::Shutdown, _id, reply)) => {
                    let _ = reply.send(CtlResponse::ShuttingDown);
                    break;
                }
                Ok(Command::Request(req, request_id, reply)) => (req, request_id, Some(reply)),
                // Registering executes nothing, so the session is exactly
                // as the previous publish left it: cursors based here
                // yield the frames always-advancing cursors would.
                Ok(Command::Subscribe { sub, since, replay }) => {
                    let _ = replay.send(publisher.subscribe(&session, sub, since));
                    continue;
                }
                // A background tick mutates durable state (virtual clock,
                // traffic delivery, autoscaler actions) just like a client
                // `run-for`, so it takes the same intent/commit path
                // through the WAL — otherwise a crash would silently lose
                // all tick-driven progress since the last snapshot.
                Err(mpsc::RecvTimeoutError::Timeout) if cfg.tick_ms > 0 => {
                    (CtlRequest::RunFor { ms: cfg.tick_ms }, None, None)
                }
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            // Answer first, then fan out what the command changed, then
            // fold the log if it is time.
            let resp = durable.dispatch(&mut session, &req, request_id.as_deref());
            match reply {
                Some(reply) => {
                    let _ = reply.send(resp);
                }
                None => {
                    if let CtlResponse::Error(e) = resp {
                        eprintln!("escaped: background tick not journaled: {e}");
                    }
                }
            }
            publisher.publish(&session);
            durable.maybe_compact(&session);
        }

        // Stop accepting, refuse anything already queued, then dismantle.
        // Dropping the publisher drops every subscriber channel, which
        // ends the writer threads and closes watching connections; a
        // dropped `Subscribe` hangs up its replay channel, which the
        // connection thread answers with `shutting-down`.
        shutdown.store(true, Ordering::SeqCst);
        drop(publisher);
        while let Ok(cmd) = rx.try_recv() {
            if let Command::Request(_req, _id, reply) = cmd {
                let _ = reply.send(CtlResponse::Error(CtlError::ShuttingDown));
            }
        }
        let failed = session.teardown_all();
        for (chain, e) in &failed {
            eprintln!("escaped: teardown of {chain} on shutdown failed: {e}");
        }
        if let Some(dir) = &cfg.artifacts {
            exec::flush_artifacts(&session, dir)?;
        }
        // A graceful exit leaves nothing to recover: remove the state
        // files like the socket. Crash recovery is exactly the case
        // where this line never ran.
        durable.remove_state_files();
        let _ = accept.join();
        drop(rx);
        let _ = fs::remove_file(&cfg.socket);
        Ok(())
    }
}
