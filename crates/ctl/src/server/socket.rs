//! Socket plumbing: signals, the listener, and the per-connection
//! threads that turn frames into [`Command`]s for the environment loop.

use super::watch::watch_loop;
use super::Command;
use crate::frame::{read_frame, write_frame};
use crate::proto::{CtlError, CtlRequest, CtlResponse};
use std::fs;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// POSIX signal plumbing without a libc dependency: `signal(2)` is
/// declared directly and the handler only touches an atomic flag, which
/// is all an async-signal-safe handler may do anyway.
pub(super) mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGINT and SIGTERM to the shutdown flag.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// True once a termination signal arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Binds the listener, reclaiming a stale socket file left by a crashed
/// daemon — but refusing to steal one a live daemon still answers on.
pub(super) fn bind(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is in use by a running daemon", path.display()),
                ));
            }
            fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

pub(super) fn accept_loop(
    listener: UnixListener,
    tx: mpsc::Sender<Command>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let _ = stream.set_nonblocking(false);
                let tx = tx.clone();
                let shutdown = Arc::clone(&shutdown);
                thread::spawn(move || connection_loop(stream, tx, shutdown));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// A frame's payload as the request it encodes.
fn decode(bytes: Vec<u8>) -> Result<(CtlRequest, Option<String>), CtlError> {
    let text = String::from_utf8(bytes).map_err(|e| CtlError::Malformed {
        offset: e.utf8_error().valid_up_to() as u64,
        reason: "payload is not UTF-8".into(),
    })?;
    CtlRequest::decode_enveloped(&text)
}

/// One client connection. Framing or decode failures answer with a typed
/// error and keep the connection open — only a transport failure (or the
/// client hanging up) ends the loop.
fn connection_loop(mut stream: UnixStream, tx: mpsc::Sender<Command>, shutdown: Arc<AtomicBool>) {
    loop {
        let bytes = match read_frame(&mut stream) {
            Ok(Some(b)) => b,
            Ok(None) | Err(_) => return,
        };
        let resp = match decode(bytes) {
            Ok((CtlRequest::Watch { topics, since }, _id)) => {
                watch_loop(stream, topics, since, tx, shutdown);
                return;
            }
            // `shutdown` is acknowledged here, before the loop hears of
            // it: once the loop breaks, the process may exit ahead of this
            // thread, and the ack must not die with it. Raising the flag
            // first keeps the promise the ack makes — whatever arrives
            // after it is refused.
            Ok((CtlRequest::Shutdown, _id)) if !shutdown.load(Ordering::SeqCst) => {
                shutdown.store(true, Ordering::SeqCst);
                let acked = reply(&mut stream, CtlResponse::ShuttingDown);
                let (unheard, _) = mpsc::channel();
                let _ = tx.send(Command::Request(CtlRequest::Shutdown, None, unheard));
                if acked.is_err() {
                    return;
                }
                continue;
            }
            Ok((req, request_id)) => {
                let (reply_tx, reply_rx) = mpsc::channel();
                if shutdown.load(Ordering::SeqCst)
                    || tx
                        .send(Command::Request(req, request_id, reply_tx))
                        .is_err()
                {
                    CtlResponse::Error(CtlError::ShuttingDown)
                } else {
                    reply_rx
                        .recv()
                        .unwrap_or(CtlResponse::Error(CtlError::ShuttingDown))
                }
            }
            Err(e) => CtlResponse::Error(e),
        };
        if reply(&mut stream, resp).is_err() {
            return;
        }
    }
}

pub(super) fn reply(stream: &mut UnixStream, resp: CtlResponse) -> io::Result<()> {
    write_frame(stream, &resp.encode())
}
