//! The control-socket client used by `escape ctl` and the tests.

use crate::frame::{read_frame, write_frame};
use crate::proto::{CtlEvent, CtlRequest, CtlResponse, WatchTopic};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a running `escaped`. A client may issue any number
/// of requests; each gets exactly one response frame, in order.
pub struct CtlClient {
    stream: UnixStream,
}

impl CtlClient {
    /// Connects to the daemon's unix socket.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<CtlClient> {
        Ok(CtlClient {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// Sends one typed request and reads the typed response.
    pub fn call(&mut self, req: &CtlRequest) -> io::Result<CtlResponse> {
        self.send_raw(&req.encode())
    }

    /// Like [`CtlClient::call`], but stamps the request with an
    /// idempotency token. The daemon remembers the outcome per token, so
    /// retrying the same mutating request after a crash-reconnect returns
    /// the original response instead of acting twice.
    pub fn call_with_id(&mut self, req: &CtlRequest, request_id: &str) -> io::Result<CtlResponse> {
        self.send_raw(&req.encode_enveloped(request_id))
    }

    /// Sends an arbitrary payload — the escape hatch the protocol tests
    /// use to ship deliberately malformed frames.
    pub fn send_raw(&mut self, payload: &str) -> io::Result<CtlResponse> {
        write_frame(&mut self.stream, payload)?;
        let bytes = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before responding",
            )
        })?;
        let text = String::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        CtlResponse::decode(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Subscribes this connection to server-push events. Consumes the
    /// client: after the `watching` ack the connection speaks only
    /// [`CtlEvent`] frames, which the returned handle yields in order.
    /// An empty topic list subscribes to everything. `since` asks the
    /// daemon to replay journal events from that sequence number before
    /// streaming live ones — the resume cursor for `watch --since`.
    pub fn watch(mut self, topics: &[WatchTopic], since: Option<u64>) -> io::Result<CtlWatch> {
        match self.call(&CtlRequest::Watch {
            topics: topics.to_vec(),
            since,
        })? {
            CtlResponse::Watching { topics } => Ok(CtlWatch {
                stream: self.stream,
                topics,
            }),
            CtlResponse::Error(e) => Err(io::Error::other(e.to_string())),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected watching ack, got {other:?}"),
            )),
        }
    }
}

/// A live subscription: a blocking iterator over pushed [`CtlEvent`]
/// frames. Dropping it hangs up, which makes the daemon evict the
/// subscription on its next push.
pub struct CtlWatch {
    stream: UnixStream,
    topics: Vec<WatchTopic>,
}

impl CtlWatch {
    /// The topics the daemon acknowledged.
    pub fn topics(&self) -> &[WatchTopic] {
        &self.topics
    }

    /// Blocks for the next pushed event; `Ok(None)` means the daemon
    /// closed the stream (shutdown or slow-consumer eviction).
    pub fn next_event(&mut self) -> io::Result<Option<CtlEvent>> {
        let bytes = match read_frame(&mut self.stream)? {
            Some(b) => b,
            None => return Ok(None),
        };
        let text = String::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        CtlEvent::decode(&text)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl Iterator for CtlWatch {
    type Item = io::Result<CtlEvent>;

    fn next(&mut self) -> Option<io::Result<CtlEvent>> {
        self.next_event().transpose()
    }
}
