//! Crash-safety witnesses: `escaped` daemons killed with SIGKILL and
//! restarted on the same `--state-dir` must reconcile back to exactly
//! the state of a never-crashed same-seed run.
//!
//! Covers the full loop as a real subprocess (deploy → traffic →
//! run-for → scale, `kill -9`, restart, fingerprint equality against an
//! uncrashed control daemon), the mid-flight shapes a SIGKILL leaves in
//! the intent log (dangling deploy and dangling scale-migration intents
//! are rolled back, never half-applied), client-retry idempotency
//! across the crash (`request_id` dedup survives restart), and journal
//! cursor continuity (`watch --since` replays pre-shutdown history).

use escape::session::demo_topology;
use escape::{Session, SessionConfig};
use escape_ctl::proto::{CtlEvent, CtlRequest, CtlResponse, SgFormat};
use escape_ctl::server::{Daemon, DaemonConfig};
use escape_ctl::{CtlClient, Wal};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const DEMO_SG: &str = "sap sap0 sap1\n\
                       vnf fw type=firewall cpu=1\n\
                       chain demo = sap0 -> fw -> sap1 bw=50\n";

/// A second, distinct chain used as the "mid-flight at crash" deploy.
const GHOST_SG: &str = "sap sap0 sap1\n\
                       vnf mon type=monitor cpu=1\n\
                       chain ghost = sap0 -> mon -> sap1 bw=10\n";

/// A socket or state directory in the temp dir, removed when the test
/// ends — pass or fail. A `kill -9`'d daemon cannot unlink its own
/// socket, and a failed assertion skips whatever cleanup follows it.
struct TempPath(PathBuf);

impl TempPath {
    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        self.remove();
    }
}

/// A path no earlier run's leftovers occupy.
fn temp_path(name: &str, ext: &str) -> TempPath {
    let path = TempPath(
        std::env::temp_dir().join(format!("escape-restart-{name}-{}{ext}", std::process::id())),
    );
    path.remove();
    path
}

fn default_session(seed: u64) -> Session {
    Session::new(
        demo_topology(),
        SessionConfig {
            seed,
            flight_recorder: Some(65_536),
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

fn spawn_daemon(session: Session, cfg: DaemonConfig) -> JoinHandle<()> {
    thread::spawn(move || Daemon::run(session, cfg).unwrap())
}

fn connect(socket: &Path) -> CtlClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match CtlClient::connect(socket) {
            Ok(c) => return c,
            Err(e) if Instant::now() > deadline => {
                panic!("daemon never came up on {}: {e}", socket.display())
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn call(client: &mut CtlClient, req: CtlRequest) -> CtlResponse {
    client.call(&req).unwrap()
}

fn deploy_req(sg: &str) -> CtlRequest {
    CtlRequest::Deploy {
        sg: sg.into(),
        format: SgFormat::Dsl,
    }
}

fn fingerprint(client: &mut CtlClient) -> String {
    match call(client, CtlRequest::Fingerprint) {
        CtlResponse::Fingerprint { digest } => digest,
        other => panic!("fingerprint: {other:?}"),
    }
}

fn status(client: &mut CtlClient) -> escape_ctl::StatusInfo {
    match call(client, CtlRequest::Status) {
        CtlResponse::Status(s) => s,
        other => panic!("status: {other:?}"),
    }
}

/// Runs `script` against a fresh in-process daemon (no state dir) and
/// returns the resulting state fingerprint — the uncrashed control.
fn control_fingerprint(name: &str, seed: u64, script: impl FnOnce(&mut CtlClient)) -> String {
    let socket = temp_path(name, ".sock");
    let daemon = spawn_daemon(
        default_session(seed),
        DaemonConfig::new(socket.to_path_buf()),
    );
    let mut c = connect(&socket);
    script(&mut c);
    let digest = fingerprint(&mut c);
    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
    digest
}

/// Writes a WAL holding `committed` intent+commit pairs followed by one
/// dangling intent — byte-for-byte the log a SIGKILL between writing
/// an intent and its commit marker leaves behind.
fn craft_wal(dir: &Path, seed: u64, committed: &[CtlRequest], dangling: &CtlRequest) {
    let (mut wal, rec) = Wal::open(dir, seed).unwrap();
    assert!(!rec.restarted, "crafting must start from a fresh dir");
    for op in committed {
        let seq = wal.append_intent(op, None).unwrap();
        // The recorded outcome only matters for request-id dedup, which
        // these crafted ops don't use.
        wal.append_commit(seq, &CtlResponse::TrafficStarted)
            .unwrap();
    }
    wal.append_intent(dangling, None).unwrap();
}

// ---------------------------------------------------------------------
// Real subprocess: SIGKILL, restart, converge
// ---------------------------------------------------------------------

fn spawn_escaped(socket: &Path, state_dir: &Path, seed: u64) -> std::process::Child {
    spawn_escaped_args(socket, state_dir, seed, &[])
}

fn spawn_escaped_args(
    socket: &Path,
    state_dir: &Path,
    seed: u64,
    extra: &[&str],
) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_escaped"))
        .args(["--socket"])
        .arg(socket)
        .args(["--state-dir"])
        .arg(state_dir)
        .args(["--seed", &seed.to_string()])
        .args(extra)
        .spawn()
        .unwrap()
}

fn sigkill(child: &mut std::process::Child) {
    let kill = std::process::Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    child.wait().unwrap();
}

/// The fixed pre-crash script: deploy, push traffic, advance time,
/// scale out, advance again. Every op commits to the WAL before its
/// reply, so all of it must survive the SIGKILL.
fn full_script(c: &mut CtlClient) {
    assert!(matches!(
        call(c, deploy_req(DEMO_SG)),
        CtlResponse::Deployed(_)
    ));
    assert_eq!(
        call(
            c,
            CtlRequest::Traffic {
                from: "sap0".into(),
                to: "sap1".into(),
                frames: 20,
                len: 128,
                interval_us: 200,
            },
        ),
        CtlResponse::TrafficStarted
    );
    assert!(matches!(
        call(c, CtlRequest::RunFor { ms: 30 }),
        CtlResponse::Advanced { .. }
    ));
    assert!(matches!(
        call(
            c,
            CtlRequest::Scale {
                chain: "demo".into(),
                vnf: "fw".into(),
                replicas: 2,
            },
        ),
        CtlResponse::Scaled { from: 1, to: 2, .. }
    ));
    assert!(matches!(
        call(c, CtlRequest::RunFor { ms: 20 }),
        CtlResponse::Advanced { .. }
    ));
}

#[test]
fn sigkilled_daemon_restarts_to_the_uncrashed_fingerprint() {
    let state_dir = temp_path("kill-state", "");
    let socket1 = temp_path("kill-1", ".sock");

    let mut first = spawn_escaped(&socket1, &state_dir, 11);
    let mut c = connect(&socket1);
    full_script(&mut c);
    drop(c);
    sigkill(&mut first);
    assert!(
        state_dir.join("wal.log").exists(),
        "SIGKILL must leave the intent log behind"
    );

    // Simulate the kill having landed mid-scale-migration as well: a
    // dangling intent with no commit marker, exactly what a crash
    // between writing the intent and writing its commit marker leaves.
    {
        let (mut wal, rec) = Wal::open(&state_dir, 11).unwrap();
        assert_eq!(rec.committed.len(), 5, "all five scripted ops committed");
        assert!(rec.rolled_back.is_empty());
        wal.append_intent(
            &CtlRequest::Scale {
                chain: "demo".into(),
                vnf: "fw".into(),
                replicas: 3,
            },
            None,
        )
        .unwrap();
    }

    // Restart on the same state directory, different socket.
    let socket2 = temp_path("kill-2", ".sock");
    let mut second = spawn_escaped(&socket2, &state_dir, 11);
    let mut c = connect(&socket2);

    let s = status(&mut c);
    assert!(s.restarted, "restart provenance must be reported");
    assert_eq!(s.recovered_chains, 1);
    assert_eq!(s.rolled_back_txns, 1, "the dangling scale intent");
    assert_eq!(s.chains.len(), 1);
    let vnfs: Vec<&str> = s.chains[0].vnfs.iter().map(|(n, _)| n.as_str()).collect();
    assert!(vnfs.contains(&"fw") && vnfs.contains(&"fw#1"), "{vnfs:?}");
    assert!(
        !vnfs.contains(&"fw#2"),
        "rolled-back scale-to-3 must not leave a third replica: {vnfs:?}"
    );

    let recovered = fingerprint(&mut c);
    let control = control_fingerprint("kill-control", 11, full_script);
    assert_eq!(
        recovered, control,
        "reconciled state must match the never-crashed same-seed run"
    );

    // Graceful shutdown leaves no state-file artifacts behind.
    assert_eq!(
        call(&mut c, CtlRequest::Shutdown),
        CtlResponse::ShuttingDown
    );
    let exit = second.wait().unwrap();
    assert!(exit.success(), "restarted daemon exited with {exit:?}");
    assert!(!state_dir.join("wal.log").exists(), "wal.log leaked");
    assert!(
        !state_dir.join("snapshot.json").exists(),
        "snapshot.json leaked"
    );
}

#[test]
fn retried_request_id_after_crash_returns_the_original_outcome() {
    let state_dir = temp_path("dedup-state", "");
    let socket1 = temp_path("dedup-1", ".sock");

    let mut first = spawn_escaped(&socket1, &state_dir, 23);
    let mut c = connect(&socket1);
    let original = c
        .call_with_id(&deploy_req(DEMO_SG), "cli-deploy-1")
        .unwrap();
    assert!(matches!(original, CtlResponse::Deployed(_)), "{original:?}");
    drop(c);
    sigkill(&mut first);

    // The client never saw the crash coming: it reconnects and retries
    // the same stamped request. The daemon must answer with the original
    // outcome instead of deploying a duplicate.
    let socket2 = temp_path("dedup-2", ".sock");
    let mut second = spawn_escaped(&socket2, &state_dir, 23);
    let mut c = connect(&socket2);
    let retried = c
        .call_with_id(&deploy_req(DEMO_SG), "cli-deploy-1")
        .unwrap();
    assert_eq!(retried, original, "retry must replay the original outcome");

    let s = status(&mut c);
    assert_eq!(s.chains.len(), 1, "zero duplicate deploys under retry");
    assert_eq!(s.deploys, 1);
    assert!(s.restarted);

    call(&mut c, CtlRequest::Shutdown);
    second.wait().unwrap();
}

#[test]
fn background_ticks_are_journaled_and_survive_a_crash() {
    let state_dir = temp_path("tick-state", "");
    let socket1 = temp_path("tick-1", ".sock");

    // `--tick-ms` advances the virtual clock from the idle loop; those
    // ticks mutate durable state and must hit the WAL like any client
    // `run-for` would.
    let mut first = spawn_escaped_args(&socket1, &state_dir, 31, &["--tick-ms", "5"]);
    let mut c = connect(&socket1);
    assert!(matches!(
        call(&mut c, deploy_req(DEMO_SG)),
        CtlResponse::Deployed(_)
    ));
    let deadline = Instant::now() + Duration::from_secs(10);
    let pre_crash_ns = loop {
        let now = status(&mut c).now_ns;
        if now > 0 {
            break now;
        }
        assert!(
            Instant::now() < deadline,
            "background ticks never advanced the clock"
        );
        thread::sleep(Duration::from_millis(100));
    };
    drop(c);
    sigkill(&mut first);

    let socket2 = temp_path("tick-2", ".sock");
    let mut second = spawn_escaped_args(&socket2, &state_dir, 31, &["--tick-ms", "5"]);
    let mut c = connect(&socket2);
    let s = status(&mut c);
    assert!(s.restarted);
    assert_eq!(s.recovered_chains, 1);
    // Every tick observed before the kill had committed to the WAL
    // before the status reply that reported it, so the reconciled clock
    // can only be at or past it — never reset.
    assert!(
        s.now_ns >= pre_crash_ns,
        "tick-driven clock progress lost: {} < {pre_crash_ns}",
        s.now_ns
    );
    call(&mut c, CtlRequest::Shutdown);
    second.wait().unwrap();
}

// ---------------------------------------------------------------------
// Mid-flight intent shapes, reconciled in-process
// ---------------------------------------------------------------------

#[test]
fn dangling_deploy_intent_is_rolled_back_on_restart() {
    let state_dir = temp_path("mid-deploy", "");
    // Crash landed mid-deploy of the ghost chain: its intent is logged,
    // its commit marker is not.
    craft_wal(&state_dir, 7, &[deploy_req(DEMO_SG)], &deploy_req(GHOST_SG));

    let socket = temp_path("mid-deploy", ".sock");
    let mut cfg = DaemonConfig::new(socket.to_path_buf());
    cfg.state_dir = Some(state_dir.to_path_buf());
    let daemon = spawn_daemon(default_session(7), cfg);
    let mut c = connect(&socket);

    let s = status(&mut c);
    assert!(s.restarted);
    assert_eq!(s.recovered_chains, 1);
    assert_eq!(s.rolled_back_txns, 1);
    assert_eq!(s.chains.len(), 1);
    assert_eq!(s.chains[0].name, "demo", "ghost must not be half-deployed");

    // Reconciled state is exactly "the committed prefix happened".
    let recovered = fingerprint(&mut c);
    let control = control_fingerprint("mid-deploy-control", 7, |c| {
        assert!(matches!(
            call(c, deploy_req(DEMO_SG)),
            CtlResponse::Deployed(_)
        ));
    });
    assert_eq!(recovered, control);

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
    assert!(!state_dir.join("wal.log").exists(), "wal.log leaked");
}

#[test]
fn dangling_scale_intent_is_rolled_back_on_restart() {
    let state_dir = temp_path("mid-scale", "");
    // Committed history: deploy + scale to 2. Mid-flight at crash:
    // a scale-migration to 3.
    let scale = |replicas: u64| CtlRequest::Scale {
        chain: "demo".into(),
        vnf: "fw".into(),
        replicas,
    };
    craft_wal(&state_dir, 13, &[deploy_req(DEMO_SG), scale(2)], &scale(3));

    let socket = temp_path("mid-scale", ".sock");
    let mut cfg = DaemonConfig::new(socket.to_path_buf());
    cfg.state_dir = Some(state_dir.to_path_buf());
    let daemon = spawn_daemon(default_session(13), cfg);
    let mut c = connect(&socket);

    let s = status(&mut c);
    assert!(s.restarted);
    assert_eq!((s.recovered_chains, s.rolled_back_txns), (1, 1));
    let vnfs: Vec<&str> = s.chains[0].vnfs.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        vnfs.contains(&"fw") && vnfs.contains(&"fw#1") && !vnfs.contains(&"fw#2"),
        "committed scale-to-2 replayed, mid-flight scale-to-3 rolled back: {vnfs:?}"
    );

    let recovered = fingerprint(&mut c);
    let control = control_fingerprint("mid-scale-control", 13, |c| {
        assert!(matches!(
            call(c, deploy_req(DEMO_SG)),
            CtlResponse::Deployed(_)
        ));
        assert!(matches!(
            call(c, scale(2)),
            CtlResponse::Scaled { from: 1, to: 2, .. }
        ));
    });
    assert_eq!(recovered, control);

    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}

// ---------------------------------------------------------------------
// Journal cursor continuity across the restart
// ---------------------------------------------------------------------

#[test]
fn watch_since_replays_recovery_history() {
    let state_dir = temp_path("since", "");
    craft_wal(
        &state_dir,
        17,
        &[deploy_req(DEMO_SG)],
        &deploy_req(GHOST_SG),
    );

    let socket = temp_path("since", ".sock");
    let mut cfg = DaemonConfig::new(socket.to_path_buf());
    cfg.state_dir = Some(state_dir.to_path_buf());
    let daemon = spawn_daemon(default_session(17), cfg);

    // Resume from sequence 0: the subscriber must see the whole
    // recovery story that happened before it connected — the replayed
    // deploy, the rollback of the mid-flight intent, and the restart
    // summary — without a lagged frame (nothing was evicted).
    let watch_client = connect(&socket);
    let mut watch = watch_client.watch(&[], Some(0)).unwrap();
    let mut kinds = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !kinds.iter().any(|k| k == "daemon-restarted") {
        assert!(
            Instant::now() < deadline,
            "recovery events not replayed: {kinds:?}"
        );
        match watch.next_event().unwrap() {
            Some(CtlEvent::Journal { kind, .. }) => kinds.push(kind),
            Some(CtlEvent::Lagged { missed }) => {
                panic!("nothing was evicted, yet lagged {missed}")
            }
            Some(_) => continue,
            None => panic!("stream closed before recovery events: {kinds:?}"),
        }
    }
    assert!(
        kinds.iter().any(|k| k == "deploy-committed"),
        "replayed deploy missing from resumed stream: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "txn-rolled-back"),
        "rollback missing from resumed stream: {kinds:?}"
    );

    let mut c = connect(&socket);
    call(&mut c, CtlRequest::Shutdown);
    daemon.join().unwrap();
}
