//! A snapshot whose chain record cannot be the chain it names: the
//! daemon's start path refuses it with a typed error before it claims
//! its socket, and never panics.

use escape::session::{demo_topology, InputFormat};
use escape::{Session, SessionConfig};
use escape_ctl::proto::{CtlRequest, CtlResponse};
use escape_ctl::wal::{ChainRecord, Snapshot, SNAPSHOT_FILE, SNAPSHOT_VERSION};
use escape_ctl::{CtlClient, Daemon, DaemonConfig};
use escape_json::wire::to_json_pretty;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use std::{fs, thread};

const SEED: u64 = 7;

const DEMO_SG: &str = "sap sap0 sap1\n\
                       vnf fw type=firewall cpu=1\n\
                       chain demo = sap0 -> fw -> sap1 bw=50\n";

fn session() -> Session {
    Session::new(
        demo_topology(),
        SessionConfig {
            seed: SEED,
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

/// The snapshot a daemon that deployed `demo` would write.
fn honest_snapshot() -> Snapshot {
    let mut s = session();
    s.deploy_text(DEMO_SG, InputFormat::Dsl).unwrap();
    let esc = s.escape();
    let chain = ChainRecord::capture(esc, "demo");
    Snapshot {
        version: SNAPSHOT_VERSION,
        seed: SEED,
        now_ns: esc.now().as_ns(),
        next_cookie: chain.cookie + 1,
        next_seq: 0,
        journal_base: esc.journal().seq_end(),
        chains: vec![chain],
        dedup: vec![],
        autoscaler: None,
    }
}

/// A socket or state directory in the temp dir, removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        let path =
            std::env::temp_dir().join(format!("escape-recovery-{tag}-{}", std::process::id()));
        let temp = TempPath(path);
        temp.remove();
        temp
    }

    fn remove(&self) {
        let _ = fs::remove_file(&self.0);
        let _ = fs::remove_dir_all(&self.0);
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        self.remove();
    }
}

fn config(socket: &Path, state_dir: &Path) -> DaemonConfig {
    DaemonConfig {
        state_dir: Some(state_dir.to_path_buf()),
        ..DaemonConfig::new(socket)
    }
}

fn write_snapshot(dir: &Path, snap: &Snapshot) {
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join(SNAPSHOT_FILE), to_json_pretty(snap)).unwrap();
}

/// The undamaged snapshot restores `demo`, so every refusal below is the
/// damage's doing.
#[test]
fn the_honest_snapshot_restores() {
    let dir = TempPath::new("honest");
    let socket = TempPath::new("honest-sock");
    write_snapshot(&dir.0, &honest_snapshot());
    let cfg = config(&socket.0, &dir.0);
    let daemon = thread::spawn(move || Daemon::run(session(), cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        match CtlClient::connect(&socket.0) {
            Ok(c) => break c,
            Err(e) if Instant::now() > deadline => panic!("daemon never came up: {e}"),
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    };
    match client.call(&CtlRequest::Status).unwrap() {
        CtlResponse::Status(s) => {
            let names: Vec<&str> = s.chains.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["demo"]);
        }
        other => panic!("status: {other:?}"),
    }
    client.call(&CtlRequest::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn a_chain_record_that_cannot_be_its_chain_is_a_typed_error() {
    type Damage = fn(&mut ChainRecord);
    const CHAIN: &str = "restore of chain demo: ";
    let cases: [(&str, Damage, &str); 6] = [
        (
            "no segments",
            |c| c.segments.clear(),
            "restore of chain demo: invalid input: chain demo: 0 segments join 1 placed VNFs",
        ),
        (
            "an unknown container",
            |c| c.placement[0].1 = "c99".into(),
            CHAIN,
        ),
        (
            "a segment through no node",
            |c| c.segments[0].0[1] = "s99".into(),
            CHAIN,
        ),
        (
            "99 replicas",
            |c| c.replicas = vec![("fw".into(), 99)],
            "restore of 99 replicas for demo/fw: ",
        ),
        (
            "replicas of an unknown VNF",
            |c| c.replicas = vec![("ghost".into(), 2)],
            "restore of 2 replicas for demo/ghost: ",
        ),
        ("an empty placement", |c| c.placement.clear(), CHAIN),
    ];
    for (what, damage, cause) in cases {
        let mut snap = honest_snapshot();
        damage(&mut snap.chains[0]);
        let dir = TempPath::new("damaged");
        let socket = TempPath::new("damaged-sock");
        write_snapshot(&dir.0, &snap);
        let cfg = config(&socket.0, &dir.0);
        let answer = catch_unwind(AssertUnwindSafe(|| Daemon::run(session(), cfg)))
            .unwrap_or_else(|_| panic!("{what}: recovery panicked"));
        let err = answer.expect_err(what).to_string();
        assert!(
            err.starts_with(&format!("state recovery: internal error: {cause}")),
            "{what}: {err}"
        );
        assert!(!socket.0.exists(), "{what}: the socket was claimed");
    }
}
