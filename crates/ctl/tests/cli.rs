//! Golden CLI corpus: what the real `escape` / `escaped` binaries print,
//! pinned in `cli.txt`.
//!
//! Same mechanics as `golden.rs`, one level up: every named command line
//! is run as a subprocess from the repository root and its exit code,
//! stderr (first line, or all of it where a usage text is being pinned)
//! and stdout are compared with the pinned section. One-shot runs are
//! virtual-time deterministic, and the daemon-bound verbs talk to one
//! in-process daemon on a fixed seed, so the text repeats bit for bit
//! outside the reserved `wallclock.*` family, which is filtered the way
//! `tests/ctl.rs` does it. A change that is meant to be invisible at the
//! command line leaves `cli.txt` untouched (on a mismatch the full
//! current corpus is written to the target tmp dir, ready to diff).

use escape::session::demo_topology;
use escape::{Session, SessionConfig};
use escape_ctl::server::{Daemon, DaemonConfig};
use escape_ctl::CtlClient;
use escape_json::Value;
use escape_telemetry::SamplerConfig;
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const GOLDEN: &str = include_str!("cli.txt");
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const DATA: &str = "examples/data";

/// How much of a command's stderr a section pins.
#[derive(Clone, Copy)]
enum Stderr {
    FirstLine,
    All,
}

/// What to do with stdout before pinning it.
#[derive(Clone, Copy)]
enum Filter {
    None,
    /// Prometheus text: drop every `wallclock_*` line.
    Prometheus,
    /// The JSON exposition: drop `wallclock.*` entries structurally.
    MetricsJson,
}

struct Corpus {
    golden: BTreeMap<String, String>,
    actual: Vec<(String, String)>,
    /// `(path, placeholder)`: run-specific paths as the corpus spells them.
    aliases: Vec<(String, &'static str)>,
}

impl Corpus {
    fn load() -> Corpus {
        let golden = GOLDEN
            .split("### ")
            .skip(1)
            .map(|section| {
                let (name, body) = section.split_once('\n').expect("a body under the header");
                let body = body.strip_suffix('\n').unwrap_or(body);
                (name.to_string(), body.to_string())
            })
            .collect();
        Corpus {
            golden,
            actual: Vec::new(),
            aliases: Vec::new(),
        }
    }

    fn scrub(&self, text: &str) -> String {
        let mut out = text.to_string();
        for (path, alias) in &self.aliases {
            out = out.replace(path, alias);
        }
        out
    }

    fn record(&mut self, bin: &str, args: &[&str], out: &Output, stderr: Stderr, filter: Filter) {
        let name = self.scrub(&format!("{bin} {}", args.join(" ")));
        let mut name = name.trim_end().to_string();
        // The same line run again (a retry, a second teardown) is its
        // own section.
        let prefix = format!("{name} #");
        let seen = self
            .actual
            .iter()
            .filter(|(n, _)| *n == name || n.starts_with(&prefix))
            .count();
        if seen > 0 {
            name = format!("{prefix}{}", seen + 1);
        }
        let err = String::from_utf8_lossy(&out.stderr);
        let err = match stderr {
            Stderr::FirstLine => err.lines().next().unwrap_or("").to_string(),
            Stderr::All => err.trim_end().to_string(),
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stdout = match filter {
            Filter::None => stdout.to_string(),
            Filter::Prometheus => stdout
                .lines()
                .filter(|l| !l.contains("wallclock_"))
                .map(|l| format!("{l}\n"))
                .collect(),
            Filter::MetricsJson => metrics_json_lines(&stdout),
        };
        let mut body = format!("exit {}\n", out.status.code().expect("an exit code"));
        if !err.is_empty() {
            body.push_str(&format!("stderr:\n{err}\n"));
        }
        if !stdout.is_empty() {
            body.push_str(&format!("stdout:\n{stdout}"));
        }
        let body = self.scrub(body.strip_suffix('\n').unwrap_or(&body));
        self.actual.push((name, body));
    }

    /// Runs one command line to completion and pins it.
    fn pin(&mut self, bin: &str, args: &[&str], stderr: Stderr, filter: Filter) {
        let out = command(bin, args).output().expect("binary runs");
        self.record(bin, args, &out, stderr, filter);
    }

    fn run(&mut self, bin: &str, args: &[&str]) {
        self.pin(bin, args, Stderr::FirstLine, Filter::None);
    }

    fn finish(self) {
        let mut bad = Vec::new();
        for (name, text) in &self.actual {
            match self.golden.get(name) {
                Some(g) if g == text => {}
                Some(_) => bad.push(format!("changed: {name}")),
                None => bad.push(format!("not in cli.txt: {name}")),
            }
        }
        for name in self.golden.keys() {
            if !self.actual.iter().any(|(n, _)| n == name) {
                bad.push(format!("in cli.txt but never produced: {name}"));
            }
        }
        if bad.is_empty() {
            return;
        }
        let mut out = String::new();
        for (name, text) in &self.actual {
            out.push_str(&format!("### {name}\n{text}\n"));
        }
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli.actual.txt");
        fs::write(&path, out).unwrap();
        panic!(
            "command-line output differs from crates/ctl/tests/cli.txt:\n  {}\ncurrent corpus written to {}",
            bad.join("\n  "),
            path.display()
        );
    }
}

fn command(bin: &str, args: &[&str]) -> Command {
    let exe = match bin {
        "escape" => env!("CARGO_BIN_EXE_escape"),
        "escaped" => env!("CARGO_BIN_EXE_escaped"),
        other => panic!("no binary {other}"),
    };
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(ROOT).stdin(Stdio::null());
    cmd
}

/// The JSON exposition, one metric / span per line, `wallclock.*`
/// dropped by name.
fn metrics_json_lines(doc: &str) -> String {
    let root = Value::parse(doc).expect("metrics document parses");
    let metrics = root
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(Value::as_arr)
        .expect("metrics array");
    let spans = root
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Value::as_arr)
        .expect("span array");
    let mut out = String::new();
    for m in metrics {
        let name = m.get("name").and_then(Value::as_str).expect("a name");
        if !name.starts_with("wallclock.") {
            out.push_str(&format!("metric {m}\n"));
        }
    }
    for s in spans {
        out.push_str(&format!("span {s}\n"));
    }
    out
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("escape-cli-{tag}-{}", std::process::id()))
}

/// An in-process daemon configured the way a flagless `escaped` is,
/// with the sampler's `--sample-ms` / `--sample-retention` as given.
fn spawn_daemon(socket: &Path, sample_ms: u64, retention: usize) -> thread::JoinHandle<()> {
    let session = Session::new(
        demo_topology(),
        SessionConfig {
            seed: 7,
            flight_recorder: Some(65_536),
            sampler: Some(SamplerConfig {
                period_ns: sample_ms * 1_000_000,
                retention,
            }),
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let cfg = DaemonConfig::new(socket.to_path_buf());
    let handle = thread::spawn(move || Daemon::run(session, cfg).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    while CtlClient::connect(socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never came up");
        thread::sleep(Duration::from_millis(10));
    }
    handle
}

fn one_shot_runs(c: &mut Corpus) {
    let topo = format!("{DATA}/demo.topo");
    let sg = format!("{DATA}/demo.sg");
    let fault = format!("{DATA}/flaky.fault");
    let (topo, sg, fault) = (topo.as_str(), sg.as_str(), fault.as_str());
    let flows = ["--traffic", "sap0:sap1:10", "--ping", "sap0:sap1:2"];

    c.run("escape", &["run"]);
    c.run("escape", &[topo, sg]);
    let mut args = vec!["run", topo, sg];
    args.extend(flows);
    args.extend(["--monitor", "demo:fw"]);
    c.run("escape", &args);
    args.extend(["--steering", "reactive", "--algorithm", "first_fit"]);
    args.extend(["--seed", "9"]);
    c.run("escape", &args);
    c.run(
        "escape",
        &["run", "--faults", fault, "--traffic", "sap0:sap1:100"],
    );
    // The plan names the built-in demo's trunk; demo.topo has no s0-s1.
    c.run(
        "escape",
        &[
            "run",
            topo,
            sg,
            "--faults",
            fault,
            "--traffic",
            "sap0:sap1:100",
        ],
    );
    let md = |f: &str| format!("{DATA}/multidomain.{f}");
    c.run(
        "escape",
        &[
            "run",
            &md("topo"),
            &md("sg"),
            "--domains",
            &md("domains.json"),
        ],
    );
    c.run(
        "escape",
        &[
            &md("topo"),
            &md("sg"),
            "--domains",
            &md("domains.json"),
            "--workers",
            "2",
            "--duration-ms",
            "50",
        ],
    );
    c.run("escape", &["run", topo, "--workload", "3"]);
    c.run("escape", &["run", "--workload", "2", "--seed", "5"]);

    c.pin(
        "escape",
        &["metrics"],
        Stderr::FirstLine,
        Filter::Prometheus,
    );
    c.pin(
        "escape",
        &["metrics", "--format", "json"],
        Stderr::FirstLine,
        Filter::MetricsJson,
    );
    c.pin(
        "escape",
        &[
            "metrics",
            topo,
            sg,
            "--traffic",
            "sap0:sap1:5:256:100",
            "--duration-ms",
            "30",
            "--steering",
            "reactive",
        ],
        Stderr::FirstLine,
        Filter::Prometheus,
    );

    c.run("escape", &["trace"]);
    c.run(
        "escape",
        &[
            "trace",
            topo,
            sg,
            "--traffic",
            "sap0:sap1:2",
            "--duration-ms",
            "20",
        ],
    );
    let chrome = temp_path("chrome.json");
    let chrome_arg = chrome.display().to_string();
    c.aliases.push((chrome_arg.clone(), "$CHROME"));
    c.run(
        "escape",
        &["trace", "--traffic", "sap0:sap1:1", "--chrome", &chrome_arg],
    );
    let doc = fs::read_to_string(&chrome).expect("chrome trace was written");
    Value::parse(&doc).expect("chrome trace is JSON");
    let _ = fs::remove_file(&chrome);

    // Under --json, stdout is one JSON document and nothing else.
    let soak = ["soak", "--steps", "50", "--seed", "7", "--json"];
    let out = command("escape", &soak).output().expect("binary runs");
    Value::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("soak --json stdout is exactly one JSON document");
    c.record("escape", &soak, &out, Stderr::FirstLine, Filter::None);

    // Runtime failures: exit 1, no usage text.
    c.run("escape", &["metrics", "--algorithm", "magic"]);
    c.run("escape", &["run", "no-such.topo", "no-such.sg"]);
    c.run("escape", &["run", topo, "no-such.sg"]);
    c.run("escape", &["run", "--json", topo, sg]);
    c.run("escape", &["run", "--faults", "no-such.fault"]);
    c.run("escape", &["run", "--faults", sg]);
    c.run("escape", &["run", topo, sg, "--domains", "no-such.json"]);
    c.run("escape", &["run", topo, sg, "--domains", sg]);
    c.run("escape", &["run", topo, sg, "--monitor", "demo:nope"]);
    c.run("escape", &["run", "--traffic", "sap0:nowhere:1"]);
    // A link delay the virtual clock cannot hold: the line and the bound.
    let far = temp_path("far.topo");
    let demo = fs::read_to_string(Path::new(ROOT).join(topo)).unwrap();
    fs::write(&far, demo.replace("delay=100us", "delay=1e30s")).unwrap();
    let far_arg = far.display().to_string();
    c.aliases.push((far_arg.clone(), "$FAR"));
    c.run("escape", &["run", &far_arg, sg]);
    let _ = fs::remove_file(&far);
}

fn daemon_verbs(c: &mut Corpus) {
    let socket = temp_path("daemon.sock");
    let sock = socket.display().to_string();
    c.aliases.push((sock.clone(), "$SOCK"));
    let daemon = spawn_daemon(&socket, 5, 120);
    let sg = format!("{DATA}/demo.sg");
    let fault = format!("{DATA}/flaky.fault");

    let ctl = |c: &mut Corpus, words: &[&str], filter: Filter| {
        let mut args = vec!["ctl", "--socket", &sock];
        args.extend(words);
        c.pin("escape", &args, Stderr::FirstLine, filter);
    };
    ctl(c, &["status"], Filter::None);
    ctl(c, &["deploy", &sg], Filter::None);
    c.run("escape", &["top", "--json", "--socket", &sock]);
    ctl(c, &["traffic", "sap0:sap1:50:128:200"], Filter::None);
    ctl(c, &["run-for", "20"], Filter::None);
    ctl(c, &["series"], Filter::None);
    c.run("escape", &["top", "--socket", &sock]);
    ctl(c, &["fault", &fault], Filter::None);
    ctl(c, &["traffic", "sap0:sap1:300"], Filter::None);
    ctl(c, &["run-for", "80"], Filter::None);
    ctl(c, &["heal"], Filter::None);
    ctl(c, &["sla"], Filter::None);
    ctl(c, &["metrics", "--prom"], Filter::Prometheus);
    ctl(c, &["journal"], Filter::None);
    ctl(c, &["fingerprint"], Filter::None);
    // demo.sg co-locates its VNFs, which cannot scale: a typed error.
    ctl(c, &["scale", "demo", "fw", "2"], Filter::None);
    ctl(c, &["teardown", "demo"], Filter::None);
    ctl(c, &["teardown", "demo"], Filter::None);
    ctl(c, &["deploy", &format!("{DATA}/scale.sg")], Filter::None);
    ctl(c, &["scale", "demo", "mon", "3"], Filter::None);
    // The shorthand, with the option after the words.
    c.run("escape", &["scale", "demo", "mon", "1", "--socket", &sock]);
    ctl(c, &["scale", "demo", "mon", "99"], Filter::None);
    // Spans one unit past what the clock's nanoseconds can count.
    ctl(c, &["run-for", "18446744073710"], Filter::None);
    ctl(
        c,
        &["traffic", "sap0:sap1:1:128:18446744073709552"],
        Filter::None,
    );
    ctl(c, &["--request-id", "cli-1", "run-for", "1"], Filter::None);
    ctl(c, &["deploy", "--json", &sg], Filter::None);
    ctl(c, &["status", "--prom"], Filter::None);

    // `watch --since 0`: history, then the stream ends with the daemon.
    let args = [
        "ctl", "watch", "--socket", &sock, "--topics", "events", "--since", "0",
    ];
    watch_until_shutdown(c, &args, |c| ctl(c, &["shutdown"], Filter::None));
    daemon.join().unwrap();
    assert!(!socket.exists(), "daemon left its socket behind");

    // Nobody answers on the socket any more.
    ctl(c, &["status"], Filter::None);
    c.run("escape", &["top", "--socket", &sock]);
}

/// Pins one `escape ctl watch` stream: starts it, waits for its ack,
/// runs `script` (which ends by shutting the daemon down) and records
/// everything the stream printed until the daemon hung up.
fn watch_until_shutdown(c: &mut Corpus, args: &[&str], script: impl FnOnce(&mut Corpus)) {
    let mut watch = command("escape", args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("escape ctl watch runs");
    let mut err = BufReader::new(watch.stderr.take().expect("piped stderr"));
    let mut ack = String::new();
    err.read_line(&mut ack).expect("the watching ack");
    script(c);
    let mut rest = String::new();
    err.read_to_string(&mut rest).unwrap();
    let mut out = watch.wait_with_output().expect("watch exits");
    out.stderr = format!("{ack}{rest}").into_bytes();
    c.record("escape", args, &out, Stderr::All, Filter::None);
}

/// The sampler ring where a refactor can get it wrong: a window that
/// has wrapped, a series that registers inside the retained window
/// (points before registration read 0), and the metrics-delta stream
/// (key order, gauges absolute, counters as increments).
fn wrapped_series_ring(c: &mut Corpus) {
    let socket = temp_path("ring.sock");
    let sock = socket.display().to_string();
    c.aliases.push((sock.clone(), "$RING"));
    let daemon = spawn_daemon(&socket, 1, 16);
    let sg = format!("{DATA}/scale.sg");
    let ctl = |c: &mut Corpus, words: &[&str]| {
        let mut args = vec!["ctl", "--socket", &sock];
        args.extend(words);
        c.run("escape", &args);
    };
    ctl(c, &["deploy", &sg]);
    ctl(c, &["traffic", "sap0:sap1:50:128:200"]);
    ctl(c, &["run-for", "20"]);
    ctl(c, &["series"]);
    // The first scale step registers the per-replica gauges and the
    // scale spans' series inside the retained window.
    ctl(c, &["scale", "demo", "mon", "2"]);
    ctl(c, &["traffic", "sap0:sap1:20:128:200"]);
    ctl(c, &["run-for", "6"]);
    ctl(c, &["series"]);
    ctl(c, &["teardown", "demo"]);

    let args = [
        "ctl",
        "watch",
        "--socket",
        &sock,
        "--topics",
        "metrics-deltas",
    ];
    watch_until_shutdown(c, &args, |c| {
        ctl(c, &["deploy", &sg]);
        ctl(c, &["scale", "demo", "mon", "3"]);
        ctl(c, &["traffic", "sap0:sap1:10:128:200"]);
        ctl(c, &["run-for", "5"]);
        ctl(c, &["scale", "demo", "mon", "1"]);
        ctl(c, &["teardown", "demo"]);
        ctl(c, &["shutdown"]);
    });
    daemon.join().unwrap();
}

fn usage_failures(c: &mut Corpus) {
    // The main grammar: exit 2 and the usage text (pinned whole once).
    c.pin("escape", &[], Stderr::All, Filter::None);
    for args in [
        &["run", "--frobnicate"][..],
        &["run", "--seed"],
        &["run", "--seed", "x"],
        &["run", "--algorithm"],
        &["run", "--traffic", "sap0:sap1"],
        &["run", "--traffic", "sap0:sap1:x"],
        &["run", "--traffic", "sap0:sap1:1:x"],
        &["run", "--traffic", "sap0:sap1:1:1:x"],
        &["run", "--ping", "sap0:sap1"],
        &["run", "--ping", "sap0:sap1:x"],
        &["run", "--monitor", "demo"],
        &["run", "--duration-ms", "x"],
        &["run", "--duration-ms", "18446744073710"],
        &["run", "--steering", "sideways"],
        &["metrics", "--format", "xml"],
        &["run", "--workers", "0"],
        &["run", "--workers", "x"],
        &["run", "--workload", "x"],
        &["soak", "--steps", "x"],
        &["run", "only-one"],
        &["only-one"],
        &["a", "b", "c"],
        &["--seed", "3", "run"],
    ] {
        c.run("escape", args);
    }

    // The ctl grammar: exit 1, its own usage text after the message.
    c.pin("escape", &["ctl"], Stderr::All, Filter::None);
    c.pin(
        "escape",
        &["ctl", "--frob", "status"],
        Stderr::All,
        Filter::None,
    );
    c.pin("escape", &["ctl", "bogus"], Stderr::All, Filter::None);
    c.pin("escape", &["ctl", "teardown"], Stderr::All, Filter::None);
    for args in [
        &["ctl", "--socket"][..],
        &["ctl", "--request-id"],
        &["ctl", "run-for", "x"],
        &["ctl", "run-for"],
        &["ctl", "watch", "--since", "x"],
        &["ctl", "watch", "--since"],
        &["ctl", "watch", "--topics", "events,bogus"],
        &["ctl", "watch", "--topics"],
        &["ctl", "traffic", "a:b"],
        &["ctl", "traffic", "a:b:x"],
        &["ctl", "traffic", "a:b:1:x"],
        &["ctl", "traffic", "a:b:1:1:x"],
        &["ctl", "scale", "demo", "fw", "x"],
        &["scale", "demo", "fw"],
        &["ctl", "deploy", "no-such.sg"],
        &["ctl", "fault", "no-such.fault"],
        &["ctl", "--socket", "no-such.sock", "status"],
    ] {
        c.run("escape", args);
    }

    // The top grammar.
    c.pin("escape", &["top", "--frob"], Stderr::All, Filter::None);
    c.run("escape", &["top", "--socket"]);
    c.run("escape", &["top", "stray"]);

    // The daemon grammar, through both front doors: exit 2 and its usage.
    c.pin("escaped", &["--frobnicate"], Stderr::All, Filter::None);
    c.pin(
        "escape",
        &["daemon", "--wal-compact", "many"],
        Stderr::All,
        Filter::None,
    );
    for args in [
        &["--admission", "1"][..],
        &["--admission", "x:1"],
        &["--admission", "0.5:x"],
        &["--admission", "0.5:0.8:x"],
        &["--admission", "0.5:0.8:4:x"],
        &["--seed"],
        &["--seed", "x"],
        &["--steering", "sideways"],
        &["--tick-ms", "x"],
        &["--tick-ms", "18446744073710"],
        &["--flight-recorder", "x"],
        &["--sample-ms", "x"],
        &["--sample-retention", "x"],
        &["--state-dir"],
        &["stray"],
    ] {
        c.run("escaped", args);
    }
    // Past the grammar, before the socket: exit 1.
    c.run("escaped", &["--topo", "no-such.topo"]);
    c.run("escaped", &["--topo", "examples/data/demo.sg", "--json"]);
    c.run("escaped", &["--algorithm", "magic"]);
}

/// One format rule: a `.json` file is JSON with or without `--json`, so
/// the JSON twins of the demo pair print what the DSL pair prints.
fn json_files_need_no_flag(c: &mut Corpus) {
    let flows = "--traffic sap0:sap1:10 --ping sap0:sap1:2 --monitor demo:fw";
    let dsl = format!("run {DATA}/demo.topo {DATA}/demo.sg {flows}");
    let json = format!("run {DATA}/demo.topo.json {DATA}/demo.sg.json {flows}");
    c.run("escape", &json.split(' ').collect::<Vec<_>>());
    let body = |line: &str| {
        let section = c
            .actual
            .iter()
            .find(|(n, _)| *n == format!("escape {line}"));
        section.expect("a pinned section").1.clone()
    };
    assert!(body(&json).starts_with("exit 0\n"));
    assert_eq!(
        body(&json),
        body(&dsl),
        "the JSON pair runs like the DSL one"
    );
}

/// The multi-domain fork against the single-domain front door: a
/// topology the JSON loader accepts but that does not validate fails the
/// same way with and without `--domains`, an unknown algorithm is
/// invalid input in both, and every option the fork would drop is a
/// usage error that names it.
fn multi_domain_fork(c: &mut Corpus) {
    let md = |f: &str| format!("{DATA}/multidomain.{f}");
    let (topo, sg, spec) = (md("topo"), md("sg"), md("domains.json"));
    let mut ghost = escape::session::parse_topology_text(
        &fs::read_to_string(Path::new(ROOT).join(&topo)).unwrap(),
        escape::session::InputFormat::Dsl,
    )
    .unwrap();
    ghost.add_link("ghost", "s2", 1000.0, 10);
    let ghost_file =
        std::env::temp_dir().join(format!("escape-cli-ghost-{}.topo.json", std::process::id()));
    fs::write(&ghost_file, ghost.to_json()).unwrap();
    let ghost_arg = ghost_file.display().to_string();
    c.aliases.push((ghost_arg.clone(), "$GHOST"));
    let one = ["run", &ghost_arg, &sg];
    let many = ["run", &ghost_arg, &sg, "--domains", &spec];
    c.run("escape", &one);
    c.run("escape", &many);
    let _ = fs::remove_file(&ghost_file);
    let stderr = |c: &Corpus, args: &[&str]| {
        let name = c.scrub(&format!("escape {}", args.join(" ")));
        let (_, body) = c.actual.iter().find(|(n, _)| *n == name).unwrap();
        body.lines()
            .skip_while(|l| *l != "stderr:")
            .nth(1)
            .unwrap()
            .to_string()
    };
    assert_eq!(
        stderr(c, &many),
        stderr(c, &one),
        "the fork words the error as the front door does"
    );

    let run = ["run", &topo, &sg, "--domains", &spec];
    c.run("escape", &[&run[..], &["--algorithm", "magic"]].concat());
    let fault = format!("{DATA}/flaky.fault");
    for unread in [
        &["--traffic", "sap0:sap2:7"][..],
        &["--ping", "sap0:sap2:1"],
        &["--monitor", "c1:f1"],
        &["--faults", &fault],
    ] {
        c.run("escape", &[&run[..], unread].concat());
    }
    for cmd in ["metrics", "trace"] {
        c.run("escape", &[cmd, &topo, &sg, "--domains", &spec]);
    }
    c.run("escape", &["run", "--workers", "2"]);
}

/// Each one-shot command reads its own options; any other option is a
/// usage error that names it. None of these runs opens or writes the
/// files its options name.
fn options_a_command_does_not_read(c: &mut Corpus) {
    for args in [
        &["run", "--chrome", "no-such-dir/x.json", "--format", "json"][..],
        &["run", "--steps", "3"],
        &["metrics", "--ping", "sap0:sap1:3", "--faults", "nope.json"],
        &["metrics", "--monitor", "demo:fw"],
        &["metrics", "--chrome", "no-such-dir/y.json"],
        &["trace", "--format", "json"],
        &["trace", "--faults", "nope.json"],
        &["soak", "--steps", "5", "--traffic", "sap0:sap1:3"],
        &["soak", "--algorithm", "magic"],
        &["soak", "--duration-ms", "5"],
    ] {
        c.run("escape", args);
    }
}

#[test]
fn command_lines_match_the_golden_corpus() {
    let mut corpus = Corpus::load();
    one_shot_runs(&mut corpus);
    daemon_verbs(&mut corpus);
    wrapped_series_ring(&mut corpus);
    usage_failures(&mut corpus);
    json_files_need_no_flag(&mut corpus);
    multi_domain_fork(&mut corpus);
    options_a_command_does_not_read(&mut corpus);
    corpus.finish();
}
