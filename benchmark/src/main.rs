//! `escape-e2e-bench`: drives the real `escaped` through four fixed-work
//! workloads and prints every metric by name. See `benchmark/README.md`.

mod bench;
mod calib;
mod daemon;
mod gen;
mod probes;
mod replay;
mod report;
mod run;
mod selfcheck;
mod trace;

use daemon::{sig, RunDir};
use gen::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n\
       run.sh selfcheck [--seconds S] [--workload NAME]\n\
       run.sh noise\n\
workloads: dataplane_bare dataplane_observed lifecycle_churn churn_under_traffic";

struct Args {
    mode: String,
    escaped: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        mode: "run".into(),
        escaped: PathBuf::from("target/release/escaped"),
        workload: None,
        seed: 1,
        seconds: 25,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "selfcheck" | "noise" => a.mode = arg,
            "--escaped" => a.escaped = PathBuf::from(value("--escaped")?),
            "--workload" => {
                let v = value("--workload")?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run(a: &Args) -> Result<bool, String> {
    let w = a.workload.ok_or("--workload is required")?;
    sig::install();
    let pinned = daemon::pin_to_one_cpu();
    let mut rd = RunDir::claim(&a.escaped)?;
    let mut socket = bench::socket_run(w, a.seed, a.seconds, a.trace, &mut rd)?;
    let mut out = report::Report::default();
    if a.trace {
        let dir = rd.path("");
        let missed = trace::per_layer(&mut out, w, a.seed, &socket, &dir)?;
        socket.missed.extend(missed);
    } else {
        report::end_to_end(&mut out, &socket);
    }
    drop(rd);
    Ok(report::print(w, a, pinned, &socket, &out))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode.as_str() {
        "noise" => selfcheck::noise().map(|()| true),
        "selfcheck" => {
            selfcheck::selfcheck(&args.escaped, args.seconds, args.workload).map(|()| true)
        }
        _ => run(&args),
    };
    match outcome {
        // An incorrect run still prints its result line (`correct:
        // false`) and exits 0; only a run that could not finish fails.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
