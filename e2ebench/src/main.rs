//! End-to-end benchmark of the `mcdnn::Engine` serving path.
//!
//! ```text
//! e2ebench --workload <fleet-steady|slo-contended|drift-adapt>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the timed
//! phase over half as many calls, then a traced phase that prints the
//! per-layer metrics and writes a Chrome trace under `e2ebench/out/`. Human-
//! readable lines go first; the last line of standard output is one
//! JSON object. See `README.md` beside this crate for the design.

mod clock;
mod metrics;
mod timed;
mod traced;
mod workload;

use std::process::ExitCode;

use timed::Prepared;
use workload::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| {
        format!("unknown workload '{workload}' (fleet-steady, slo-contended, drift-adapt)")
    })?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a non-negative integer"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args {
        kind,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// Commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

fn main() -> ExitCode {
    // Under `cargo run` the process is cargo's, exec'd into this binary,
    // so the process CPU clock starts with cargo's own time: set-up is
    // counted from here instead.
    let start_ns = clock::process_ns();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let calls = timed::call_count(args.kind, args.seconds, args.trace);
    let range = timed::timed_indices(args.kind, calls);
    let mut p = Prepared::new(args.kind, args.seed, range.clone(), start_ns);
    let before = args.trace.then(traced::ObsPhase::begin);
    let run = timed::run_timed(&mut p, range.clone());
    let e_obs = before.map(|b| traced::ObsPhase::end(&b));

    println!(
        "e2ebench {} seed={} calls={} nproc={} rustc=\"{}\" commit={}",
        args.kind.name(),
        args.seed,
        calls,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("E2EBENCH_RUSTC"),
        commit(),
    );
    let (out, correct) = match e_obs {
        None => {
            let setups = timed::setups(&mut p);
            (metrics::end_to_end(&p, &run, &setups), p.failed == 0)
        }
        Some(e_obs) => {
            let layers = traced::run(&mut p, &run, range, &e_obs);
            (layers.metrics, p.failed == 0 && layers.counts_match)
        }
    };
    println!("{}", out.result_json(correct, p.attempted, p.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
