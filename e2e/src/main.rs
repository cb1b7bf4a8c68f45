//! Command line of the end-to-end benchmark; see `README.md` beside the
//! crate.

use std::process::ExitCode;

use sedna_e2e::metrics;
use sedna_e2e::report::{self, RUN_SECONDS};
use sedna_e2e::workload::{Scale, Workload};
use sedna_e2e::Error;

const USAGE: &str = "\
usage: sedna-e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>
           one run, one JSON result as the last line (what BENCHMARK.json's command runs)
       sedna-e2e all [--seed <u64>] [--seconds <n>]
           every workload, timed and traced, as tables; writes results/<commit>-<seed>.json
       sedna-e2e trace --workload <name> [--seed <u64>]
           the traced run of one workload, as a table
       sedna-e2e selfcheck [--seed <u64>] [--seconds <n>]
           A/A: the timed suite twice, each end-to-end metric against its bound
       sedna-e2e manifest
           prints BENCHMARK.json
workloads: read_embedded read_wire update_commit mixed_cold";

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, Error> {
    let mut out = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("no workload '{name}'"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'").into()),
                }
            }
            name if !name.starts_with('-') && out.command.is_none() => {
                out.command = Some(name.to_string());
            }
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    Ok(out)
}

/// One run for the driver: the result is the last line of standard output.
fn contract_run(w: Workload, args: &Args, scale: &Scale) -> Result<bool, Error> {
    let (correct, line) = if args.trace {
        let run = report::run_traced(w, args.seed, scale)?;
        for f in &run.gate_failures {
            eprintln!("sedna-e2e: {}: {f}", w.name());
        }
        let line = report::result_line(
            run.correct(),
            run.statements,
            run.failed,
            &metrics::per_layer(),
            &run.values,
        )?;
        (run.correct(), line)
    } else {
        let timed = report::run_timed(w, args.seed, args.seconds, scale)?;
        for f in &timed.run.gate_failures {
            eprintln!("sedna-e2e: {}: {f}", w.name());
        }
        for e in timed.run.clients.iter().flat_map(|c| &c.errors) {
            eprintln!("sedna-e2e: {}: a statement failed: {e}", w.name());
        }
        let line = report::result_line(
            timed.run.correct(),
            timed.run.attempted(),
            timed.run.failed(),
            &metrics::end_to_end(),
            &timed.values,
        )?;
        (timed.run.correct(), line)
    };
    println!("{line}");
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, Error> {
    if args.command.as_deref() == Some("manifest") {
        print!("{}", metrics::benchmark_json(RUN_SECONDS));
        return Ok(true);
    }
    report::require_cores()?;
    let scale = Scale::full();
    match (args.command.as_deref(), args.workload) {
        (None, Some(w)) => contract_run(w, args, &scale),
        (Some("all"), None) => report::all(args.seed, args.seconds, &scale),
        (Some("selfcheck"), None) => report::selfcheck(args.seed, args.seconds, &scale),
        (Some("trace"), Some(w)) => {
            let traced = report::run_traced(w, args.seed, &scale)?;
            report::print_traced(&traced);
            Ok(traced.correct())
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sedna-e2e: the run was not correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sedna-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
