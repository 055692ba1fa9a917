//! Command-line entry point; see the crate docs of `scq_e2ebench`.

use std::process::ExitCode;

use scq_e2ebench::run::{run, Args, Workload};

const USAGE: &str =
    "usage: e2ebench --workload <toolflow|sweep|repeat> --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Toolflow,
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_dir: Some(".bench_out".into()),
        passes: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "# {} seed={} trace={} attempted={} failed={} correct={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.correct
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!(
            "{:<34} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!("{}", outcome.json_line(args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
