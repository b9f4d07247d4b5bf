//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a commented report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::common::Scale;
use perfbench::run::{json_line, metrics_json, run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    pmem_sim::silence_simulated_crash_panics();
    if args.workload != "all" {
        let out = run(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            Scale::Full,
        );
        print!("{}", out.report);
        println!("{}", out.json());
        return;
    }
    // Every workload in this one process; metric names are prefixed
    // with the workload in the combined result line.
    let mut combined = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in WORKLOADS {
        let out = run(w, args.seed, args.seconds, args.trace, Scale::Full);
        print!("{}", out.report);
        println!("{}", out.json());
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        combined.push(out);
    }
    let metrics: Vec<String> = combined
        .iter()
        .map(|o| metrics_json(&o.metrics, &format!("{}/", o.workload)))
        .collect();
    println!(
        "{}",
        json_line(correct, attempted, failed, &metrics.join(", "))
    );
}
