//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_f1|cold_f2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload end to end against in-process
//! `asrs-server`s over loopback sockets and prints the end-to-end metrics;
//! `--trace 1` replays the same generated inputs in-process, records a span
//! around every call into a layer, and prints the per-layer metrics.  Both
//! check every answer.  The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the exit
//! code is non-zero when any check fails.  Scratch files (the traced run's
//! persist directory and span dump) live under `.perfbench_run/` in the
//! working directory.

mod e2e;
mod inputs;
mod measure;
mod traced;
mod verify;

use inputs::Workload;
use std::path::PathBuf;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The git revision of the working tree, when it is a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(PathBuf::from(".git").join(reference))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The metadata every output records, as one JSON object.
fn metadata(args: &Args) -> String {
    let w = args.workload;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {}, \"profile\": \"{}\", \"git_revision\": \"{}\", \"objects_per_dataset\": {}, \"datasets\": {}, \"traced_shards\": {}, \"grid\": {}, \"clients\": {}, \"budget_ms\": {}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision(),
        w.objects(),
        inputs::DATASETS,
        inputs::SHARDS,
        inputs::GRID,
        inputs::CLIENTS,
        inputs::BUDGET_MS,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <cold_f1|cold_f2> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let meta = metadata(&args);
    let outcome = if args.trace {
        let run_dir = PathBuf::from(".perfbench_run").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&run_dir).expect("scratch directory is writable");
        let outcome = traced::run(args.workload, args.seed, args.seconds, &run_dir, &meta);
        let _ = std::fs::remove_dir_all(&run_dir);
        outcome
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };

    println!("# {meta}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    outcome.metrics.print_table();
    let unmeasured = outcome.metrics.non_finite();
    if !unmeasured.is_empty() {
        eprintln!("CHECK FAILED: no value for {}", unmeasured.join(", "));
    }
    let correct = outcome.checks.passed() && unmeasured.is_empty();
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}
