//! Command-line entry of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the metric tables, then one JSON line with `correct`,
//! `attempted`, `failed` and the metrics. Exits non-zero when any answer
//! fails its check.

use std::process::ExitCode;

use galois_benchmark::{run, Config, Workload};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().collect();
    let workload_name = flag(&args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(&workload_name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{workload_name}` (one of {})",
            names.join(", ")
        )
    })?;
    let seed = flag(&args, "--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(&args, "--seconds")
        .unwrap_or_else(|| "10".into())
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds takes a non-negative number")?;
    let trace = match flag(&args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Config::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
