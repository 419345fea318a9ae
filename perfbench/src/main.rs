//! Command line of the benchmark:
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload casestudy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one line per metric with its unit and sample count, a
//! provenance line, and as the last line of standard output one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.  Exits 1
//! when any answer or work-ledger check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use vrdf_perfbench::run::{run, RunConfig};
use vrdf_perfbench::workloads::{Settings, Workload};

const USAGE: &str = "usage: vrdf-perfbench --workload casestudy|fleet-validate|analysis-sweep \
                     --seed N --seconds S --trace 0|1";

fn parse() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err("--workload, --seed, --seconds and --trace are required".to_owned());
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    // Results go next to the build, inside the checkout.
    let build = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    Ok(RunConfig {
        settings: Settings::new(workload, seed),
        seconds,
        trace,
        results_dir: Some(build.join("perfbench")),
        source_root: PathBuf::from("."),
    })
}

fn main() -> ExitCode {
    let config = match parse() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&config) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &result.metrics {
        println!(
            "{:<24} {:>16.6} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<24} {:>16.6} {:<6} ({} of {} jobs)",
        "error_frac",
        result.error_frac(),
        "ratio",
        result.failed,
        result.attempted
    );
    for failure in &result.failures {
        eprintln!("FAILED {failure}");
    }
    println!("{{\"provenance\":{}}}", result.provenance);
    println!("{}", result.result_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
