//! The repository's request-level benchmark. See `README.md` in this directory.
//!
//! ```text
//! lift-request-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! lift-request-bench suite [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
//! lift-request-bench compare <a.json> <b.json>
//! ```

mod cases;
mod compare;
mod config;
mod layers;
mod oracle;
mod output;
mod run;
mod scenario;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use output::{json_string, result_line};
use run::{run, RunArgs};

/// This package's directory, where `out/` lives. The binary is always built from the
/// checkout it runs in, so the compile-time path is the right one.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Flags(Vec<String>);

impl Flags {
    /// Removes `--name <value>` and returns the value.
    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")))
            .transpose()
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn single_run(mut flags: Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags
            .take("--workload")?
            .ok_or("--workload <name> is required (or use `suite` / `compare`)")?,
        // Any integer is a seed; a negative one is taken by its bit pattern.
        seed: flags
            .parse::<i128>("--seed")?
            .map_or(suite::DEFAULT_SEED, |seed| seed as u64),
        seconds: flags
            .parse("--seconds")?
            .unwrap_or(suite::default_seconds()?),
        trace: match flags.parse::<u8>("--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        requests: flags.parse("--requests")?,
    };
    flags.done()?;
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let result = run(&args, &out_dir)?;

    println!(
        "{} (seed {}, {} s, trace {}): {} requests attempted, {} failed, {} timed samples",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.attempted,
        result.failed,
        result.samples
    );
    println!("  stream {:016x}", result.stream);
    for failure in &result.failures {
        println!("  FAILED {failure}");
    }
    for metric in &result.metrics {
        if !metric.value.is_finite() {
            return Err(format!("{} is not a finite number", metric.name));
        }
        println!(
            "  {:34} {:>18.6} {}",
            metric.name, metric.value, metric.unit
        );
    }

    // The run's own record: what was measured, on what, with which settings, and for a
    // traced run every span behind the per-layer numbers.
    let metrics: Vec<String> = result.metrics.iter().map(|m| m.to_json()).collect();
    let trace_members = result
        .trace_json
        .as_ref()
        .map_or(String::new(), |members| format!(",\n{members}"));
    let record = format!(
        "{{\n  \"workload\": {},\n  \"provenance\": {},\n  \"samples\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n    {}\n  }}{trace_members}\n}}\n",
        json_string(&args.workload),
        suite::provenance_json(args.seed, args.seconds),
        result.samples,
        result.attempted,
        result.failed,
        metrics.join(",\n    ")
    );
    let kind = if args.trace { "trace" } else { "run" };
    let path = out_dir.join(format!("{}.{kind}.json", args.workload));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;

    let correct = result.failed == 0;
    println!(
        "{}",
        result_line(correct, result.attempted, result.failed, &result.metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite::main(Flags(args.split_off(1))),
        Some("compare") => compare::main(&args[1..]),
        _ => single_run(Flags(args)),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("lift-request-bench: {message}");
            ExitCode::from(2)
        }
    }
}
