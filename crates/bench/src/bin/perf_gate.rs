//! The CI performance-regression gate.
//!
//! Compares freshly generated `BENCH_explore.json` / `BENCH_autotune.json` reports against
//! the baselines committed in the repository and fails (exit code 1) when a tracked number
//! regresses by more than the threshold (default 25%). The checks live in
//! [`lift_bench::gate`]; this binary only parses flags, loads the files and prints the
//! verdict lines:
//!
//! * exploration throughput (`candidates_per_sec` at `max_candidates = 4000`) must not drop
//!   below `baseline × (1 − threshold)`,
//! * the bytecode execution tier must stay at least
//!   [`lift_bench::gate::BYTECODE_SPEEDUP_FLOOR`]× faster than the slotted interpreter on
//!   the current report's per-engine comparison probe (the `engines` section written by
//!   `explore_stats`) — a same-run wall-time ratio, so it is machine-independent,
//! * every `(workload, device)` tuned best-time in the baseline must still exist and must
//!   not exceed `baseline × (1 + threshold)` — estimated times come from the deterministic
//!   cost model, so this comparison is machine-independent,
//! * every `(workload, device)` `kernels_executed` / `kernels_reused` count in the baseline
//!   must be reproduced exactly — they are deterministic counts of what the tuning run
//!   measured on the virtual GPU and what it recalled from its score memo,
//! * a workload present only in the *current* report (newly added, baseline not yet
//!   committed) is reported as `[new]` and never trips the gate.
//!
//! ```text
//! perf_gate --baseline-explore BENCH_explore.json --current-explore target/BENCH_explore.json \
//!           --baseline-autotune BENCH_autotune.json --current-autotune target/BENCH_autotune.json \
//!           [--telemetry target/BENCH_telemetry.json] [--cache target/BENCH_cache.json] \
//!           [--threshold 0.25]
//! ```
//!
//! `--telemetry` points at a freshly generated `BENCH_telemetry.json` (from
//! `telemetry_stats`); when given and a check trips, the verdict includes the offending
//! workload's per-phase wall-time breakdown so the regression is attributable to a phase
//! (enumerate/typecheck/compile/execute/score) without re-running anything.
//!
//! `--cache` points at a freshly generated `BENCH_cache.json` (from `cache_stats`); when
//! given, the derivation-service checks run too: every tracked workload's warm hit must be
//! at least [`lift_bench::gate::CACHE_SPEEDUP_FLOOR`]× faster than its cold derivation, and
//! every batch of identical requests must have cost exactly one derivation. Both are
//! same-run ratios/counters, so they take no baseline.
//!
//! `--threshold` must be a fraction in `[0, 1]`; anything else (negative, NaN, > 1) is a
//! usage error — such a value would make the gate pass or fail vacuously.

use std::process::ExitCode;

use lift_bench::gate::{check_cache_report, check_reports, validate_threshold};
use lift_bench::schema::{parse, Json};

struct Args {
    baseline_explore: String,
    current_explore: String,
    baseline_autotune: String,
    current_autotune: String,
    telemetry: Option<String>,
    cache: Option<String>,
    threshold: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline_explore: "BENCH_explore.json".into(),
        current_explore: "target/BENCH_explore.json".into(),
        baseline_autotune: "BENCH_autotune.json".into(),
        current_autotune: "target/BENCH_autotune.json".into(),
        telemetry: None,
        cache: None,
        threshold: 0.25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--baseline-explore" => args.baseline_explore = value()?,
            "--current-explore" => args.current_explore = value()?,
            "--baseline-autotune" => args.baseline_autotune = value()?,
            "--current-autotune" => args.current_autotune = value()?,
            "--telemetry" => args.telemetry = Some(value()?),
            "--cache" => args.cache = Some(value()?),
            "--threshold" => {
                args.threshold = value()?
                    .parse()
                    .map_err(|e| format!("invalid threshold: {e}"))?;
                validate_threshold(args.threshold).map_err(|e| format!("usage error: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run(args: &Args) -> Result<bool, String> {
    let telemetry = args.telemetry.as_deref().map(load).transpose()?;
    let mut outcome = check_reports(
        &load(&args.baseline_explore)?,
        &load(&args.current_explore)?,
        &load(&args.baseline_autotune)?,
        &load(&args.current_autotune)?,
        telemetry.as_ref(),
        args.threshold,
    )?;
    // The derivation-service checks (warm-hit speedup floor, single-derivation batches)
    // are same-run invariants of the current BENCH_cache.json — no baseline involved.
    if let Some(path) = &args.cache {
        outcome
            .lines
            .extend(check_cache_report(&load(path)?)?.lines);
    }
    for line in &outcome.lines {
        println!("{}", line.message);
    }
    Ok(outcome.passed())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(true) => {
            println!(
                "perf gate passed (threshold {:.0}%)",
                args.threshold * 100.0
            );
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!(
                "perf gate FAILED: a tracked number regressed by more than {:.0}%",
                args.threshold * 100.0
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
