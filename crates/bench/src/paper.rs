//! Builders of `BENCH_paper.json`'s Table 1 rows and Figure 8 cells.
//!
//! A case at one size runs its reference kernel and its Lift program at each of Figure 8's
//! three optimisation levels, each once on the virtual GPU. Execution does not depend on the
//! device profile, so one run's counters are priced under every profile. Nothing here reads
//! a clock: the document records counters, the ratios they price to, correctness and line
//! counts, so two runs render byte-identical documents.

use lift_benchmarks::runner::{
    relative_performance, run_lift, run_reference, RunOutcome, RunnerError,
};
use lift_benchmarks::{characteristics, BenchmarkCase};
use lift_codegen::CompilationOptions;
use lift_ir::pretty::line_count;
use lift_telemetry::json::Json;
use lift_vgpu::{CostCounters, DeviceProfile};

/// Figure 8's optimisation levels, weakest first.
pub fn levels() -> [(&'static str, CompilationOptions); 3] {
    [
        ("none", CompilationOptions::none()),
        (
            "barrier+cf",
            CompilationOptions::without_array_access_simplification(),
        ),
        ("barrier+cf+array", CompilationOptions::all_optimisations()),
    ]
}

/// One case at one size: its reference kernel and its Lift program at each of [`levels`],
/// each run once.
pub struct CaseRuns<'a> {
    case: &'a BenchmarkCase,
    reference: Result<RunOutcome, RunnerError>,
    /// In [`levels`] order.
    levels: Vec<Result<RunOutcome, RunnerError>>,
}

impl<'a> CaseRuns<'a> {
    /// Runs the reference and every level of `case`: four launches.
    pub fn run(case: &'a BenchmarkCase) -> CaseRuns<'a> {
        CaseRuns {
            case,
            reference: run_reference(case),
            levels: levels()
                .iter()
                .map(|(_, options)| run_lift(case, options))
                .collect(),
        }
    }

    /// Whether every kernel ran and matched the host reference.
    pub fn correct(&self) -> bool {
        std::iter::once(&self.reference)
            .chain(&self.levels)
            .all(|run| run.as_ref().is_ok_and(|o| o.correct))
    }

    /// Figure 8's bar at `level` on `device`, when both kernels ran.
    pub fn ratio(&self, level: usize, device: &DeviceProfile) -> Option<f64> {
        let reference = self.reference.as_ref().ok()?;
        let lift = self.levels.get(level)?.as_ref().ok()?;
        Some(relative_performance(lift, reference, device))
    }

    /// The `figure8.cells[]` entry: per level, the ratio under each of `devices`.
    pub fn cell(&self, devices: &[DeviceProfile]) -> Json {
        let levels = levels().into_iter().zip(&self.levels).enumerate();
        let levels = levels.map(|(i, ((name, _), run))| {
            let ratios = devices
                .iter()
                .map(|d| (d.name.clone(), Json::opt_num(self.ratio(i, d))))
                .collect();
            let mut fields = vec![("level", Json::str(name)), ("ratio", Json::Obj(ratios))];
            fields.extend(run_fields(run));
            Json::obj(fields)
        });
        Json::obj([
            ("case", Json::str(self.case.info.name)),
            ("size", Json::str(self.case.size.label())),
            ("correct", Json::Bool(self.correct())),
            ("reference", Json::obj(run_fields(&self.reference))),
            ("levels", Json::Arr(levels.collect())),
        ])
    }

    /// The `table1[]` row: the paper's characteristics and line counts beside the ones
    /// computed here (the generated kernel's at all optimisations).
    pub fn table1_row(&self) -> Json {
        let (case, info) = (self.case, &self.case.info);
        let kernel = case.reference_module.kernel(&case.reference_kernel);
        let computed =
            self.reference.as_ref().ok().zip(kernel).map(|(run, k)| {
                Json::str(characteristics(k, &case.launch, &run.counters).to_string())
            });
        let generated = self.levels.last().and_then(|run| run.as_ref().ok());
        let loc = |lines: usize| Json::num(lines as f64);
        Json::obj([
            ("case", Json::str(info.name)),
            ("source", Json::str(info.source)),
            (
                "characteristics_paper",
                Json::str(info.characteristics_paper),
            ),
            ("characteristics", computed.unwrap_or(Json::Null)),
            ("opencl_loc_paper", loc(info.opencl_loc_paper)),
            ("high_level_loc_paper", loc(info.high_level_loc_paper)),
            ("low_level_loc_paper", loc(info.low_level_loc_paper)),
            (
                "generated_opencl_loc",
                generated.map_or(Json::Null, |o| loc(o.source_lines)),
            ),
            ("low_level_loc", loc(line_count(&case.program))),
        ])
    }
}

/// A run's correctness and counters, or its error.
fn run_fields(run: &Result<RunOutcome, RunnerError>) -> Vec<(&'static str, Json)> {
    match run {
        Ok(o) => vec![
            ("correct", Json::Bool(o.correct)),
            ("counters", counters(&o.counters)),
        ],
        Err(e) => vec![("error", Json::str(e.to_string()))],
    }
}

fn counters(c: &CostCounters) -> Json {
    Json::obj(
        [
            ("flops", c.flops),
            ("int_ops", c.int_ops),
            ("div_mod_ops", c.div_mod_ops),
            ("global_accesses", c.global_accesses),
            ("vector_accesses", c.vector_accesses),
            ("global_transactions", c.global_transactions),
            ("uncoalesced_accesses", c.uncoalesced_accesses),
            ("local_accesses", c.local_accesses),
            ("private_accesses", c.private_accesses),
            ("barriers", c.barriers),
            ("loop_iterations", c.loop_iterations),
            ("work_items", c.work_items),
            ("work_groups", c.work_groups),
            ("lockstep_rows", c.lockstep_rows),
            ("group_span_rows", c.group_span_rows),
        ]
        .map(|(name, value)| (name, Json::num(value as f64))),
    )
}
