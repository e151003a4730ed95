//! The paper's evaluation as one deterministic document: writes `BENCH_paper.json` in the
//! working directory.
//!
//! * `figure6` — the transposition read index of Figure 6, mechanically generated and after
//!   range-aware simplification, with their operation and div/mod counts;
//! * `figure7` — the generated dot-product kernel of Figure 7 and its line counts with and
//!   without optimisations;
//! * `table1` — per benchmark, Table 1's line counts and local / private / vec / coal / iter
//!   columns as the paper lists them, beside the ones measured here;
//! * `figure8` — per benchmark, size and optimisation level, the ratio of the reference's
//!   estimated time to the generated kernel's under both device profiles, correctness and
//!   both kernels' cost counters; and per profile and level the geometric mean.
//!
//! Every field is deterministic, so the committed file is its own gate: CI runs this binary
//! and fails when `git diff --exit-code -- BENCH_paper.json` is not clean. The process exits
//! non-zero if a reference or generated kernel fails to run or produces a wrong output.

use lift_arith::ArithExpr;
use lift_bench::geometric_mean;
use lift_bench::paper::{levels, CaseRuns};
use lift_benchmarks::{all_benchmarks, dot_product, ProblemSize};
use lift_codegen::view::{resolve, AccessBuilder, Resolved, View};
use lift_codegen::{compile_program, CompilationOptions};
use lift_ir::{AddressSpace, Reorder};
use lift_telemetry::json::Json;
use lift_vgpu::DeviceProfile;

/// Figure 6: `matrixTranspose(x: [[float]M]N) = mapWrg(mapLcl(id)) . split N . gather(...) .
/// join`, whose read index is resolved raw and simplified.
fn figure6() -> Json {
    let n = ArithExpr::size_var("N");
    let m = ArithExpr::size_var("M");
    let wg_id = ArithExpr::var_in_range("wg_id", 0, m.clone());
    let l_id = ArithExpr::var_in_range("l_id", 0, n.clone());
    let memory = View::memory("x", AddressSpace::Global, vec![n.clone(), m.clone()]);
    let joined = View::Join {
        base: Box::new(memory),
        inner: m.clone(),
    };
    // The gather permutation of Section 3.2 (i -> i/M + (i mod M) * N), i.e. stride N over
    // the flattened N*M array.
    let gathered = View::Reorder {
        base: Box::new(joined),
        reorder: Reorder::Stride(n.clone()),
        len: n.clone() * m,
    };
    let split = View::Split {
        base: Box::new(gathered),
        chunk: n,
    };
    let element = split.access(wg_id).access(l_id);
    let index = |simplify: bool| {
        let Resolved::MemoryAccess { index, .. } =
            resolve(&element, &AccessBuilder::new(simplify)).expect("the view resolves")
        else {
            unreachable!("the access reads memory")
        };
        Json::obj([
            ("index", Json::str(index.to_string())),
            ("ops", Json::num(index.op_count() as f64)),
            ("div_mod_ops", Json::num(index.div_mod_count() as f64)),
        ])
    };
    Json::obj([("generated", index(false)), ("simplified", index(true))])
}

/// Figure 7: the kernel generated for Listing 1's partial dot product.
fn figure7() -> Json {
    let n = 16 * 1024;
    let program = dot_product::lift_program(n);
    let compile = |options: CompilationOptions| {
        compile_program(&program, &options.with_launch_1d(n / 2, 64))
            .expect("the dot product compiles")
    };
    let kernel = compile(CompilationOptions::all_optimisations());
    Json::obj([
        (
            "kernel",
            Json::Arr(kernel.source().lines().map(Json::str).collect()),
        ),
        ("loc", Json::num(kernel.line_count() as f64)),
        (
            "loc_without_optimisations",
            Json::num(compile(CompilationOptions::none()).line_count() as f64),
        ),
    ])
}

fn main() {
    let devices = [DeviceProfile::amd(), DeviceProfile::nvidia()];
    let mut ratios = vec![vec![Vec::new(); levels().len()]; devices.len()];
    let (mut table1, mut cells, mut failed) = (Vec::new(), Vec::new(), 0);
    for size in ProblemSize::all() {
        for case in all_benchmarks(size) {
            let runs = CaseRuns::run(&case);
            if !runs.correct() {
                eprintln!(
                    "{} ({}) failed or is incorrect",
                    case.info.name,
                    size.label()
                );
                failed += 1;
            }
            for (device, per_level) in devices.iter().zip(&mut ratios) {
                for (level, values) in per_level.iter_mut().enumerate() {
                    values.extend(runs.ratio(level, device));
                }
            }
            if size == ProblemSize::Small {
                table1.push(runs.table1_row());
            }
            cells.push(runs.cell(&devices));
        }
    }
    let means = devices.iter().zip(&ratios).map(|(device, per_level)| {
        println!("{}: Figure 8 geometric means", device.name);
        let mut fields = vec![("profile".to_string(), Json::str(&device.name))];
        for ((name, _), values) in levels().iter().zip(per_level) {
            let mean = geometric_mean(values);
            println!("  {name:<18} {mean:.2}x");
            fields.push((name.to_string(), Json::num(mean)));
        }
        Json::Obj(fields)
    });
    let figure8 = Json::obj([
        ("geometric_means", Json::Arr(means.collect())),
        ("cells", Json::Arr(cells)),
    ]);
    let doc = Json::obj([
        ("schema", Json::str("lift-paper/v1")),
        ("figure6", figure6()),
        ("figure7", figure7()),
        ("table1", Json::Arr(table1)),
        ("figure8", figure8),
    ]);
    std::fs::write("BENCH_paper.json", doc.render())
        .unwrap_or_else(|e| panic!("write BENCH_paper.json: {e}"));
    println!("wrote BENCH_paper.json");
    if failed > 0 {
        eprintln!("paper_stats: {failed} case(s) failed to run or produced a wrong output");
        std::process::exit(1);
    }
}
