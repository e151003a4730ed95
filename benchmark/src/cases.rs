//! The request keys the workloads draw from: a request plus the oracle that checks whatever
//! the service serves for it.

use lift_benchmarks::{convolution, dot_product};
use lift_rewrite::TileSize;
use lift_service::Request;
use lift_tuner::Workload;
use lift_vgpu::DeviceProfile;

use crate::config::{canonical_config, churn_config, request};
use crate::oracle::{Family, Oracle};
use crate::stats::Rng;

pub struct Case {
    pub request: Request,
    pub oracle: Oracle,
}

fn case(request: Request, family: Family, rng: &mut Rng) -> Result<Case, String> {
    let oracle = Oracle::build(&request.program, family, rng)?;
    Ok(Case { request, oracle })
}

fn family_of(workload: &Workload) -> Family {
    match workload.name {
        "dot_product" => Family::PartialDot,
        "dot_product_two_stage" => Family::FullDot,
        "nbody" => Family::Nbody,
        "convolution_1d" => Family::Convolution,
        "jacobi_2d" => Family::Jacobi { rows: 8, cols: 12 },
        // `matrix_multiply` and `mm_tiled` share the 16×16×16 program.
        _ => Family::Mm {
            m: 16,
            k: 16,
            n: 16,
        },
    }
}

/// One tracked workload at its canonical budgets on the NVIDIA profile.
pub fn canonical(workload: &Workload, rng: &mut Rng) -> Result<Case, String> {
    let device = DeviceProfile::nvidia();
    let config = canonical_config(workload, &device);
    case(
        request(workload.name.to_string(), workload, config),
        family_of(workload),
        rng,
    )
}

/// The 40 keys of `store_churn`, most popular first: partial dot products of `128·k`
/// elements (`k = 1..12`) and 17-point convolutions of `64·k` outputs (`k = 1..8`), each on
/// both device profiles, interleaved so every popularity band mixes families, sizes and
/// devices. Families that find no variant under the reduced budget (`mm`, the full dot
/// product) are left out: a request that must fail belongs in `failed`, not in the design.
pub fn churn_keys(rng: &mut Rng) -> Result<Vec<Case>, String> {
    let devices = [DeviceProfile::nvidia(), DeviceProfile::amd()];
    let mut workloads: Vec<(Workload, Family)> = Vec::new();
    for k in 1..=12usize {
        let n = 128 * k;
        workloads.push((
            Workload {
                name: "dot_product",
                program: dot_product::high_level_program(n),
                parallelism: n,
                tile_sets: Vec::new(),
                grid_2d: None,
            },
            Family::PartialDot,
        ));
        if k <= 8 {
            let n_out = 64 * k;
            workloads.push((
                Workload {
                    name: "convolution_1d",
                    program: convolution::high_level_program(n_out, convolution::FILTER),
                    parallelism: n_out,
                    tile_sets: vec![
                        vec![TileSize::d1(16)],
                        vec![TileSize::d1(16), TileSize::d1(32)],
                        vec![TileSize::d1(32), TileSize::d1(64)],
                    ],
                    grid_2d: None,
                },
                Family::Convolution,
            ));
        }
    }
    let mut keys = Vec::new();
    for (i, (workload, family)) in workloads.iter().enumerate() {
        // Alternate which device comes first so neither owns the popular ranks.
        for d in 0..2 {
            let device = &devices[(i + d) % 2];
            let label = format!("{}:{}@{}", workload.name, workload.parallelism, device.name);
            let config = churn_config(workload, device);
            keys.push(case(request(label, workload, config), *family, rng)?);
        }
    }
    Ok(keys)
}
