//! The benchmark's own configuration: the canonical budgets and strategies every request is
//! built from, pinned explicitly so a result file says what it measured. Nothing here is read
//! from `lift_bench`; the numbers are copied once and stay fixed so results stay comparable.

use std::path::PathBuf;

use lift_rewrite::ExplorationConfig;
use lift_service::{Request, ServiceConfig};
use lift_tuner::{Strategy, TuningConfig, Workload};
use lift_vgpu::{DeviceProfile, EngineSelection};

/// Worker threads of the service and of every exploration. The box has two shared cores and
/// the benchmark thread is the only client, so a second worker would measure the scheduler.
pub const THREADS: usize = 1;
/// The virtual-GPU tier every candidate is scored on (the crates' default selection).
pub const ENGINE: EngineSelection = EngineSelection::Auto;
/// Candidates execute under the shadow-memory race detector, as the service does by default.
pub const DETECT_RACES: bool = true;
/// The tuner's strategy seed. It is a constant, not derived from `--seed`: the tuned cost
/// must repeat exactly from run to run, and a seed-dependent walk would make request time
/// depend on the seed instead of on the code under test.
pub const TUNER_SEED: u64 = 0x11f7;

/// Capacity of the disk-backed store in `store_churn` (the key set has 40 entries).
pub const CHURN_CAPACITY: usize = 28;
/// `store_churn` drops and re-opens its service after this many requests.
pub const CHURN_REOPEN_EVERY: usize = 100;

fn pin(base: &mut ExplorationConfig) {
    base.threads = THREADS;
    base.engine = ENGINE;
    base.detect_races = DETECT_RACES;
}

fn hill_climb(samples: usize, max_steps: usize) -> Strategy {
    Strategy::RandomHillClimb {
        seed: TUNER_SEED,
        samples,
        max_steps,
    }
}

/// The canonical cold-search configuration of one tracked workload on one device.
pub fn canonical_config(workload: &Workload, device: &DeviceProfile) -> TuningConfig {
    let strategy = match workload.name {
        "dot_product" => hill_climb(8, 4),
        "matrix_multiply" | "convolution_1d" => hill_climb(6, 3),
        "dot_product_two_stage" => hill_climb(4, 3),
        "jacobi_2d" => hill_climb(16, 6),
        "mm_tiled" => hill_climb(6, 4),
        _ => hill_climb(3, 2),
    };
    let mut config = TuningConfig::new(device.clone(), workload.space_for(device), strategy);
    config.base.max_candidates = 3000;
    config.base.beam_width = 48;
    if workload.name == "jacobi_2d" {
        // The 2D stencil needs ~9 lowering steps, beyond the default search depth.
        config.base.max_depth = 10;
        config.base.max_candidates = 6000;
        config.base.beam_width = 32;
    }
    pin(&mut config.base);
    config
}

/// The reduced miss budget of `store_churn`: a miss costs tens of milliseconds, so a run
/// holds many of them. Every family used there finds a variant under this budget.
pub fn churn_config(workload: &Workload, device: &DeviceProfile) -> TuningConfig {
    let mut config =
        TuningConfig::new(device.clone(), workload.space_for(device), hill_climb(2, 1));
    config.base.max_candidates = 400;
    config.base.beam_width = 48;
    pin(&mut config.base);
    config
}

/// A request for `workload` under `config`, labelled `name`.
pub fn request(name: String, workload: &Workload, config: TuningConfig) -> Request {
    Request {
        name,
        program: workload.program.clone(),
        config,
    }
}

/// The service configuration of every workload: one worker, warm starts on, current
/// versions; `root` selects the disk-backed store.
pub fn service_config(root: Option<PathBuf>, capacity: usize) -> ServiceConfig {
    ServiceConfig {
        root,
        capacity,
        threads: THREADS,
        warm_start: true,
        ..ServiceConfig::default()
    }
}
