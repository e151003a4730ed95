//! Deterministic workload generation.
//!
//! All benchmarks draw their inputs from a seeded pseudo-random generator so that runs are
//! reproducible and the generated and reference kernels can be compared element by element.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `len` pseudo-random floats in `[lo, hi)` from a fixed seed.
pub fn random_floats(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Generates a `rows x cols` matrix in row-major order.
pub fn random_matrix(seed: u64, rows: usize, cols: usize, lo: f32, hi: f32) -> Vec<f32> {
    random_floats(seed, rows * cols, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            random_floats(7, 16, -1.0, 1.0),
            random_floats(7, 16, -1.0, 1.0)
        );
        assert_ne!(
            random_floats(7, 16, -1.0, 1.0),
            random_floats(8, 16, -1.0, 1.0)
        );
    }

    #[test]
    fn values_stay_in_range() {
        let v = random_floats(3, 100, 0.5, 2.0);
        assert!(v.iter().all(|x| (0.5..2.0).contains(x)));
        assert_eq!(random_matrix(1, 4, 8, 0.0, 1.0).len(), 32);
    }
}
