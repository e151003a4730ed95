//! Compilation options.
//!
//! The evaluation of the paper (Section 7.4, Figure 8) compares three optimisation levels:
//! no optimisations, barrier elimination + control-flow simplification, and additionally the
//! array-access simplification. [`CompilationOptions`] exposes exactly those toggles plus the
//! launch configuration the kernel is specialised for (Lift kernels are compiled for a known
//! work-group size, which is what enables the control-flow simplification of Section 5.5).

use std::cmp::Ordering;

use lift_vgpu::DeviceProfile;

/// Which code-generator optimisations are enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompilationOptions {
    /// Simplify array index expressions with the arithmetic rules of Section 5.3.
    pub array_access_simplification: bool,
    /// Remove barriers that are provably unnecessary (Section 5.4).
    pub barrier_elimination: bool,
    /// Remove or simplify loops whose trip count is statically known (Section 5.5).
    pub control_flow_simplification: bool,
    /// The local (work-group) size the kernel is specialised for.
    pub local_size: [usize; 3],
    /// The global size the kernel is specialised for.
    pub global_size: [usize; 3],
}

impl CompilationOptions {
    /// All optimisations enabled — the configuration whose output the paper compares against
    /// hand-written OpenCL (the dark-red bars of Figure 8).
    pub fn all_optimisations() -> CompilationOptions {
        CompilationOptions {
            array_access_simplification: true,
            barrier_elimination: true,
            control_flow_simplification: true,
            local_size: [128, 1, 1],
            global_size: [1024, 1, 1],
        }
    }

    /// No optimisations (the "None" bars of Figure 8).
    pub fn none() -> CompilationOptions {
        CompilationOptions {
            array_access_simplification: false,
            barrier_elimination: false,
            control_flow_simplification: false,
            local_size: [128, 1, 1],
            global_size: [1024, 1, 1],
        }
    }

    /// Barrier elimination and control-flow simplification but no array-access simplification
    /// (the middle bars of Figure 8).
    pub fn without_array_access_simplification() -> CompilationOptions {
        CompilationOptions {
            array_access_simplification: false,
            ..Self::all_optimisations()
        }
    }

    /// All optimisations, with a launch configuration derived from the device instead of the
    /// historical hard-coded `[128,1,1]`/`[1024,1,1]`: one full-occupancy work group per
    /// compute unit, capped by the device's work-group limit. This is the *default* starting
    /// point only — `lift-tuner` searches the launch space per device and is the single
    /// source of tuned launch configurations.
    pub fn for_device(device: &DeviceProfile) -> CompilationOptions {
        let local = device
            .max_work_group_size
            .min(device.max_work_item_sizes[0])
            .clamp(1, 128);
        let global = local * device.compute_units.max(1);
        CompilationOptions {
            array_access_simplification: true,
            barrier_elimination: true,
            control_flow_simplification: true,
            local_size: [local, 1, 1],
            global_size: [global, 1, 1],
        }
    }

    /// Sets the launch configuration (builder style).
    pub fn with_launch(mut self, global: [usize; 3], local: [usize; 3]) -> CompilationOptions {
        self.global_size = global;
        self.local_size = local;
        self
    }

    /// Sets a one-dimensional launch configuration.
    pub fn with_launch_1d(self, global: usize, local: usize) -> CompilationOptions {
        self.with_launch([global, 1, 1], [local, 1, 1])
    }

    /// Number of work groups per dimension.
    pub fn num_groups(&self) -> [usize; 3] {
        [
            self.global_size[0] / self.local_size[0].max(1),
            self.global_size[1] / self.local_size[1].max(1),
            self.global_size[2] / self.local_size[2].max(1),
        ]
    }

    /// How a map length compares with one extent of the launch.
    fn compare_len(&self, extent: LaunchExtent, dim: u8, len: i64) -> Ordering {
        let sizes = match extent {
            LaunchExtent::Global => self.global_size,
            LaunchExtent::WorkGroup => self.num_groups(),
            LaunchExtent::Local => self.local_size,
        };
        // An extent beyond `i64::MAX` is larger than any length.
        len.cmp(&i64::try_from(sizes[usize::from(dim)]).unwrap_or(i64::MAX))
    }

    /// A short label describing the enabled optimisations, used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match (
            self.array_access_simplification,
            self.barrier_elimination || self.control_flow_simplification,
        ) {
            (true, _) => "barrier+cf+array-simplification",
            (false, true) => "barrier+cf",
            (false, false) => "none",
        }
    }
}

/// The launch extent a parallel map distributes its elements over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum LaunchExtent {
    /// Work items of the whole launch (`mapGlb`, [`CompilationOptions::global_size`]).
    Global,
    /// Work groups (`mapWrg`, [`CompilationOptions::num_groups`]).
    WorkGroup,
    /// Work items of one group (`mapLcl`, [`CompilationOptions::local_size`]).
    Local,
}

/// One question the generator asked of the launch, with the answer it got: how a constant
/// map length compares with the extent of the dimension the map is distributed over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct LaunchAnswer {
    extent: LaunchExtent,
    dim: u8,
    /// The map length that was compared with the extent.
    len: i64,
    /// `len.cmp(extent)`.
    ordering: Ordering,
}

/// Everything one compilation learnt about the launch it specialised for.
///
/// The launch sizes of [`CompilationOptions`] enter code generation in one place, the
/// control-flow simplification of a parallel map loop (Section 5.5), and only as a three-way
/// comparison: how a constant map length compares with the global size, the group count or
/// the local size of the dimension the map is distributed over. The trace holds the
/// distinct comparisons made, with their answers, in the order they were first made. The
/// generator is deterministic in the program, the other options and these answers, so under
/// any launch that gives the same answers ([`LaunchTrace::holds_for`]) it produces the same
/// module, or the same error.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct LaunchTrace {
    answers: Vec<LaunchAnswer>,
}

impl LaunchTrace {
    /// Whether the launch of `options` answers every recorded question the way it was
    /// answered when the trace was recorded.
    pub fn holds_for(&self, options: &CompilationOptions) -> bool {
        self.answers
            .iter()
            .all(|a| options.compare_len(a.extent, a.dim, a.len) == a.ordering)
    }

    /// Answers one question from the launch of `options` and records it.
    pub(crate) fn ask(
        &mut self,
        options: &CompilationOptions,
        extent: LaunchExtent,
        dim: u8,
        len: i64,
    ) -> Ordering {
        let ordering = options.compare_len(extent, dim, len);
        let answer = LaunchAnswer {
            extent,
            dim,
            len,
            ordering,
        };
        if !self.answers.contains(&answer) {
            self.answers.push(answer);
        }
        ordering
    }
}

impl Default for CompilationOptions {
    fn default() -> Self {
        Self::all_optimisations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_figure8_levels() {
        assert!(CompilationOptions::all_optimisations().array_access_simplification);
        assert!(!CompilationOptions::none().barrier_elimination);
        let mid = CompilationOptions::without_array_access_simplification();
        assert!(!mid.array_access_simplification);
        assert!(mid.barrier_elimination && mid.control_flow_simplification);
    }

    #[test]
    fn labels_are_distinct() {
        assert_eq!(
            CompilationOptions::all_optimisations().label(),
            "barrier+cf+array-simplification"
        );
        assert_eq!(
            CompilationOptions::without_array_access_simplification().label(),
            "barrier+cf"
        );
        assert_eq!(CompilationOptions::none().label(), "none");
    }

    #[test]
    fn for_device_respects_the_device_limits() {
        for device in [DeviceProfile::nvidia(), DeviceProfile::amd()] {
            let o = CompilationOptions::for_device(&device);
            assert!(o.array_access_simplification);
            let launch = lift_vgpu::LaunchConfig {
                global: o.global_size,
                local: o.local_size,
            };
            assert_eq!(device.validate_launch(&launch), Ok(()));
            // One work group per compute unit.
            assert_eq!(o.num_groups()[0], device.compute_units);
        }
    }

    #[test]
    fn a_launch_trace_holds_exactly_where_every_answer_repeats() {
        let at =
            |global, local| CompilationOptions::all_optimisations().with_launch_1d(global, local);
        let mut trace = LaunchTrace::default();
        assert!(
            trace.holds_for(&at(7, 7)),
            "nothing asked, nothing to contradict"
        );
        // 64 elements over 16 groups of 4 items: more elements than groups, than items.
        let recorded = at(64, 4);
        assert_eq!(
            trace.ask(&recorded, LaunchExtent::WorkGroup, 0, 64),
            Ordering::Greater
        );
        assert_eq!(
            trace.ask(&recorded, LaunchExtent::Local, 0, 4),
            Ordering::Equal
        );
        assert_eq!(
            trace.ask(&recorded, LaunchExtent::Local, 0, 4),
            Ordering::Equal
        );
        assert_eq!(
            trace.answers.len(),
            2,
            "a repeated question is recorded once"
        );
        assert!(trace.holds_for(&recorded));
        // Fewer groups of the same size answer both questions the same way…
        assert!(trace.holds_for(&at(32, 4)));
        // …another group size does not, and neither do as many groups as elements.
        assert!(!trace.holds_for(&at(64, 8)));
        assert!(!trace.holds_for(&at(256, 4)));
        // A dimension nobody asked about is free.
        let wide = CompilationOptions::all_optimisations().with_launch([64, 8, 1], [4, 2, 1]);
        assert!(trace.holds_for(&wide));
    }

    #[test]
    fn launch_builders() {
        let o = CompilationOptions::all_optimisations().with_launch_1d(4096, 256);
        assert_eq!(o.global_size, [4096, 1, 1]);
        assert_eq!(o.num_groups(), [16, 1, 1]);
        let o = CompilationOptions::all_optimisations().with_launch([64, 32, 1], [16, 8, 1]);
        assert_eq!(o.num_groups(), [4, 4, 1]);
    }
}
