//! Per-layer accumulators for the traced run: the engine's own batch
//! statistics and the scalar kernel's window statistics, summed over a
//! run and reported per pass over the workload's inputs.

use crate::Report;
use genasm_core::align::WindowStats;
use genasm_engine::BatchStats;

/// Sums of [`BatchStats`] over every engine call of one mode.
#[derive(Debug, Default)]
pub struct EngineTotals {
    pub wall: f64,
    pub busy: f64,
    /// Worker-seconds available (`wall × workers`), the utilization base.
    pub capacity: f64,
    pub jobs: u64,
    pub prefilled: u64,
    pub rows_issued: u64,
    pub rows_useful: u64,
    pub tb_windows: u64,
    pub tb_rows: u64,
    pub failures: u64,
}

impl EngineTotals {
    pub fn add(&mut self, s: &BatchStats) {
        self.wall += s.wall.as_secs_f64();
        self.busy += s.busy.as_secs_f64();
        self.capacity += s.wall.as_secs_f64() * s.workers as f64;
        self.jobs += s.jobs as u64;
        self.prefilled += s.jobs_prefilled;
        self.rows_issued += s.dc_rows_issued;
        self.rows_useful += s.dc_rows_useful;
        self.tb_windows += s.tb_windows;
        self.tb_rows += s.tb_rows;
        self.failures += s.failures as u64;
    }

    /// Reports the distance-mode metrics, per pass.
    pub fn report_distance(&self, report: &mut Report, passes: f64) {
        report.set("engine.distance.wall_s", self.wall / passes);
        report.set("engine.distance.busy_s", self.busy / passes);
        report.set("engine.distance.jobs", self.jobs as f64 / passes);
        report.set(
            "engine.distance.prefilled_frac",
            ratio(self.prefilled as f64, self.jobs as f64),
        );
        report.set(
            "engine.distance.rows_issued",
            self.rows_issued as f64 / passes,
        );
        report.set("engine.distance.occupancy", self.occupancy());
        report.set(
            "engine.distance.utilization",
            ratio(self.busy, self.capacity),
        );
    }

    /// Reports the align-mode (DC + TB) metrics, per pass.
    pub fn report_align(&self, report: &mut Report, passes: f64) {
        report.set("engine.align.wall_s", self.wall / passes);
        report.set("engine.align.busy_s", self.busy / passes);
        report.set("engine.align.jobs", self.jobs as f64 / passes);
        report.set("engine.align.rows_issued", self.rows_issued as f64 / passes);
        report.set("engine.align.occupancy", self.occupancy());
        report.set("engine.align.utilization", ratio(self.busy, self.capacity));
        report.set("engine.align.tb_windows", self.tb_windows as f64 / passes);
        report.set("engine.align.tb_rows", self.tb_rows as f64 / passes);
        report.set("engine.align.failures", self.failures as f64 / passes);
    }

    fn occupancy(&self) -> f64 {
        ratio(self.rows_useful as f64, self.rows_issued as f64)
    }
}

/// Sums of the scalar aligner's [`WindowStats`] over the pairs the
/// engine aligned, plus its busy time.
#[derive(Debug, Default)]
pub struct KernelTotals {
    pub busy: f64,
    pub windows: u64,
    pub tb_rows: u64,
    pub bitvector_words: u64,
}

impl KernelTotals {
    pub fn add(&mut self, s: &WindowStats) {
        self.windows += s.windows as u64;
        self.tb_rows += s.tb_rows as u64;
        self.bitvector_words += s.bitvector_words as u64;
    }

    /// Reports the scalar kernel's metrics per pass, and the engine's
    /// busy time over the kernel's for the same pairs.
    pub fn report(&self, report: &mut Report, passes: f64, engine_busy: f64) {
        report.set("core.align.busy_s", self.busy / passes);
        report.set("core.align.windows", self.windows as f64 / passes);
        report.set("core.align.tb_rows", self.tb_rows as f64 / passes);
        // Computed from the bitvector words written, not measured traffic.
        report.set(
            "core.align.dc_bytes_computed",
            self.bitvector_words as f64 * 8.0 / passes,
        );
        report.set("engine.overhead", ratio(engine_busy, self.busy));
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
