//! The GenASM workspace's performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `map_short_repeat`, `align_long_pairs`,
//! `distance_long_pairs`, `serve_open_short` (see `perfbench/NOTES.md`);
//! `--workload all` runs each in turn.
//! Every input is generated from `--seed`. Every output is checked
//! against an oracle; any mismatch fails the run. With `--trace 0` the
//! last stdout line is a JSON object with the end-to-end metrics; with
//! `--trace 1` a separate traced replay reports the per-layer metrics
//! and writes its spans under `perfbench/out/`.

mod inputs;
mod layers;
mod long;
mod serve;
mod short;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("accuracy_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not run reports 0. Times and counts are per pass over the
/// workload's inputs; counts are exact.
const PER_LAYER: &[(&str, &str)] = &[
    ("mapper.index.build_s", "s"),
    ("mapper.index.postings", "count"),
    ("mapper.index.distinct_seeds", "count"),
    ("mapper.seed.busy_s", "s"),
    ("mapper.seed.candidates", "count"),
    ("mapper.seed.candidates_per_read", "count"),
    ("core.cascade.tier0.busy_s", "s"),
    ("core.cascade.tier0.probes", "count"),
    ("core.cascade.tier0.rejects", "count"),
    ("core.cascade.tier0.reject_frac", "frac"),
    ("core.cascade.tier1.busy_s", "s"),
    ("core.cascade.tier1.rows_issued", "count"),
    ("core.cascade.tier1.rows_useful", "count"),
    ("core.cascade.tier1.occupancy", "frac"),
    ("core.cascade.tier1.rejects", "count"),
    ("core.cascade.tier1.reject_frac", "frac"),
    ("core.cascade.fallbacks", "count"),
    ("engine.distance.wall_s", "s"),
    ("engine.distance.busy_s", "s"),
    ("engine.distance.jobs", "count"),
    ("engine.distance.prefilled_frac", "frac"),
    ("engine.distance.rows_issued", "count"),
    ("engine.distance.occupancy", "frac"),
    ("engine.distance.utilization", "frac"),
    ("engine.align.wall_s", "s"),
    ("engine.align.busy_s", "s"),
    ("engine.align.jobs", "count"),
    ("engine.align.rows_issued", "count"),
    ("engine.align.occupancy", "frac"),
    ("engine.align.utilization", "frac"),
    ("engine.align.tb_windows", "count"),
    ("engine.align.tb_rows", "count"),
    ("engine.align.failures", "count"),
    ("core.align.busy_s", "s"),
    ("core.align.windows", "count"),
    ("core.align.tb_rows", "count"),
    ("core.align.dc_bytes_computed", "B"),
    ("engine.overhead", "ratio"),
    ("mapper.pipeline.wall_s", "s"),
    ("mapper.pipeline.seed_s", "s"),
    ("mapper.pipeline.filter_s", "s"),
    ("mapper.pipeline.distance_s", "s"),
    ("mapper.pipeline.traceback_s", "s"),
    ("mapper.pipeline.other_s", "s"),
    ("serve.light.p50_ms", "ms"),
    ("serve.light.p99_ms", "ms"),
    ("serve.light.samples", "count"),
    ("serve.busy.p50_ms", "ms"),
    ("serve.busy.p99_ms", "ms"),
    ("serve.busy.samples", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.goodput_per_s", "1/s"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.gen_late_ms.p99", "ms"),
    ("serve.gen_late_ms.max", "ms"),
    ("serve.gen_late_flag", "count"),
    ("serve.batches", "count"),
    ("serve.reads_per_batch", "count"),
    ("serve.inflight_max", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_dropped", "count"),
    ("serve.poisoned", "count"),
    ("serve.reorder_hold_ms.p99", "ms"),
    ("serve.server_latency_p50_us", "us"),
    ("obs.trace_overhead", "frac"),
    ("obs.replay_checks", "count"),
];

const WORKLOADS: &[&str] = &[
    "map_short_repeat",
    "align_long_pairs",
    "distance_long_pairs",
    "serve_open_short",
];

const USAGE: &str =
    "usage: genasm-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measurement time of the run.
    pub seconds: f64,
    /// Run the traced per-layer replay instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut flags = BTreeMap::new();
        for pair in argv.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
                }
                _ => return Err(format!("malformed arguments: {argv:?}")),
            }
        }
        let mut take = |name: &str| flags.remove(name).ok_or(format!("missing --{name}"));
        let workload = take("workload")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        if let Some(extra) = flags.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One run's outcome: operations attempted and failed, oracle
/// mismatches, and the metrics measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and broken invariants; any one fails the run.
    pub errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Context printed to stderr (sample counts, flags).
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records an error unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        if !ok {
            self.errors.push(message());
        }
        ok
    }

    /// Writes the traced run's spans to `perfbench/out/`.
    pub fn write_trace(&mut self, args: &Args, tracer: &trace::Tracer) {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload, args.seed
        ));
        match tracer.write_chrome(&path) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.note(format!("could not write {}: {e}", path.display())),
        }
    }

    /// Prints the result line; the exit code reports whether every
    /// output matched its oracle.
    fn finish(mut self, trace: bool) -> ExitCode {
        let names = if trace { PER_LAYER } else { END_TO_END };
        for &(name, _) in names {
            let value = match (self.metrics.get(name), trace) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
                self.metrics.insert(name, 0.0);
            }
        }
        for note in &self.notes {
            eprintln!("note: {note}");
        }
        for error in self.errors.iter().take(20) {
            eprintln!("error: {error}");
        }
        let correct = self.errors.is_empty();
        let mut metrics = String::new();
        for (i, &(name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted,
            self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Runs `calls` requests round-robin for `seconds` (and at least
/// [`MIN_PASSES`] full passes), after one untimed warm-up pass. Only
/// `run` is timed; `check` sees every output. Returns each call's
/// fastest time over the passes, in seconds, and the number of passes.
///
/// The fastest repeat, not the median, is the call's time: on a shared
/// host, interference from other tenants slows whole stretches of a run
/// and drifts between runs, and the fastest repeat moves far less from
/// run to run than the median does (measurements in `NOTES.md`).
pub fn best_call_times<T>(
    calls: usize,
    seconds: f64,
    mut run: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T),
) -> (Vec<f64>, usize) {
    for i in 0..calls {
        let out = run(i);
        check(i, out);
    }
    let mut best = vec![f64::INFINITY; calls];
    let mut passes = 0;
    let started = Instant::now();
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        for (i, best) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            let out = std::hint::black_box(run(i));
            *best = best.min(t0.elapsed().as_secs_f64());
            check(i, out);
        }
        passes += 1;
    }
    (best, passes)
}

/// Repeats per call that [`best_call_times`] always makes.
const MIN_PASSES: usize = 3;

/// Ends the run as failed if it outlives any legitimate run (the
/// measurement plus its set-up and oracles take well under a minute
/// more than `seconds`), so a hung layer fails loudly instead of
/// stalling its caller. The thread is left detached on purpose: the
/// process exit ends it.
fn start_watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64((seconds * 3.0 + 60.0).max(170.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("error: the run exceeded {limit:?}; a layer hung");
        std::process::exit(3);
    });
}

/// `--workload all`: runs every workload in its own process (so each
/// reports its own peak memory), one after another, and prints each
/// one's result line after its name. Fails if any workload failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let (ok, line) = match &out {
            Ok(out) => (
                out.status.success(),
                String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .unwrap_or("")
                    .to_string(),
            ),
            Err(e) => (false, format!("could not run: {e}")),
        };
        println!("{workload} {line}");
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    start_watchdog(args.seconds);
    let mut report = match args.workload.as_str() {
        "map_short_repeat" => short::run(&args),
        "align_long_pairs" => long::run(&args, long::Mode::Align),
        "distance_long_pairs" => long::run(&args, long::Mode::Distance),
        "serve_open_short" => serve::run(&args),
        _ => unreachable!("workload validated by Args::parse"),
    };
    match stats::peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report
            .errors
            .push("peak RSS unavailable (/proc/self/status)".to_string()),
    }
    report.finish(args.trace)
}
