//! `serve_open_short`: an open loop of single-read requests against the
//! `genasm serve` server core, at fixed arrival rates.
//!
//! One generator thread submits on a Poisson schedule fixed in advance
//! from the seed; each request is timed from its *due* time to its
//! delivery at a time-stamping sink, so a stall in the server or the
//! generator counts against every request it delays.
//!
//! Each rung is cut into half-second windows by due time. The end-to-end
//! latency and delivered-rate figures are those of the rung's best
//! window: interference from other tenants of the shared two-core host
//! slows whole seconds of a run and drifts between runs, and the best
//! window is what stays steady from run to run. The traced run reports
//! whole-rung percentiles next to them.

use crate::inputs::{ShortInputs, STREAM_SCHEDULE};
use crate::short::{build_mapper, map_engine, trace_mapper, SETUP_REPS};
use crate::stats::{median, median_secs, percentile, SplitMix};
use crate::trace::Tracer;
use crate::{Args, Report};
use genasm_mapper::pipeline::ReadOutcome;
use genasm_mapper::{Mapping, ReadMapper};
use genasm_obs::Telemetry;
use genasm_serve::{
    CollectSink, Response, ResponseKind, ResponseSink, ServeConfig, Server, BATCHES_COUNTER,
    READS_ADMITTED_COUNTER, READS_DEADLINE_DROPPED_COUNTER, READS_POISONED_COUNTER,
    REQUEST_LATENCY_HISTOGRAM,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The arrival-rate ladder (reads/s) of the traced run.
const LADDER: [f64; 6] = [1000.0, 2000.0, 4000.0, 6000.0, 8000.0, OVERLOAD_RPS];
/// Light load: the batch timer, not mapping, sets latency here.
const LIGHT_RPS: f64 = 1000.0;
/// Busy load, where `latency_*` is measured: queueing behind mapping
/// shows before throughput stops rising.
const BUSY_RPS: f64 = 4000.0;
/// Past the server's capacity on a two-core host (5.5k-12k reads/s
/// depending on the host's load): the delivered rate here is
/// `throughput_per_s`.
const OVERLOAD_RPS: f64 = 16000.0;
/// Latency limit on the p99 for `serve.max_rps`.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// A rung whose generator p99 lateness exceeds this share of the
/// latency limit is flagged: its arrivals were not the schedule's.
const GEN_LATE_SHARE: f64 = 0.1;
/// Tail percentile of the serving latencies (thousands of samples per
/// window).
const SERVE_TAIL_PCT: f64 = 99.0;
/// Share of the run spent on the busy rung in the end-to-end run (the
/// overload rung gets the rest), and on the ladder in the traced run
/// (the mapper replay gets the rest).
const BUSY_SHARE: f64 = 0.6;
/// Window length of the best-window figures.
const WINDOW_S: f64 = 0.5;
/// How long to wait for the last responses after a rung's schedule.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// How one request resolved, as checked on delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Refused at admission.
    Shed,
    /// Poisoned or cut by a deadline.
    Degraded,
    /// Answered with the read's batch mapping.
    Correct,
    /// Answered with anything else.
    Wrong,
}

/// A sink that stamps each delivery and checks it against the read's
/// batch mapping on arrival, keeping only `(order, stamp, status)`.
struct CheckingSink {
    base: Instant,
    /// Read index of each request, by order.
    plan: Arc<[usize]>,
    oracle: Arc<[Option<Mapping>]>,
    got: Mutex<Vec<(u64, Duration, Status)>>,
    count: AtomicUsize,
}

impl ResponseSink for CheckingSink {
    fn deliver(&self, response: Response) {
        let at = self.base.elapsed();
        let expected = self
            .plan
            .get(response.order as usize)
            .map(|&r| self.oracle[r].as_ref());
        let status = match &response.kind {
            ResponseKind::Shed => Status::Shed,
            ResponseKind::Outcome(ReadOutcome::Mapped(m)) if expected == Some(Some(m)) => {
                Status::Correct
            }
            ResponseKind::Outcome(ReadOutcome::Unmapped) if expected == Some(None) => {
                Status::Correct
            }
            ResponseKind::Outcome(
                ReadOutcome::Poisoned { .. } | ReadOutcome::Incomplete { .. },
            ) => Status::Degraded,
            ResponseKind::Outcome(_) => Status::Wrong,
        };
        // Every update is a single push, so a poisoned lock's data is valid.
        self.got
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((response.order, at, status));
        self.count.fetch_add(1, Ordering::Release);
    }
}

/// The server as `genasm serve` starts it with its defaults (batch of
/// 64 reads, 20 ms batch wait, 1024 reads in flight, 2 pipeline
/// workers), one engine worker per pipeline worker, metrics on and
/// span tracing off. Returns the server and its set-up time.
fn start_server(genome: &[u8]) -> (Server, Duration) {
    let t0 = Instant::now();
    let telemetry = Telemetry::with_flags(true, false);
    let mapper = build_mapper(genome).with_telemetry(telemetry.clone());
    let engine = map_engine(&mapper).with_telemetry(telemetry);
    let server = Server::start(mapper, engine, ServeConfig::default());
    (server, t0.elapsed())
}

/// Drains a server only after it has answered one request.
///
/// `Server::drain` can hang on a server whose batcher thread has not yet
/// parked: `finish` sets `draining` and notifies the batcher's condition
/// variable without holding the queue lock, so a batcher between its
/// `draining` check and its wait misses the wake-up. Draining right after
/// `Server::start` hung one run in ten on a 2-vCPU VM. Once a response has come
/// back, the batcher has long parked and the wake-up reaches it.
fn settle_and_drain(server: Server, read: &[u8], report: &mut Report) {
    let sink = Arc::new(CollectSink::default());
    let handle: Arc<dyn ResponseSink> = sink.clone();
    server.submit(0, "settle", read.to_vec(), &handle);
    let waited = Instant::now();
    while sink.is_empty() && waited.elapsed() < DRAIN_LIMIT {
        std::thread::sleep(Duration::from_millis(1));
    }
    report.check(!sink.is_empty(), || {
        "a set-up server never answered".to_string()
    });
    server.drain();
}

/// One rung of the ladder: a fresh server under one arrival rate.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    seconds: f64,
    sent: usize,
    /// Per window: due-to-delivery latencies (ms) of answered requests.
    windows: Vec<Vec<f64>>,
    /// Per window: answered requests delivered in it.
    delivered: Vec<usize>,
    answered: usize,
    shed: usize,
    degraded: usize,
    /// Answered requests whose mapping is at the read's simulated origin.
    at_origin: usize,
    gen_late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    inflight_max: usize,
    reorder_hold_ms: Vec<f64>,
    batches: u64,
    admitted: u64,
    deadline_dropped: u64,
    poisoned: u64,
    server_p50_us: f64,
}

impl Rung {
    /// Latency percentile `pct` over the whole rung.
    fn p(&self, pct: f64) -> f64 {
        percentile(&self.windows.concat(), pct)
    }

    /// The lowest of the windows' latency percentiles `pct`.
    fn best_window_p(&self, pct: f64) -> f64 {
        self.windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, pct))
            .fold(f64::INFINITY, f64::min)
    }

    /// The highest rate of answered requests delivered in one window.
    fn best_window_goodput(&self) -> f64 {
        self.delivered
            .iter()
            .max()
            .map_or(0.0, |&n| n as f64 / WINDOW_S)
    }

    fn gen_late_p99(&self) -> f64 {
        percentile(&self.gen_late_ms, 99.0)
    }

    /// A growing backlog: the median latency of the last quarter of
    /// requests (by due time) exceeds the first quarter's by more than
    /// half the latency limit.
    fn backlog_grew(&self) -> bool {
        let all = self.windows.concat();
        let quarter = all.len() / 4;
        quarter > 0
            && median(&all[all.len() - quarter..]) - median(&all[..quarter])
                > LATENCY_LIMIT_MS / 2.0
    }

    /// Whether the rung met the p99 latency limit with nothing refused
    /// and no growing backlog.
    fn meets_limit(&self) -> bool {
        self.shed == 0
            && self.degraded == 0
            && self.p(SERVE_TAIL_PCT) <= LATENCY_LIMIT_MS
            && !self.backlog_grew()
    }
}

/// The open-loop schedule: Poisson arrivals at `rate` for `seconds`,
/// each carrying a uniformly drawn read, fixed before the rung starts.
fn schedule(seed: u64, rate: f64, seconds: f64, reads: usize) -> Vec<(f64, usize)> {
    let mut rng = SplitMix::new(seed, STREAM_SCHEDULE ^ ((rate as u64) << 8));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t, (rng.next_u64() % reads as u64) as usize));
    }
}

/// Runs one rung and checks every response: exactly one per request,
/// and every clean response equal to the read's batch mapping.
fn run_rung(
    inputs: &ShortInputs,
    oracle: &Arc<[Option<Mapping>]>,
    seed: u64,
    rate: f64,
    seconds: f64,
    setups: &mut Vec<Duration>,
    report: &mut Report,
) -> Rung {
    let (server, setup) = start_server(&inputs.genome);
    setups.push(setup);
    let plan = schedule(seed, rate, seconds, inputs.reads.len());
    let windows = ((seconds / WINDOW_S).floor() as usize).max(1);
    let mut rung = Rung {
        rate,
        seconds,
        sent: plan.len(),
        windows: vec![Vec::new(); windows],
        delivered: vec![0; windows],
        ..Rung::default()
    };
    let start = Instant::now() + Duration::from_millis(5);
    let sink = Arc::new(CheckingSink {
        base: start,
        plan: plan.iter().map(|&(_, read)| read).collect(),
        oracle: Arc::clone(oracle),
        got: Mutex::new(Vec::with_capacity(plan.len())),
        count: AtomicUsize::new(0),
    });
    let handle: Arc<dyn ResponseSink> = sink.clone();
    for (i, &(at, read)) in plan.iter().enumerate() {
        let due = start + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t0 = Instant::now();
        rung.gen_late_ms
            .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        server.submit(
            i as u64,
            format!("q{i}"),
            inputs.reads[read].seq.clone(),
            &handle,
        );
        rung.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        rung.inflight_max = rung.inflight_max.max(server.inflight());
    }
    let waited = Instant::now();
    while sink.count.load(Ordering::Acquire) < rung.sent && waited.elapsed() < DRAIN_LIMIT {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The server has answered requests, so its batcher is parked and the
    // drain cannot lose its wake-up (see `settle_and_drain`).
    let telemetry = server.telemetry().clone();
    server.drain();
    let snapshot = telemetry.metrics.snapshot();
    rung.batches = snapshot.counter(BATCHES_COUNTER).unwrap_or(0);
    rung.admitted = snapshot.counter(READS_ADMITTED_COUNTER).unwrap_or(0);
    rung.deadline_dropped = snapshot
        .counter(READS_DEADLINE_DROPPED_COUNTER)
        .unwrap_or(0);
    rung.poisoned = snapshot.counter(READS_POISONED_COUNTER).unwrap_or(0);
    rung.server_p50_us = snapshot
        .histogram(REQUEST_LATENCY_HISTOGRAM)
        .map_or(0.0, |h| h.p50() as f64);

    let mut got = std::mem::take(&mut *sink.got.lock().unwrap_or_else(|e| e.into_inner()));
    got.sort_unstable_by_key(|&(order, _, _)| order);
    let mut seen = vec![false; rung.sent];
    let mut prefix_max = Duration::ZERO;
    for &(order, at, status) in &got {
        let i = order as usize;
        let fresh = seen.get(i).is_some_and(|s| !s);
        if !report.check(fresh, || {
            format!("{rate} rps: duplicate or unknown response order {order}")
        }) {
            continue;
        }
        seen[i] = true;
        prefix_max = prefix_max.max(at);
        let (due, read) = plan[i];
        match status {
            Status::Shed => rung.shed += 1,
            Status::Degraded => rung.degraded += 1,
            Status::Wrong => {
                report.errors.push(format!(
                    "{rate} rps: request {i} (read {read}) differs from its batch mapping"
                ));
            }
            Status::Correct => {
                rung.answered += 1;
                let latency = at.saturating_sub(Duration::from_secs_f64(due));
                let window = ((due / WINDOW_S) as usize).min(windows - 1);
                rung.windows[window].push(latency.as_secs_f64() * 1e3);
                if let Some(slot) = rung
                    .delivered
                    .get_mut((at.as_secs_f64() / WINDOW_S) as usize)
                {
                    *slot += 1;
                }
                rung.reorder_hold_ms
                    .push((prefix_max - at).as_secs_f64() * 1e3);
                if oracle[read]
                    .as_ref()
                    .is_some_and(|m| inputs.at_origin(read, m.position, m.reverse))
                {
                    rung.at_origin += 1;
                }
            }
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    report.check(missing == 0, || {
        format!("{rate} rps: {missing} requests got no response")
    });
    report.attempted += rung.sent as u64;
    report.failed += (missing + rung.degraded) as u64;

    let late = rung.gen_late_p99();
    if late > GEN_LATE_SHARE * LATENCY_LIMIT_MS {
        report.note(format!(
            "FLAG {rate} rps: generator p99 lateness {late:.2} ms exceeds {:.0}% of the {LATENCY_LIMIT_MS} ms limit",
            GEN_LATE_SHARE * 100.0
        ));
    }
    report.note(format!(
        "{rate} rps over {seconds:.1} s: {} sent, {} answered, {} shed; p50 {:.2} ms, \
         p{SERVE_TAIL_PCT} {:.2} ms (best of {windows} windows: {:.2} / {:.2} ms, ~{:.0} samples each); generator late p99 {late:.3} ms",
        rung.sent,
        rung.answered,
        rung.shed,
        rung.p(50.0),
        rung.p(SERVE_TAIL_PCT),
        rung.best_window_p(50.0),
        rung.best_window_p(SERVE_TAIL_PCT),
        rung.answered as f64 / windows as f64
    ));
    rung
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let inputs = ShortInputs::generate(args.seed);
    let mut setups = Vec::new();
    // One untimed start first, as in `map_short_repeat`.
    settle_and_drain(
        start_server(&inputs.genome).0,
        &inputs.reads[0].seq,
        &mut report,
    );
    for _ in 0..SETUP_REPS {
        let (server, setup) = start_server(&inputs.genome);
        setups.push(setup);
        settle_and_drain(server, &inputs.reads[0].seq, &mut report);
    }
    let mapper = build_mapper(&inputs.genome);
    let engine = map_engine(&mapper);
    let oracle: Arc<[Option<Mapping>]> = mapper
        .map_batch_with_engine(&inputs.read_seqs(), &engine)
        .0
        .into();

    if args.trace {
        trace(
            args,
            &inputs,
            &mapper,
            &engine,
            &oracle,
            &mut setups,
            &mut report,
        );
        return report;
    }

    let busy_s = args.seconds * BUSY_SHARE;
    let busy = run_rung(
        &inputs,
        &oracle,
        args.seed,
        BUSY_RPS,
        busy_s,
        &mut setups,
        &mut report,
    );
    let overload_s = args.seconds - busy_s;
    let overload = run_rung(
        &inputs,
        &oracle,
        args.seed,
        OVERLOAD_RPS,
        overload_s,
        &mut setups,
        &mut report,
    );
    // Below capacity, a refused request is a failed one.
    report.failed += busy.shed as u64;
    report.set("setup_s", median_secs(&setups));
    report.set("throughput_per_s", overload.best_window_goodput());
    report.set("latency_p50_ms", busy.best_window_p(50.0));
    report.set("latency_tail_ms", busy.best_window_p(SERVE_TAIL_PCT));
    report.set(
        "accuracy_frac",
        busy.at_origin as f64 / busy.answered.max(1) as f64,
    );
    report
}

/// The traced run: the whole ladder (serve layer), then the mapper's
/// layers replayed on the same reads in the server's micro-batch size.
pub fn trace(
    args: &Args,
    inputs: &ShortInputs,
    mapper: &ReadMapper,
    engine: &genasm_engine::Engine,
    oracle: &Arc<[Option<Mapping>]>,
    setups: &mut Vec<Duration>,
    report: &mut Report,
) {
    let per_rung = args.seconds * BUSY_SHARE / LADDER.len() as f64;
    let rungs: Vec<Rung> = LADDER
        .iter()
        .map(|&rate| run_rung(inputs, oracle, args.seed, rate, per_rung, setups, report))
        .collect();
    let at = |rate: f64| {
        rungs
            .iter()
            .find(|r| r.rate == rate)
            .expect("rate is on the ladder")
    };
    let (light, busy, overload) = (at(LIGHT_RPS), at(BUSY_RPS), at(OVERLOAD_RPS));
    let pooled = |f: fn(&Rung) -> &Vec<f64>| {
        rungs
            .iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let late = pooled(|r| &r.gen_late_ms);
    let submit = pooled(|r| &r.submit_us);
    let batches: u64 = rungs.iter().map(|r| r.batches).sum();
    let admitted: u64 = rungs.iter().map(|r| r.admitted).sum();
    report.set("serve.light.p50_ms", light.p(50.0));
    report.set("serve.light.p99_ms", light.p(99.0));
    report.set("serve.light.samples", light.answered as f64);
    report.set("serve.busy.p50_ms", busy.p(50.0));
    report.set("serve.busy.p99_ms", busy.p(99.0));
    report.set("serve.busy.samples", busy.answered as f64);
    let max_rps = rungs
        .iter()
        .filter(|r| r.meets_limit())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    report.set("serve.max_rps", max_rps);
    report.set(
        "serve.goodput_per_s",
        overload.delivered.iter().sum::<usize>() as f64 / overload.seconds,
    );
    report.set("serve.submit_us.p50", percentile(&submit, 50.0));
    report.set("serve.submit_us.p99", percentile(&submit, 99.0));
    report.set("serve.gen_late_ms.p99", percentile(&late, 99.0));
    report.set("serve.gen_late_ms.max", percentile(&late, 100.0));
    let flagged = rungs
        .iter()
        .filter(|r| r.gen_late_p99() > GEN_LATE_SHARE * LATENCY_LIMIT_MS)
        .count();
    report.set("serve.gen_late_flag", flagged as f64);
    report.set("serve.batches", batches as f64);
    report.set(
        "serve.reads_per_batch",
        admitted as f64 / batches.max(1) as f64,
    );
    report.set(
        "serve.inflight_max",
        rungs.iter().map(|r| r.inflight_max).max().unwrap_or(0) as f64,
    );
    report.set(
        "serve.shed",
        rungs.iter().map(|r| r.shed).sum::<usize>() as f64,
    );
    report.set(
        "serve.deadline_dropped",
        rungs.iter().map(|r| r.deadline_dropped).sum::<u64>() as f64,
    );
    report.set(
        "serve.poisoned",
        rungs.iter().map(|r| r.poisoned).sum::<u64>() as f64,
    );
    report.set(
        "serve.reorder_hold_ms.p99",
        percentile(&busy.reorder_hold_ms, 99.0),
    );
    report.set("serve.server_latency_p50_us", busy.server_p50_us);
    for r in &rungs {
        report.note(format!(
            "ladder {} rps: meets the {LATENCY_LIMIT_MS} ms p99 limit with nothing shed and no backlog growth: {}",
            r.rate,
            r.meets_limit()
        ));
    }

    let mut tracer = Tracer::new();
    let batch_reads = ServeConfig::default().batch_reads;
    let replay_seconds = args.seconds * (1.0 - BUSY_SHARE);
    trace_mapper(
        inputs,
        mapper,
        engine,
        oracle,
        batch_reads,
        replay_seconds,
        report,
        &mut tracer,
    );
    report.write_trace(args, &tracer);
}
