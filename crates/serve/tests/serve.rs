//! Serving-layer behavior, end to end over real threads: micro-batch
//! flush triggers, bounded admission with structured shedding,
//! per-request deadlines, exactly-one-response accounting, graceful
//! drain, response reordering, and the TCP front-end.

use genasm_engine::DcDispatch;
use genasm_mapper::{MapperConfig, ReadMapper};
use genasm_obs::Telemetry;
use genasm_seq::genome::{Genome, GenomeBuilder};
use genasm_seq::ParseMode;
use genasm_serve::{
    serve_listener, Admission, CollectSink, Response, ResponseKind, ResponseSink, SamStreamWriter,
    ServeConfig, Server, BATCHES_COUNTER, READS_ADMITTED_COUNTER, READS_DEADLINE_DROPPED_COUNTER,
    READS_SHED_COUNTER, REQUEST_LATENCY_HISTOGRAM,
};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RNAME: &str = "chr_synth";

/// A genome and reads that map cleanly, so every admitted read's
/// outcome is deterministic.
fn fixture() -> (Genome, Vec<Vec<u8>>) {
    let genome = GenomeBuilder::new(12_000).seed(77).build();
    let reads = (0..32)
        .map(|i| {
            let start = 31 + 317 * i;
            genome.region(start, start + 120).to_vec()
        })
        .collect();
    (genome, reads)
}

fn server_with(config: ServeConfig, telemetry: Telemetry) -> (Server, Vec<Vec<u8>>) {
    let (genome, reads) = fixture();
    let mapper =
        ReadMapper::build(genome.sequence(), MapperConfig::default()).with_telemetry(telemetry);
    let engine = mapper.engine(1, DcDispatch::default());
    (Server::start(mapper, engine, config), reads)
}

fn collect_sink() -> (Arc<CollectSink>, Arc<dyn ResponseSink>) {
    let collect = Arc::new(CollectSink::default());
    let sink: Arc<dyn ResponseSink> = collect.clone();
    (collect, sink)
}

/// Every order number 0..n appears exactly once — the
/// exactly-one-response invariant.
fn assert_one_response_each(responses: &[Response], n: u64) {
    assert_eq!(responses.len() as u64, n, "one response per submission");
    let mut orders: Vec<u64> = responses.iter().map(|r| r.order).collect();
    orders.sort_unstable();
    assert_eq!(orders, (0..n).collect::<Vec<u64>>());
}

#[test]
fn flush_by_count_serves_every_read() {
    let telemetry = Telemetry::enabled();
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 4,
            batch_wait: Duration::from_secs(10),
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, sink) = collect_sink();
    for (i, read) in reads.iter().take(8).enumerate() {
        let verdict = server.submit(i as u64, format!("q{i}"), read.clone(), &sink);
        assert_eq!(verdict, Admission::Admitted);
    }
    // Two full batches of 4: both flush on count, long before the
    // 10s timer — responses arrive without any drain.
    let started = Instant::now();
    while collect.len() < 8 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "count-triggered flush never happened"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, 8);
    assert!(responses.iter().all(|r| !r.is_degraded()));
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(snapshot.counter(READS_ADMITTED_COUNTER), Some(8));
    assert_eq!(snapshot.counter(READS_SHED_COUNTER), Some(0));
    assert!(snapshot.counter(BATCHES_COUNTER) >= Some(2));
    let latency = snapshot
        .histogram(REQUEST_LATENCY_HISTOGRAM)
        .expect("latency histogram registered");
    assert_eq!(latency.count, 8);
}

#[test]
fn flush_by_timer_serves_a_partial_batch() {
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 10_000,
            batch_wait: Duration::from_millis(25),
            ..ServeConfig::default()
        },
        Telemetry::off(),
    );
    let (collect, sink) = collect_sink();
    for (i, read) in reads.iter().take(3).enumerate() {
        server.submit(i as u64, format!("q{i}"), read.clone(), &sink);
    }
    // 3 reads can never hit the 10k count trigger; only the timer can
    // flush them.
    let started = Instant::now();
    while collect.len() < 3 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "timer-triggered flush never happened"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.drain();
    assert_one_response_each(&collect.take(), 3);
}

#[test]
fn overload_at_twice_capacity_sheds_with_structured_rejections() {
    let telemetry = Telemetry::enabled();
    let capacity = 8usize;
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 10_000,
            // Nothing flushes until drain: admitted reads stay
            // pending, so the admission ledger is deterministic.
            batch_wait: Duration::from_secs(1_000),
            max_inflight_reads: capacity,
            pipeline_workers: 1,
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, sink) = collect_sink();
    let offered = capacity * 2;
    let verdicts: Vec<Admission> = reads
        .iter()
        .take(offered)
        .enumerate()
        .map(|(i, read)| server.submit(i as u64, format!("q{i}"), read.clone(), &sink))
        .collect();
    // Exactly the first `capacity` fit; the second half sheds, each
    // with its rejection delivered before submit returned.
    assert!(verdicts[..capacity]
        .iter()
        .all(|v| *v == Admission::Admitted));
    assert!(verdicts[capacity..].iter().all(|v| *v == Admission::Shed));
    assert_eq!(collect.len(), capacity);
    assert_eq!(server.inflight(), capacity);

    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, offered as u64);
    for response in &responses {
        let shed = matches!(response.kind, ResponseKind::Shed);
        assert_eq!(shed, response.order >= capacity as u64);
        let mut line = Vec::new();
        genasm_mapper::sam::write_record(&mut line, &response.sam_record(RNAME)).unwrap();
        let line = String::from_utf8(line).unwrap();
        assert_eq!(shed, line.contains("XE:Z:shed"), "line: {line}");
    }
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(
        snapshot.counter(READS_ADMITTED_COUNTER),
        Some(capacity as u64)
    );
    assert_eq!(snapshot.counter(READS_SHED_COUNTER), Some(capacity as u64));
}

#[test]
fn expired_deadlines_tag_partials_and_count() {
    let telemetry = Telemetry::enabled();
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 4,
            batch_wait: Duration::from_millis(5),
            // Already expired at admission: every read must come back
            // Incomplete, tagged, and counted — never lost.
            request_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
        telemetry.clone(),
    );
    let (collect, sink) = collect_sink();
    for (i, read) in reads.iter().take(4).enumerate() {
        server.submit(i as u64, format!("q{i}"), read.clone(), &sink);
    }
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, 4);
    for response in &responses {
        assert!(response.is_degraded());
        let mut line = Vec::new();
        genasm_mapper::sam::write_record(&mut line, &response.sam_record(RNAME)).unwrap();
        assert!(String::from_utf8(line).unwrap().contains("XE:Z:deadline"));
    }
    let snapshot = telemetry.metrics.snapshot();
    assert_eq!(snapshot.counter(READS_DEADLINE_DROPPED_COUNTER), Some(4));
}

#[test]
fn drain_answers_every_admitted_read() {
    let (server, reads) = server_with(
        ServeConfig {
            batch_reads: 5,
            batch_wait: Duration::from_secs(1_000),
            ..ServeConfig::default()
        },
        Telemetry::off(),
    );
    let (collect, sink) = collect_sink();
    for (i, read) in reads.iter().enumerate() {
        let verdict = server.submit(i as u64, format!("q{i}"), read.clone(), &sink);
        assert_eq!(verdict, Admission::Admitted);
    }
    // Most reads are still pending (32 reads, batches of 5, frozen
    // timer): drain must flush and answer all of them.
    server.drain();
    let responses = collect.take();
    assert_one_response_each(&responses, reads.len() as u64);
    assert!(responses.iter().all(|r| !r.is_degraded()));
}

/// Draining a server straight after `start`, before it has served
/// anything, must never hang: the batcher may be anywhere between
/// checking the drain flag and parking on its condition variable when
/// the drain begins. Many idle start→drain cycles, under a watchdog.
#[test]
fn idle_start_drain_cycles_never_hang() {
    const CYCLES: usize = 240;
    let (genome, _) = fixture();
    let mapper = ReadMapper::build(genome.sequence(), MapperConfig::default());
    let engine = mapper.engine(1, DcDispatch::default());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for _ in 0..CYCLES {
            Server::start(mapper.clone(), engine.clone(), ServeConfig::default()).drain();
        }
        let _ = done_tx.send(());
    });
    // A hung cycle leaves its thread detached: the watchdog fails the
    // test instead of blocking the suite on a join.
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a start→drain cycle hung");
    cycles.join().expect("the cycle thread finished cleanly");
}

/// A `Write` target that can be inspected from outside the sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sam_writer_restores_submission_order() {
    let buf = SharedBuf::default();
    let writer = SamStreamWriter::new(buf.clone(), RNAME);
    for order in [2u64, 0, 1] {
        writer.deliver(Response {
            order,
            name: format!("q{order}"),
            seq: b"ACGT".to_vec(),
            kind: ResponseKind::Shed,
        });
    }
    writer.wait_delivered(3);
    assert_eq!(writer.delivered(), 3);
    assert_eq!(writer.write_errors(), 0);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let qnames: Vec<&str> = text
        .lines()
        .map(|l| l.split('\t').next().unwrap())
        .collect();
    assert_eq!(qnames, ["q0", "q1", "q2"]);
}

#[test]
fn tcp_round_trip_returns_ordered_sam_per_connection() {
    let telemetry = Telemetry::enabled();
    let (genome, reads) = fixture();
    let rlen = genome.sequence().len();
    let mapper =
        ReadMapper::build(genome.sequence(), MapperConfig::default()).with_telemetry(telemetry);
    let engine = mapper.engine(1, DcDispatch::default());
    let server = Server::start(
        mapper,
        engine,
        ServeConfig {
            batch_reads: 3,
            batch_wait: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let n_reads = 5usize;

    let client_output = std::thread::scope(|scope| {
        let listener_thread = scope.spawn(|| {
            serve_listener(
                &server,
                &listener,
                RNAME,
                rlen,
                ParseMode::Strict,
                &shutdown,
            )
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        for (i, read) in reads.iter().take(n_reads).enumerate() {
            let seq = String::from_utf8(read.clone()).unwrap();
            let qual = "I".repeat(read.len());
            write!(client, "@q{i}\n{seq}\n+\n{qual}\n").expect("send FASTQ");
        }
        // Closing the write half is the client's end-of-stream; the
        // server answers everything in flight, then closes.
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut output = String::new();
        BufReader::new(&client)
            .read_to_string(&mut output)
            .expect("read SAM stream to EOF");
        shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
        listener_thread.join().expect("listener thread").unwrap();
        output
    });
    server.drain();

    let lines: Vec<&str> = client_output.lines().collect();
    let (header, records): (Vec<&str>, Vec<&str>) = lines.iter().partition(|l| l.starts_with('@'));
    assert!(
        header.iter().any(|l| l.contains(&format!("SN:{RNAME}"))),
        "SAM header names the reference: {header:?}"
    );
    let qnames: Vec<&str> = records
        .iter()
        .map(|l| l.split('\t').next().unwrap())
        .collect();
    let expected: Vec<String> = (0..n_reads).map(|i| format!("q{i}")).collect();
    assert_eq!(qnames, expected, "one record per read, in send order");
}
