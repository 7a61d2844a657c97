//! The `serve_mixed` workload: the socket load generator, and the traced
//! in-process replay of the same writer/reader op streams.

use crate::span::{self, span, Layer};
use crate::timed::{self, Timed};
use resa_core::prelude::*;
use resa_sim::prelude::*;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One request of the generated streams, decoded.
#[derive(Debug, Clone)]
pub enum Op {
    Write(WriteOp),
    Query { width: u32, duration: Dur },
    Stats,
}

fn field(v: &Value, name: &str) -> Result<u64, String> {
    match v.get(name) {
        Some(Value::UInt(n)) => Ok(*n),
        _ => Err(format!("missing integer field '{name}'")),
    }
}

fn width(v: &Value, name: &str) -> Result<u32, String> {
    u32::try_from(field(v, name)?).map_err(|_| format!("'{name}' out of range"))
}

/// Decode one request line of the generated streams (the subset of the
/// protocol the generator emits).
pub fn decode(line: &str) -> Result<Op, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = match v.get("op") {
        Some(Value::Str(s)) => s.as_str(),
        _ => return Err("missing 'op'".into()),
    };
    let write = match op {
        "submit" if v.get("deadline").is_some() => {
            let admission = match v.get("admission") {
                Some(Value::Str(s)) => AdmissionPolicy::parse(s).ok_or("bad admission")?,
                _ => AdmissionPolicy::default(),
            };
            WriteOp::SubmitDeadline {
                width: width(&v, "width")?,
                duration: Dur(field(&v, "duration")?),
                release: None,
                deadline: Time(field(&v, "deadline")?),
                admission,
            }
        }
        "submit" => WriteOp::Submit {
            width: width(&v, "width")?,
            duration: Dur(field(&v, "duration")?),
            release: None,
        },
        "submit_moldable" => {
            let widths = match v.get("widths") {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|w| match w {
                        Value::UInt(n) => u32::try_from(*n).map_err(|_| "width out of range"),
                        _ => Err("widths must be integers"),
                    })
                    .collect::<Result<Vec<u32>, _>>()?,
                _ => return Err("missing 'widths'".into()),
            };
            WriteOp::SubmitMoldable {
                widths,
                area: field(&v, "area")?,
            }
        }
        "reserve" => WriteOp::Reserve {
            width: width(&v, "width")?,
            duration: Dur(field(&v, "duration")?),
            start: Time(field(&v, "start")?),
        },
        "cancel" => WriteOp::Cancel {
            id: field(&v, "reservation")? as usize,
        },
        "advance" => WriteOp::Advance {
            to: Time(field(&v, "to")?),
        },
        "inject" => WriteOp::Inject {
            width: width(&v, "width")?,
            duration: Dur(field(&v, "duration")?),
            start: Time(field(&v, "start")?),
        },
        "revoke" => WriteOp::Revoke {
            id: field(&v, "drain")? as usize,
        },
        "query" => {
            return Ok(Op::Query {
                width: width(&v, "width")?,
                duration: Dur(field(&v, "duration")?),
            })
        }
        "stats" => return Ok(Op::Stats),
        other => return Err(format!("op '{other}' is not generated by the benchmark")),
    };
    Ok(Op::Write(write))
}

fn apply_layer(op: &WriteOp) -> Layer {
    match op {
        WriteOp::Submit { .. }
        | WriteOp::SubmitDeadline { .. }
        | WriteOp::SubmitMoldable { .. } => Layer::ApplySubmit,
        WriteOp::Reserve { .. } => Layer::ApplyReserve,
        WriteOp::Cancel { .. } => Layer::ApplyCancel,
        WriteOp::Advance { .. } | WriteOp::AdvanceClamped { .. } | WriteOp::Drain => {
            Layer::ApplyAdvance
        }
        WriteOp::Inject { .. } | WriteOp::Revoke { .. } => Layer::ApplyInject,
    }
}

pub fn read_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| crate::die(&format!("{}: {e}", path.display())))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

// -- socket session ----------------------------------------------------------

/// What one closed-loop socket session observed.
pub struct SocketRun {
    /// Round trip of every writer op, in order.
    pub writer_ns: Vec<u64>,
    /// Round trip of every reader op.
    pub reader_ns: Vec<u64>,
    /// Reader replies that were not `{"ok":true,…}`.
    pub reader_errors: usize,
    /// Round trips of the null probes sent between writer ops.
    pub null_ns: Vec<u64>,
    /// Every writer reply, then the replies to the closing `drain` and
    /// `stats`.
    pub transcript: Vec<String>,
    pub writer_wall_ns: u64,
    pub reader_wall_ns: u64,
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn open(sock: &Path) -> std::io::Result<Conn> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(500)),
            }
        };
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

/// A request the connection thread answers by itself with an error: its
/// round trip is the socket, the line decode and the reply, without the
/// service.
const NULL_REQUEST: &str = r#"{"op":"perfbench_null"}"#;

/// Drive a running `resa serve --unix <sock>`: one writer connection sends
/// `writer` in order while one reader connection cycles `reader` until the
/// writer is done; then the writer drains, reads the final stats and shuts
/// the server down. With `null_every` > 0, the writer also sends a
/// [`NULL_REQUEST`] after every `null_every` ops, timed apart.
/// `after_write(i)` runs after writer op `i`, outside its timing.
pub fn socket_session(
    sock: &Path,
    writer: &[String],
    reader: &[String],
    null_every: usize,
    mut after_write: impl FnMut(usize),
) -> std::io::Result<SocketRun> {
    let mut w = Conn::open(sock)?;
    let mut r = Conn::open(sock)?;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| -> std::io::Result<(Vec<u64>, usize, u64)> {
            let mut ns = Vec::new();
            let mut errors = 0;
            let start = Instant::now();
            for line in reader.iter().cycle() {
                if done.load(Ordering::Acquire) {
                    break;
                }
                let t = Instant::now();
                let reply = r.call(line)?;
                ns.push(t.elapsed().as_nanos() as u64);
                if !reply.starts_with("{\"ok\":true") {
                    errors += 1;
                }
            }
            Ok((ns, errors, start.elapsed().as_nanos() as u64))
        });
        let mut writer_ns = Vec::with_capacity(writer.len());
        let mut null_ns = Vec::new();
        let mut transcript = Vec::with_capacity(writer.len() + 2);
        let start = Instant::now();
        let written = (|| -> std::io::Result<()> {
            for (i, line) in writer.iter().enumerate() {
                let t = Instant::now();
                let reply = w.call(line)?;
                writer_ns.push(t.elapsed().as_nanos() as u64);
                transcript.push(reply.to_string());
                if null_every > 0 && i % null_every == 0 {
                    let t = Instant::now();
                    let reply = w.call(NULL_REQUEST)?;
                    null_ns.push(t.elapsed().as_nanos() as u64);
                    if !reply.starts_with("{\"ok\":false") {
                        return Err(std::io::Error::other("null probe was not refused"));
                    }
                }
                after_write(i);
            }
            Ok(())
        })();
        let writer_wall_ns = start.elapsed().as_nanos() as u64;
        done.store(true, Ordering::Release);
        let (reader_ns, reader_errors, reader_wall_ns) =
            reads.join().expect("reader thread panicked")?;
        written?;
        for closing in [r#"{"op":"drain"}"#, r#"{"op":"stats"}"#] {
            transcript.push(w.call(closing)?.to_string());
        }
        w.call(r#"{"op":"shutdown"}"#)?;
        Ok(SocketRun {
            writer_ns,
            reader_ns,
            reader_errors,
            null_ns,
            transcript,
            writer_wall_ns,
            reader_wall_ns,
        })
    })
}

fn write_numbers(path: &Path, ns: &[u64]) {
    let text: String = ns.iter().map(|n| format!("{n}\n")).collect();
    std::fs::write(path, text).unwrap_or_else(|e| crate::die(&format!("{}: {e}", path.display())));
}

/// `loadgen <sock> <writer.jsonl> <reader.jsonl> <outdir>`: run one socket
/// session against a server the caller started, and write the latencies
/// and the writer transcript to `<outdir>`.
pub fn loadgen(args: &[String]) {
    let [sock, writer, reader, out] = args else {
        crate::die("usage: loadgen <sock> <writer.jsonl> <reader.jsonl> <outdir>")
    };
    let out = Path::new(out);
    let run = socket_session(
        Path::new(sock),
        &read_lines(Path::new(writer)),
        &read_lines(Path::new(reader)),
        0,
        |_| {},
    )
    .unwrap_or_else(|e| crate::die(&format!("socket session failed: {e}")));
    write_numbers(&out.join("writer_ns.txt"), &run.writer_ns);
    write_numbers(&out.join("reader_ns.txt"), &run.reader_ns);
    let mut transcript = run.transcript.join("\n");
    transcript.push('\n');
    std::fs::write(out.join("transcript.jsonl"), transcript)
        .unwrap_or_else(|e| crate::die(&format!("transcript: {e}")));
    println!(
        "{{\"reader_errors\":{},\"writer_wall_s\":{},\"reader_wall_s\":{}}}",
        run.reader_errors,
        run.writer_wall_ns as f64 / 1e9,
        run.reader_wall_ns as f64 / 1e9
    );
}

// -- in-process passes -------------------------------------------------------

fn journal_cfg() -> JournalCfg {
    JournalCfg {
        fsync: FsyncPolicy::Off,
        ..JournalCfg::default()
    }
}

fn open_journal(path: &Path, machines: u32) -> OpJournal {
    let _ = std::fs::remove_file(path);
    OpJournal::open(path, machines, ReferencePolicy::Easy, journal_cfg())
        .unwrap_or_else(|e| crate::die(&format!("journal {}: {e}", path.display())))
        .0
}

/// Final counters compared across passes: submitted, completed, decisions,
/// makespan.
type Outcome = (usize, usize, u64, u64);

fn outcome(s: &ServiceStats) -> Outcome {
    (s.submitted, s.completed, s.decisions, s.makespan.ticks())
}

fn client_call(c: &ServiceClient, op: &WriteOp) -> bool {
    match op.clone() {
        WriteOp::Submit {
            width,
            duration,
            release,
        } => c.submit(width, duration, release).is_ok(),
        WriteOp::SubmitDeadline {
            width,
            duration,
            release,
            deadline,
            admission,
        } => c
            .submit_deadline(width, duration, release, deadline, admission)
            .is_ok(),
        WriteOp::SubmitMoldable { widths, area } => c.submit_moldable(widths, area).is_ok(),
        WriteOp::Reserve {
            width,
            duration,
            start,
        } => c.reserve(width, duration, start).is_ok(),
        WriteOp::Cancel { id } => c.cancel(id).is_ok(),
        WriteOp::Advance { to } => c.advance(to).is_ok(),
        WriteOp::AdvanceClamped { to } => c.advance_clamped(to).is_ok(),
        WriteOp::Drain => c.drain().is_ok(),
        WriteOp::Inject {
            width,
            duration,
            start,
        } => c.inject(width, duration, start).is_ok(),
        WriteOp::Revoke { id } => c.revoke(id).is_ok(),
    }
}

/// The server's writer thread, replayed on the calling thread one op at a
/// time with the same steps in the same order: journal append, apply,
/// batch sync, compaction check, snapshot publish.
struct WriterLoop<C: Snapshotable> {
    svc: ScheduleService<C>,
    journal: OpJournal,
    generation: u64,
}

impl<C: Snapshotable> WriterLoop<C> {
    fn new(substrate: C, journal_path: &Path) -> Self {
        let journal = open_journal(journal_path, substrate.base());
        WriterLoop {
            svc: ScheduleService::new(ReferencePolicy::Easy, substrate),
            journal,
            generation: 0,
        }
    }

    /// Apply one write and publish the snapshot the readers then see.
    fn step(&mut self, op: WriteOp) -> ServiceSnapshot {
        let entry = AppliedOp { session: 0, op };
        let journal = &mut self.journal;
        let svc = &mut self.svc;
        span(Layer::JournalAppend, || journal.append_op(&entry))
            .unwrap_or_else(|e| crate::die(&format!("journal append: {e}")));
        span(apply_layer(&entry.op), || entry.replay(svc));
        span(Layer::JournalSync, || journal.batch_sync())
            .unwrap_or_else(|e| crate::die(&format!("journal sync: {e}")));
        span(Layer::JournalCompact, || {
            journal.maybe_snapshot(|| svc.state())
        })
        .unwrap_or_else(|e| crate::die(&format!("journal compaction: {e}")));
        self.generation += 1;
        let generation = self.generation;
        span(Layer::Publish, || ServiceSnapshot {
            generation,
            policy: svc.policy(),
            stats: svc.stats(),
            timeline: svc.freeze_timeline(generation),
            instance: svc.to_instance(),
            schedule: svc.schedule().clone(),
        })
    }

    fn finish(mut self) -> Outcome {
        self.svc.drain();
        outcome(&self.svc.stats())
    }
}

/// What the traced writer-loop replay measured.
struct SequentialRun {
    /// Per writer op, the writer loop's work for it (not the decode).
    step_ns: Vec<u64>,
    outcome: Outcome,
    journal_bytes: u64,
}

/// The writer loop with every line decoded first; the reader ops observed
/// between two writes in the socket session are answered from the
/// published snapshot.
fn sequential_pass<C: Snapshotable>(
    substrate: C,
    lines: &[String],
    reader: &[String],
    reads_per_write: f64,
    journal_path: &Path,
) -> SequentialRun {
    let mut writer = WriterLoop::new(substrate, journal_path);
    let mut step_ns = Vec::with_capacity(lines.len());
    let mut reads = reader.iter().cycle();
    let mut read_credit = 0.0;
    for line in lines {
        let Ok(Op::Write(op)) = span(Layer::Decode, || decode(line)) else {
            crate::die("writer stream holds a non-write op")
        };
        let t = Instant::now();
        let snap = writer.step(op);
        step_ns.push(t.elapsed().as_nanos() as u64);
        read_credit += reads_per_write;
        while read_credit >= 1.0 {
            read_credit -= 1.0;
            let line = reads.next().expect("reader stream is not empty");
            match span(Layer::Decode, || decode(line)) {
                Ok(Op::Query { width, duration }) => {
                    span(Layer::SnapshotQuery, || snap.query(width, duration, None))
                        .unwrap_or_else(|e| crate::die(&format!("snapshot query: {e}")));
                }
                Ok(Op::Stats) => {
                    std::hint::black_box(&snap.stats);
                }
                _ => crate::die("reader stream holds a write op"),
            }
        }
    }
    let outcome = writer.finish();
    let journal_bytes = std::fs::metadata(journal_path)
        .map(|m| m.len())
        .unwrap_or(0);
    SequentialRun {
        step_ns,
        outcome,
        journal_bytes,
    }
}

fn median(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    s[s.len() / 2] as f64
}

/// Median over ops of `a[i] - b[i]`, in microseconds: robust to the
/// wake-up spikes a shared machine adds to single round trips.
fn median_diff_us(a: &[u64], b: &[u64]) -> f64 {
    let mut d: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| x as f64 - y as f64)
        .collect();
    if d.is_empty() {
        return 0.0;
    }
    d.sort_by(f64::total_cmp);
    d[d.len() / 2] / 1e3
}

/// Slope of ln(median writer latency) over ln(ops so far), one point per
/// decile of the session.
fn history_exponent(ns: &[u64]) -> f64 {
    let n = ns.len();
    if n < 20 {
        return 0.0;
    }
    let points: Vec<(f64, f64)> = (0..10)
        .map(|k| {
            let (lo, hi) = (k * n / 10, (k + 1) * n / 10);
            let x = ((lo + hi) as f64 / 2.0).ln();
            (x, median(&ns[lo..hi]).max(1.0).ln())
        })
        .collect();
    let mx = points.iter().map(|p| p.0).sum::<f64>() / 10.0;
    let my = points.iter().map(|p| p.1).sum::<f64>() / 10.0;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

fn parse_stats(line: &str) -> Outcome {
    let v: Value = serde_json::from_str(line).unwrap_or(Value::Null);
    let get = |k: &str| field(&v, k).unwrap_or(u64::MAX);
    (
        get("submitted") as usize,
        get("completed") as usize,
        get("decisions"),
        get("makespan"),
    )
}

/// The traced socket pass probes the transport after every this many
/// writer ops.
const NULL_EVERY: usize = 4;

/// `trace-serve <sock> <machines> <writer.jsonl> <reader.jsonl> <workdir>`:
/// `<sock>` is a freshly started `resa serve --unix`, which the socket pass
/// shuts down.
pub fn trace(args: &[String]) -> Vec<(String, f64)> {
    let [sock, machines, writer, reader, work] = args else {
        crate::die("usage: trace-serve <sock> <machines> <writer.jsonl> <reader.jsonl> <workdir>")
    };
    let machines: u32 = machines
        .parse()
        .unwrap_or_else(|_| crate::die("bad machine count"));
    let work = Path::new(work);
    let writer_lines = read_lines(Path::new(writer));
    let reader_lines = read_lines(Path::new(reader));
    let decode_all = |lines: &[String]| -> Vec<Op> {
        lines
            .iter()
            .map(|l| decode(l).unwrap_or_else(|e| crate::die(&e)))
            .collect()
    };
    let writer_ops = decode_all(&writer_lines);
    // The reader lines must decode too; the passes below decode them again.
    decode_all(&reader_lines);

    // Lockstep: each writer op goes over the socket to the shipped binary,
    // then through ServiceClient on an in-process journaled
    // ConcurrentService, then through the writer loop on this thread, so
    // the three timings of one op see the same state of the machine.
    span::enable(false);
    let front = ConcurrentService::with_journal(
        ScheduleService::new(
            ReferencePolicy::Easy,
            AvailabilityTimeline::constant(machines),
        ),
        open_journal(&work.join("client.journal"), machines),
    );
    let client = front.client();
    let mut replica = WriterLoop::new(
        AvailabilityTimeline::constant(machines),
        &work.join("replica.journal"),
    );
    let mut client_ns = Vec::with_capacity(writer_ops.len());
    let mut step_ns = Vec::with_capacity(writer_ops.len());
    let socket = socket_session(
        Path::new(sock),
        &writer_lines,
        &reader_lines,
        NULL_EVERY,
        |i| {
            let Op::Write(op) = &writer_ops[i] else {
                crate::die("writer stream holds a non-write op")
            };
            let t = Instant::now();
            client_call(&client, op);
            client_ns.push(t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            replica.step(op.clone());
            step_ns.push(t.elapsed().as_nanos() as u64);
        },
    )
    .unwrap_or_else(|e| crate::die(&format!("socket session failed: {e}")));
    if socket.reader_errors > 0 {
        crate::die("socket session failed its checks");
    }
    let socket_outcome = parse_stats(socket.transcript.last().expect("stats reply"));
    let _ = client.drain();
    let client_outcome = outcome(&client.stats());
    drop(client);
    front.shutdown();
    let replica_outcome = replica.finish();

    // The writer loop alone, answering the reads seen in between: untraced
    // (the baseline of trace.overhead_frac), then traced.
    let reads_per_write = socket.reader_ns.len() as f64 / writer_lines.len().max(1) as f64;
    let alone = sequential_pass(
        AvailabilityTimeline::constant(machines),
        &writer_lines,
        &reader_lines,
        reads_per_write,
        &work.join("sequential.journal"),
    );
    span::reset();
    timed::reset();
    span::enable(true);
    let traced = sequential_pass(
        Timed(AvailabilityTimeline::constant(machines)),
        &writer_lines,
        &reader_lines,
        reads_per_write,
        &work.join("sequential.journal"),
    );
    span::enable(false);

    for (name, got) in [
        ("ServiceClient", client_outcome),
        ("lockstep writer loop", replica_outcome),
        ("writer loop", alone.outcome),
        ("traced writer loop", traced.outcome),
    ] {
        if got != socket_outcome {
            crate::die(&format!(
                "{name} pass diverged from the socket session: {got:?} vs {socket_outcome:?}"
            ));
        }
    }

    let traced_steps: u64 = traced.step_ns.iter().sum();
    let plain_steps: u64 = step_ns.iter().sum();
    let alone_steps: u64 = alone.step_ns.iter().sum();
    let mut out = crate::common_metrics(traced_steps, alone_steps);
    let apply_self: u64 = [
        Layer::ApplySubmit,
        Layer::ApplyReserve,
        Layer::ApplyCancel,
        Layer::ApplyAdvance,
        Layer::ApplyInject,
    ]
    .iter()
    .map(|&l| span::totals(l).self_ns)
    .sum();
    let writes = writer_lines.len().max(1) as f64;
    let transport_us = median_diff_us(&socket.writer_ns, &client_ns);
    let writer_wait_us = median_diff_us(&client_ns, &step_ns);
    // Time accounted for, over the socket writer's summed round trips: the
    // layers' share of the traced writer steps applied to the lockstep
    // steps, the lockstep queue waits (ServiceClient call minus step), and
    // the transport at its median, so the round trips' own tail is what
    // coverage leaves out.
    let step_self = span::self_ns_sum()
        - span::totals(Layer::Decode).self_ns
        - span::totals(Layer::SnapshotQuery).self_ns;
    let share = step_self as f64 / traced_steps.max(1) as f64;
    let client_total: u64 = client_ns.iter().sum();
    let attributed_ns = share * plain_steps as f64
        + (client_total as f64 - plain_steps as f64)
        + writes * transport_us * 1e3;
    out.extend([
        (
            "trace.coverage".to_string(),
            attributed_ns / socket.writer_ns.iter().sum::<u64>().max(1) as f64,
        ),
        (
            "cli.decode_us".to_string(),
            span::totals(Layer::Decode).mean_us(),
        ),
        ("cli.transport_us".to_string(), transport_us),
        (
            "cli.null_round_trip_us".to_string(),
            median(&socket.null_ns) / 1e3,
        ),
        ("sim.writer_wait_us".to_string(), writer_wait_us),
        ("sim.journal_bytes".to_string(), traced.journal_bytes as f64),
        (
            "serve.history_exponent".to_string(),
            history_exponent(&socket.writer_ns),
        ),
        (
            "algos.service_self_us".to_string(),
            apply_self as f64 / writes / 1e3,
        ),
    ]);
    out
}
