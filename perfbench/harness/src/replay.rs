//! The `replay_stream` and `offline_batch` workloads, replayed in process
//! through the public functions `resa replay` is built from, including the
//! report's validation and guarantee checks.

use crate::span::{self, span, Layer};
use crate::timed::{self, Timed, TimedPolicy, TimedSource};
use resa_algos::prelude::*;
use resa_analysis::prelude::*;
use resa_core::prelude::*;
use resa_sim::prelude::*;
use resa_workloads::prelude::*;
use resa_workloads::swf::{
    open_trace, open_trace_reader, parse_trace_full, read_trace_text, SwfStream, TraceReader,
};
use std::io::Read;
use std::path::Path;
use std::time::Instant;

/// The arguments every `trace-*` replay command takes: the trace, the
/// numbers of `resa replay --reservations alpha:<num>/<den>:<count>:<horizon>:<maxdur>`
/// and `--machines`/`--seed`, and after `--` the shipped binary's command
/// line for the same replay, timed beside the in-process passes.
struct Args<'a> {
    path: &'a Path,
    overlay: AlphaReservations,
    seed: u64,
    binary: &'a [String],
}

const USAGE: &str =
    "<trace> <machines> <num> <den> <count> <horizon> <maxdur> <seed> -- <resa replay ...>";

fn parse_args<'a>(command: &str, args: &'a [String]) -> Args<'a> {
    let Some(split) = args.iter().position(|a| a == "--") else {
        crate::die(&format!("usage: {command} {USAGE}"))
    };
    let ([path, machines, num, den, count, horizon, maxdur, seed], [_, binary @ ..]) =
        args.split_at(split)
    else {
        crate::die(&format!("usage: {command} {USAGE}"))
    };
    if binary.is_empty() {
        crate::die(&format!("usage: {command} {USAGE}"));
    }
    let n = |s: &String| -> u64 {
        s.parse()
            .unwrap_or_else(|_| crate::die(&format!("bad number '{s}'")))
    };
    Args {
        path: Path::new(path),
        overlay: AlphaReservations {
            machines: n(machines) as u32,
            alpha: Alpha::new(n(num), n(den)).unwrap_or_else(|| crate::die("bad alpha")),
            count: n(count) as usize,
            horizon: n(horizon),
            max_duration: n(maxdur),
        },
        seed: n(seed),
        binary,
    }
}

/// Jobs of a streamed SWF trace, narrowed to the α cap and densely
/// renumbered, each folded into the guarantee facts as it is pulled: what
/// `resa replay` feeds the engine.
struct SwfJobs<'a> {
    stream: SwfStream<TraceReader>,
    width_cap: u32,
    kept: usize,
    profile: &'a ResourceProfile,
    facts: StreamFacts,
}

impl JobSource for SwfJobs<'_> {
    fn next_job(&mut self) -> Option<Job> {
        let job = self
            .stream
            .next()?
            .unwrap_or_else(|e| crate::die(&format!("trace: {e}")));
        let job = Job::released_at(
            self.kept,
            job.width.min(self.width_cap),
            job.duration.ticks(),
            job.release.ticks(),
        );
        self.kept += 1;
        span(Layer::Validate, || self.facts.observe(&job, self.profile));
        Some(job)
    }
}

/// Every start checked online, as the binary's report does.
struct ValidatingSink(StreamValidator);

impl RecordSink for ValidatingSink {
    fn record(&mut self, _rec: JobRecord) {}

    fn on_start(&mut self, job: &Job, start: Time) {
        span(Layer::Validate, || self.0.observe_start(job, start));
    }
}

/// What one replay pass produced: jobs, makespan, decisions, the report's
/// violation count and the peak of live jobs (0 off line).
type Replayed = (usize, Time, u64, usize, usize);

fn open(path: &Path, machines: u32) -> SwfStream<TraceReader> {
    open_trace(path, Some(machines))
        .unwrap_or_else(|e| crate::die(&format!("{}: {e}", path.display())))
}

/// The prescan `resa replay` makes before it streams: one full parse of
/// the trace, which also checks that releases never decrease.
fn prescan(a: &Args) -> usize {
    let (mut kept, mut last) = (0usize, 0u64);
    for job in open(a.path, a.overlay.machines) {
        let release = job
            .unwrap_or_else(|e| crate::die(&format!("trace: {e}")))
            .release
            .ticks();
        if release < last {
            crate::die("trace is not release-sorted, so resa replay would not stream it");
        }
        (kept, last) = (kept + 1, release);
    }
    kept
}

/// The streamed `resa replay` pipeline: prescan, overlay, `run_stream`
/// with the online validator, then the report's validity and guarantee
/// fold. Traced, the substrate, policy and job source are the timed
/// wrappers.
fn stream_pass(a: &Args, traced: bool) -> Replayed {
    let machines = a.overlay.machines;
    let prescanned = span(Layer::Prescan, || prescan(a));
    let overlay = span(Layer::Overlay, || a.overlay.instance(Vec::new(), a.seed));
    let profile = overlay.profile();
    let windows: Vec<Window> = overlay
        .reservations()
        .iter()
        .map(|r| (r.width, r.start, r.end()))
        .collect();
    let mut jobs = SwfJobs {
        stream: open(a.path, machines),
        width_cap: a.overlay.alpha.max_job_width(machines).max(1),
        kept: 0,
        profile: &profile,
        facts: StreamFacts::new(),
    };
    let mut sink = ValidatingSink(StreamValidator::new(machines, profile.clone(), &windows));
    let outcome = if traced {
        let mut source = TimedSource(jobs);
        let outcome = span(Layer::Stream, || {
            run_stream(
                &mut Timed(AvailabilityTimeline::from(&profile)),
                &profile,
                &TimedPolicy(EasyPolicy),
                &mut source,
                &mut sink,
            )
        });
        jobs = source.0;
        outcome
    } else {
        run_stream(
            &mut AvailabilityTimeline::from(&profile),
            &profile,
            &EasyPolicy,
            &mut jobs,
            &mut sink,
        )
    };
    let violations = span(Layer::Validate, || {
        let verdicts = sink.0.finish();
        let valid = verdicts.schedule_valid
            && verdicts.starts == outcome.submitted
            && outcome.completed == outcome.submitted
            && prescanned == outcome.submitted;
        let report = report_for_stream(
            machines,
            overlay.reservations(),
            &jobs.facts,
            outcome.metrics.makespan,
        );
        usize::from(report.has_conclusive_violation())
            + usize::from(!valid)
            + usize::from(!verdicts.drains_respected)
    });
    (
        outcome.submitted,
        outcome.metrics.makespan,
        outcome.decisions,
        violations,
        outcome.peak_active,
    )
}

/// Inflate alone: read the decompressed trace to the end, in MB/s.
fn inflate_mb_per_s(path: &Path) -> f64 {
    let clock = Instant::now();
    let mut bytes = 0u64;
    let mut reader = open_trace_reader(path).unwrap_or_else(|e| crate::die(&e.to_string()));
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => bytes += n as u64,
            Err(e) => crate::die(&format!("inflate: {e}")),
        }
    }
    bytes as f64 / 1e6 / clock.elapsed().as_secs_f64()
}

/// Pairs of (shipped binary, untraced in-process pass) runs. On a shared
/// machine a run is sometimes half again as slow as the one before it, and
/// a busy machine only ever adds time, so the coverage ratio compares the
/// fastest run of each kind.
const PAIRS: usize = 9;

fn run_binary(cmd: &[String]) -> u64 {
    let clock = Instant::now();
    let status = std::process::Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| crate::die(&format!("{}: {e}", cmd[0])));
    if !status.success() {
        crate::die(&format!("{} failed: {status}", cmd.join(" ")));
    }
    clock.elapsed().as_nanos() as u64
}

/// What [`measure`] timed.
struct Walls {
    /// Median wall time of the untraced in-process pass.
    plain_ns: u64,
    /// Wall time of the traced pass.
    traced_ns: u64,
    /// Fastest untraced pass over fastest binary run.
    plain_over_binary: f64,
}

/// Run the shipped binary and the untraced `pass` alternately [`PAIRS`]
/// times, so both sample the same states of the machine, then `pass` once
/// traced. Return the traced result and the wall times.
fn measure<T: PartialEq>(binary: &[String], pass: impl Fn(bool) -> T) -> (T, Walls) {
    span::enable(false);
    let mut plain = None;
    let mut walls = Vec::with_capacity(PAIRS);
    let mut binary_ns = u64::MAX;
    for _ in 0..PAIRS {
        binary_ns = binary_ns.min(run_binary(binary));
        let clock = Instant::now();
        plain = Some(pass(false));
        walls.push(clock.elapsed().as_nanos() as u64);
    }
    walls.sort_unstable();
    span::reset();
    timed::reset();
    span::enable(true);
    let clock = Instant::now();
    let traced = pass(true);
    let traced_ns = clock.elapsed().as_nanos() as u64;
    span::enable(false);
    if plain.as_ref() != Some(&traced) {
        crate::die("the traced pass diverged from the untraced one");
    }
    let walls = Walls {
        plain_ns: walls[PAIRS / 2],
        traced_ns,
        plain_over_binary: walls[0] as f64 / binary_ns.max(1) as f64,
    };
    (traced, walls)
}

fn replay_metrics(r: &Replayed, w: &Walls) -> Vec<(String, f64)> {
    let mut out = crate::common_metrics(w.traced_ns, w.plain_ns);
    // The share of the binary's end-to-end time the layers account for:
    // the spans' share of the traced pass, applied to the untraced pass,
    // over the binary's wall time on the same command.
    let share = span::self_ns_sum() as f64 / w.traced_ns.max(1) as f64;
    out.extend([
        ("trace.coverage".to_string(), share * w.plain_over_binary),
        (
            "analysis.validate_s".to_string(),
            span::totals(Layer::Validate).self_ns as f64 / 1e9,
        ),
        ("check.jobs".to_string(), r.0 as f64),
        ("check.makespan".to_string(), r.1.ticks() as f64),
        ("check.violations".to_string(), r.3 as f64),
    ]);
    out
}

/// `trace-stream <trace> <machines> <num> <den> <count> <horizon> <maxdur> <seed> -- <resa replay ...>`.
pub fn trace_stream(args: &[String]) -> Vec<(String, f64)> {
    let a = parse_args("trace-stream", args);
    let inflate = inflate_mb_per_s(a.path);
    let (r, walls) = measure(a.binary, |traced| stream_pass(&a, traced));
    let jobs = r.0.max(1) as f64;
    let mut out = replay_metrics(&r, &walls);
    out.extend([
        ("sim.peak_active".to_string(), r.4 as f64),
        (
            "workloads.parse_us_per_job".to_string(),
            span::totals(Layer::Source).self_ns as f64 / jobs / 1e3,
        ),
        (
            "workloads.prescan_s".to_string(),
            span::totals(Layer::Prescan).total_ns as f64 / 1e9,
        ),
        ("workloads.inflate_mb_per_s".to_string(), inflate),
        ("check.decisions".to_string(), r.2 as f64),
    ]);
    out
}

/// Parse, overlay, schedule with LSRC, validate and check the guarantees:
/// the materialized `resa replay --policy offline:lsrc` pipeline, on a
/// given substrate constructor.
fn offline_pass<C: CapacityQuery>(
    a: &Args,
    substrate: impl FnOnce(&ResaInstance) -> C,
) -> Replayed {
    let machines = a.overlay.machines;
    let text = span(Layer::ParseFull, || {
        read_trace_text(a.path).unwrap_or_else(|e| crate::die(&e.to_string()))
    });
    let parsed = span(Layer::ParseFull, || {
        parse_trace_full(&text, Some(machines)).unwrap_or_else(|e| crate::die(&e.to_string()))
    });
    let jobs: Vec<Job> = parsed
        .jobs
        .iter()
        .enumerate()
        .map(|(id, j)| Job::released_at(id, j.width, j.duration.ticks(), j.release.ticks()))
        .collect();
    let instance = span(Layer::Overlay, || a.overlay.instance(jobs, a.seed));
    let substrate = substrate(&instance);
    let schedule = span(Layer::Lsrc, || {
        Lsrc::new().schedule_with(&instance, substrate)
    });
    span(Layer::Validate, || {
        let valid = schedule.is_valid(&instance);
        let job_windows: Vec<Window> = instance
            .jobs()
            .iter()
            .filter_map(|j| {
                schedule
                    .start_of(j.id)
                    .map(|s| (j.width, s, s.saturating_add(j.duration)))
            })
            .collect();
        let overlay_windows: Vec<Window> = instance
            .reservations()
            .iter()
            .map(|r| (r.width, r.start, r.end()))
            .collect();
        let drains = drain_invariant(machines, &job_windows, &overlay_windows);
        let makespan = SimMetrics::from_schedule(&instance, &schedule).makespan;
        let report = verify_schedule(&RatioHarness::new(), &instance, &schedule);
        let violations = usize::from(report.has_conclusive_violation())
            + usize::from(!valid)
            + usize::from(!drains);
        (instance.n_jobs(), makespan, 0, violations, 0)
    })
}

/// `trace-offline <trace> <machines> <num> <den> <count> <horizon> <maxdur> <seed> -- <resa replay ...>`.
pub fn trace_offline(args: &[String]) -> Vec<(String, f64)> {
    let a = parse_args("trace-offline", args);
    let (r, walls) = measure(a.binary, |traced| {
        if traced {
            offline_pass(&a, |i| Timed(i.timeline()))
        } else {
            offline_pass(&a, |i| i.timeline())
        }
    });
    let mut out = replay_metrics(&r, &walls);
    out.push((
        "workloads.parse_us_per_job".to_string(),
        span::totals(Layer::ParseFull).total_ns as f64 / r.0.max(1) as f64 / 1e3,
    ));
    out
}
