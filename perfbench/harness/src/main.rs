//! `resa-perfbench`: the compiled half of the resa benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! ```text
//! resa-perfbench gen-trace <out.swf> <jobs> <machines> <interarrival> <seed>
//! resa-perfbench peak-rss <out> -- <command ...>
//! resa-perfbench loadgen <sock> <writer.jsonl> <reader.jsonl> <outdir>
//! resa-perfbench trace-serve <sock> <machines> <writer.jsonl> <reader.jsonl> <workdir>
//! resa-perfbench trace-stream <trace> <machines> <num> <den> <count> <horizon> <maxdur> <seed> -- <resa replay ...>
//! resa-perfbench trace-offline <trace> <machines> <num> <den> <count> <horizon> <maxdur> <seed> -- <resa replay ...>
//! ```
//!
//! The `trace-*` commands print one JSON object of per-layer metrics.

mod replay;
mod serve;
mod span;
mod timed;

use resa_workloads::prelude::*;
use span::Layer;

pub fn die(message: &str) -> ! {
    eprintln!("resa-perfbench: {message}");
    std::process::exit(1)
}

/// A seeded Lublin trace in the textual SWF form `resa replay` reads.
fn gen_trace(args: &[String]) {
    let [out, jobs, machines, interarrival, seed] = args else {
        die("usage: gen-trace <out.swf> <jobs> <machines> <interarrival> <seed>")
    };
    let num = |s: &str| -> u64 {
        s.parse()
            .unwrap_or_else(|_| die(&format!("bad number '{s}'")))
    };
    let machines = num(machines) as u32;
    let jobs = LublinWorkload::for_cluster(machines, num(jobs) as usize)
        .with_arrivals(num(interarrival))
        .generate(num(seed));
    std::fs::write(out, resa_workloads::swf::write_trace(&jobs, machines))
        .unwrap_or_else(|e| die(&format!("{out}: {e}")));
}

/// The fields of `struct rusage` on Linux: two `timeval`s, then 14 longs,
/// the first of which is the peak resident set in KiB.
#[repr(C)]
struct Rusage {
    times: [std::ffi::c_long; 4],
    maxrss: std::ffi::c_long,
    rest: [std::ffi::c_long; 13],
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut Rusage) -> std::ffi::c_int;
}

/// Runs the command on this process's stdin, stdout and stderr, writes its
/// wall time in nanoseconds and its peak resident set in KiB to `<out>`,
/// and exits with its exit code. A process starts with the peak resident
/// set of the one that spawned it, so a command spawned straight from
/// `run.py` would report the peak of `run.py` whenever that is larger;
/// this process is small.
fn peak_rss(args: &[String]) -> ! {
    let [out, sep, program, command_args @ ..] = args else {
        die("usage: peak-rss <out> -- <command ...>")
    };
    if sep != "--" {
        die("usage: peak-rss <out> -- <command ...>");
    }
    let start = std::time::Instant::now();
    let status = std::process::Command::new(program)
        .args(command_args)
        .status()
        .unwrap_or_else(|e| die(&format!("{program}: {e}")));
    let wall_ns = start.elapsed().as_nanos();
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the kernel's `struct rusage` layout, and
    // RUSAGE_CHILDREN (-1) covers the child reaped above.
    if unsafe { getrusage(-1, &mut usage) } != 0 {
        die("getrusage failed");
    }
    std::fs::write(out, format!("{wall_ns} {}\n", usage.maxrss))
        .unwrap_or_else(|e| die(&format!("{out}: {e}")));
    std::process::exit(status.code().unwrap_or(1))
}

fn mean_us(layer: Layer) -> f64 {
    span::totals(layer).mean_us()
}

/// The per-layer metrics every traced pass reports, from the span totals
/// and substrate counters of the traced pass; `traced_ns` and `plain_ns`
/// are the wall times of the traced pass and of the same pass without
/// wrappers or spans. Each workload adds its own `trace.coverage`.
pub fn common_metrics(traced_ns: u64, plain_ns: u64) -> Vec<(String, f64)> {
    let t = span::totals;
    let core = timed::counts();
    let reserves = core.reserve_ns.len();
    let decile_mean = |k: usize| -> f64 {
        let (lo, hi) = (k * reserves / 10, (k + 1) * reserves / 10);
        let part = &core.reserve_ns[lo..hi];
        part.iter().sum::<u64>() as f64 / part.len().max(1) as f64
    };
    let growth = if reserves >= 20 {
        decile_mean(9) / decile_mean(1).max(1.0)
    } else {
        0.0
    };
    let metrics = [
        ("sim.apply_us.submit", mean_us(Layer::ApplySubmit)),
        ("sim.apply_us.reserve", mean_us(Layer::ApplyReserve)),
        ("sim.apply_us.cancel", mean_us(Layer::ApplyCancel)),
        ("sim.apply_us.advance", mean_us(Layer::ApplyAdvance)),
        ("sim.apply_us.inject", mean_us(Layer::ApplyInject)),
        ("sim.publish_us", mean_us(Layer::Publish)),
        ("sim.publish_count", t(Layer::Publish).calls as f64),
        ("sim.snapshot_query_us", mean_us(Layer::SnapshotQuery)),
        ("sim.journal_append_us", mean_us(Layer::JournalAppend)),
        ("sim.journal_sync_us", mean_us(Layer::JournalSync)),
        ("sim.journal_compact_us", mean_us(Layer::JournalCompact)),
        ("sim.stream_self_s", t(Layer::Stream).self_ns as f64 / 1e9),
        ("algos.decide_us", mean_us(Layer::Decide)),
        ("algos.decisions", t(Layer::Decide).calls as f64),
        ("algos.lsrc_self_s", t(Layer::Lsrc).self_ns as f64 / 1e9),
        ("core.reserve_us", mean_us(Layer::Reserve)),
        ("core.reserve_calls", t(Layer::Reserve).calls as f64),
        ("core.release_us", mean_us(Layer::Release)),
        ("core.release_calls", t(Layer::Release).calls as f64),
        ("core.earliest_fit_us", mean_us(Layer::EarliestFit)),
        (
            "core.earliest_fit_calls",
            t(Layer::EarliestFit).calls as f64,
        ),
        ("core.min_capacity_us", mean_us(Layer::MinCapacity)),
        (
            "core.min_capacity_calls",
            t(Layer::MinCapacity).calls as f64,
        ),
        ("core.retire_us", mean_us(Layer::Retire)),
        ("core.freeze_us", mean_us(Layer::Freeze)),
        ("core.breakpoints_end", core.breakpoints_end as f64),
        (
            "core.fresh_endpoint_frac",
            core.fresh_endpoints as f64 / reserves.max(1) as f64,
        ),
        ("core.reserve_us_growth", growth),
        (
            "trace.overhead_frac",
            traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
        ),
    ];
    metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn print_metrics(metrics: &[(String, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!("{{{}}}", body.join(","));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        die("usage: resa-perfbench <gen-trace|peak-rss|loadgen|trace-serve|trace-stream|trace-offline> ...")
    };
    match command.as_str() {
        "gen-trace" => gen_trace(rest),
        "peak-rss" => peak_rss(rest),
        "loadgen" => serve::loadgen(rest),
        "trace-serve" => print_metrics(&serve::trace(rest)),
        "trace-stream" => print_metrics(&replay::trace_stream(rest)),
        "trace-offline" => print_metrics(&replay::trace_offline(rest)),
        other => die(&format!("unknown command '{other}'")),
    }
}
