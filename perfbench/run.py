#!/usr/bin/env python3
"""The resa benchmark: one command, end-to-end metrics of the shipped
release `resa` binary on seeded workloads, or (with --trace 1) per-layer
metrics from an in-process replay of the same inputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds `resa` and the
benchmark's own harness (perfbench/harness) with cargo into
$CARGO_TARGET_DIR (default .bench_build), writes its inputs under
.bench_run/, and removes them again. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Every line before
it is the human-readable report: context, input digests, and every metric
with its unit and sample count. See perfbench/README.md for why each
workload and metric exists.
"""

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("serve_mixed", "replay_stream", "offline_batch")

# serve_mixed: a 64-machine EASY service fed SERVE_JOBS Lublin jobs; one
# session is about 2.3 writer requests per job, long enough for the history
# (jobs, breakpoints) to grow far past the few dozen live jobs. The shares
# are per job arrival: a submit carries a deadline or is moldable, or a
# reserve, cancel, inject or revoke follows it.
SERVE_MACHINES = 64
SERVE_JOBS = 5200
SERVE_INTERARRIVAL = 70
SERVE_SHARES = {
    "deadline": 0.10, "moldable": 0.10, "reserve": 0.10, "cancel": 0.03,
    "inject": 0.005, "revoke": 0.0025,
}
READER_OPS = 512
# replay_stream: Lublin traces on 128 machines at a load that keeps the
# wait queue busy, EASY with an alpha = 1/2 overlay spanning each trace.
# A run replays STREAM_TRACES traces, so that no one trace's quirks set it.
STREAM_MACHINES = 128
STREAM_JOBS = 40_000
STREAM_TRACES = 4
STREAM_INTERARRIVAL = 52
# offline_batch: LSRC on materialized Lublin traces with the same overlay.
OFFLINE_MACHINES = 128
OFFLINE_JOBS = 4000
OFFLINE_TRACES = 6
OFFLINE_INTERARRIVAL = 52
# alpha = NUM/DEN, RES_COUNT reservations of at most RES_MAXDUR ticks.
ALPHA = (1, 2)
RES_COUNT = 64
RES_MAXDUR = 3000
# A traced run fails when its layers account for less of the end-to-end
# time than this.
COVERAGE_FLOOR = 0.9
# Set-up time: SETUP_BATCHES batches of SETUP_BATCH probes, spread over
# the run; the fastest probe counts (see SetupProbes).
SETUP_BATCHES = 11
SETUP_BATCH = 5


def log(line=""):
    print(line, flush=True)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


# -- build ------------------------------------------------------------------


def build():
    """Build the release `resa` binary and the harness from this checkout."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "resa-cli"],
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", str(BENCH / "harness" / "Cargo.toml"),
        ],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target / "release" / "resa", target / "release" / "resa-perfbench"


# -- context ----------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    paths += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def filesystem_of(path):
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) >= 3 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def context(work):
    cores = len(os.sched_getaffinity(0))
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or rev
    ctx = {
        "nproc": cores,
        "single_core": cores == 1,
        "rustc": rustc,
        "build_profile": "release",
        "git_revision": rev,
        "source_digest": source_digest(),
        "journal_fs": filesystem_of(work.resolve()),
    }
    if cores == 1:
        ctx["note"] = "single core: no result of this run says anything about parallel speed-up"
    return ctx


# -- statistics -------------------------------------------------------------


def pct(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q / 100 * len(s)))]


class SetupProbes:
    """Set-up time, probed in SETUP_BATCHES batches of SETUP_BATCH probes
    spread evenly over the run's measuring time: between two measured
    units, every batch whose time has come runs. The result is the fastest
    probe. This machine has slow phases that last from seconds to minutes
    and only ever add time, so the fastest of probes spread over the run
    repeats from run to run far better than a median of them."""

    def __init__(self, probe, seconds):
        self.probe = probe
        self.start = time.perf_counter()
        self.seconds = seconds
        self.walls = []
        self.failed = 0

    def batch(self):
        due = self.start + len(self.walls) // SETUP_BATCH * self.seconds / SETUP_BATCHES
        if len(self.walls) >= SETUP_BATCHES * SETUP_BATCH or time.perf_counter() < due:
            return
        for _ in range(SETUP_BATCH):
            wall, ok = self.probe()
            self.walls.append(wall)
            self.failed += not ok
        self.batch()

    def finish(self):
        self.seconds = 0
        self.batch()
        return min(self.walls)

    @property
    def attempted(self):
        return len(self.walls)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def read_ns(path):
    return [int(x) for x in path.read_text().split()]


def measured(harness, out, cmd):
    """`cmd` under the harness's `peak-rss`, which writes the wall time and
    peak resident set of `cmd` itself to `out`. (A child spawned from this
    process starts with this process's peak resident set.)"""
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    return [str(harness), "peak-rss", str(out), "--"] + cmd


def read_measured(out):
    """The (wall seconds, peak resident set MiB) that `peak-rss` wrote."""
    try:
        wall_ns, rss_kib = out.read_text().split()
    except (OSError, ValueError):
        fail(f"peak-rss wrote no result to {out}")
    return int(wall_ns) / 1e9, int(rss_kib) / 1024


def stop(proc):
    """Kill a process run under `peak-rss` and the command it runs, and reap
    it. Both stay in this process's group, so whoever stops this process's
    group stops them too."""
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    with contextlib.suppress(OSError):
        for pid in children.read_text().split():
            os.kill(int(pid), signal.SIGKILL)
    proc.kill()
    proc.wait()


# -- inputs -----------------------------------------------------------------


def serve_streams(harness, work, seed):
    """The writer and reader request streams of one serve_mixed session.

    The jobs are a seeded Lublin trace, the model the replay workloads use:
    every job is submitted at its release, and the gaps between releases
    become `advance` requests. The other writer ops ride along at the
    per-arrival rates of SERVE_SHARES (see perfbench/README.md)."""
    plain = work / "serve.swf"
    subprocess.run(
        [str(harness), "gen-trace", str(plain), str(SERVE_JOBS), str(SERVE_MACHINES),
         str(SERVE_INTERARRIVAL), str(seed)],
        check=True,
    )
    jobs = [
        [int(x) for x in line.split()[1:4]]
        for line in plain.read_text().splitlines()
        if line.strip() and not line.startswith(";")
    ]
    plain.unlink()
    rng = random.Random(seed)
    m, gap, share = SERVE_MACHINES, SERVE_INTERARRIVAL, SERVE_SHARES
    now, reservations, cancelled, drains, revoked = 0, 0, set(), 0, set()
    writer = []

    def emit(req):
        writer.append(json.dumps(req, separators=(",", ":")))

    for release, duration, width in jobs:
        if release > now:
            now = release
            emit({"op": "advance", "to": now})
        x = rng.random()
        if x < share["deadline"]:
            emit({
                "op": "submit", "width": width, "duration": duration,
                "deadline": now + duration + rng.randint(0, 20 * gap),
                "admission": rng.choice(["reject", "boost"]),
            })
        elif x < share["deadline"] + share["moldable"]:
            widths = sorted({max(1, width // 2), width, min(m // 2, 2 * width)})
            emit({"op": "submit_moldable", "widths": widths, "area": width * duration})
        else:
            emit({"op": "submit", "width": width, "duration": duration})
        if rng.random() < share["reserve"]:
            emit({
                "op": "reserve", "width": rng.randint(1, m // 8), "duration": rng.randint(1, RES_MAXDUR // 5),
                "start": now + rng.randint(gap, 20 * gap),
            })
            reservations += 1
        if rng.random() < share["cancel"] and len(cancelled) < reservations:
            rid = rng.choice(sorted(set(range(reservations)) - cancelled))
            cancelled.add(rid)
            emit({"op": "cancel", "reservation": rid})
        if rng.random() < share["inject"]:
            emit({
                "op": "inject", "width": rng.randint(1, m // 16), "duration": rng.randint(5, 60),
                "start": now + rng.randint(0, gap),
            })
            drains += 1
        if rng.random() < share["revoke"] and len(revoked) < drains:
            revoked.add(drains - 1)
            emit({"op": "revoke", "drain": drains - 1})
    reader = []
    for _ in range(READER_OPS):
        if rng.random() < 0.75:
            req = {"op": "query", "width": rng.randint(1, m // 2), "duration": rng.randint(1, 300)}
        else:
            req = {"op": "stats"}
        reader.append(json.dumps(req, separators=(",", ":")))
    return writer, reader


def gen_trace(harness, path, jobs, machines, interarrival, seed):
    """A seeded Lublin trace, gzip-compressed with real deflate."""
    plain = path.with_suffix("")
    subprocess.run(
        [str(harness), "gen-trace", str(plain), str(jobs), str(machines), str(interarrival), str(seed)],
        check=True,
    )
    data = plain.read_bytes()
    plain.unlink()
    with open(path, "wb") as out:
        with gzip.GzipFile(fileobj=out, mode="wb", mtime=0, filename="") as gz:
            gz.write(data)
    return path


def trace_horizon(path):
    """Largest submission time of a trace: the overlay spans [0, horizon)."""
    last = 0
    with gzip.open(path, "rt") as text:
        for line in text:
            if line.strip() and not line.startswith(";"):
                last = max(last, int(line.split()[1]))
    return max(last, 2000)


# -- serve_mixed ------------------------------------------------------------


def start_server(resa, harness, work, tag):
    """A journaled `resa serve` on a Unix socket, under `peak-rss`:
    (process, socket, peak-rss output)."""
    sock, journal, rss = work / f"{tag}.sock", work / f"{tag}.journal", work / f"{tag}.rss"
    for p in (sock, journal):
        if p.exists():
            p.unlink()
    cmd = [
        str(resa), "serve", "--machines", str(SERVE_MACHINES), "--unix", str(sock),
        "--journal", str(journal), "--fsync", "off",
    ]
    proc = subprocess.Popen(measured(harness, rss, cmd), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return proc, sock, rss


def serve_setup_probe(resa, work):
    """Spawn-to-first-reply time of a fresh journaled server, and whether it
    answered and exited cleanly. The probe talks over stdin/stdout: the
    socket accept loop polls every 10 ms, which would add a delay of 0-10 ms
    that depends only on when the probe connects."""
    journal = work / "setup.journal"
    if journal.exists():
        journal.unlink()
    cmd = [
        str(resa), "serve", "--machines", str(SERVE_MACHINES), "--journal", str(journal),
        "--fsync", "off",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    proc.stdin.write(b'{"op":"stats"}\n')
    proc.stdin.flush()
    reply = proc.stdout.readline()
    wall = time.perf_counter() - t0
    proc.stdin.write(b'{"op":"shutdown"}\n')
    proc.stdin.close()
    proc.stdout.read()
    proc.stdout.close()
    return wall, reply.startswith(b'{"ok":true') and proc.wait() == 0


def final_stats_ok(line):
    s = json.loads(line)
    return (
        s.get("ok") is True and s["pending"] == 0 and s["waiting"] == 0
        and s["running"] == 0 and s["completed"] == s["submitted"]
    )


def serve_session(resa, harness, work, writer_path, reader_path, index):
    proc, sock, rss_path = start_server(resa, harness, work, f"s{index}")
    out = work / f"session{index}"
    out.mkdir()
    gen = subprocess.run(
        [str(harness), "loadgen", str(sock), str(writer_path), str(reader_path), str(out)],
        capture_output=True, text=True,
    )
    if gen.returncode != 0:
        stop(proc)
        return None
    code = proc.wait()
    rss = read_measured(rss_path)[1]
    summary = json.loads(gen.stdout)
    transcript = (out / "transcript.jsonl").read_bytes()
    lines = transcript.decode().splitlines()
    return {
        "exit": code,
        "rss_mb": rss,
        "writer_ns": read_ns(out / "writer_ns.txt"),
        "reader_ns": read_ns(out / "reader_ns.txt"),
        "reader_errors": summary["reader_errors"],
        "writer_wall_s": summary["writer_wall_s"],
        "reader_wall_s": summary["reader_wall_s"],
        "transcript": digest(transcript),
        "refusals": sum(1 for l in lines[:-2] if not l.startswith('{"ok":true')),
        "final_ok": final_stats_ok(lines[-1]),
    }


def run_serve(resa, harness, work, seed, seconds, trace):
    writer, reader = serve_streams(harness, work, seed)
    writer_path, reader_path = work / "writer.jsonl", work / "reader.jsonl"
    writer_path.write_text("\n".join(writer) + "\n")
    reader_path.write_text("\n".join(reader) + "\n")
    inputs = {
        "writer_ops": len(writer),
        "writer_digest": digest(writer_path.read_bytes()),
        "reader_digest": digest(reader_path.read_bytes()),
    }
    if trace:
        proc, sock, _ = start_server(resa, harness, work, "trace")
        layers = run_harness(
            harness,
            ["trace-serve", str(sock), str(SERVE_MACHINES), str(writer_path), str(reader_path), str(work)],
        )
        if layers is None:
            stop(proc)
        elif proc.wait() != 0:
            layers = None
        return inputs, layers, len(writer), 0 if layers else len(writer), {}

    setup = SetupProbes(lambda: serve_setup_probe(resa, work), seconds)
    sessions, failed, attempted = [], 0, 0
    t0 = time.perf_counter()
    while not sessions or time.perf_counter() - t0 < seconds:
        setup.batch()
        s = serve_session(resa, harness, work, writer_path, reader_path, len(sessions))
        if s is None:
            return inputs, None, attempted + len(writer), attempted + len(writer), {}
        attempted += len(s["writer_ns"]) + len(s["reader_ns"])
        failed += s["reader_errors"]
        if s["exit"] != 0 or not s["final_ok"]:
            failed += len(s["writer_ns"])
        sessions.append(s)
    setup_s = setup.finish()
    attempted += setup.attempted
    failed += setup.failed
    if len({s["transcript"] for s in sessions}) != 1:
        failed += sum(len(s["writer_ns"]) for s in sessions)
    inputs["writer_transcript_digest"] = sessions[0]["transcript"]

    # The machine's slow phases last from under a second to minutes and
    # only ever add time. Every session sends the same writer ops into the
    # same states, so each op's fastest round trip over the sessions is its
    # least disturbed one; the writer metrics are taken over those. Reader
    # rates and medians are the best session's; the tails (p99) are medians
    # over sessions.
    def med(f):
        return statistics.median(f(s) for s in sessions)

    def best(f):
        return min(f(s) for s in sessions)

    n = len(writer)
    best_ns = [min(op) for op in zip(*(s["writer_ns"] for s in sessions))]
    writes = n * len(sessions)
    reads = sum(len(s["reader_ns"]) for s in sessions)
    report = {
        "setup_s": (setup_s, "s", setup.attempted),
        "write_ops_per_s": (len(best_ns) / (sum(best_ns) / 1e9), "ops/s", writes),
        "session_write_ops_per_s": (max(n / s["writer_wall_s"] for s in sessions), "ops/s", len(sessions)),
        "read_ops_per_s": (max(len(s["reader_ns"]) / s["reader_wall_s"] for s in sessions), "ops/s", len(sessions)),
        "write_p50_us": (pct(best_ns, 50) / 1e3, "us", writes),
        "write_p99_us": (med(lambda s: pct(s["writer_ns"], 99) / 1e3), "us", writes),
        "late_write_p50_us": (pct(best_ns[-n // 10:], 50) / 1e3, "us", writes // 10),
        "read_p50_us": (best(lambda s: pct(s["reader_ns"], 50) / 1e3), "us", reads),
        "read_p99_us": (med(lambda s: pct(s["reader_ns"], 99) / 1e3), "us", reads),
        "peak_rss_mb": (med(lambda s: s["rss_mb"]), "MiB", len(sessions)),
        "error_frac": (failed / attempted, "ratio", attempted),
        "write_refusals": (sessions[0]["refusals"], "count", n),
        "sessions": (len(sessions), "count", len(sessions)),
    }
    for name, key in (("write_p99_us", "writer_ns"), ("read_p99_us", "reader_ns")):
        per_session = [pct(s[key], 99) for s in sessions]
        if len(per_session) < 2 or max(per_session) - min(per_session) > 0.1 * statistics.median(per_session):
            report[name] += ("unresolved: does not repeat within a tenth across sessions",)
    gated = {
        "setup_s": report["setup_s"][0],
        "throughput_per_s": report["write_ops_per_s"][0],
        "latency_ms": report["write_p50_us"][0] / 1e3,
        "peak_rss_mb": report["peak_rss_mb"][0],
    }
    return inputs, gated, attempted, failed, report


# -- replay_stream / offline_batch ------------------------------------------


def replay_cmd(resa, trace, machines, horizon, seed, policy):
    spec = f"alpha:{ALPHA[0]}/{ALPHA[1]}:{RES_COUNT}:{horizon}:{RES_MAXDUR}"
    return [
        str(resa), "replay", str(trace), "--machines", str(machines), "--policy", policy,
        "--reservations", spec, "--seed", str(seed), "--format", "json",
    ]


def timed_replay(harness, work, cmd):
    """Run one replay: (wall seconds, peak RSS MiB, exit code, stdout)."""
    rss_path = work / "replay.rss"
    proc = subprocess.Popen(measured(harness, rss_path, cmd), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    wall, rss = read_measured(rss_path)
    return wall, rss, code, out


def replay_ok(code, out, jobs):
    try:
        r = json.loads(out)
    except ValueError:
        return False, None
    ok = code == 0 and r.get("schedule_valid") is True and r.get("violations") == 0 and r.get("jobs") == jobs
    return ok, r


def run_replay(resa, harness, work, seed, seconds, trace, workload):
    stream = workload == "replay_stream"
    machines = STREAM_MACHINES if stream else OFFLINE_MACHINES
    jobs = STREAM_JOBS if stream else OFFLINE_JOBS
    count = STREAM_TRACES if stream else OFFLINE_TRACES
    interarrival = STREAM_INTERARRIVAL if stream else OFFLINE_INTERARRIVAL
    policy = "easy" if stream else "offline:lsrc"
    # The seed's traces, each with its own sub-seed (trace and overlay).
    subs = [seed * count + i for i in range(count)]
    cmds, inputs = [], {"jobs_per_trace": jobs, "traces": count}
    for i, sub in enumerate(subs):
        path = gen_trace(harness, work / f"trace{i}.swf.gz", jobs, machines, interarrival, sub)
        horizon = trace_horizon(path)
        inputs[f"trace{i}"] = {"digest": digest(path.read_bytes()), "overlay_horizon": horizon}
        cmds.append(replay_cmd(resa, path, machines, horizon, sub, policy))
    path, horizon, cmd = work / "trace0.swf.gz", inputs["trace0"]["overlay_horizon"], cmds[0]

    if trace:
        _, _, code, out = timed_replay(harness, work, cmd)
        ok, report = replay_ok(code, out, jobs)
        layers = run_harness(
            harness,
            ["trace-stream" if stream else "trace-offline", str(path), str(machines), str(ALPHA[0]),
             str(ALPHA[1]), str(RES_COUNT), str(horizon), str(RES_MAXDUR), str(subs[0]), "--"] + cmd,
        )
        if layers is not None and ok:
            expected = {
                "check.jobs": report["jobs"], "check.makespan": report["metrics"]["makespan"],
                "check.violations": report["violations"],
            }
            if stream:
                expected["check.decisions"] = report["decisions"]
            if any(layers.get(k) != v for k, v in expected.items()):
                log(f"# traced run diverged from resa replay: {expected}")
                ok = False
        return inputs, layers, jobs, 0 if (ok and layers) else jobs, {}

    one = gen_trace(harness, work / "one.swf.gz", 1, machines, interarrival, subs[0])
    one_cmd = replay_cmd(resa, one, machines, horizon, subs[0], policy)

    def setup_probe():
        wall, _, code, out = timed_replay(harness, work, one_cmd)
        return wall, replay_ok(code, out, 1)[0]

    # Rounds: each replays every trace once, so every trace sees the same
    # phases of the machine's speed.
    setup = SetupProbes(setup_probe, seconds)
    walls, rss, digests = [[] for _ in subs], [], [set() for _ in subs]
    rounds, attempted, failed = 0, 0, 0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        for i, c in enumerate(cmds):
            setup.batch()
            wall, peak, code, out = timed_replay(harness, work, c)
            attempted += jobs
            if not replay_ok(code, out, jobs)[0]:
                failed += jobs
            digests[i].add(digest(out))
            walls[i].append(wall)
            rss.append(peak)
        rounds += 1
    setup_s = setup.finish()
    attempted += setup.attempted
    failed += setup.failed
    for i, d in enumerate(digests):
        if len(d) != 1:
            failed += jobs * rounds
        inputs[f"trace{i}"]["report_digest"] = sorted(d)[0]
    # The shared machine has slow phases, from seconds to minutes long, in
    # which a replay takes up to 1.8 times as long, and they only ever add
    # time. A trace's fastest replay in the run is its least disturbed
    # measure; the run's replay time is the mean of those over the traces.
    fast = statistics.fmean(min(w) for w in walls)
    report = {
        "setup_s": (setup_s, "s", setup.attempted),
        "jobs_per_s": (jobs / fast, "jobs/s", rounds * count),
        "fast_run_s": (fast, "s", rounds * count),
        "run_s": (statistics.fmean(statistics.median(w) for w in walls), "s", rounds * count),
        "peak_rss_mb": (statistics.median(rss), "MiB", len(rss)),
        "error_frac": (failed / attempted, "ratio", attempted),
        "rounds": (rounds, "count", rounds),
    }
    gated = {
        "setup_s": report["setup_s"][0],
        "throughput_per_s": report["jobs_per_s"][0],
        "latency_ms": report["fast_run_s"][0] * 1e3,
        "peak_rss_mb": report["peak_rss_mb"][0],
    }
    return inputs, gated, attempted, failed, report


# -- traced runs ------------------------------------------------------------


def run_harness(harness, args):
    done = subprocess.run([str(harness)] + args, capture_output=True, text=True)
    if done.returncode != 0:
        log(f"# harness failed: {done.stderr.strip()}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- main -------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").exists() or not (ROOT / "Cargo.toml").exists():
        fail("run from the root of a resa source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    resa, harness = build()
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        log("# perfbench context " + json.dumps(context(work), sort_keys=True))
        if args.workload == "serve_mixed":
            result = run_serve(resa, harness, work, args.seed, args.seconds, args.trace)
        else:
            result = run_replay(resa, harness, work, args.seed, args.seconds, args.trace, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass
    inputs, measured, attempted, failed, report = result
    log(f"# inputs workload={args.workload} seed={args.seed} " + json.dumps(inputs, sort_keys=True))
    for name, (value, unit, count, *note) in report.items():
        log(f"# {args.workload} {name} = {value:.6g} {unit} (n={count})" + "".join(f" {n}" for n in note))

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[section]]
    correct = measured is not None and failed == 0
    metrics = {}
    if measured is not None:
        if args.trace:
            coverage = measured.get("trace.coverage", 0.0)
            if coverage < COVERAGE_FLOOR:
                log(f"# trace.coverage {coverage:.3f} is below {COVERAGE_FLOOR}")
                correct = False
        for name, unit in wanted:
            metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": unit}
        if args.trace:
            for name, unit in wanted:
                log(f"# {args.workload} {name} = {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
