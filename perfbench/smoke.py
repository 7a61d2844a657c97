#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (seconds once
built). Run it from the root of a source checkout:

    python3 perfbench/smoke.py

It checks that
  * every workload, untraced and traced, prints a last line with exactly
    the keys correct/attempted/failed/metrics, whose metric names and units
    are BENCHMARK.json's end_to_end (untraced) or per_layer (traced) list,
    and reports correct=true;
  * the serve_mixed writer transcript over the socket equals
    `resa serve --script` on the same requests, byte for byte;
  * the traced runs reproduce the untraced outputs (the traced run checks
    its in-process results against the shipped binary and reports
    correct=false when they differ).
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.SERVE_JOBS = 180
run.READER_OPS = 64
run.STREAM_JOBS = 3000
run.STREAM_TRACES = 2
run.OFFLINE_JOBS = 300
run.OFFLINE_TRACES = 2
# Coverage is a property of the full-size inputs: at this size the fixed
# cost of a socket round trip, and its tail, outweigh a writer step, so the
# traced runs here check everything but the coverage floor.
run.COVERAGE_FLOOR = 0.0
run.SETUP_BATCHES = 2
run.SETUP_BATCH = 2


def bench(workload, trace, seed=3):
    sys.argv = ["run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            run.main()
        except SystemExit as e:
            code = e.code
    return code, out.getvalue().strip().splitlines()[-1]


def check_schema(spec, workload, trace):
    code, last = bench(workload, trace)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and code == 0, last
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, last
    section = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section], list(result["metrics"])
    for m in section:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], float), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    print(f"ok  schema and checks: {workload} trace={trace}")


def check_transcript():
    resa, harness = run.build()
    work = run.ROOT / ".bench_run" / "smoke-transcript"
    work.mkdir(parents=True, exist_ok=True)
    try:
        writer, reader = run.serve_streams(harness, work, 7)
        writer_path, reader_path = work / "writer.jsonl", work / "reader.jsonl"
        writer_path.write_text("\n".join(writer) + "\n")
        reader_path.write_text("\n".join(reader) + "\n")
        proc, sock, _ = run.start_server(resa, harness, work, "smoke")
        out = work / "session"
        out.mkdir(exist_ok=True)
        subprocess.run(
            [str(harness), "loadgen", str(sock), str(writer_path), str(reader_path), str(out)],
            check=True, stdout=subprocess.DEVNULL,
        )
        assert proc.wait() == 0
        socket_transcript = (out / "transcript.jsonl").read_bytes()

        script = work / "script.jsonl"
        script.write_text("\n".join(writer + ['{"op":"drain"}', '{"op":"stats"}']) + "\n")
        journal = work / "script.journal"
        scripted = subprocess.run(
            [str(resa), "serve", "--machines", str(run.SERVE_MACHINES), "--script", str(script),
             "--journal", str(journal), "--fsync", "off"],
            check=True, capture_output=True,
        ).stdout
        assert socket_transcript == scripted, "socket transcript differs from --script"
        print(f"ok  socket writer transcript == --script ({len(writer) + 2} replies)")
    finally:
        subprocess.run(["rm", "-rf", str(work)], check=False)
        with contextlib.suppress(OSError):
            (run.ROOT / ".bench_run").rmdir()


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    check_transcript()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_schema(spec, workload, trace)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
