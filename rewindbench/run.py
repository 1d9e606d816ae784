#!/usr/bin/env python3
"""RewindBench: the served-KV benchmark of this repository.

One command builds kv_server and the load generator from source, starts the
shipped kv_server with its built-in defaults on an ephemeral port, loads it,
drives one named workload over loopback through KvClient, checks every
reply and a full read-back, and prints every metric with its unit. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 rewindbench/run.py --workload a-paced --seed 1 --trace 0
    python3 rewindbench/run.py --workload all
    python3 rewindbench/run.py --self-test

--trace 0 reports the end-to-end metrics of an untraced window.
--trace 1 reports the per-layer metrics: client spans around every KvClient
call (written to .bench_build/rewindbench/spans-<workload>.csv), deltas of
the server's STATS v2 scrape around a traced window, and an in-process
replay of the same seeded op stream. See README.md in this directory for
the workloads, the metrics and which layer each one measures.

Exits nonzero on a build failure, any failed op or check, or a server that
died or did not shut down cleanly.
"""
import argparse
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "rewindbench")

# Workload and metric names, with units, come from BENCHMARK.json: the one
# list the benchmark and its callers share.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Children still running this long after a workload's start are killed
# and the run fails, so a hung server cannot stall the caller.
RUN_LIMIT_S = 170
# Server launch + load repetitions per run; setup_s is their median and the
# last server is the one measured.
SETUPS = 3


def log(msg):
    print("rewindbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally after the first run); returns
    the binaries, or None on failure."""
    cfg = subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, cwd=ROOT)
    if cfg.returncode != 0:
        return None
    made = subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                          stdout=sys.stderr, cwd=ROOT)
    if made.returncode != 0:
        return None
    return (os.path.join(BUILD, "kv_server"),
            os.path.join(BUILD, "rewindbench"))


class Server:
    """kv_server on an ephemeral port; the port comes from its banner."""

    def __init__(self, binary):
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen([binary, "--port=0"], cwd=ROOT,
                                     stdout=subprocess.PIPE)
        self.port = self._read_port()

    def _read_port(self):
        buf = b""
        deadline = time.monotonic() + 30
        while b"\n" not in buf and time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
        m = re.search(rb"listening on port (\d+)", buf)
        if m is None:
            self.stop()
            raise RuntimeError("kv_server printed no banner: %r" % buf[:200])
        return int(m.group(1))

    def alive(self):
        return self.proc.poll() is None

    def stop(self):
        """SIGTERM and wait; True only for a clean, graceful exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        return self.proc.returncode == 0


def run_child(argv, procs, deadline):
    """Runs a load-generator mode; returns (exit code, {tag: (time, text)})
    for its `loaded` and `result` lines. It and `procs` are killed at
    `deadline` (time.monotonic)."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(
        max(deadline - time.monotonic(), 1),
        lambda: [p.kill() for p in procs + [child]])
    watchdog.start()
    lines = {}
    try:
        for raw in child.stdout:
            text = raw.decode(errors="replace").rstrip("\n")
            tag, _, rest = text.partition(" ")
            lines[tag] = (time.monotonic(), rest)
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
    return child.returncode, lines


def setup_once(bins, mode_args, deadline):
    """Launches a server and loads it (plus, for `run`, the workload).
    Returns (setup seconds or None, result dict or None, ok)."""
    server_bin, gen_bin = bins
    server = Server(server_bin)
    try:
        code, lines = run_child(
            [gen_bin] + mode_args + ["--port=%d" % server.port], [server.proc],
            deadline)
        died = not server.alive()
    finally:
        clean = server.stop()
    if died:
        log("kv_server died during the run (exit %s)" % server.proc.returncode)
    elif not clean:
        log("kv_server did not shut down cleanly")
    setup = lines["loaded"][0] - server.t0 if "loaded" in lines else None
    result = json.loads(lines["result"][1]) if "result" in lines else None
    return setup, result, code == 0 and not died and clean


def run_workload(bins, workload, seed, seconds, trace):
    """One benchmark run; prints its metrics and returns the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    ok = True
    setups = []
    for _ in range(SETUPS - 1):
        setup, _, good = setup_once(bins, ["load"], deadline)
        ok = ok and good and setup is not None
        if setup is not None:
            setups.append(setup)
    spans = os.path.join(BUILD, "spans-%s.csv" % workload)
    run_args = ["run", "--workload=" + workload, "--seed=%d" % seed,
                "--seconds=%g" % seconds, "--trace=%d" % trace,
                "--spans-out=" + spans]
    setup, result, good = setup_once(bins, run_args, deadline)
    ok = ok and good and setup is not None and result is not None
    if setup is not None:
        setups.append(setup)

    attempted = result["attempted"] if result else 0
    failed = result["failed"] if result else 0
    measured = dict(result["metrics"]) if result else {}
    if trace == 1 and ok:
        code, lines = run_child([bins[1], "replay", "--workload=" + workload,
                                 "--seed=%d" % seed], [], deadline)
        if code != 0 or "result" not in lines:
            ok = False
        else:
            replay = json.loads(lines["result"][1])
            attempted += replay["attempted"]
            failed += replay["failed"]
            measured.update(replay["metrics"])
    if setups:
        measured["setup_s"] = [statistics.median(setups), "s"]

    metrics = {}
    for name, unit in PER_LAYER if trace == 1 else END_TO_END:
        if name not in measured:
            log("metric %s missing" % name)
            ok = False
            continue
        metrics[name] = {"value": measured[name][0], "unit": unit}
    correct = ok and failed == 0 and attempted > 0

    print("rewindbench workload=%s seed=%d seconds=%g trace=%d setups=%s"
          % (workload, seed, seconds, trace,
             ",".join("%.3f" % s for s in setups)))
    for name, (value, unit) in sorted(measured.items()):
        print("  %-28s %16.6g %s" % (name, value, unit))
    print("  attempted=%d failed=%d correct=%s" % (attempted, failed, correct))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the output checker catches a torn "
                         "value, a foreign value, a missing key and a "
                         "missing acked insert")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    bins = build()
    if bins is None:
        log("build failed")
        return 1

    if args.self_test:
        _, _, ok = setup_once(bins, ["selftest"],
                              time.monotonic() + RUN_LIMIT_S)
        print("rewindbench self-test: %s" % ("ok" if ok else "FAILED"))
        return 0 if ok else 1

    if args.workload != "all":
        result = run_workload(bins, args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # Every workload in turn: one JSON line each, then a summary whose
    # metrics are keyed "<workload>/<metric>".
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(bins, workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps(result))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][workload + "/" + name] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
