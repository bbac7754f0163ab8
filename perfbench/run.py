#!/usr/bin/env python3
"""The repository benchmark: one workload run, from the repository root.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Builds the library, the `lams` CLI and the benchmark executable from
source (dune, release profile, into $CARGO_TARGET_DIR or .bench_build),
runs the workload in a fresh process, checks its outputs against the
oracles, and prints a human-readable report on stderr and, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones. The exit code is 0 only when every
op was correct. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("remap-cold", "remap-warm", "remap-lossy", "serve-zipf")
TAIL_PERCENTILES = (0.99, 0.95, 0.90)
MIN_BEYOND = 10
COVERAGE_BAND = (0.9, 1.1)
DERIVED = ("sched.schedule.color_us", "sched.executor.exchange_us")
COMPUTED = ("sched.pack.gb_s",)
WORKER_TIMEOUT_S = 170


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def percentile(xs, q):
    """Linear interpolation between order statistics."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(q, n):
    """Order statistics of n samples that lie above the q-th percentile."""
    return n - 1 - math.floor(q * (n - 1))


def tail_percentile(n):
    """The highest of p99, p95 and p90 with at least MIN_BEYOND samples
    beyond it at n samples; None when even p90 has fewer."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(q, n) >= MIN_BEYOND:
            return q
    return None


def vmhwm_kb(status):
    """Peak resident set (VmHWM) in kB from the text of /proc/<pid>/status."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) != 3 or fields[2] != "kB":
                raise ValueError("unexpected VmHWM line: %r" % line)
            return int(fields[1])
    return None


def llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
        return int(out.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return 0


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the two executables; returns their paths or None."""
    bd = build_dir()
    targets = ["./perfbench/perfbench.exe", "./bin/lams.exe"]
    # No shared dune cache: the build reads and writes only the checkout.
    cmd = ["dune", "build", "--root", ".", "--build-dir", bd, "--profile", "release",
           "--cache", "disabled"] + targets
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed: %s" % e)
        return None
    if done.returncode != 0:
        log("perfbench: build failed (dune exit %d)" % done.returncode)
        return None
    return tuple(os.path.join(bd, "default", t[2:]) for t in targets)


def run_worker(exe, args, cpu):
    """Run one workload process in a new process group; the daemon it
    may fork stays in that group, so a timeout kills both.

    The process and the daemon it forks run on one processor. Spread over
    two, serve-zipf's client and daemon wake each other across
    processors, and on a virtual machine whose host steals processor time
    (23% of it, measured) its throughput fell threefold and its p99 rose
    tenfold from run to run; on one processor the steal costs it no more
    than it costs a single-threaded run."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: workload timed out after %d s" % WORKER_TIMEOUT_S)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        log("perfbench: workload exited with code %d" % proc.returncode)
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def end_to_end(raw):
    lat = raw["latencies_us"]
    op_count = raw["info"]["op_count"]
    q = tail_percentile(op_count)
    metrics = {
        "setup_s": statistics.median(raw["setups_s"]),
        "ops_per_s": len(lat) / raw["timed_s"] if raw["timed_s"] > 0 else 0.0,
        "p50_us": percentile(lat, 0.5) if lat else 0.0,
        "tail_us": (percentile(lat, q) if q else max(lat)) if lat else 0.0,
        "peak_rss_mb": (vmhwm_kb(raw["status_self"]) or 0) / 1024.0,
        "fail_frac": raw["failed"] / raw["attempted"],
        "sim_ticks": raw["sim_ticks"],
    }
    tail = {"percentile": "p%d" % round(100 * q) if q else "max",
            "samples": len(lat),
            "beyond": samples_beyond(q, len(lat)) if q and lat else 0}
    return metrics, tail


def per_layer(raw):
    layers = dict(raw["layers"])
    daemon = vmhwm_kb(raw["status_daemon"]) if raw["status_daemon"] else None
    layers["serve.daemon_peak_rss_mb"] = (daemon or 0) / 1024.0
    return layers


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_us": "us", "tail_us": "us",
         "peak_rss_mb": "MB", "fail_frac": "ratio", "sim_ticks": "ticks"}


def report(args, raw, metrics, tail, declared):
    info = raw["info"]
    llc = llc_bytes()
    log("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    log("  nproc=%s (pinned to cpu %d of %d) llc_bytes=%d clients=%s loop=%s op_count=%s "
        "attempted=%d failed=%d"
        % (info["nproc"], info["cpu"], os.cpu_count(), llc, info["clients"], info["loop"],
           info["op_count"], raw["attempted"], raw["failed"]))
    if "working_set_bytes" in info:
        ws = info["working_set_bytes"]
        log("  working_set_bytes=%d (%.2fx LLC) elements_per_op=%d"
            % (ws, ws / llc if llc else 0.0, info["elements_per_op"]))
    if raw["status_daemon"]:
        log("  daemon peak_rss_mb=%.1f (VmHWM before SIGTERM)"
            % ((vmhwm_kb(raw["status_daemon"]) or 0) / 1024.0))
    if not args.trace:
        for name, value in metrics.items():
            log("  %-12s %14.4f %s" % (name, value, UNITS[name]))
        log("  tail_us is %s of %d samples, %d beyond it"
            % (tail["percentile"], tail["samples"], tail["beyond"]))
    else:
        for name, unit in declared:
            note = " (derived)" if name in DERIVED else " (computed)" if name in COMPUTED else ""
            log("  %-34s %16.4f %s%s" % (name, metrics[name], unit, note))
        cov = metrics["trace.coverage"]
        if not COVERAGE_BAND[0] <= cov <= COVERAGE_BAND[1]:
            log("  FLAG: trace.coverage %.3f outside %.1f-%.1f: the layers timed do "
                "not add up to the op time" % (cov, COVERAGE_BAND[0], COVERAGE_BAND[1]))
    return {"llc_bytes": llc, **info, "tail": tail}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    declared = [(m["name"], m["unit"]) for m in bench[section]]

    exes = build()
    if exes is None:
        return 1
    exe, lams = exes
    sock = os.path.join(build_dir(), "perfbench-%d.sock" % os.getpid())
    cpu = max(os.sched_getaffinity(0))
    raw = run_worker(os.path.abspath(exe),
                     ["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--lams", os.path.abspath(lams), "--sock", sock], cpu)
    if raw is None:
        return 1
    raw["info"]["cpu"] = cpu

    if args.trace:
        metrics, tail = per_layer(raw), None
        emitted = set(metrics)
        if emitted != {name for name, _ in declared}:
            log("perfbench: per-layer metrics differ from BENCHMARK.json: %s"
                % sorted(emitted ^ {name for name, _ in declared}))
            return 1
    else:
        metrics, tail = end_to_end(raw)
    details = report(args, raw, metrics, tail, declared)

    results = os.path.join(build_dir(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"details": details, "metrics": metrics}, f, indent=1)

    correct = raw["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
