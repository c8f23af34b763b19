#!/usr/bin/env python3
"""BLAM simulator benchmark: builds blam_perf from source and runs one workload.

    python3 perfbench/run.py --workload city_serial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to .bench_build/. The last
line of stdout is one JSON object {correct, attempted, failed, metrics}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is the host record. The full result, with the host
record, the bases of every ratio and the cleared environment, is also
written to .bench_build/results/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "blam_perf")
BUILD_TYPE = "Release"

WORKLOADS = ("paper_year", "city_serial", "city_resume")
# Each set-up is the first build in a fresh process; setup_s is the median
# of at least SETUP_MIN of them, repeated until SETUP_BUDGET_S has passed
# (a 30 ms set-up needs many more samples than a 0.2 s one).
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 7, 41, 2.0
# A run that is not done by then is killed, so a benchmark run always ends
# within about three minutes.
RUN_TIMEOUT_S = 160

# Inherited settings that would change what the simulator runs or how it
# is timed (shard count, ingest batch, audit, rolling checkpoints, sweep
# workers, paper scale, the shard watchdog).
CLEARED_ENV = (
    "BLAM_SHARDS",
    "BLAM_INGEST_BATCH",
    "BLAM_AUDIT",
    "BLAM_AUDIT_THROW",
    "BLAM_CHECKPOINT_EVERY",
    "BLAM_CHECKPOINT_DIR",
    "BLAM_JOBS",
    "BLAM_FULL",
    "BLAM_SHARD_TIMEOUT_S",
)


def clear_env(env):
    """Returns (a copy of env without CLEARED_ENV, the names removed)."""
    cleaned = dict(env)
    removed = sorted(name for name in CLEARED_ENV if name in cleaned)
    for name in removed:
        del cleaned[name]
    return cleaned, removed


# --- spans ---------------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. Returns {span id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
            if min(c["end"], s["end"]) > max(c["start"], s["start"])
        )
        union, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in covered:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    union += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            union += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - union
    return out


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# --- metrics -------------------------------------------------------------------


def check(raw):
    """Counts the iterations whose fleet digest differs from the reference
    configuration's, or whose exact counters differ from the first
    iteration's. Returns (attempted, failed)."""
    its = raw["iterations"]
    failed = sum(
        1 for it in its
        if it["digest"] != raw["reference_digest"] or it["counters"] != its[0]["counters"]
    )
    return len(its), failed


def node_days(raw):
    return raw["nodes"] * raw["days"]


def end_to_end(raw, setup_s):
    """Throughputs are medians over the run's untraced iterations: the
    host's speed drifts by +-15% over ~10 s, and a median ignores the one
    iteration that a slow spell hit."""
    its = [it for it in raw["iterations"] if not it["traced"]]
    nd = node_days(raw)
    return {
        "node_days_per_s": (statistics.median(nd / it["wall_s"] for it in its), "node-day/s"),
        "node_days_per_cpu_s": (statistics.median(nd / it["cpu_s"] for it in its),
                                "node-day/cpu-s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(raw, spans):
    """Per-layer metrics of a traced run. Returns (metrics, bases): metrics
    maps name -> (value, unit); bases gives each ratio's numerator and
    denominator."""
    traced = [it for it in raw["iterations"] if it["traced"]]
    untraced = [it for it in raw["iterations"] if not it["traced"]]
    t = traced[0]
    c = t["counters"]
    micro = raw["micro"]
    nd = node_days(raw)
    shards = t["effective_shards"]
    epoch_walls = durations(spans, "sim.epoch")
    ckpt = durations(spans, "sim.checkpoint")
    restore = durations(spans, "sim.restore")
    rebuild = durations(spans, "net.rebuild")
    finalize = durations(spans, "net.finalize")
    plan_s = sum(durations(spans, "net.plan_deployment"))
    trace_s = sum(durations(spans, "energy.solar_trace"))
    selfs = self_times(spans)
    construct_self = sum(selfs[s["id"]] for s in spans if s["name"] == "net.construct")

    # One shard owns the serial engine, so its busy time is the epoch CPU.
    busy_max = t["busy_max_s"] if shards > 1 else t["epoch_cpu_s"]
    busy_mean = t["epoch_cpu_s"] / shards
    epoch_wall = sum(epoch_walls) / len(traced)
    heard = c["arrivals"] - c["lost_under_sensitivity"]
    faulted = c["reports_dropped"] + c["reports_reordered"] + c["reports_corrupted"] > 0
    ingest_ns = micro["ingest_ns_faulted"] if faulted else micro["ingest_ns_clean"]
    ckpt_bytes = t["checkpoint_bytes"] * len(traced)

    def rate(its):
        return _ratio(nd * len(its), sum(it["wall_s"] for it in its))

    traced_rate, untraced_rate = rate(traced), rate(untraced)
    # Calls x per-call cost of the timed layer functions, per iteration;
    # every received uplink carries one SoC report to the ledger.
    attributed = (
        c["events"] * micro["queue_ns_per_event"] * 1e-9
        + c["selections"] * micro["select_ns"] * 1e-9
        + raw["days"] * micro["recompute_s"]
        + c["received"] * ingest_ns * 1e-9
        + (sum(ckpt) + sum(restore) + sum(rebuild) + sum(finalize)) / len(traced)
    )
    run_cpu = sum(it["cpu_s"] for it in traced) / len(traced)

    m = {
        "sim.events_per_node_day": (_ratio(c["events"], nd), "events/node-day"),
        "sim.pending_events": (
            _median_or_zero(t["pending"]) if t["pending"] else micro["queue_depth"], "count"),
        "sim.queue_ns_per_event": (micro["queue_ns_per_event"], "ns"),
        "sim.epoch_wall_median_s": (_median_or_zero(epoch_walls), "s"),
        "sim.epoch_wall_max_s": (max(epoch_walls, default=0.0), "s"),
        "sim.shard_busy_max_s": (busy_max, "s"),
        "sim.shard_busy_mean_s": (busy_mean, "s"),
        "sim.shard_imbalance": (_ratio(busy_max, busy_mean), "ratio"),
        "sim.barrier_wait_s": (max(0.0, epoch_wall - busy_mean), "s"),
        "sim.checkpoint_s": (_median_or_zero(ckpt), "s"),
        "sim.checkpoint_bytes": (_ratio(t["checkpoint_bytes"], t["checkpoints"]), "bytes"),
        "sim.restore_s": (_median_or_zero(restore), "s"),
        "net.plan_deployment_s": (plan_s, "s"),
        "net.build_s": (max(0.0, construct_self - plan_s), "s"),
        "net.finalize_s": (_median_or_zero(finalize), "s"),
        "energy.solar_trace_s": (trace_s, "s"),
        "lora.copies_per_attempt": (_ratio(c["arrivals"], c["tx_attempts"]), "ratio"),
        "lora.heard_ratio": (1.0 - _ratio(c["lost_under_sensitivity"], c["arrivals"]), "ratio"),
        "lora.interference_loss_ratio": (_ratio(c["lost_interference"], heard), "ratio"),
        "mac.prr": (_ratio(c["delivered"], c["generated"]), "ratio"),
        "mac.attempts_per_packet": (_ratio(c["tx_attempts"], c["generated"]), "ratio"),
        "core.selects_per_node_day": (_ratio(c["selections"], nd), "calls/node-day"),
        "core.select_ns": (micro["select_ns"], "ns"),
        "core.recompute_s": (micro["recompute_s"], "s"),
        "core.ingest_ns_per_report_clean": (micro["ingest_ns_clean"], "ns"),
        "core.ingest_ns_per_report_faulted": (micro["ingest_ns_faulted"], "ns"),
        "core.ledger.reports_accepted": (c["ledger_reports_accepted"], "count"),
        "core.ledger.reports_buffered": (c["ledger_reports_buffered"], "count"),
        "core.ledger.gaps_bridged": (c["ledger_gaps_bridged"], "count"),
        "core.ledger.quarantines": (c["ledger_quarantines"], "count"),
        "fault.reports_dropped": (c["reports_dropped"], "count"),
        "fault.reports_reordered": (c["reports_reordered"], "count"),
        "fault.reports_corrupted": (c["reports_corrupted"], "count"),
        "common.codec_mb_per_s": (_ratio(ckpt_bytes, sum(ckpt)) / 1e6, "MB/s"),
        "trace.overhead": (_ratio(untraced_rate, traced_rate) - 1.0, "ratio"),
        "trace.attributed_share": (_ratio(attributed, run_cpu), "ratio"),
    }
    bases = {
        "sim.events_per_node_day": {"events": c["events"], "node_days": nd},
        "sim.pending_events": {
            "source": "serial queue depth at epoch ends" if t["pending"]
            else "one shard's share of the fleet (shard queues are not public)"},
        "sim.queue_ns_per_event": {"queue_depth": micro["queue_depth"]},
        "sim.shard_imbalance": {"busy_max_s": busy_max, "busy_mean_s": busy_mean,
                                "effective_shards": shards},
        "sim.barrier_wait_s": {"epoch_wall_s": epoch_wall, "busy_mean_s": busy_mean},
        "sim.checkpoint_bytes": {"bytes": t["checkpoint_bytes"],
                                 "checkpoints": t["checkpoints"]},
        "lora.copies_per_attempt": {"arrivals": c["arrivals"], "tx_attempts": c["tx_attempts"]},
        "lora.heard_ratio": {"lost_under_sensitivity": c["lost_under_sensitivity"],
                             "arrivals": c["arrivals"]},
        "lora.interference_loss_ratio": {"lost_interference": c["lost_interference"],
                                         "heard_arrivals": heard},
        "mac.prr": {"delivered": c["delivered"], "generated": c["generated"]},
        "mac.attempts_per_packet": {"tx_attempts": c["tx_attempts"],
                                    "generated": c["generated"]},
        "core.selects_per_node_day": {"selections": c["selections"], "node_days": nd},
        "common.codec_mb_per_s": {"bytes": ckpt_bytes, "seconds": sum(ckpt)},
        "trace.overhead": {"traced_node_days_per_s": traced_rate,
                           "untraced_node_days_per_s": untraced_rate},
        "trace.attributed_share": {"attributed_cpu_s": attributed, "run_cpu_s": run_cpu},
    }
    return m, bases


# --- host record ---------------------------------------------------------------


def steal_seconds():
    """Cumulative steal time of all CPUs from /proc/stat, in seconds."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the benchmark's and the simulator's sources, standing in
    for the git sha where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("perfbench", "src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    # Only this checkout's own repository: git would otherwise report the
    # sha of any repository the checkout happens to sit inside.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout; see source_sha)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout; see source_sha)"


def host_record(steal_delta_s, cleared):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                             timeout=10, check=False)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_sha": git_sha(),
        "source_sha": source_digest(),
        "loadavg_1m": os.getloadavg()[0],
        "steal_s": steal_delta_s,
        "env_cleared": cleared,
    }


# --- build and run ---------------------------------------------------------------


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources at src/: run from the root of a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr, env=env,
                   check=True)


def blam_perf(args, env):
    out = subprocess.run([BINARY] + args, capture_output=True, text=True, env=env,
                         timeout=RUN_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise RuntimeError("blam_perf %s failed: %s" % (" ".join(args), out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="shrunk workloads, for tests")
    a = p.parse_args(argv)

    env, cleared = clear_env(os.environ)
    common = ["--workload", a.workload, "--seed", str(a.seed)] + (["--small"] if a.small else [])
    spans_path = os.path.join(OUT_DIR, "spans", "%s-seed%d.jsonl" % (a.workload, a.seed))
    try:
        build(env)
        steal0 = steal_seconds()
        setup, started = [], time.monotonic()
        while len(setup) < SETUP_MIN or (len(setup) < SETUP_MAX and
                                         time.monotonic() - started < SETUP_BUDGET_S):
            setup.append(blam_perf(["--mode", "setup"] + common, env)["setup_s"])
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        raw = blam_perf(["--mode", "run", "--seconds", str(a.seconds), "--trace", str(a.trace),
                         "--spans", spans_path] + common, env)
        host = host_record(steal_seconds() - steal0, cleared)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        print("run.py: error: %s" % e, file=sys.stderr)
        return 1

    attempted, failed = check(raw)
    if a.trace:
        metrics, bases = per_layer(raw, read_spans(spans_path))
    else:
        metrics, bases = end_to_end(raw, setup), {}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=a.workload, seed=a.seed, trace=a.trace, host=host,
                  bases=bases, setup_s=setup, raw=raw)
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (a.workload, a.seed, a.trace)
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print("host: " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
