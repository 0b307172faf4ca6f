#!/usr/bin/env python3
"""Same-host benchmark for the GLAP simulator.

Builds perfbench/glap_perfbench from the repo's sources, runs one named
workload, checks every simulation result against its digest and prints one
JSON result object as the last line of stdout:

    python3 perfbench/run.py --workload paper-500 --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload paper-500 --seed 42 --seconds 25 --trace 1
    python3 perfbench/run.py compare before.jsonl after.jsonl

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
--out FILE appends the full record (fingerprint, raw samples, digests) as
one JSON line, for `compare`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The seed whose digests must equal the committed reference.
DEFAULT_SEED = 42

# Metric names and units come from BENCHMARK.json; this module fixes only
# how each workload runs. Each workload is a list of cells; every cell runs
# in its own process. `share` is the cell's part of --seconds; `setups` the
# number of warm set-up calls after each full run, so setup_s is a median
# of calls spread over the whole budget, several even when the budget
# allows a single run.
WORKLOADS = {
    "paper-500": [{"algorithm": "glap", "share": 1.0, "setups": 5}],
    "fleet-10k": [{"algorithm": "glap", "share": 1.0, "setups": 2}],
    "lossy-net-1k": [{"algorithm": "glap", "share": 1.0, "setups": 4}],
    "baselines-2k": [
        {"algorithm": "grmp", "share": 0.18, "setups": 3},
        {"algorithm": "ecocloud", "share": 0.10, "setups": 3},
        {"algorithm": "pabfd", "share": 0.72, "setups": 4},
    ],
}
BASELINES = ("grmp", "ecocloud", "pabfd")


def load_metric_units():
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json at the repo root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END, PER_LAYER = load_metric_units()

# Simulation outputs covered by the digest (printed by glap_perfbench).
DIGEST_FIELDS = (
    "total_migrations", "final_active_pms", "final_overloaded_pms",
    "slavo", "slalm", "slav", "total_energy_j", "migration_energy_j",
    "messages", "bytes", "net_sends", "net_delivered", "net_delayed",
    "net_dropped_loss", "net_dropped_congestion",
    "active_pms", "overloaded_pms", "migrations_round",
)
# Digest fields that are doubles: %.17g prints an integral double without
# a fraction, which JSON parses as an int, so these are cast back.
FLOAT_FIELDS = ("slavo", "slalm", "slav", "total_energy_j", "migration_energy_j")

# Per-layer metrics the `layers` subcommand measures (bench-side spans).
LAYER_SPANS = (
    "qlearn.update_ns", "qlearn.merge_average_ns", "qlearn.cosine_ns",
    "core.pair_copy_hot_ns", "core.pair_copy_cold_ns",
    "core.pair_merge_cold_ns", "core.pair_copy_cold_gbps",
    "sim.step_serial_ns_per_node", "sim.step_parked_ns_per_node",
    "net.round_trip_ns", "cloud.observe_demands_ns_per_vm",
    "cloud.end_round_ns_per_pm", "trace.demand_next_ns",
)

SUBPROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- correctness ------------------------------------------------------------

def digest(result):
    """SHA-256 over the digest fields of one run's result, canonical JSON.

    Floats serialize with repr(), which round-trips the %.17g values the
    driver prints, so equal doubles give equal digests.
    """
    missing = [f for f in DIGEST_FIELDS if f not in result]
    if missing:
        raise ValueError("result lacks digest fields: %s" % ", ".join(missing))
    fields = {f: float(result[f]) if f in FLOAT_FIELDS else result[f]
              for f in DIGEST_FIELDS}
    canon = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def count_failures(runs, expected):
    """Runs attempted and runs failed, for one cell.

    `runs` holds one entry per attempted run: its digest, or None when the
    run threw or its process died. A run fails when it has no digest or its
    digest differs from `expected`; with no reference, `expected` is the
    first digest in `runs`. Nothing is retried.
    """
    if expected is None:
        expected = next((d for d in runs if d is not None), None)
    failed = sum(1 for d in runs if d is None or d != expected)
    return len(runs), failed


def load_reference():
    try:
        with open(REFERENCE_PATH) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def reference_digest(reference, workload, algorithm, seed):
    return reference.get(workload, {}).get(algorithm, {}).get(str(seed))


# ---- build and host ---------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: %s" % " ".join(cmd))
            return None
    binary = os.path.join(out, "glap_perfbench")
    return binary if os.path.exists(binary) else None


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_fingerprint(binary):
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    ram_kib = 0
    for line in read_first("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            ram_kib = int(line.split()[1])
    fp = {
        "cpu_model": cpu,
        "hardware_threads": os.cpu_count(),
        "l3": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size",
                         "unknown"),
        "ram_gib": round(ram_kib / (1 << 20), 1),
    }
    proc = subprocess.run([binary, "fingerprint"], capture_output=True,
                          text=True, timeout=30)
    binary_fp = json.loads(proc.stdout)
    fp["compiler"] = binary_fp["compiler"]
    fp["build_type"] = binary_fp["build_type"]
    fp["GLAP_ENABLE_CHECKS"] = binary_fp["checks"]
    return fp


# ---- running the driver -------------------------------------------------------

def run_driver(binary, args):
    """Runs one driver process; returns (events, ok)."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        log("driver timed out: %s" % " ".join(args))
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return parse_events(stdout), False
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        log("driver exited %d: %s" % (proc.returncode, " ".join(args)))
    return parse_events(proc.stdout), proc.returncode == 0


def parse_events(stdout):
    events = []
    for line in stdout.splitlines():
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut off by a crash
    return events


def run_cell(binary, workload, cell_spec, seed, budget_s, traced):
    """One cell's driver process: a cold set-up, then full runs and warm
    set-ups while the budget lasts. A traced cell makes exactly one
    untraced and one traced run."""
    algorithm = cell_spec["algorithm"]
    args = ["sim", workload, algorithm, str(seed),
            "0" if traced else "%.3f" % budget_s, "1",
            str(cell_spec["setups"]), "1" if traced else "0"]
    events, ok = run_driver(binary, args)
    cell = {
        "algorithm": algorithm,
        "cold_setup_s": [e["seconds"] for e in events
                         if e["event"] == "setup" and e["cold"]],
        "warm_setup_s": [e["seconds"] for e in events
                         if e["event"] == "setup" and not e["cold"]],
        "setup_rss_mib": next((e["mib"] for e in events
                               if e["event"] == "setup_rss"), None),
        "peak_rss_mib": next((e["peak_rss_mib"] for e in events
                              if e["event"] == "end"), None),
        "runs": [],
    }
    for e in events:
        if e["event"] == "run":
            cell["runs"].append({
                "traced": e["traced"], "seconds": e["seconds"],
                "rounds": e["rounds"], "pm_count": e["pm_count"],
                "digest": digest(e["result"]),
                "profile": e.get("profile"), "counters": e.get("counters"),
                "mean_quiescent_pms": e.get("mean_quiescent_pms"),
            })
        elif e["event"] == "run_error":
            cell["runs"].append({"traced": e["traced"], "digest": None})
    if not ok:
        # A process that died mid-run loses the run it was in.
        cell["runs"].append({"traced": traced, "digest": None})
    return cell


def check_cells(cells, workload, seed, reference, require_reference):
    """Totals (attempted, failed) over all cells' runs. Runs are listed in
    the order they ran, so without a reference the first run sets the
    expected digest; with `require_reference`, a missing reference fails
    every run."""
    attempted = failed = 0
    for cell in cells:
        expected = reference_digest(reference, workload, cell["algorithm"], seed)
        if expected is None and require_reference:
            expected = "missing reference"
        a, f = count_failures([r["digest"] for r in cell["runs"]], expected)
        attempted += a
        failed += f
    return attempted, failed


def good_runs(cell, traced):
    return [r for r in cell["runs"]
            if r["traced"] == traced and r["digest"] is not None]


def end_to_end_metrics(cells):
    """rounds_per_s, setup_s and peak_rss_mib over a workload's cells.

    Per cell, stepping time is the median full run minus the median warm
    set-up; rounds_per_s sums rounds and stepping time over cells. setup_s
    sums the cells' median warm set-ups; peak_rss_mib is the largest
    process peak.
    """
    rounds = stepping = setup = 0.0
    peak = 0.0
    for cell in cells:
        runs = good_runs(cell, traced=False)
        if not runs or not cell["warm_setup_s"]:
            return None
        cell_setup = statistics.median(cell["warm_setup_s"])
        rounds += runs[0]["rounds"]
        stepping += statistics.median(r["seconds"] for r in runs) - cell_setup
        setup += cell_setup
        peak = max(peak, cell["peak_rss_mib"] or 0.0)
    return {
        "rounds_per_s": rounds / stepping,
        "setup_s": setup,
        "peak_rss_mib": peak,
    }


def slot_calls(profile, label):
    return profile.get(label, {}).get("calls", 0)


def per_layer_metrics(cells, layers, probes, failed):
    """The per-layer table of a traced run (see README.md)."""
    m = {name: 0.0 for name in PER_LAYER}
    stepping_ns = 0.0
    slot_total = {}
    untraced_s = traced_s = 0.0
    for cell in cells:
        traced = good_runs(cell, traced=True)
        plain = good_runs(cell, traced=False)
        if not traced or not plain:
            continue
        run = traced[0]
        setup_s = statistics.median(cell["warm_setup_s"])
        stepping_ns += (run["seconds"] - setup_s) * 1e9
        traced_s += run["seconds"] - setup_s
        untraced_s += plain[0]["seconds"] - setup_s
        profile, counters = run["profile"], run["counters"]
        for label, phase in profile.items():
            slot_total[label] = slot_total.get(label, 0) + phase["wall_ns"]
        m["core.learning.calls"] += slot_calls(profile, "execute.learning")
        m["core.consolidation.calls"] += slot_calls(profile, "execute.consolidation")
        m["overlay.cyclon.calls"] += slot_calls(profile, "execute.cyclon")
        m["core.learning.train_cycles"] += counters["learning.train_cycles"]
        m["core.learning.merges"] += counters["learning.merges"]
        m["core.consolidation.exchanges"] += counters["consolidation.exchanges"]
        m["core.consolidation.pi_in_rejects"] += counters["consolidation.pi_in_rejects"]
        m["core.consolidation.capacity_rejects"] += counters["consolidation.capacity_rejects"]
        m["overlay.cyclon.shuffles"] += counters["cyclon.shuffles"]
        m["cloud.migrations"] += counters["dc.migrations"]
        m["cloud.power_transitions"] += counters["dc.power_transitions"]
        m["net.sends"] += counters["netmodel.sends"]
        m["net.delivered"] += counters["netmodel.delivered"]
        m["net.delayed"] += counters["netmodel.delayed"]
        m["net.dropped_loss"] += counters["netmodel.dropped_loss"]
        m["net.dropped_congestion"] += counters["netmodel.dropped_congestion"]
        if cell["algorithm"] == "glap":
            m["sim.parked_fraction"] = run["mean_quiescent_pms"] / run["pm_count"]
            m["mem.qtable_mib"] = run["pm_count"] * layers["core.pair_bytes"] / (1 << 20)
            if counters["consolidation.exchanges"]:
                m["core.consolidation.migrations_per_exchange"] = (
                    counters["dc.migrations"] / counters["consolidation.exchanges"])
        m["mem.setup_rss_mib"] = max(m["mem.setup_rss_mib"], cell["setup_rss_mib"] or 0.0)

    def pct(ns):
        return 100.0 * ns / stepping_ns if stepping_ns else 0.0

    slots = {
        "core.learning.pct": "execute.learning",
        "core.consolidation.pct": "execute.consolidation",
        "overlay.cyclon.pct": "execute.cyclon",
        "baselines.grmp.pct": "execute.grmp",
        "baselines.ecocloud.pct": "execute.ecocloud",
        "baselines.pabfd.pct": "execute.pabfd",
        "harness.commit.pct": "commit",
    }
    for name, label in slots.items():
        m[name] = pct(slot_total.get(label, 0))
    m["harness.outside_slots.pct"] = pct(stepping_ns - sum(slot_total.values()))
    m["harness.stepping.ms"] = stepping_ns / 1e6
    if m["net.sends"]:
        m["net.delivery_ratio"] = m["net.delivered"] / m["net.sends"]
    if traced_s > 0:
        # traced ÷ untraced rounds_per_s over the same rounds
        m["trace_overhead_ratio"] = untraced_s / traced_s
    for name in LAYER_SPANS:
        m[name] = layers[name]
    for algorithm, probe in probes.items():
        m["baselines.%s.setup_s" % algorithm] = probe["setup_s"]
        m["baselines.%s.peak_rss_mib" % algorithm] = probe["peak_rss_mib"]
    m["failed_runs"] = failed
    return m


def result_line(correct, attempted, failed, values, units):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    })


def bench(args):
    if args.workload not in WORKLOADS:
        log("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
        return 2
    binary = build()
    if binary is None:
        return 1
    fingerprint = host_fingerprint(binary)
    reference = {} if args.write_reference else load_reference()

    started = time.monotonic()
    cells = [run_cell(binary, args.workload, c, args.seed,
                      args.seconds * c["share"], traced=bool(args.trace))
             for c in WORKLOADS[args.workload]]
    layers, probes = {}, {}
    process_ok = True  # the layer and probe processes; cells count failed runs
    if args.trace:
        events, ok = run_driver(binary, ["layers", args.workload, str(args.seed)])
        process_ok = process_ok and ok
        layers = {e["name"]: e["value"] for e in events if e["event"] == "layer"}
        for algorithm in BASELINES:
            events, ok = run_driver(binary, ["sim", "baselines-2k", algorithm,
                                             str(args.seed), "0", "0", "0", "0"])
            process_ok = process_ok and ok
            probes[algorithm] = {
                "setup_s": next((e["seconds"] for e in events
                                 if e["event"] == "setup"), 0.0),
                "peak_rss_mib": next((e["peak_rss_mib"] for e in events
                                      if e["event"] == "end"), 0.0),
            }
    attempted, failed = check_cells(
        cells, args.workload, args.seed, reference,
        require_reference=args.seed == DEFAULT_SEED and not args.write_reference)

    if args.trace:
        units = PER_LAYER
        complete = process_ok and all(name in layers for name in LAYER_SPANS)
        values = per_layer_metrics(cells, layers, probes, failed) if complete else None
    else:
        units = END_TO_END
        values = end_to_end_metrics(cells)
    if values is None:
        log("benchmark incomplete: no metrics without a good run of every "
            "cell and every layer span")
        return 1
    correct = failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.monotonic() - started,
        "fingerprint": fingerprint, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
        "cells": cells, "layers": layers, "probes": probes,
    }
    if args.write_reference:
        write_reference(record)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print_summary(record)
    print(result_line(correct, attempted, failed, values, units), flush=True)
    return 0


def write_reference(record):
    reference = load_reference()
    for cell in record["cells"]:
        digests = {r["digest"] for r in cell["runs"]}
        if len(digests) != 1 or None in digests:
            raise SystemExit("runs disagree; reference not written")
        reference.setdefault(record["workload"], {}).setdefault(
            cell["algorithm"], {})[str(record["seed"])] = digests.pop()
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


def print_summary(record):
    log("workload %s seed %d trace %d: %d runs, %d failed, %.1f s wall" % (
        record["workload"], record["seed"], record["trace"],
        record["attempted"], record["failed"], record["wall_s"]))
    log("  host: %s" % json.dumps(record["fingerprint"], sort_keys=True))
    for cell in record["cells"]:
        log("  %-9s setup_rss %.1f MiB  peak_rss %.1f MiB  runs %s" % (
            cell["algorithm"], cell["setup_rss_mib"] or 0.0,
            cell["peak_rss_mib"] or 0.0,
            " ".join("%.3f" % r["seconds"] for r in cell["runs"] if "seconds" in r)))
    if record["layers"]:
        log("  pools: hot 2 pairs, cold %.0f MiB of %d-byte pairs" % (
            record["layers"]["core.cold_pool_mib"], record["layers"]["core.pair_bytes"]))
    for name, m in record["metrics"].items():
        log("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))


# ---- compare ----------------------------------------------------------------

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint_warnings(base, head):
    fps = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + head}
    if len(fps) > 1:
        return ["WARNING: the result sets come from different host "
                "fingerprints; ratios across hosts do not count:"] + sorted(fps)
    return []


def compare(base_path, head_path):
    base, head = load_records(base_path), load_records(head_path)
    for line in fingerprint_warnings(base, head):
        print(line)
    keys = sorted({(r["workload"], r["trace"]) for r in base + head})
    print("%-13s %-36s %12s %12s %8s  %s" % (
        "workload", "metric", "base median", "head median", "ratio", "base IQR/median"))
    for workload, trace in keys:
        b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
        h = [r for r in head if r["workload"] == workload and r["trace"] == trace]
        if not b or not h:
            continue
        for name, m in b[0]["metrics"].items():
            bv = [r["metrics"][name]["value"] for r in b]
            hv = [r["metrics"][name]["value"] for r in h if name in r["metrics"]]
            if not hv:
                continue
            bm, hm = statistics.median(bv), statistics.median(hv)
            spread = ""
            if len(bv) >= 2 and bm:
                q = statistics.quantiles(bv, n=4)
                spread = "%.3f" % ((q[2] - q[0]) / bm)
            ratio = "%.3f" % (hm / bm) if bm else "-"
            print("%-13s %-36s %12.6g %12.6g %8s  %s (%s)" % (
                workload, name, bm, hm, ratio, spread, m["unit"]))
        failed = sum(r["failed"] for r in h)
        if failed:
            print("%-13s head has %d failed runs" % (workload, failed))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare BASE.jsonl HEAD.jsonl")
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSONL file")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's digests in reference.json")
    return bench(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
