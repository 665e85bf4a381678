#!/usr/bin/env python3
"""Host-cost benchmark of the accred simulator and reduction service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root. Builds perfbench_driver (and the accred library
it links) into .bench_build/, runs one workload for S seconds, checks every
item's outputs, and prints the metrics: human-readable lines first, then one
JSON object as the last line of stdout. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. A run whose outputs
fail a check prints "correct": false and exits 1.

--record re-runs each distinct item of every workload once and rewrites
perfbench/digests.json, the modeled results every run is checked against.
Only a change whose purpose is to change the model should need it.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import analysis

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "perfbench"
DRIVER = CMAKE_DIR / "perfbench_driver"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)


def driver_args(config, workload):
    args = []
    for key, value in config["workloads"][workload]["args"].items():
        args += [f"--{key}", str(value)]
    return args + ["--setup-reps", str(config["setup_reps"])]


def run_driver(config, args):
    subprocess.run([str(DRIVER)] + args, stdout=sys.stderr, check=True,
                   timeout=config["driver_timeout_s"])


def record(config):
    """Rewrite digests.json from one run of each distinct item."""
    families = {}
    for workload, spec in config["workloads"].items():
        families.setdefault(spec["family"], workload)
    table = {"comment": "FNV-1a digests of each item's modeled results "
                        "(analysis.item_digest), keyed by what the program "
                        "was asked to do. Written by run.py --record."}
    for family, workload in sorted(families.items()):
        out = BUILD / "runs" / f"record-{family}.json"
        run_driver(config, ["--record", family, "--out", str(out)] +
                   driver_args(config, workload))
        rec = load_json(out)
        digests = {}
        for it in rec["items"]:
            if not it["ok"]:
                sys.exit(f"record {family}: {it['key']} failed: {it['why']}")
            digests[it["key"]] = analysis.item_digest(it)
        table[family] = dict(sorted(digests.items()))
        log(f"recorded {len(digests)} {family} digests")
    with open(HERE / "digests.json", "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    opts = ap.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json")
    config = load_json(HERE / "workloads.json")
    if not opts.record and opts.workload not in config["workloads"]:
        sys.exit(f"unknown --workload {opts.workload!r}; "
                 f"known: {', '.join(config['workloads'])}")
    if opts.seed < 0 or opts.seconds < 1:
        sys.exit("--seed must be >= 0 and --seconds >= 1")
    BUILD.mkdir(exist_ok=True)
    (BUILD / "runs").mkdir(exist_ok=True)
    build()
    if opts.record:
        record(config)
        return 0

    out = BUILD / "runs" / f"{opts.workload}-{opts.seed}-{opts.trace}.json"
    run_driver(config, ["--workload", opts.workload, "--seed", str(opts.seed),
                        "--seconds", str(opts.seconds),
                        "--trace", str(opts.trace), "--out", str(out)] +
               driver_args(config, opts.workload))
    rec = load_json(out)
    items = rec["items"]
    digests = load_json(HERE / "digests.json")
    family = config["workloads"][opts.workload]["family"]
    mismatched = analysis.digest_mismatches(items, digests[family])
    failed = {i for i, it in enumerate(items) if not it["ok"]}
    failed |= {i for i, _ in mismatched}

    if opts.trace:
        values, notes = analysis.per_layer(rec)
        wanted, units = bench["per_layer"], analysis.PER_LAYER_UNITS
    else:
        values, notes = analysis.end_to_end(rec)
        wanted, units = bench["end_to_end"], analysis.END_TO_END_UNITS
    metrics = {}
    for m in wanted:
        if units.get(m["name"]) != m["unit"]:
            sys.exit(f"BENCHMARK.json metric {m['name']} ({m['unit']}) is "
                     f"not one analysis.py computes")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    for it in (items[i] for i in sorted(failed)[:5]):
        log(f"failed: {it['key']}: {it['why'] or 'modeled-result digest'}")
    for _, msg in mismatched[:5]:
        log(msg)
    print(f"workload {opts.workload} seed {opts.seed} "
          f"seconds {opts.seconds} trace {opts.trace}")
    for line in notes:
        print(line)
    print(f"error_rate {len(failed) / len(items):.6g} "
          f"({len(failed)} failed, rejected, unverified or digest-mismatched "
          f"of {len(items)} attempted)")
    print(f"run digest {analysis.run_digest(items)} over {len(items)} items; "
          f"{len(items) - len(mismatched)} match digests.json")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = not failed
    print(json.dumps({"correct": correct, "attempted": len(items),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"command failed ({e.returncode}): {' '.join(map(str, e.cmd))}")
        sys.exit(2)
    except subprocess.TimeoutExpired as e:
        log(f"timed out after {e.timeout} s: {' '.join(map(str, e.cmd))}")
        sys.exit(2)
