#!/usr/bin/env python3
"""The repository's benchmark: paper-figure commands timed end to end.

    python3 perfbench/run.py --workload fig4_location --seed 0 --seconds 20 --trace 0

Run from the repository root. Builds the figure commands and the benchmark
tools into .bench_build/ (Release), then:

  --trace 0  runs the workload's user-facing command as a child process
             over and over for --seconds (closed loop, one process at a
             time, --jobs 4), checks every output cell against the golden
             bytes, and reports medians of wall time, CPU time, peak RSS and
             set-up time.
  --trace 1  runs the in-process traced run (trace_layers), which times
             each layer from outside the library and reads the work counts
             from the obs registry, and reports the per-layer metrics.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the environment stamp. See perfbench/README.md.

`--write-goldens` regenerates perfbench/golden/ from the current build;
do that only for a documented re-baseline.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
GOLDEN = os.path.join(HERE, "golden")

JOBS = 4
# --seed n selects program seed DEFAULT_SEED + (n mod SEED_POOL); every
# seed in the pool has golden outputs. n = 0 is the paper's seed 20050628;
# n = 31 is held out for re-checking a claimed gain.
DEFAULT_SEED = 20050628
SEED_POOL = 32
HELD_OUT = 31

# Set-up samples taken after each timed repetition of the workload.
SETUP_PER_REP = 3
MIN_REPS = 5

WORKLOADS = {
    "fig4_location": {
        "target": "bench_fig4",
        "runs": 5,
        "args": lambda seed: ["--csv", "--jobs", str(JOBS), f"seed={seed}"],
        "kind": "table",
    },
    "fig2_binary": {
        "target": "bench_fig2",
        "runs": 120,
        "args": lambda seed: ["--csv", "--jobs", str(JOBS), f"seed={seed}", "runs=120"],
        "kind": "table",
    },
    "multihop_shadow": {
        "target": "tibfit_cli",
        "runs": 100,
        "args": lambda seed: ["mode=location", "multihop=true", "radio_range=25",
                              "pct_faulty=0.5", "check=assert", "runs=100",
                              f"seed={seed}", "--jobs", str(JOBS)],
        "kind": "cli",
    },
}

SETUP_ARGS = ["events=1", "runs=1"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds every binary; returns the target map."""
    targets_file = os.path.join(BUILD, "perfbench_targets.json")
    if not os.path.exists(targets_file):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            sys.exit("perfbench: configure failed")
    b = subprocess.run(["cmake", "--build", BUILD, "-j", str(JOBS), "--target", "perfbench_all"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        sys.exit("perfbench: build failed")
    with open(targets_file) as f:
        targets = json.load(f)
    if targets["build_type"] != "Release":
        sys.exit(f"perfbench: refusing to report from a {targets['build_type']!r} build")
    return targets


def cells_of(kind, text):
    """Splits a command's stdout into (shape, cells). Shape is what must
    match exactly for the cells to be comparable at all (title, header, the
    x column); cells are the scored outputs."""
    if kind == "cli":
        m = re.fullmatch(r"accuracy \(mean of (\d+) runs\): (\S+)\n", text)
        return (m.group(1), [m.group(2)]) if m else (None, [])
    shape, cells = [], []
    header_seen = False
    for line in text.splitlines():
        if line.startswith("#") or not header_seen:
            header_seen = not line.startswith("#")
            shape.append(line)
            continue
        row = line.split(",")
        shape.append(row[0])
        cells.extend(row[1:])
    return tuple(shape), cells


def score(kind, golden_text, exit_code, text):
    """(attempted, failed) for one repetition against its golden output."""
    want_shape, want = cells_of(kind, golden_text)
    if exit_code != 0:
        return len(want), len(want)
    shape, got = cells_of(kind, text)
    if shape != want_shape or len(got) != len(want):
        return len(want), len(want)
    return len(want), sum(a != b for a, b in zip(got, want))


def spawn(targets, argv):
    """Runs argv under bench_spawn; returns (rusage record, stdout text)."""
    result = os.path.join(BUILD, "spawn_result.json")
    p = subprocess.run([targets["bench_spawn"], result] + argv,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if p.returncode != 0:
        sys.exit(f"perfbench: launcher failed: {p.stderr.decode(errors='replace')}")
    with open(result) as f:
        rec = json.load(f)
    os.remove(result)
    return rec, p.stdout.decode(errors="replace")


def load_golden(workload):
    with open(os.path.join(GOLDEN, workload + ".json")) as f:
        return json.load(f)


def source_digest():
    """sha256 over the sources the benchmark builds; it identifies the tree
    where no git revision is available (a checkout without git metadata)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for fp in sorted(files):
            if "__pycache__" in fp:
                continue
            h.update(os.path.relpath(fp, ROOT).encode())
            with open(fp, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of the checkout, or None when ROOT is not a git work tree's top."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    lines = p.stdout.decode().split()
    if p.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def run_end_to_end(targets, name, seed, seconds):
    w = WORKLOADS[name]
    golden = load_golden(name)["outputs"][str(seed)]
    exe = targets[w["target"]]
    argv = [exe] + w["args"](seed)
    setup_argv = [a for a in argv if not a.startswith("runs=")] + SETUP_ARGS

    spawn(targets, argv)  # warm-up: page cache, CPU frequency
    walls, cpus, rss, setups = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while len(walls) < MIN_REPS or time.monotonic() - start < seconds:
        rec, out = spawn(targets, argv)
        a, f = score(w["kind"], golden, rec["exit"], out)
        attempted += a
        failed += f
        walls.append(rec["wall_s"])
        cpus.append(rec["user_s"] + rec["sys_s"])
        rss.append(rec["maxrss_kb"] / 1024.0)
        for _ in range(SETUP_PER_REP):
            srec, _ = spawn(targets, setup_argv)
            attempted += 1
            failed += srec["exit"] != 0
            setups.append(srec["wall_s"])

    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "setup_s": setups}
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    detail = {k: {"n": len(v), "min": min(v), "quartiles": statistics.quantiles(v, n=4)}
              for k, v in samples.items()}
    return attempted, failed, metrics, detail


def run_traced(targets, name, seed, seconds):
    w = WORKLOADS[name]
    golden = load_golden(name)["outputs"][str(seed)]
    _, want = cells_of(w["kind"], golden)
    p = subprocess.run([targets["trace_layers"], "--workload", name, "--seed", str(seed),
                        "--runs", str(w["runs"]), "--jobs", str(JOBS),
                        "--seconds", str(seconds)],
                       stdout=subprocess.PIPE, stderr=sys.stderr)
    if p.returncode != 0:
        return len(want), len(want), {}, {"errors": ["trace_layers exited %d" % p.returncode]}
    res = json.loads(p.stdout.decode())
    b = res["build"]
    if not (b["ndebug"] and b["optimized"] and b["type"] == "Release"):
        sys.exit(f"perfbench: refusing to report from a non-Release traced run: {b}")
    got = res["cells"]
    failed = len(want) if len(got) != len(want) else sum(x != y for x, y in zip(got, want))
    for err in res["errors"]:
        log("perfbench: self-check failed: " + err)
    return (len(want) + len(res["errors"]), failed + len(res["errors"]), res["metrics"],
            {"errors": res["errors"], "compiler": b["compiler"]})


def write_goldens(targets):
    os.makedirs(GOLDEN, exist_ok=True)
    for name, w in WORKLOADS.items():
        outputs = {}
        for n in range(SEED_POOL):
            seed = DEFAULT_SEED + n
            p = subprocess.run([targets[w["target"]]] + w["args"](seed),
                               stdout=subprocess.PIPE, stderr=sys.stderr)
            if p.returncode != 0:
                sys.exit(f"perfbench: {name} seed={seed} exited {p.returncode}")
            outputs[str(seed)] = p.stdout.decode()
        doc = {"workload": name, "command": [w["target"]] + w["args"]("<seed>"),
               "default_seed": DEFAULT_SEED, "held_out_seed": DEFAULT_SEED + HELD_OUT,
               "outputs": outputs}
        with open(os.path.join(GOLDEN, name + ".json"), "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"perfbench: wrote {name} goldens for {SEED_POOL} seeds")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    targets = build()
    if args.write_goldens:
        write_goldens(targets)
        return
    if not args.workload:
        ap.error("--workload is required")

    seed = DEFAULT_SEED + args.seed % SEED_POOL
    if args.trace:
        attempted, failed, values, detail = run_traced(targets, args.workload, seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        attempted, failed, values, detail = run_end_to_end(targets, args.workload, seed,
                                                           args.seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    env = {"nproc": os.cpu_count(), "jobs": JOBS, "compiler": targets["compiler"],
           "build_type": targets["build_type"], "git_revision": git_revision(),
           "source_sha256": source_digest(), "workload": args.workload,
           "seed": args.seed, "program_seed": seed, "trace": args.trace,
           "missing_metrics": missing, "detail": detail}
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
