#!/usr/bin/env python3
"""The repo benchmark: end-to-end host metrics of `repro`, and a traced run
that splits host time by layer.

    python3 perfbench/run.py --workload {paper,chaos,repro-all} \
        --seed N --seconds S --trace {0,1}

Run it from the root of the repository. It builds `repro` and the tracer
(`perfbench/tracer`) in release mode under `$CARGO_TARGET_DIR` (default
`.bench_build`), writes every output below that directory, and prints one
JSON result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` runs the workload's `repro` command again and again, one child at
a time, for `--seconds` seconds, and reports the end-to-end metrics as
medians over those passes. `--trace 1` makes one `repro --perf` pass, whose
thread count it samples from outside, then repeats traced passes of the
tracer for `--seconds` seconds and reports the per-layer metrics.

Every pass is checked; `attempted` and `failed` count those checks (so
`fail_frac` = failed / attempted). `--seed` drives only the chaos campaign:
the paper skeletons have fixed, calibrated inputs. See perfbench/README.md
for the metrics and why each workload was chosen.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

# `--jobs` is fixed per workload and never above the 2 cores these figures
# were tuned on; `repro-all` is the one workload whose sweep pool runs two
# workers.
WORKLOADS = {
    "paper": {"jobs": 1, "experiments": ["escat", "render", "htf", "ppfs-ablation"]},
    "chaos": {"jobs": 1, "experiments": ["chaos"]},
    "repro-all": {"jobs": 2, "experiments": ["all"]},
}

CHAOS_CELLS = 50
# The campaign seed the committed `results/chaos.*` were made with.
GOLDEN_CHAOS_SEED = 42

# The artifacts each experiment writes, all committed under `results/`.
ARTIFACTS = {
    "escat": ["escat.txt", "escat-window-10s.csv", "escat-staging-regions.csv"]
    + ["fig02-escat-read-timeline.csv", "fig03-escat-read-detail.csv",
       "fig04-escat-write-timeline.csv", "fig05-escat-file-access.csv"],
    "render": ["render.txt", "render-window-5s.csv", "fig06-render-read-timeline.csv",
               "fig07-render-write-timeline.csv", "fig08-render-file-access.csv"],
    "htf": ["htf.txt", "htf-psetup-window-5s.csv", "htf-pargos-window-10s.csv",
            "htf-pscf-window-10s.csv", "fig09-htf-init-reads.csv", "fig10-htf-init-writes.csv",
            "fig11-htf-integral-reads.csv", "fig12-htf-integral-writes.csv",
            "fig13-htf-scf-reads.csv", "fig14-htf-scf-writes.csv",
            "fig15-htf-init-file-access.csv", "fig16-htf-integral-file-access.csv",
            "fig17-htf-scf-file-access.csv"],
    "ppfs-ablation": ["ppfs_ablation.txt"],
    "crossover": ["htf_crossover.txt", "htf_crossover.csv"],
    "ablations": ["ablations.txt"],
    "scaling": ["scaling.txt", "escat_scaling.csv", "escat_growth.csv"],
    "faults": ["faults.txt", "faults.csv"],
    "recover": ["recover.txt", "recover.csv"],
    "cio": ["cio.txt", "cio.csv"],
    "blog": ["blog.txt", "blog.csv"],
    "chaos": ["chaos.txt", "chaos.csv"],
}
ALL = list(ARTIFACTS)
# Reports holding "k/k within tolerance" and "k/k shape claims hold" lines.
TABLE_REPORTS = ["escat.txt", "render.txt", "htf.txt"]
PAPER_CHECKS = 63

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("apps.gen_s", "s"), ("apps.script_ops", "count"),
    ("engine.events", "count"), ("engine.self_s", "s"), ("engine.ns_per_event", "ns"),
    ("engine.heap_peak", "count"), ("engine.channel_peak", "count"),
    ("backend.calls", "count"), ("backend.s", "s"), ("backend.ns_per_call", "ns"),
    ("backend.pfs.s", "s"), ("backend.ppfs.s", "s"), ("backend.cio.s", "s"),
    ("backend.blog.s", "s"),
    ("pump.retries", "count"), ("pump.failovers", "count"), ("pump.replayed", "count"),
    ("ionode.reqs", "count"), ("ionode.bytes", "bytes"), ("ionode.imbalance", "ratio"),
    ("raid.rebuild_chunks", "count"), ("meta.failovers", "count"),
    ("meta.unavailable", "count"),
    ("ppfs.hit_ratio", "ratio"), ("ppfs.prefetched_blocks", "count"),
    ("ppfs.flush_extents", "count"), ("cio.members_per_collective", "ratio"),
    ("blog.stall_ns", "ns"), ("blog.occupancy_peak", "bytes"),
    ("trace.events", "count"), ("trace.bytes", "bytes"), ("trace.sddf_bytes", "bytes"),
    ("trace.finish_s", "s"),
    ("reduce.s", "s"), ("check.s", "s"), ("output.s", "s"), ("output.bytes", "bytes"),
    ("output.mb_per_s", "MB/s"),
    ("runner.tasks", "count"), ("runner.busy_s", "s"), ("runner.utilization", "ratio"),
    ("runner.threads_peak", "count"),
] + [("suite.%s.s" % e, "s") for e in ALL] + [
    ("replica.sims", "count"), ("replica.mismatches", "count"),
    ("trace_overhead_frac", "ratio"), ("traced_wall_s", "s"), ("unattributed_s", "s"),
]

# Per-layer counts that do not depend on the host: they must repeat exactly
# from pass to pass.
HOST_INDEPENDENT = [
    "apps.script_ops", "engine.events", "engine.heap_peak", "engine.channel_peak",
    "backend.calls", "pump.retries", "pump.failovers", "pump.replayed", "ionode.reqs",
    "ionode.bytes", "raid.rebuild_chunks", "meta.failovers", "meta.unavailable",
    "ppfs.prefetched_blocks", "ppfs.flush_extents", "blog.stall_ns", "blog.occupancy_peak",
    "trace.events", "trace.bytes", "trace.sddf_bytes", "output.bytes", "replica.sims",
]

# Self-time layers of a traced pass; with `unattributed_s` they sum to
# `traced_wall_s`. repro-all is timed by suite instead.
SELF_TIMES = ["apps.gen_s", "engine.self_s", "backend.s", "trace.finish_s", "reduce.s",
              "check.s", "output.s"]

# `repro --perf` counter lines -> per-layer metric.
PERF_LINES = {
    "simulated runs": "runner.tasks",
    "engine events": "engine.events",
    "event heap peak": "engine.heap_peak",
    "channel buffer peak": "engine.channel_peak",
    "trace events": "trace.events",
    "trace bytes": "trace.bytes",
    "burst-log peak": "blog.occupancy_peak",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Reported tail percentiles, highest first.
PERCENTILES = (0.99, 0.95, 0.9, 0.75, 0.5)

SETUP_REPEATS = 31
MIN_PASSES = 3
# A child still running after this long is killed and counted as failed, so
# the benchmark itself ends within its time limit.
CHILD_TIMEOUT_S = 120


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def reported_percentile(n):
    """The highest of PERCENTILES with at least ten samples beyond it, or
    None when there are fewer than twenty samples."""
    for p in PERCENTILES:
        if n * (1 - p) >= 10 - 1e-9:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Tally:
    """Correctness checks attempted and failed; fail_frac = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def repro_command(repro, workload, seed, out_dir, perf=False):
    """The `repro` command line of one pass; the seed reaches only chaos."""
    spec = WORKLOADS[workload]
    cmd = [repro, "--jobs", str(spec["jobs"]), "--out", out_dir]
    if perf:
        cmd.append("--perf")
    if workload == "chaos":
        cmd += ["--chaos-seed", str(seed), "--cells", str(CHAOS_CELLS)]
    return cmd + spec["experiments"]


def tracer_command(tracer, mode, workload, seed, out_dir=None):
    cmd = [tracer, mode, workload, "--seed", str(seed)]
    if out_dir is not None:
        cmd += ["--out", out_dir]
    return cmd


def expected_artifacts(workload):
    exps = WORKLOADS[workload]["experiments"]
    exps = ALL if exps == ["all"] else exps
    return [a for e in exps for a in ARTIFACTS[e]]


def child_env():
    env = dict(os.environ)
    # Worker and shard counts come from the command line only.
    for var in ("SIO_JOBS", "SIO_SHARDS", "SIO_PDES_THREADS"):
        env.pop(var, None)
    return env


def threads_of(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Pass:
    def __init__(self, wall, code, threads_peak, stdout):
        self.wall = wall
        self.code = code
        self.threads_peak = threads_peak
        self.stdout = stdout


def spawn(cmd, log_prefix, sample_threads=False):
    """Run one child to completion; when asked, sample its thread count from
    /proc every 2 ms and keep the peak."""
    with open(log_prefix + ".out", "wb") as so, open(log_prefix + ".err", "wb") as se:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=so, stderr=se, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        killer.start()
        peak = 0
        try:
            if sample_threads:
                while child.poll() is None:
                    peak = max(peak, threads_of(child.pid))
                    time.sleep(0.002)
            else:
                child.wait()
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            killer.join()
    with open(log_prefix + ".out", "rb") as f:
        stdout = f.read().decode("utf-8", "replace")
    return Pass(wall, child.returncode, peak, stdout)


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def check_outputs(tally, workload, seed, out_dir, reference_dir, code):
    """Check one `repro` pass: clean exit, every artifact present and
    byte-equal to its reference, complete check lines, and a clean chaos
    campaign. Artifacts of the golden chaos seed and of every paper
    experiment are compared with the committed `results/`; chaos at any
    other seed is compared with the run's first pass (`reference_dir`)."""
    tally.check(code == 0, "exit code %d" % code)
    for name in expected_artifacts(workload):
        path = os.path.join(out_dir, name)
        if not tally.check(os.path.isfile(path), "missing artifact " + name):
            continue
        if name.startswith("chaos.") and seed != GOLDEN_CHAOS_SEED:
            ref = os.path.join(reference_dir, name) if reference_dir else None
        else:
            ref = os.path.join("results", name)
        if ref is not None:
            tally.check(same_bytes(path, ref), "artifact %s differs from %s" % (name, ref))
    for name in TABLE_REPORTS:
        path = os.path.join(out_dir, name)
        if name not in expected_artifacts(workload) or not os.path.isfile(path):
            continue
        text = read_text(path)
        for kind in ("within tolerance", "shape claims hold"):
            lines = re.findall(r"-- (\d+)/(\d+) " + kind, text)
            tally.check(bool(lines) and all(a == b for a, b in lines),
                        "%s: incomplete '%s'" % (name, kind))
    chaos_txt = os.path.join(out_dir, "chaos.txt")
    if "chaos.txt" in expected_artifacts(workload) and os.path.isfile(chaos_txt):
        text = read_text(chaos_txt)
        tally.check(re.search(r"invariant violations: 0 of \d+ cells", text) is not None,
                    "chaos invariant violations")


def paper_err_max(out_dir):
    """Largest |measured/paper - 1| over the paper-vs-measured checks, and
    how many checks were found."""
    ratios = []
    for name in TABLE_REPORTS:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            text = read_text(path)
            ratios += re.findall(r"paper\s+\S+\s+measured\s+\S+\s+ratio\s+(\S+)", text)
    errs = [abs(float(r) - 1.0) for r in ratios]
    return (max(errs) if errs else None), len(errs)


def parse_perf(stdout):
    counts = {}
    for label, metric in PERF_LINES.items():
        m = re.search(r"^%s\s+(\d+)\s*$" % re.escape(label), stdout, re.M)
        if m:
            counts[metric] = float(m.group(1))
    m = re.search(r"^burst-log stall\s+([0-9.]+) ms\s*$", stdout, re.M)
    if m:
        counts["blog.stall_ns"] = float(m.group(1)) * 1e6
    return counts


def source_digest():
    """Git revision when the checkout is a repository, else a digest of the
    sources the binaries are built from."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "third_party", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if "/target/" in p or "__pycache__" in p:
                continue
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def host_context():
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "rev": source_digest(), "rustc": rustc,
            "loadavg": list(os.getloadavg())}


def build(target_dir):
    """Build `repro` and the tracer; False if either fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "sio-analysis", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "tracer", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def measure_setup(tracer, workload, seed, work):
    """setup_s: process start plus input generation, timed from outside over
    SETUP_REPEATS children of the tracer's `setup` command; the median."""
    walls = []
    for i in range(SETUP_REPEATS):
        p = spawn(tracer_command(tracer, "setup", workload, seed), os.path.join(work, "setup"))
        if p.code != 0:
            return None
        walls.append(p.wall)
    return statistics.median(walls)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def summary_line(name, unit, values):
    line = "%-22s %14.6g %-6s median of n=%d" % (name, statistics.median(values), unit,
                                                  len(values))
    p = reported_percentile(len(values))
    if p is not None and p > 0.5:
        line += ", p%g %.6g" % (p * 100, percentile(values, p))
    return line


def run_untraced(args, repro, tracer, work, tally):
    metrics = {}
    setup = measure_setup(tracer, args.workload, args.seed, work)
    tally.check(setup is not None, "setup command failed")

    # One `--perf` pass: warms the page cache and yields the engine's event
    # count, which does not depend on the host.
    first = os.path.join(work, "first")
    p = spawn(repro_command(repro, args.workload, args.seed, fresh_dir(first), perf=True),
              os.path.join(work, "perf"))
    check_outputs(tally, args.workload, args.seed, first, None, p.code)
    events = parse_perf(p.stdout).get("engine.events")
    tally.check(bool(events), "no engine event count from --perf")

    walls, cpus, rss = [], [], []
    out_dir = os.path.join(work, "pass")
    usage_file = os.path.join(work, "usage.json")
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        # Through the tracer's `exec` launcher: a child forked from this
        # process would report this process's peak RSS as its own.
        cmd = [tracer, "exec", usage_file] + repro_command(repro, args.workload, args.seed,
                                                           fresh_dir(out_dir))
        p = spawn(cmd, os.path.join(work, "pass"))
        check_outputs(tally, args.workload, args.seed, out_dir, first, p.code)
        if p.code != 0:
            break
        with open(usage_file) as f:
            usage = json.load(f)
        walls.append(usage["wall_s"])
        cpus.append(usage["cpu_s"])
        rss.append(usage["maxrss_kb"] / 1024.0)
    if not walls:
        return {}

    wall = statistics.median(walls)
    metrics["wall_s"] = wall
    metrics["cpu_s"] = statistics.median(cpus)
    metrics["setup_s"] = setup if setup is not None else float("nan")
    metrics["events_per_s"] = (events or 0.0) / wall
    metrics["peak_rss_mb"] = statistics.median(rss)

    print("workload %s, seed %d, --jobs %d, %d timed passes in %.1f s" % (
        args.workload, args.seed, WORKLOADS[args.workload]["jobs"], len(walls),
        time.perf_counter() - start))
    for name, unit, values in (("wall_s", "s", walls), ("cpu_s", "s", cpus),
                               ("peak_rss_mb", "MB", rss)):
        print(summary_line(name, unit, values))
    print("%-22s %14.6g %-6s median of n=%d" % ("setup_s", metrics["setup_s"], "s",
                                                SETUP_REPEATS))
    print("%-22s %14.6g %-6s %d engine events / median wall" % (
        "events_per_s", metrics["events_per_s"], "1/s", events or 0))
    if args.workload != "chaos":
        err, n = paper_err_max(out_dir)
        tally.check(n == PAPER_CHECKS, "found %d of %d paper checks" % (n, PAPER_CHECKS))
        print("%-22s %14.6g %-6s max |measured/paper - 1| over %d checks" % (
            "paper_err_max", err if err is not None else float("nan"), "ratio", n))
    return metrics


def run_traced(args, repro, tracer, work, tally):
    spec = WORKLOADS[args.workload]
    first = os.path.join(work, "first")
    p = spawn(repro_command(repro, args.workload, args.seed, fresh_dir(first), perf=True),
              os.path.join(work, "perf"), sample_threads=True)
    check_outputs(tally, args.workload, args.seed, first, None, p.code)
    perf = parse_perf(p.stdout)
    tally.check("engine.events" in perf, "no counters from --perf")

    passes = []
    out_dir = os.path.join(work, "traced")
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        t = spawn(tracer_command(tracer, "run", args.workload, args.seed, fresh_dir(out_dir)),
                  os.path.join(work, "tracer"))
        if not tally.check(t.code == 0, "tracer exit code %d" % t.code):
            break
        m = json.loads(t.stdout.strip().splitlines()[-1])
        tally.check(m["checks.failed"] == 0,
                    "%d checks failed in the traced pass" % m["checks.failed"])
        tally.check(m["replica.mismatches"] == 0,
                    "%d replicas differ from run_workload_crashable" % m["replica.mismatches"])
        if args.workload == "paper":
            for name in sorted(os.listdir(out_dir)):
                if name.endswith(".csv"):
                    tally.check(same_bytes(os.path.join(out_dir, name),
                                           os.path.join("results", name)),
                                "traced %s differs from results/" % name)
        passes.append(m)
    if not passes:
        return {}

    metrics = {}
    for name, _ in PER_LAYER:
        values = [m[name] for m in passes if name in m]
        if values:
            metrics[name] = statistics.median(values)
    # Determinism canary: host-independent counts repeat exactly.
    for name in HOST_INDEPENDENT:
        tally.check(len({m.get(name) for m in passes}) == 1, "count %s drifted" % name)
    if passes[0]["replica.sims"] > 0:
        for name in ("engine.events", "trace.events", "trace.bytes"):
            tally.check(passes[0][name] == perf.get(name),
                        "replica %s differs from repro --perf" % name)
    else:
        # repro-all is timed by suite, so its counts come from --perf.
        metrics.update(perf)
    metrics["runner.tasks"] = perf.get("runner.tasks", 0.0)
    metrics["runner.threads_peak"] = float(p.threads_peak)
    busy = sum(metrics["suite.%s.s" % e] for e in ALL)
    metrics["runner.busy_s"] = busy
    metrics["runner.utilization"] = busy / (spec["jobs"] * p.wall)

    print("workload %s, seed %d, %d traced passes; repro --perf wall %.3f s, %d threads peak"
          % (args.workload, args.seed, len(passes), p.wall, p.threads_peak))
    # The decomposition of the median pass: its parts sum to its wall.
    mid = sorted(passes, key=lambda m: m["traced_wall_s"])[len(passes) // 2]
    parts = SELF_TIMES if mid["replica.sims"] > 0 else ["suite.%s.s" % e for e in ALL]
    print("median traced pass, host time by layer:")
    for name in parts + ["unattributed_s"]:
        print("  %-26s %10.4f s" % (name, mid[name]))
    print("  %-26s %10.4f s (sum of the above)" % ("traced_wall_s", mid["traced_wall_s"]))
    return metrics


def result_line(tally, metrics, declared):
    out = {}
    for name, unit in declared:
        value = metrics.get(name)
        if value is None:
            tally.check(False, "metric %s not measured" % name)
            value = float("nan")
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": out})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "analysis"))):
        log("run from the repository root: Cargo.toml and crates/ not found")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target):
        return 1
    repro = os.path.join(target, "release", "repro")
    tracer = os.path.join(target, "release", "perfbench-tracer")
    work = fresh_dir(os.path.join(target, "perfbench", args.workload))

    print("host " + json.dumps(host_context()))
    tally = Tally()
    if args.trace:
        metrics = run_traced(args, repro, tracer, work, tally)
        line = result_line(tally, metrics, PER_LAYER)
    else:
        metrics = run_untraced(args, repro, tracer, work, tally)
        line = result_line(tally, metrics, END_TO_END)
    print("fail_frac %.6g (%d of %d checks failed)" % (tally.fail_frac(), tally.failed,
                                                       tally.attempted))
    for what in tally.failures[:20]:
        print("  FAILED: " + what)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
