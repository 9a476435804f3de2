#!/usr/bin/env python3
"""Repository benchmark: paper-configuration workloads on the default build.

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. Builds perfbench/ (and the libraries under src/) into
      .bench_build/, runs the measuring program with every PNC_* knob
      removed from its environment, checks every job's bytes, prints a
      table and, as the last line, one JSON object:
        {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
      ones (odd cycles traced; spans land in .bench_out/).
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced then traced: every metric with its unit.
  python3 perfbench/run.py --selftest
      The benchmark's own tests (span tiling, seed determinism).

Workloads and metric names, units and directions come from BENCHMARK.json;
each metric's layer and definition, and the layer-to-end-to-end map, are in
perfbench/metrics.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNGATED = json.loads((HERE / "metrics.json").read_text())["reported_not_gated"]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
UNITS.update({name: m["unit"] for name, m in UNGATED.items()})

RUN_LIMIT_S = 170  # a run, restarts included, ends within three minutes


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment minus every PNC_* knob, and the names removed."""
    removed = sorted(k for k in os.environ if k.startswith("PNC_"))
    return {k: v for k, v in os.environ.items()
            if not k.startswith("PNC_")}, removed


def build(env):
    """Configure and build perfbench; returns the program path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(logf, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                f.flush()
                log("perfbench: build failed; last lines of " + str(logf))
                log("".join(logf.read_text().splitlines(True)[-20:]))
                return None
    return BUILD / "pncbench"


def build_meta(prog, env):
    out = subprocess.run([str(prog), "meta"], capture_output=True, text=True,
                         env=env, check=True).stdout
    return json.loads(out)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_program(prog, env, args, seconds, trace):
    """Run the workload until `seconds` have passed. A process that dies
    (a hang-watchdog abort, a crash) costs the job it was running: that job
    counts as failed and the program restarts after it."""
    setups, phases, aborted = [], [], []
    started = time.monotonic()
    first_job = 0
    stalls = 0  # consecutive deaths before finishing any job
    spans = OUT / f"spans-{args.workload}-{args.seed}.tsv"
    while True:
        left = seconds - (time.monotonic() - started)
        cmd = [str(prog), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(max(left, 0.0)),
               "--trace", "1" if trace else "0",
               "--first-job", str(first_job)]
        if trace:
            cmd += ["--spans", str(spans)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=env)
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        timer = threading.Timer(max(budget, 1.0), proc.kill)
        timer.start()
        last_done = first_job - 1
        try:
            for line in proc.stdout:
                rec = json.loads(line)
                if rec["t"] == "setup":
                    setups.append(rec)
                elif rec["t"] == "phase":
                    phases.append(rec)
                elif rec["t"] == "done":
                    last_done = rec["job"]
        finally:
            proc.stdout.close()
            code = proc.wait()
            timer.cancel()
        if code == 0:
            return setups, phases, aborted
        aborted.append(last_done + 1)
        log(f"perfbench: program exited with {code} during job "
            f"{last_done + 1}")
        stalls = stalls + 1 if last_done < first_job else 0
        first_job = last_done + 2
        elapsed = time.monotonic() - started
        if elapsed > seconds or elapsed > RUN_LIMIT_S - 30 or stalls >= 3:
            return setups, phases, aborted


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * len(s)))]


def mbps(p):
    return p["bytes"] / p["vns"] * 1e3 if p["vns"] > 0 else 0.0


def jobs_of(phases):
    """job id -> its phases."""
    out = {}
    for p in phases:
        out.setdefault(p["job"], []).append(p)
    return out


def pnc_job_host_ms(phases):
    """Host ms of each PnetCDF job: its write phase plus its read phase.
    The run's first job warms the process up (first touch of its memory)
    and is left out."""
    jobs = sorted(jobs_of(phases).items())
    return [sum(p["host_ns"] for p in ps) / 1e6 for j, ps in jobs
            if j > 0 and any(p["kind"] == "write" for p in ps)]


def end_to_end(setups, phases):
    ok = [p for p in phases if p["ok"] and not p["traced"]]
    by = {k: [p for p in ok if p["kind"] == k] for k in ("write", "read",
                                                         "base")}
    steps = [s for p in by["write"] for s in p["steps"]]
    host = pnc_job_host_ms([p for p in phases if not p["traced"]])
    return {
        "write_mbps": median([mbps(p) for p in by["write"]]),
        "read_mbps": median([mbps(p) for p in by["read"]]),
        "base_write_mbps": median([mbps(p) for p in by["base"]]),
        "step_ms.p50": median(steps) / 1e6,
        "step_ms.p90": quantile(steps, 0.9) / 1e6,
        "setup_s": median([s["setup_cpu_ns"] for s in setups]) / 1e9,
    }, {"steps": len(steps), "jobs": len(host), "host_ms.p50": median(host)}


def peak_rss_mb(phases):
    return max([p["rss_mb"] for p in phases], default=0.0)


# Per-layer metrics read from spans: metric suffix -> (span name, 0 = vns /
# 1 = host ns). Everything else is a counter, a phase field or a ratio.
SPAN_METRICS = {
    "simmpi.wait_vns": ("simmpi.sync_clocks", 0),
    "hdf5lite.dataset_write_vns": ("hdf5lite.write", 0),
    "hdf5lite.create_dataset_vns": ("hdf5lite.create_dataset", 0),
    "flash.fill_host_ns": ("flash.fill", 1),
}
for call in ("create", "enddef", "put", "iput", "wait", "sync", "close",
             "open", "get"):
    SPAN_METRICS[f"pnetcdf.{call}_vns"] = (f"pnetcdf.{call}", 0)
    SPAN_METRICS[f"pnetcdf.{call}_host_ns"] = (f"pnetcdf.{call}", 1)
for call in ("get", "sync"):
    SPAN_METRICS[f"netcdf.{call}_vns"] = (f"netcdf.{call}", 0)
    SPAN_METRICS[f"netcdf.{call}_host_ns"] = (f"netcdf.{call}", 1)
# Derived from several spans each (see phase_metric).
SPAN_DERIVED = {"hdf5lite.write_vns", "netcdf.serial_write_mbps",
                "bench.self_host_ns"}


def span_vns(p, names):
    return sum(v[0] for k, v in p["spans"].items() if k in names)


def phase_metric(p, suffix):
    c = p["ctr"]
    if suffix in SPAN_METRICS:
        name, i = SPAN_METRICS[suffix]
        return p["spans"].get(name, [0.0, 0.0])[i]
    if suffix == "format.sum_readback_bytes":
        return c["pfs.bytes_read"]
    if suffix == "pfs.req_bytes_mean":
        ops = c["pfs.read_ops"] + c["pfs.write_ops"]
        return (c["pfs.bytes_read"] + c["pfs.bytes_written"]) / ops \
            if ops else 0.0
    if suffix == "hdf5lite.write_vns":
        return span_vns(p, [k for k in p["spans"]
                            if k.startswith("hdf5lite.")])
    if suffix == "netcdf.serial_write_mbps":
        vns = span_vns(p, ("netcdf.put", "netcdf.sync"))
        return p["bytes"] / vns * 1e3 if vns > 0 else 0.0
    if suffix == "simmpi.run_host_ns":
        return p["host_ns"]
    if suffix == "simmpi.skew_vns":
        return p["skew_vns"]
    if suffix == "bench.self_host_ns":
        return p["self_host_ns"]
    return c[suffix]


def per_layer(setups, phases):
    ok = [p for p in phases if p["ok"]]
    out = {}
    for m in BENCH["per_layer"]:
        name = m["name"]
        kind, _, suffix = name.partition(".")
        if kind not in ("write", "read", "base"):
            continue
        from_spans = suffix in SPAN_METRICS or suffix in SPAN_DERIVED
        vals = [phase_metric(p, suffix) for p in ok
                if p["kind"] == kind and (p["traced"] or not from_spans)]
        out[name] = median(vals)
    out["simmpi.launch_host_ns"] = median([s["launch_ns"] for s in setups])
    out["bench.peak_rss_mb"] = peak_rss_mb(phases)
    traced = median(pnc_job_host_ms([p for p in phases if p["traced"]]))
    untraced = median(pnc_job_host_ms([p for p in phases
                                       if not p["traced"]]))
    out["iostat.trace_overhead"] = traced / untraced - 1 if untraced else 0.0
    return out


def one_run(args, ctx):
    OUT.mkdir(parents=True, exist_ok=True)
    setups, phases, aborted = run_program(ctx["prog"], ctx["env"], args,
                                          args.seconds, args.trace)
    jobs = jobs_of(phases)
    failed = {j for j, ps in jobs.items() if any(not p["ok"] for p in ps)}
    failed |= set(aborted)
    attempted = len(set(jobs) | set(aborted))
    for j in sorted(failed):
        errs = [p["err"] for p in jobs.get(j, []) if p["err"]]
        log(f"perfbench: job {j} failed: {errs[0] if errs else 'aborted'}")
    tiling = [f'job {p["job"]} {p["kind"]}: {p["tiling"]}'
              for p in phases if p["tiling"]]
    for t in tiling:
        log("perfbench: span tiling violated: " + t)

    if args.trace:
        metrics = per_layer(setups, phases)
        expected = [m["name"] for m in BENCH["per_layer"]]
        extra = {}
    else:
        metrics, counts = end_to_end(setups, phases)
        expected = [m["name"] for m in BENCH["end_to_end"]]
        extra = {"fail_frac": len(failed) / attempted if attempted else 1.0,
                 "host_ms.p50": counts["host_ms.p50"],
                 "peak_rss_mb": peak_rss_mb(phases),
                 "host_ms.p90": quantile(pnc_job_host_ms(phases), 0.9)
                 if counts["jobs"] >= 100 else None}
    assert sorted(metrics) == sorted(expected), "metric set != BENCHMARK.json"
    meta = ctx["meta"]
    print(f"# {args.workload} seed={args.seed} trace={int(args.trace)} "
          f"build={meta['build_type']} iostat={meta['iostat']} "
          f"sanitize={meta['sanitize']} git={ctx['git']} "
          f"nproc={os.cpu_count()} pnc_env_removed={ctx['removed']}")
    if not args.trace:
        print(f"# samples: {counts['jobs']} PnetCDF jobs, "
              f"{counts['steps']} rank-steps, {len(setups)} set-ups, "
              f"{attempted} jobs attempted")
    for name in expected + list(extra):
        v = metrics.get(name, extra.get(name))
        if v is not None:
            print(f"  {name:<36} {v:>18.6g} {UNITS[name]}")
    result = {
        "correct": attempted > 0 and not failed,
        "attempted": max(attempted, 1),
        "failed": len(failed) if attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]}
                    for k in expected},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=int(args.trace), meta=meta, git=ctx["git"],
                  nproc=os.cpu_count(), pnc_env_removed=ctx["removed"],
                  extra=extra, tiling_violations=tiling)
    (OUT / f"result-{args.workload}-{args.seed}-{int(args.trace)}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.selftest):
        ap.error("one of --workload, --all, --selftest is required")

    env, removed = clean_env()
    if removed:
        log("perfbench: ignoring " + " ".join(removed))
    prog = build(env)
    if prog is None:
        return 3
    meta = build_meta(prog, env)
    if meta["sanitize"] or not meta["iostat"] or \
            meta["build_type"] not in ("RelWithDebInfo", "Release"):
        log(f"perfbench: refusing to report numbers from this build: {meta}")
        return 4
    if args.selftest:
        return subprocess.run([str(prog), "selftest"], env=env).returncode

    ctx = {"prog": prog, "env": env, "meta": meta, "removed": removed,
           "git": git_sha()}
    if not args.all:
        print(json.dumps(one_run(args, ctx)))
        return 0
    for w in WORKLOADS:
        for trace in (0, 1):
            one_run(argparse.Namespace(workload=w, seed=args.seed,
                                       seconds=args.seconds, trace=trace),
                    ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
