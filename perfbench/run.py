"""rigideq benchmark: one closed-loop client over two workloads.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed S --seconds T --trace 0
    python3 perfbench/run.py --workload NAME --seed S --selfcheck

A run starts one worker process (worker.py), which sets the workload up from
the seed, makes one warm-up pass, and then makes back-to-back passes over
it: at least three, then more while the next would end within --seconds.
With --trace 1 the worker alternates untraced and traced passes after the
warm-up, at least two of each. Every operation of every pass is timed.

The host is a shared virtual machine whose speed swings by up to a factor
of two over seconds to minutes, so the end-to-end times are rescaled to a
reference speed: each operation's time is divided by the mean time of a
fixed speed probe run around and during it, and multiplied by PROBE_REF_S
(see op_estimates and worker.SpeedProbe). run_s is then the sum over a
pass's operations of each operation's median rescaled time, setup_s the
median over nine fresh interpreters of the time from spawn until the
workload is set up, rescaled by a probe run right after set-up. run_wall_s
and setup_wall_s are the same figures without the rescaling.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from the span
wrappers in spans.py. Lines before it give every end-to-end metric of the
workload by name and unit, and the provenance. The full record, and the
spans of a traced run, go to .perfbench_out/. --selfcheck runs two traced
workers on one seed and checks that every exact counter and Q hash repeats.

The program is imported from src/ of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ["sampled-universal", "symbolic-certify"]
END_TO_END = ["setup_s", "run_s", "peak_rss_mb"]  # reported on every workload
UNITS = {
    "setup_s": "s", "setup_wall_s": "s", "run_s": "s", "run_wall_s": "s", "solve_s": "s", "certify_per_s": "1/s",
    "map_build_s": "s", "map_eval_s": "s", "embed_per_s": "1/s",
    "peak_rss_mb": "MB", "failed_frac": "ratio",
}
# Fresh interpreters timed from spawn to READY, the measuring worker included.
SETUP_SAMPLES = 9
# Times are rescaled to a host on which worker.SpeedProbe takes this long.
PROBE_REF_S = 0.001
RUN_DEADLINE_S = 170
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]


class BenchError(RuntimeError):
    pass


def worker_env(nproc: int) -> dict:
    """Environment with every BLAS/OpenMP pool capped at nproc before numpy loads."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            env[var] = str(nproc)
    return env


def spawn(args, trace, work, env, deadline, seconds=0.0, setup_only=False):
    """Run one worker; return (seconds from spawn to READY, the speed probe
    right after it, the worker's final JSON or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--seconds", str(seconds), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter() - t0
        probe = proc.stdout.readline()
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or not probe.startswith("PROBE ") or proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return t_ready, float(probe.split()[1]), (json.loads(lines[-1]) if lines else None)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def provenance(args, env, nproc, numpy_version) -> dict:
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def op_estimates(passes, rescale=True):
    """Each operation's median time over the passes: {name: (kind, seconds)}.

    With rescale, each time is first rescaled to the reference speed: times
    PROBE_REF_S over the mean of the speed probes from the last one before
    the operation to the first one after it (worker.SpeedProbe). The same
    operation on the same inputs repeats in every pass, so its median also
    sheds the passes in which the host ran slow, operation by operation."""
    samples, kinds = {}, {}
    for p in passes:
        starts = [t for t, _ in p["probes"]]
        for name, kind, seconds, start, end in p["ops"]:
            if rescale:
                near = p["probes"][bisect.bisect_right(starts, start) - 1:bisect.bisect_left(starts, end) + 1]
                seconds *= PROBE_REF_S / statistics.fmean(probe for _, probe in near)
            samples.setdefault(name, []).append(seconds)
            kinds[name] = kind
    return {name: (kinds[name], statistics.median(v)) for name, v in samples.items()}


def pass_metrics(est):
    """End-to-end times of one pass from per-operation estimates; only those whose operation ran."""
    by_kind = {}
    for kind, seconds in est.values():
        by_kind.setdefault(kind, []).append(seconds)
    m = {"run_s": sum(sum(v) for v in by_kind.values())}
    if "solve" in by_kind:
        m["solve_s"] = sum(by_kind["solve"])
    if "certify" in by_kind:
        m["certify_per_s"] = len(by_kind["certify"]) / sum(by_kind["certify"])
    if "map_build" in by_kind:
        m["map_build_s"] = by_kind["map_build"][0]
    if "map_eval" in by_kind:
        m["map_eval_s"] = by_kind["map_eval"][0]
    if "embed" in by_kind:
        m["embed_per_s"] = len(by_kind["embed"]) / sum(by_kind["embed"])
    return m


def run_workload(args, nproc, env, work):
    """One worker makes a warm-up pass and then back-to-back passes for
    --seconds; fresh interpreters give the set-up samples.

    Every pass is checked. Untraced passes after the warm-up give the
    end-to-end metrics and the overhead baseline; with --trace 1, traced
    ones give the per-layer metrics, whose times are span times as measured,
    not rescaled.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    t_ready, probe, res = spawn(args, args.trace, work, env, deadline, seconds=args.seconds)
    setups = [(t_ready, probe)]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, 0, work, env, deadline, setup_only=True)[:2])
    passes = res["passes"]

    untraced = [p for p in passes if not p["traced"] and not p["warmup"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    if any(p["digests"] != passes[0]["digests"] for p in passes):
        failures.append("Q hashes differ between passes of one seed")
        failed += 1
    for name in res["exact"]:
        if len({p["layers"][name] for p in traced}) > 1:
            failures.append(f"counter {name} differs between traced passes of one seed")
            failed += 1
    attempted = sum(p["attempted"] for p in passes)

    report = pass_metrics(op_estimates(untraced))
    report["run_wall_s"] = pass_metrics(op_estimates(untraced, rescale=False))["run_s"]
    report["setup_s"] = statistics.median(t * PROBE_REF_S / probe for t, probe in setups)
    report["setup_wall_s"] = statistics.median(t for t, _ in setups)
    report["peak_rss_mb"] = res["peak_rss_mb"]
    report["failed_frac"] = failed / attempted
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            # times vary from pass to pass; counts repeat exactly (checked above)
            metrics[name] = statistics.median(values) if res["layer_units"][name] == "s" else values[0]
        metrics["trace.overhead_s"] = pass_metrics(op_estimates(traced))["run_s"] - report["run_s"]
        units = res["layer_units"]
    else:
        metrics = {name: report[name] for name in END_TO_END}
        units = UNITS

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "provenance": provenance(args, env, nproc, res["numpy"]),
        "end_to_end": {name: report[name] for name in UNITS if name in report},
        "per_layer": metrics if args.trace else None,
        "setup_samples": [{"wall_s": t, "probe_s": probe} for t, probe in setups],
        "passes": [{"kind": "warmup" if p["warmup"] else "traced" if p["traced"] else "untraced",
                    "wall_s": p["wall"], "ops": p["ops"], "probes": p["probes"]} for p in passes],
        "failures": failures,
        "q_digests": passes[0]["digests"],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        # name, start_ns, end_ns, parent index, op id, self_ns; one line per span
        with open(stem + ".spans.jsonl", "w") as fh:
            for i, p in enumerate(traced):
                for span in p["spans"]:
                    fh.write(json.dumps([i] + span) + "\n")

    for name in UNITS:
        if name in report:
            print(f"{args.workload:18s} {name:14s} {report[name]:12.6g} {UNITS[name]}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result


def selfcheck(args, env, work) -> bool:
    """Two traced workers on one seed: every exact counter and Q hash must repeat."""
    deadline = time.monotonic() + 2 * RUN_DEADLINE_S
    runs = [spawn(args, 1, work, env, deadline)[2] for _ in range(2)]
    passes = [p for run in runs for p in run["passes"] if p["traced"]]
    ok = True
    for name in runs[0]["exact"]:
        values = [p["layers"][name] for p in passes]
        print(f"{name:40s} " + " ".join(f"{v!s:>12}" for v in values))
        ok &= len(set(values)) == 1
    ok &= all(p["digests"] == passes[0]["digests"] for p in passes)
    ok &= all(p["failed"] == 0 for run in runs for p in run["passes"])
    print(f"selfcheck {args.workload} seed {args.seed}: {'repeats exactly' if ok else 'MISMATCH'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rigideq", "__init__.py")):
        print(f"no rigideq sources under {ROOT}/src: run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = worker_env(nproc)
    try:
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            args.workload = name
            # Inputs and certificates of every worker of this run; workers
            # rewrite the same files, which costs the same on every pass.
            work = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
            os.makedirs(work)
            try:
                if args.selfcheck:
                    if not selfcheck(args, env, work):
                        return 1
                    continue
                print(json.dumps(run_workload(args, nproc, env, work)), flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
                with contextlib.suppress(OSError):
                    os.rmdir(WORK_DIR)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
