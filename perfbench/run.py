"""matroidalkit benchmark: two seeded workloads driven through the CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its src/.

--trace 0 measures the end-to-end metrics: set-up time over fresh
interpreters, then --seconds of timed rounds over the workload's corpus in
one fresh worker process (see worker.py); an op's latency is its median
over the rounds.
--trace 1 measures the per-layer metrics: one untraced round and two traced
rounds, each in its own fresh process, with guards that fail the run
loudly when the tracer cannot see what it should, changes a report, or
fails to repeat its counters exactly.

The run's deadline is 4x --seconds, capped at 150 s: the op running then
is cut and the ops not begun fail, so a run ends within three minutes even
when an op hangs.

Human-readable lines come first; the last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import NOMINAL_S, SpeedError, loop_time  # noqa: E402
from tracer import COUNTERS, SPAN_NAMES, TARGETS  # noqa: E402
from workloads import TRACE_EXPECTED, WORKLOADS  # noqa: E402

SETUP_RUNS = 15
# no op runs past this many seconds into a run, which must end within 180
RUN_LIMIT_S = 150
MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))
SETUP_PROBE = ("import time\n"
               "import matroidalkit, matroidalkit.cli\n"
               "print(time.clock_gettime(time.CLOCK_MONOTONIC), matroidalkit.cli.__file__)\n")


class BenchError(RuntimeError):
    """The benchmark itself could not produce trustworthy numbers."""


def measure_setup(count):
    """Times from spawning a fresh interpreter to matroidalkit.cli imported,
    each with the speed loop's mean time just before and just after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, loops = [], []
    after = loop_time()
    for _ in range(count):
        before = after
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"importing matroidalkit failed:\n{done.stderr}")
        stamp, path = done.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"imported {path.strip()}, not the checkout's src/")
        times.append(float(stamp) - start)
        after = loop_time()
        loops.append((before + after) / 2)
    return times, loops


def run_worker(workload, seed, deadline, seconds=None, traced=False):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--deadline", str(deadline)]
    if seconds:
        argv += ["--seconds", str(seconds)]
    if traced:
        argv.append("--traced")
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=deadline + 20)
    if done.returncode != 0:
        raise BenchError(f"worker {' '.join(argv[2:])} exited {done.returncode}:\n"
                         f"{done.stderr[-3000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def same_reports(passes):
    """Every pass over one corpus, traced or not, must print the same
    reports byte for byte, except where an op failed."""
    failed = failed_ops(*passes)
    for other in passes[1:]:
        for i, (op, base) in enumerate(zip(other["ops"], passes[0]["ops"])):
            if i not in failed and op["digest"] != base["digest"]:
                kind = "traced" if other["trace"] else "untraced"
                raise BenchError(f"a {kind} pass printed another report for {op['label']}")


def failed_ops(*passes):
    """Indices of ops that failed in any of the passes."""
    return {i for p in passes for i, op in enumerate(p["ops"]) if op["status"] != "ok"}


def scaled(times, loops):
    """Median of the times, each scaled to the nominal host speed by the
    speed loop's time around it (see speed.py)."""
    return statistics.median(t * NOMINAL_S / loop for t, loop in zip(times, loops))


def scaled_total(run):
    """The first round's time inside main(), each op scaled by its loop."""
    return sum(op["latencies_s"][0] * NOMINAL_S / op["loops_s"][0]
               for op in run["ops"] if op["latencies_s"])


def latency_figures(latencies, ideals):
    p50, p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[k] for k in (4, 8))
    return {"ideals_per_s": ideals / sum(latencies), "op_p50_s": p50, "op_p90_s": p90}


def end_to_end(setup, run):
    """Metrics from each op's median scaled latency over the rounds of one
    pass. The raw values and the host's speed go into the notes printed
    beside them."""
    timed = [op for op in run["ops"] if op["latencies_s"]]
    ops = len(run["ops"])
    if len(timed) < 2:
        raise BenchError(f"only {len(timed)} of {ops} ops began before the deadline")
    ideals = sum(op["ideals"] for op in run["ops"])
    failed = len(failed_ops(run))
    values = latency_figures([scaled(op["latencies_s"], op["loops_s"]) for op in timed], ideals)
    raw = latency_figures([statistics.median(op["latencies_s"]) for op in timed], ideals)
    values["setup_s"] = scaled(*setup)
    raw["setup_s"] = statistics.median(setup[0])
    loops = [loop for op in timed for loop in op["loops_s"]]
    metrics = {
        "setup_s": (values["setup_s"], "s", len(setup[0])),
        "ideals_per_s": (values["ideals_per_s"], "1/s", ideals),
        "op_p50_s": (values["op_p50_s"], "s", len(timed)),
        "op_p90_s": (values["op_p90_s"], "s", len(timed)),
        "peak_rss_mb": (run["maxrss_kb"] / 1024, "MiB", 1),
        "ok_frac": (1 - failed / ops, "ratio", ops),
    }
    notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    notes["setup_s"] += f", host speed {NOMINAL_S / statistics.median(setup[1]):.3f}x nominal"
    notes["op_p50_s"] += (f", host speed {NOMINAL_S / statistics.median(loops):.3f}x nominal"
                          f" over {len(loops)} ops run")
    return metrics, notes


def per_layer(plain, first, second):
    """Per-layer numbers from the first traced pass, after the guards pass."""
    workload = plain["workload"]
    t1, t2 = first["trace"], second["trace"]
    if t1["calls"] != t2["calls"] or t1["counters"] != t2["counters"]:
        diff = sorted(k for k in t1["calls"] if t1["calls"][k] != t2["calls"][k])
        diff += sorted(k for k in t1["counters"] if t1["counters"][k] != t2["counters"][k])
        raise BenchError(f"two traced passes with one seed disagree on {diff}")
    calls, self_s, counters = t1["calls"], t1["self_s"], t1["counters"]
    base_names = {name.removesuffix(".q").removesuffix(".gf") for name in SPAN_NAMES}
    for name in base_names - set(SPAN_NAMES):
        calls[name] = calls[name + ".q"] + calls[name + ".gf"]
        self_s[name] = self_s[name + ".q"] + self_s[name + ".gf"]
    silent = [name for name in TRACE_EXPECTED[workload] if calls[name] == 0]
    if silent:
        raise BenchError(f"no calls recorded on {workload} for {silent}")
    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.calls"] = (calls[name], "count", 1)
        metrics[f"{name}.self_s"] = (self_s[name], "s", calls[name])
    total_self = sum(self_s[name] for name in SPAN_NAMES)
    for module in MODULES:
        share = sum(self_s[n] for n in SPAN_NAMES if n.startswith(module + "."))
        metrics[f"{module}.self_share"] = (share / total_self, "ratio", 1)
    for name in COUNTERS:
        if name != "matroids.enumerate.kept":
            metrics[name] = (counters[name], "count", 1)
    scanned = counters["matroids.enumerate.scanned"]
    metrics["matroids.enumerate.kept_ratio"] = (
        counters["matroids.enumerate.kept"] / scanned if scanned else 0.0, "ratio", scanned)
    nf_calls = calls["groebner.normal_form"]
    metrics["groebner.zero_reduction_ratio"] = (
        counters["groebner.normal_form.zero"] / nf_calls if nf_calls else 0.0, "ratio", nf_calls)
    metrics["trace.overhead_s"] = (scaled_total(first) - scaled_total(plain), "s", 1)
    metrics["trace.spans"] = (t1["spans"], "count", 1)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "matroidalkit" / "cli.py").is_file():
        print(f"no matroidalkit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    begun = time.monotonic()

    def worker(**kwargs):
        left = min(RUN_LIMIT_S, 4 * args.seconds) - (time.monotonic() - begun)
        return run_worker(args.workload, args.seed, max(left, 0.0), **kwargs)

    try:
        if args.trace:
            passes = [worker(traced=traced) for traced in (False, True, True)]
            same_reports(passes)
            metrics, notes = per_layer(*passes), {}
        else:
            measure_setup(1)  # the first start compiles the bytecode; not counted
            setup = measure_setup(SETUP_RUNS)
            passes = [worker(seconds=args.seconds)]
            metrics, notes = end_to_end(setup, passes[0])
    except (BenchError, SpeedError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    failed = failed_ops(*passes)
    for i in sorted(failed):
        status = next(p["ops"][i]["status"] for p in passes if p["ops"][i]["status"] != "ok")
        print(f"FAILED {passes[0]['ops'][i]['label']}: {status}")
    attempted = len(passes[0]["ops"])
    print(f"{args.workload} seed={args.seed}: {attempted} ops, {len(failed)} failed, "
          f"{passes[-1]['rounds']} round(s)")
    for name, (value, unit, count) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:>14.6g} {unit:6s} n={count}{note}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
