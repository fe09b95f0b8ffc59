"""Timed rounds over a workload's corpus, in the interpreter this script starts.

    python3 perfbench/worker.py --workload certify --seed 1 --seconds 50 --deadline 140
    python3 perfbench/worker.py --workload certify --seed 1 --deadline 140 --traced

Builds the seeded corpus, imports matroidalkit from the checkout's src/,
then calls matroidalkit.cli.main(argv) once per op and round, with stdin
and stdout redirected in memory. Each round visits the ops in its own
seeded order. Before every op the package's lru_caches are emptied and the
garbage collector runs, outside the timing, so no op reuses another op's
results or pays for its garbage. The speed loop (see speed.py) is timed
right before and right after every op, so each latency comes with the
host's speed at that moment. The first
round always runs; another begins only while the last round's length
still fits in --seconds. Without --seconds, and with --traced, the pass is
one round.

Each op runs under a SIGALRM time limit, so a slow or hung op is cut,
counted as failed, and not run again. The deadline cuts the op running at
that moment too; ops the first round has not begun by then count as
failed. The first round's reports are checked, and every later round must
print the same bytes. With --traced the tracer wraps the package for the
pass, its summary joins the report, and every span is written to
.perfbench_out/spans-<workload>-seed<seed>.tsv.

Prints one JSON line: per-op status, latencies, the speed loop's mean time
around each, and output digest; the round count, the process's peak RSS,
and the trace summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".perfbench_out"
PACKAGE = "matroidalkit"

from speed import loop_time  # noqa: E402
from workloads import CORPORA, CHECKS, OP_LIMIT_S  # noqa: E402


class OpTimeout(Exception):
    """The op ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def package_caches():
    """Every lru_cache the package's modules and classes hold, each once."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        values = list(vars(module).values())
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        for value in values:
            if (callable(getattr(value, "cache_clear", None))
                    and str(getattr(value, "__module__", "")).startswith(PACKAGE)):
                caches[id(value)] = value
    return list(caches.values())


def _run_op(main, op, limit):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
        status = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
    except OpTimeout:
        status = f"over its {limit:.3g} s time limit"
    except SystemExit as exc:
        status = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
    except Exception as exc:  # an op that raises is a failed op, not a failed pass
        status = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        sys.stdin = saved_stdin
    return status, end - start, out.getvalue()


def run_pass(workload, seed, seconds, deadline, traced):
    ops = CORPORA[workload](seed).ops
    sys.path.insert(0, str(SRC))
    import matroidalkit.cli
    if not Path(matroidalkit.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {matroidalkit.cli.__file__}, not the checkout's src/")
    caches = package_caches()
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    limit = OP_LIMIT_S[workload] * (1.5 if traced else 1)
    signal.signal(signal.SIGALRM, _on_alarm)
    status = ["ok"] * len(ops)
    latencies = [[] for _ in ops]
    loops = [[] for _ in ops]
    outputs = [None] * len(ops)
    rounds = 0
    try:
        if tracer:
            tracer.install()
        begun = time.perf_counter()
        round_s = 0.0
        while rounds == 0 or (seconds and time.perf_counter() - begun + round_s <= seconds):
            round_start = time.perf_counter()
            order = list(range(len(ops)))
            random.Random(f"{workload}/{seed}/round {rounds}").shuffle(order)
            for index in order:
                left = deadline - (time.perf_counter() - begun)
                if status[index] != "ok":
                    continue
                if left <= 0:
                    if rounds == 0:
                        status[index] = "not begun by the run's deadline"
                    continue
                for cache in caches:
                    cache.cache_clear()
                gc.collect()
                before = loop_time()
                if tracer:
                    tracer.op = index
                try:
                    result, latency, output = _run_op(matroidalkit.cli.main, ops[index],
                                                      min(limit, left))
                except OpTimeout:  # the alarm fired just as the op returned
                    result, latency, output = "over its time limit", min(limit, left), ""
                latencies[index].append(latency)
                loops[index].append((before + loop_time()) / 2)
                if result != "ok":
                    status[index] = result
                elif outputs[index] is None:
                    outputs[index] = output
                elif output != outputs[index]:
                    status[index] = f"printed another report in round {rounds + 1}"
                if tracer:
                    tracer.end_op()
            round_s = time.perf_counter() - round_start
            rounds += 1
    finally:
        if tracer:
            tracer.restore()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{workload}-seed{seed}.tsv",
                           [op.label for op in ops])
    report = []
    for op, result, runs, loop_s, output in zip(ops, status, latencies, loops, outputs):
        if result == "ok":
            try:
                problems = CHECKS[workload](op, json.loads(output))
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
            if problems:
                result = "wrong: " + "; ".join(problems)
        report.append({"label": op.label, "status": result, "latencies_s": runs,
                       "loops_s": loop_s, "ideals": op.ideals if result == "ok" else 0,
                       "digest": hashlib.sha256((output or "").encode()).hexdigest()})
    return {
        "workload": workload, "seed": seed, "ops": report, "rounds": rounds,
        "maxrss_kb": maxrss_kb,
        "trace": tracer.summary() if tracer else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="begin another round only while the last one still fits in this")
    parser.add_argument("--deadline", type=float, required=True,
                        help="seconds after which every op still running or not begun fails")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    seconds = 0.0 if args.traced else args.seconds
    report = run_pass(args.workload, args.seed, seconds, args.deadline, args.traced)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
