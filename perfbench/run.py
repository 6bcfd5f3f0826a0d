"""hydrolens benchmark: one workload per run, end-to-end or traced metrics.

    python3 perfbench/run.py --workload ppt_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer ones from a traced pass (see README.md).  The
last line of standard output is one JSON object; raw per-op times and the
trace's spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh interpreters per run, spread evenly over the timed phase, so that
# setup_s does not rest on one stretch of a noisy machine.
FRESH_STARTS = 9
# op_tail_ms percentile.  Op times on the reference host are bimodal (it runs
# at two speeds for stretches of seconds to minutes), and p90 sits in the
# slower mode in every run; see README.md for the spreads of other choices.
TAIL_PCT = 90
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import hydrolens.cli; "
                "print(time.perf_counter() - t, int('scipy.special' in sys.modules))")


def load_program():
    """Put the checkout's src/ first on sys.path and import hydrolens from it."""
    if not (SRC / "hydrolens" / "__init__.py").is_file():
        sys.exit(f"error: no hydrolens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hydrolens
    if Path(hydrolens.__file__).resolve().parent != SRC / "hydrolens":
        sys.exit(f"error: imported hydrolens from {hydrolens.__file__}, not from {SRC}")


def fresh_import():
    """Wall time, import time and scipy.special flag of one fresh interpreter
    that imports hydrolens.cli."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    wall = perf_counter() - t0
    t_import, flag = proc.stdout.split()
    return wall, float(t_import), int(flag)


def run_ops(workload, next_round, seconds: float, starts: int = 0):
    """Time whole rounds from ``next_round()``.  The run ends at the round
    boundary nearest to ``seconds``.  Only the round in progress is kept, so
    memory does not grow with the number of rounds.

    ``starts`` fresh interpreters are timed between ops, at evenly spaced
    points of the timed phase; their time does not count towards it."""
    times, verdicts, walls = array("d"), {"ok": 0, "fault": 0, "wrong": 0}, []
    gc.collect()
    t_start = perf_counter()
    paused = 0.0
    r = 0
    while True:
        ops = next_round()
        for inp in ops:
            if len(walls) < starts and perf_counter() - t_start - paused >= len(walls) * seconds / starts:
                t = perf_counter()
                walls.append(fresh_import()[0])
                paused += perf_counter() - t
            t0 = perf_counter()
            out = workload.op(inp)
            times.append(perf_counter() - t0)
            verdicts[workload.check(inp, out)] += 1
        r += 1
        elapsed = perf_counter() - t_start - paused
        if elapsed + 0.5 * elapsed / r >= seconds:
            walls += [fresh_import()[0] for _ in range(starts - len(walls))]
            return times, verdicts, r, ops, walls


def percentile(times, pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(times)
    return s[max(math.ceil(pct / 100 * len(s)) - 1, 0)]


def end_to_end(workload, next_round, seconds, seed):
    times, verdicts, n_rounds, _, walls = run_ops(workload, next_round, seconds, FRESH_STARTS)
    # Read before the percentile below sorts the op times.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(walls), "s"),
        "op_tail_ms": (percentile(times, TAIL_PCT) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"seed": seed, "setup_walls_s": walls, "rounds": n_rounds, "verdicts": verdicts,
           "op_s": list(times)}
    return metrics, verdicts, raw


def traced(workload, next_round, seconds, seed, spans_path):
    from spans import Tracer, layer_metrics
    _, imports, flags = zip(*(fresh_import() for _ in range(FRESH_STARTS)))
    tracer = Tracer()
    tracer.install()
    try:
        t_times, t_verdicts, n_rounds, last, _ = run_ops(workload, next_round, seconds)
    finally:
        tracer.uninstall()
    # The overhead is sized on the last traced round, replayed without the wrappers.
    u_times, u_verdicts, _, _, _ = run_ops(workload, lambda: last, 0.0)
    metrics = layer_metrics(tracer, len(t_times))
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    metrics["cli.scipy_special_at_import"] = (max(flags), "count")
    metrics["trace.overhead_ratio"] = (sum(t_times[-len(u_times):]) / sum(u_times), "ratio")
    tracer.save(spans_path)
    verdicts = {k: t_verdicts[k] + u_verdicts[k] for k in t_verdicts}
    raw = {"seed": seed, "rounds": n_rounds, "verdicts": verdicts,
           "traced_op_s": list(t_times), "untraced_op_s": list(u_times)}
    return metrics, verdicts, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("ppt_grid", "ppt_point", "oracle_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("HYDROLENS_THREADS", None)
    load_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    first = workload.round(rng)
    pending = [first]
    next_round = lambda: pending.pop() if pending else workload.round(rng)
    workload.check(first[0], workload.op(first[0]))

    OUT.mkdir(exist_ok=True)
    # One file per workload and mode, so repeated runs do not pile up spans.
    stem = OUT / f"{args.workload}-trace{args.trace}"
    if args.trace:
        metrics, verdicts, raw = traced(workload, next_round, args.seconds, args.seed, stem.with_suffix(".npz"))
    else:
        metrics, verdicts, raw = end_to_end(workload, next_round, args.seconds, args.seed)
    stem.with_suffix(".json").write_text(json.dumps(raw) + "\n")

    result = {
        "correct": verdicts["wrong"] == 0,
        "attempted": sum(verdicts.values()),
        "failed": verdicts["fault"] + verdicts["wrong"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
