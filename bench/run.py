"""Benchmark entry point for clustertm.

    python3 bench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed (set-up, repeated and timed), then
runs whole rounds of the workload until the next round would end past
`--seconds`, with at least three rounds. Every round's outputs are checked
against independent oracles. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (stage times are means over rounds, set-up
time the median of its repeats); with `--trace 1`,
rounds alternate untraced and traced, and the metrics are the per-layer ones
(medians over traced rounds) plus the tracing overhead. `--workload all`
runs each workload in its own process, one after another.

A result file with the environment, every round and (traced) every span is
written to `.bench_results/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-pipeline", "wide-vocab", "lda-gibbs")
# One BLAS thread: the load comes from one single-threaded process at a time,
# which keeps run-to-run spread low on a small shared machine.
BLAS_THREADS = 1
SETUP_REPEATS = 3  # per round
MIN_ROUNDS = 3
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "prep_s": "s", "train_s": "s",
                    "peak_rss_mb": "MB"}


def _environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        b = config["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "openblas_runtime": _openblas_runtime(numpy),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _openblas_runtime(numpy) -> dict | None:
    """Config string and thread count of the OpenBLAS that numpy loaded, if it exposes them."""
    import ctypes
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))
    for prefix, suffix in (("scipy_", "64_"), ("", "")):
        get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
        get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        if get_config is not None and get_threads is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return {"config": get_config().decode(), "threads": get_threads()}
    return None


def _run_round(wl, inputs, work: Path, index: int, tracer, traced: bool) -> dict:
    import workloads
    from spans import layer_metrics

    rdir = work / f"round{index}"
    rdir.mkdir()
    ctx = workloads.RoundContext(tracer)
    with tracer.span("round", index=index, traced=traced) as rs:
        with tracer.patched() if traced else nullcontext():
            out = wl.round(inputs, rdir, ctx)
    errors = wl.check(inputs, out) if not ctx.failed else []
    shutil.rmtree(rdir)
    spans = [s for s in tracer.spans[rs.id + 1:] if s.start < rs.end]
    stage = {st: sum(s.duration for s in spans if s.attrs.get("stage") == st)
             for st in ("prep", "train")}
    return {
        "index": index, "traced": traced, "attempted": ctx.attempted, "failed": ctx.failed,
        "op_errors": ctx.errors, "check_errors": errors,
        "run_s": rs.duration, "prep_s": stage["prep"], "train_s": stage["train"],
        "layers": layer_metrics(tracer, spans) if traced else None,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import PER_LAYER_UNITS, Tracer

    wl = workloads.WORKLOADS[workload]
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    tracer = Tracer()
    rounds, setup_times = [], []
    try:
        start, last_cycle = time.perf_counter(), 0.0
        # Stop before a round whose set-up, run and checks would end past `seconds`.
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last_cycle <= seconds:
            cycle_start = time.perf_counter()
            # Set-up is repeated before every round, so that its samples span
            # the run as the rounds' do; each repeat builds identical inputs.
            for _ in range(SETUP_REPEATS):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                t0 = time.perf_counter()
                inputs = wl.setup(seed, work)
                setup_times.append(time.perf_counter() - t0)
            gc.collect()
            traced = trace and len(rounds) % 2 == 1
            rounds.append(_run_round(wl, inputs, work, len(rounds), tracer, traced))
            last_cycle = time.perf_counter() - cycle_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        units = PER_LAYER_UNITS
    else:
        # Stage times are means over rounds: on a shared VM a stage shorter
        # than a second lands in a fast or a slow stretch of the machine, and
        # the median of such a two-valued sample jumps between the two.
        values = {name: statistics.fmean(r[name] for r in plain)
                  for name in ("run_s", "prep_s", "train_s")}
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    p = inputs.planted
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": _environment(),
        "corpus": {"docs": len(p.docs), "tokens": p.n_tokens, "vocab": len(p.words),
                   "topics": p.topic_word.shape[0], "support": p.support_fraction()},
        "params": inputs.params,
        "setup_s": setup_times,
        "rounds": rounds,
        "spans": [vars(s) for s in tracer.spans] if trace else None,
        "summary": {
            "correct": not any(r["check_errors"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def run_all(args) -> int:
    """Each workload in a child process of its own, so its peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print(f"{workload}: {json.dumps(result)}")
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clustertm" / "__init__.py").is_file():
        print(f"error: no clustertm sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported, below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    # Pinned to one CPU, the run's load stays on one core and never migrates mid-round.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import clustertm
    if Path(clustertm.__file__).resolve().parent != SRC / "clustertm":
        print(f"error: imported clustertm from {clustertm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1, default=str) + "\n", "utf-8")
    for r in result["rounds"]:
        for e in r["op_errors"] + r["check_errors"]:
            print(f"round {r['index']}: {e}", file=sys.stderr)
    print(json.dumps(result["summary"]))
    return 0 if result["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
