"""gradcert benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a child process of its own, one at a time. The child
imports gradcert from ``src/`` of the checkout, builds its fixtures, runs
one warm-up item, then runs the fixed number of whole rounds of items that
the workload plans for ``--seconds`` (about that long). Times are put on a reference speed scale (see speed.py).
``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
over the workload child and ``SETUP_PROBES`` extra children that only set
up. ``--trace 1`` runs the workload untraced and then traced, reports the
per-layer metrics of the traced run and its overhead against the untraced
one, and reports the run as incorrect if their output digests disagree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
hold a readable table and the full report (environment, digests, failed
items). See perfbench/README.md for the metrics and workloads.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = Path(".bench_work")
WORKLOAD_NAMES = ("grid_small", "grid_large", "noise_sweep", "cli_pipeline")
SETUP_PROBES = 8
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT = 170.0
# A run stops after the round during which its timed part passes this many
# times --seconds, even if rounds remain, so a much slower program still
# ends in time (the report then reads cut_short).
MAX_TIME_FACTOR = 3.0

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]
# Reported with the per-layer metrics: outcome ratios that are zero or
# undefined on some workloads, so they cannot carry an end-to-end bound.
OUTCOME_METRICS = [
    ("fail_frac", "ratio"),
    ("detect_frac", "ratio"),
    ("detect_steps_p50", "steps"),
    ("trace.overhead_frac", "ratio"),
]


# ---------------------------------------------------------------------------
# child side


def _import_gradcert():
    src = ROOT / "src"
    if not (src / "gradcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradcert package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import gradcert

    if Path(gradcert.__file__).resolve().parent != (src / "gradcert").resolve():
        raise SystemExit(f"error: imported gradcert from {gradcert.__file__}, not {src}")
    return gradcert


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail_percentile(n_items: int, preferred: float) -> float:
    """preferred, or the next lower ladder step with >= 10 items beyond it.

    Runs too short for even the median to have ten items beyond it report
    the median.
    """
    for pct in TAIL_LADDER:
        if pct <= preferred and n_items * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return TAIL_LADDER[-1]


def _slot_p50(lat_ms, rounds: int) -> float:
    """Median over a round's item slots of each slot's typical latency.

    A run is whole rounds, so item i fills slot i % (items per round) and
    each slot holds the same cell every round. The plain median of all
    items falls between the latency clusters of different cells when a
    round splits evenly around it, and then swings with the extremes of
    two clusters; the median over slots does not. A slot's typical latency
    is the geometric mean of its items: their times vary by a factor, and
    it uses every item of the slot, where its sample median rests on one
    or two (grid_large has only about nine rounds).
    """
    slots = np.log(np.asarray(lat_ms)).reshape(rounds, -1)
    return float(np.median(np.exp(slots.mean(axis=0))))


def _run_item(wl, fn):
    try:
        return fn()
    except Exception as exc:  # a raising item is a failed item, not a failed run
        return wl.Outcome(False, repr(exc).encode(), f"raised {exc!r}")


def child_main(args) -> int:
    """Run one workload in this process and print its report as JSON."""
    _import_gradcert()
    import speed
    import workloads as wl

    os.chdir(ROOT)
    WORKDIR.mkdir(exist_ok=True)
    workload = wl.WORKLOADS[args.workload](args.seed, WORKDIR)
    setup_wall_s = time.monotonic() - args.launched
    # Set-up goes on the reference speed scale too, from samples taken
    # right after it.
    probe = speed.SpeedProbe()
    for _ in range(5):
        probe.sample(force=True)
    setup_s = setup_wall_s * speed.factor(statistics.median(probe.kernel_s))
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    # Warm-up: the first item once, untimed; its digest must repeat.
    first_name, first_fn = workload.round(0)[0]
    warm_digest = wl.item_digest(_run_item(wl, first_fn))

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer().install()
    names, item_spans, digests, outcomes = [], [], [], []
    planned = workload.rounds_for(args.seconds)
    rounds = 0
    start = time.perf_counter()
    try:
        while rounds < planned:
            for name, fn in workload.round(rounds):
                probe.sample()
                t0 = time.perf_counter()
                outcome = _run_item(wl, fn)
                item_spans.append((t0, time.perf_counter()))
                names.append(name)
                outcomes.append(outcome)
                digests.append(wl.item_digest(outcome))
            rounds += 1
            if time.perf_counter() - start >= MAX_TIME_FACTOR * args.seconds:
                break
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    probe.sample(force=True)
    workload.close()

    n = len(outcomes)
    wall_ms = np.array([t1 - t0 for t0, t1 in item_spans]) * 1e3
    scales = np.array([probe.scale(t0, t1) for t0, t1 in item_spans])
    lat_ms = wall_ms * scales
    tail_pct = _tail_percentile(n, workload.tail_pct)
    failed = [
        {"item": name, "note": o.note, "known_false_alarm": o.known}
        for name, o in zip(names, outcomes) if not o.ok
    ]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.traced),
        "rounds": rounds,
        "rounds_planned": planned,
        "cut_short": rounds < planned,
        "cells_per_round": len(workload.cells()),
        "attempted": n,
        "failed": len(failed),
        "failed_items": failed,
        "elapsed_s": elapsed,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        # Item times on the reference speed scale (see speed.py), per second
        # of item time: the speed samples and digests between items are the
        # benchmark's own work.
        "items_per_s": n / (lat_ms.sum() / 1e3),
        "item_ms_p50": _slot_p50(lat_ms, rounds),
        "item_ms_tail": float(np.percentile(lat_ms, tail_pct)),
        "tail_pct": tail_pct,
        "tail_items_beyond": int(np.count_nonzero(lat_ms > np.percentile(lat_ms, tail_pct))),
        "wall_clock": {
            "items_per_s": n / (wall_ms.sum() / 1e3),
            "item_ms_p50": _slot_p50(wall_ms, rounds),
            "item_ms_tail": float(np.percentile(wall_ms, tail_pct)),
        },
        "speed_scale": {
            "p25": float(np.percentile(scales, 25)),
            "p50": float(np.percentile(scales, 50)),
            "p75": float(np.percentile(scales, 75)),
            "kernel_ref_s": speed.KERNEL_REF_S,
            "sensitivity": speed.SENSITIVITY,
            "samples": len(probe.kernel_s),
        },
        "peak_rss_mb": _peak_rss_mb(),
        "fail_frac": len(failed) / n,
        "warmup_digest_repeats": warm_digest == digests[0] and names[0] == first_name,
        "digest": wl.run_digest(digests),
        "item_digests": digests,
        "item_latencies_s": (lat_ms / 1e3).tolist(),
        **workload.summary(outcomes),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["untraced_hooks"] = tracer.missing
        spans_path = WORKDIR / f"spans-{workload.name}.csv"
        tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path)
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------------------
# parent side


def _spawn(workload: str, seed: int, seconds: float, *, traced=False, setup_only=False) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--launched", repr(time.monotonic())]
    if traced:
        argv.append("--traced")
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _blas_info() -> list:
    """Version and runtime thread count of the OpenBLAS bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    out = []
    for pkg in (numpy, sys.modules["scipy"]):
        libs_dir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs_dir.glob("*openblas*.so*")):
            # Already loaded by the import above, so this is the same library.
            lib = ctypes.CDLL(str(path))
            info = {"package": pkg.__name__, "library": path.name}
            for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}"):
                threads = getattr(lib, name.format("_get_num_threads"), None)
                config = getattr(lib, name.format("_get_config"), None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode()
                    break
            out.append(info)
    return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads_from_env": any(
            os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _check(report: dict) -> list:
    """Problems with a workload's outputs that make the run incorrect."""
    problems = []
    if not report["warmup_digest_repeats"]:
        problems.append("warm-up item digest differs from its timed repeat")
    unknown = [f for f in report["failed_items"] if not f["known_false_alarm"]]
    if unknown:
        problems.append(f"{len(unknown)} item(s) failed outside the known false-alarm class")
    return problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple:
    """(metrics, report) for one workload."""
    if not traced:
        main = _spawn(name, seed, seconds)
        probes = [_spawn(name, seed, seconds, setup_only=True) for _ in range(SETUP_PROBES)]
        setups = [main["setup_s"]] + [p["setup_s"] for p in probes]
        main["setup_samples_s"] = setups
        main["setup_wall_samples_s"] = [main["setup_wall_s"]] + [p["setup_wall_s"] for p in probes]
        main["problems"] = _check(main)
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": main["items_per_s"],
            "item_ms_p50": main["item_ms_p50"],
            "item_ms_tail": main["item_ms_tail"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        return metrics, main

    import tracing

    plain = _spawn(name, seed, seconds)
    traced_run = _spawn(name, seed, seconds, traced=True)
    # Compare the runs over the items both completed, which are the same
    # items in the same order.
    common = min(plain["attempted"], traced_run["attempted"])
    same = plain["item_digests"][:common] == traced_run["item_digests"][:common]
    plain_s = sum(plain["item_latencies_s"][:common])
    traced_s = sum(traced_run["item_latencies_s"][:common])
    traced_run["untraced_items_per_s"] = plain["items_per_s"]
    traced_run["digest_items_compared"] = common
    traced_run["digests_match_untraced"] = same
    traced_run["problems"] = _check(plain) + _check(traced_run)
    if not same:
        traced_run["problems"].append("traced and untraced item digests differ")
    metrics = tracing.per_round(traced_run["layers"], traced_run["rounds"])
    metrics["fail_frac"] = traced_run["fail_frac"]
    # The detector figures exist on noise_sweep only; elsewhere they read 0.
    metrics["detect_frac"] = traced_run.get("detect_frac", 0.0)
    metrics["detect_steps_p50"] = traced_run.get("detect_steps_p50", 0.0)
    # Gap in items per second over the common items: 1 - traced/untraced.
    metrics["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    return metrics, traced_run


def _units(traced: bool) -> dict:
    if not traced:
        return dict(END_TO_END)
    import tracing

    layers = [(name, tracing.reported_unit(unit)) for name, unit in tracing.LAYER_METRICS]
    return dict(layers + OUTCOME_METRICS)


def _print_table(name: str, metrics: dict, units: dict, report: dict) -> None:
    print(f"== {name}: {report['attempted']} items in {report['rounds']} rounds, "
          f"{report['failed']} failed, digest {report['digest'][:16]}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:16.6g} {units[key]}")
    # Outcome figures of an untraced run: in the table, not among its metrics.
    for key, unit in OUTCOME_METRICS:
        if key not in metrics and key in report:
            print(f"  {key:40s} {report[key]:16.6g} {unit}")
    print(f"  (item_ms_tail is p{report['tail_pct']:g} of {report['attempted']} items, "
          f"{report['tail_items_beyond']} beyond it)")
    for item in report["failed_items"]:
        tag = "known false alarm" if item["known_false_alarm"] else "FAILED"
        print(f"  {tag}: {item['item']}: {item['note']}")
    for problem in report["problems"]:
        print(f"  INCORRECT: {problem}")


def parent_main(args) -> int:
    sys.path.insert(0, str(BENCH))
    if not (ROOT / "src" / "gradcert" / "__init__.py").is_file():
        print(f"error: no gradcert package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    units = _units(traced)
    env = environment(args.seed)
    results = {}
    for name in names:
        metrics, report = run_workload(name, args.seed, args.seconds, traced)
        report.pop("item_digests")
        report.pop("item_latencies_s")
        report["environment"] = env
        results[name] = (metrics, report)
        _print_table(name, metrics, units, report)
        print(json.dumps({"report": report}, indent=1))

    out_metrics = {}
    for name, (metrics, _) in results.items():
        for key, value in metrics.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            out_metrics[label] = {"value": value, "unit": units[key]}
    reports = [r for _, r in results.values()]
    print(json.dumps({
        "correct": all(not r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": out_metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="about how long each workload is timed; sets its fixed number of "
                             "rounds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.child:
        if args.workload == "all" or args.launched is None:
            parser.error("--child needs one workload and --launched")
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
