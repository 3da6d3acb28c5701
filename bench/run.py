"""hsidet benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload compare-dense --seed 2025 --seconds 25 --trace 0
    python3 bench/run.py --smoke

The package is imported from ``src/`` next to this directory, never from an
installed copy.  A run sets up (import, scene generation and writes, and
one cold job that doubles as the reference for the byte-identity checks),
then repeats the warm job until ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates traced and untraced jobs and reports the
per-layer metrics.  Every metric is printed by name with its unit, and the
last stdout line is one JSON object: correct, attempted, failed, metrics.
A per-run record with the environment goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3        # scene generation + writes, median reported
MIN_TIMED_JOBS = 2       # warm jobs after the reference job, whatever --seconds says
MAX_JOBS = 200


def import_package() -> float:
    """Import hsidet from this checkout's src/; return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "hsidet", "__init__.py")):
        raise SystemExit(f"error: no hsidet package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401  (part of the package's import cost)
    import hsidet
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(hsidet.__file__))) != SRC:
        raise SystemExit(f"error: hsidet imported from {hsidet.__file__}, not {SRC}")
    return elapsed


# -- environment record ---------------------------------------------------------


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(workload, seed, spec, config) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
        "workload": workload.name,
        "seed": seed,
        "scene": dataclasses.asdict(spec),
        "config": config.to_dict() if config is not None else None,
    }


# -- one run ------------------------------------------------------------------


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload, seed: int, seconds: float, trace: bool, import_s: float,
        smoke: bool = False) -> dict:
    """Set up, run and check the workload's jobs; return metrics and record.

    hsidet and the modules that use it are imported here, after
    ``import_package`` has put ``src/`` on the path and timed the import.
    """
    from hsidet import synth

    import spans
    import workloads

    spec, config = workload.inputs(seed, smoke)
    work = os.path.join(BENCH_DIR, "work")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work)
    attempted = failed = 0
    problems: list[str] = []
    missing: set[str] = set()
    try:
        setup_tracer = spans.Tracer()
        setup_s = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            if trace:
                with setup_tracer:
                    cube, mask, signature = synth.generate(spec)
            else:
                cube, mask, signature = synth.generate(spec)
            paths = workloads.write_scene(
                cube, mask, signature, os.path.join(tmp, f"scene{i}"), workload.interleave
            )
            setup_s.append(time.perf_counter() - start)
        scene = workloads.Scene(cube, mask, signature, paths)
        out_dir = os.path.join(tmp, "out")
        os.makedirs(out_dir)

        def job(tracer=None):
            """Run and check one job; return its wall time or None on failure."""
            nonlocal attempted, failed
            attempted += 1
            try:
                start = time.perf_counter()
                if tracer is None:
                    out = workload.job(scene, out_dir, config)
                else:
                    with tracer:
                        out = workload.job(scene, out_dir, config)
                end = time.perf_counter()
                aucs, digests, bad = workloads.check_job(
                    workload, scene, out, reference, out_dir
                )
            except Exception:  # a failed job is counted, reported and survived
                traceback.print_exc()
                failed += 1
                problems.append("job raised")
                return None
            if bad:
                failed += 1
                problems.extend(bad)
                return None
            results.append((aucs, digests))
            if tracer is not None:
                traced.append(spans.layer_metrics(tracer, start, end))
                tracer_summaries.append(spans.summary(tracer.spans))
            return end - start

        reference = None
        results, traced, tracer_summaries = [], [], []
        cold = job()
        aucs, reference = results[0] if results else ({}, None)

        plain, with_trace = [], []
        loop_start = time.perf_counter()
        for _ in range(MAX_JOBS if reference else 0):
            elapsed = time.perf_counter() - loop_start
            done = bool(with_trace and plain) if trace else len(plain) >= MIN_TIMED_JOBS
            cost = (plain[-1] if plain else 0.0) + (with_trace[-1] if with_trace else 0.0)
            if (done or failed) and elapsed + cost > seconds:
                break
            if trace:
                tracer = spans.Tracer()
                t = job(tracer)
                if t is not None:
                    with_trace.append(t)
                missing.update(tracer.missing)
            t = job()
            if t is not None:
                plain.append(t)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass

    job_s = statistics.median(plain) if plain else 0.0
    if trace:
        # Every key, at zero, in case no traced job succeeded.
        reported = dict.fromkeys(spans.layer_metrics(spans.Tracer(), 0.0, 0.0), 0.0)
        if traced:
            reported = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        generate = [s.end - s.start for s in setup_tracer.spans if s.name == "synth.generate"]
        reported["synth.generate_s"] = statistics.median(generate) if generate else 0.0
        reported["trace.job_s"] = statistics.median(with_trace) if with_trace else 0.0
        reported["trace.overhead_s"] = reported["trace.job_s"] - job_s
        for method in workloads.COMPARE_METHODS:
            reported[f"auc.{method}"] = aucs.get(method, 0.0)
    else:
        reported = {
            "job_s": job_s,
            "setup_s": import_s + statistics.median(setup_s) + (cold or 0.0),
            "peak_rss_mb": rss_mb,
            "auc.lead": aucs.get(workload.lead, 0.0),
            "auc.mean": statistics.fmean(aucs.values()) if aucs else 0.0,
        }

    return {
        "reported": reported,
        "aucs": aucs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {
            "job_s": plain, "traced_job_s": with_trace, "setup_scene_s": setup_s,
            "cold_job_s": cold, "import_s": import_s,
            "job_s_q1_q3": list(_quartiles(plain)) if plain else [0.0, 0.0],
        },
        "spans": tracer_summaries[-1] if tracer_summaries else {},
        "missing_targets": sorted(missing),
        "env": environment(workload, seed, spec, config),
    }


# -- output -------------------------------------------------------------------


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_table(manifest: dict, trace: bool, reported: dict) -> dict:
    """{name: {value, unit}} for exactly the metrics BENCHMARK.json lists."""
    wanted = manifest["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in reported]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": float(reported[m["name"]]), "unit": m["unit"]} for m in wanted}


def write_record(args, result: dict, table: dict) -> str:
    out = os.path.join(BENCH_DIR, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {k: v for k, v in result.items() if k != "reported"}
    record["metrics"] = table
    record["error_rate"] = result["failed"] / result["attempted"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def report(args, manifest: dict, result: dict) -> dict:
    table = metric_table(manifest, bool(args.trace), result["reported"])
    n = len(result["samples"]["job_s"])
    q1, q3 = result["samples"]["job_s_q1_q3"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, entry in table.items():
        note = f"  (median of {n} warm jobs, q1 {q1:.4f} q3 {q3:.4f})" if name == "job_s" else ""
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'error_rate':34s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} jobs)")
    for method, value in sorted(result["aucs"].items()):
        if f"auc.{method}" not in table:
            print(f"  {'auc.' + method:34s} {value:.6f} ratio")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    print(f"  record: {os.path.relpath(write_record(args, result, table), ROOT)}")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scenes, every workload, both modes; self-checks")
    args = parser.parse_args(argv)
    manifest = load_manifest()
    import_s = import_package()
    import workloads

    if args.smoke:
        return smoke(manifest, import_s)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed
    result = run(workload, args.seed, args.seconds, bool(args.trace), import_s)
    table = report(args, manifest, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": table,
    }))
    return 0


def smoke(manifest: dict, import_s: float) -> int:
    """Self-test: the AUC oracle on hand-computed cases, then every workload
    on a tiny scene in both modes, each emitting every listed metric."""
    from hsidet import GroundTruthMask, ScoreMap, metrics

    import workloads

    cases = [  # (scores, labels, AUC by hand)
        ([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0], 0.75),   # 3 of 4 pairs ordered
        ([0.5, 0.5, 0.2], [1, 0, 0], 0.75),            # one tie (1/2) + one win
        ([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0], 0.0),     # fully inverted
    ]
    for scores, labels, expected in cases:
        got = workloads.mann_whitney_auc(scores, labels)
        curve = metrics.roc(ScoreMap([scores]), GroundTruthMask([labels]))
        area = workloads.trapezoid_area(curve.far, curve.pd)
        if got != expected or abs(area - expected) > workloads.AUC_TOLERANCE:
            print(f"smoke: AUC oracle {got!r}, ROC area {area!r}, expected {expected!r}")
            return 1
    for name, workload in workloads.WORKLOADS.items():
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=workload.default_seed, trace=trace)
            result = run(workload, args.seed, 0.0, bool(trace), import_s, smoke=True)
            report(args, manifest, result)
            if result["failed"]:
                print(f"smoke: {name} trace {trace} failed: {result['problems']}")
                return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
