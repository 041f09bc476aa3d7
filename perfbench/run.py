"""The quantcs benchmark: one workload, end to end or traced layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse_sweep --seed 0 --seconds 20 --trace 0

The benchmark writes the workload's plan files, then runs them through the
public entry points ``quantcs.cli.main(["run", ...])`` and
``quantcs.cli.main(["verify", ...])`` in passes until ``--seconds`` have
elapsed, and checks every pass against ``reference.json``. BLAS is pinned to
one thread and the run uses the CLI's default of one worker thread.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
spends half the time on untraced passes and half on traced ones and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric with its unit and sample count, and the
environment. ``--out FILE`` appends the full record (with the environment)
to FILE as one JSON line, the input of ``compare.py``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUPS = 7  # set-ups per run; setup_s is their median

sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import WARMUP, WORKLOADS, Workload  # noqa: E402


@dataclass
class Pass:
    wall: float
    outputs: dict[str, str]
    attempted: int
    failed: int
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def write_plans(workload: Workload, seed: int, work: Path) -> dict[str, list[str]]:
    """Write each plan step's file; return each step's CLI arguments."""
    work.mkdir(parents=True, exist_ok=True)
    argv = {}
    for step in workload.steps:
        if step.plan is None:
            argv[step.key] = ["verify"] + (["--suite", step.suite] if step.suite else [])
            continue
        plan = work / f"{step.key}.json"
        plan.write_text(json.dumps(step.plan_json(seed)), encoding="utf-8")
        argv[step.key] = ["run", "--config", str(plan), "--out", str(work / f"{step.key}.csv")]
    return argv


def _call(main, argv: list[str], tracer) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf), (tracer.span("cli.main") if tracer else nullcontext()):
        rc = main(argv)
    return rc, buf.getvalue()


def run_pass(workload: Workload, argv: dict[str, list[str]], ref: dict, tracer=None) -> Pass:
    """One pass over the workload's steps, timed, then checked."""
    from quantcs.cli import main

    printed = {}
    with spans.instrument(tracer) if tracer else nullcontext():
        t0 = time.perf_counter()
        for step in workload.steps:
            printed[step.key] = _call(main, argv[step.key], tracer)
        wall = time.perf_counter() - t0
    outputs = {}
    for step in workload.steps:
        rc, text = printed[step.key]
        if rc not in ((0,) if step.plan else (0, 1)):
            raise RuntimeError(f"quantcs {' '.join(argv[step.key])} exited with {rc}")
        outputs[step.key] = Path(argv[step.key][-1]).read_text(encoding="utf-8") if step.plan else text
    attempted, failed, problems = reference.check_pass(workload, outputs, ref)
    p = Pass(wall, outputs, attempted, failed, problems)
    if tracer:
        p.layers = spans.layer_metrics(tracer)
        p.spans = tracer.spans
    return p


def run_passes(workload, argv, ref, seconds: float, traced: bool) -> list[Pass]:
    """Passes until ``seconds`` have elapsed (at least one); later passes must repeat the first's output."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        p = run_pass(workload, argv, ref, spans.Tracer() if traced else None)
        if passes and p.outputs != passes[0].outputs:
            p.failed = p.attempted
            p.problems.append("output differs from the first pass of this run")
        passes.append(p)
    return passes


def measure_setup(work: Path, count: int) -> list[float]:
    """Set up quantcs ``count`` times, each in a fresh interpreter."""
    plan = work / "warmup.json"
    plan.write_text(json.dumps(WARMUP), encoding="utf-8")
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(ROOT), str(plan), str(work / "warmup.csv")],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def warm_up(work: Path) -> None:
    """The same tiny run in this process, so the timed passes start warm."""
    from quantcs.cli import main

    plan = work / "warmup.json"
    plan.write_text(json.dumps(WARMUP), encoding="utf-8")
    rc, _ = _call(main, ["run", "--config", str(plan), "--out", str(work / "warmup.csv")], None)
    if rc != 0:
        raise RuntimeError(f"warm-up run exited with {rc}")


def pool_speedup(seed: int, work: Path) -> float:
    """Wall of a short sparse plan at ``--threads 1`` over ``--threads nproc``, untraced."""
    from quantcs.cli import main

    step = next(s for s in WORKLOADS["sparse_sweep"].steps if s.key == "one_bit_gaussian")
    plan = work / "pool.json"
    plan.write_text(json.dumps(step.plan_json(seed)), encoding="utf-8")
    nproc = len(os.sched_getaffinity(0))
    walls = {1: [], nproc: []}
    for _ in range(2):
        for threads in walls:
            t0 = time.perf_counter()
            rc, _ = _call(main, ["run", "--config", str(plan), "--out", str(work / "pool.csv"), "--threads", str(threads)], None)
            walls[threads].append(time.perf_counter() - t0)
            if rc != 0:
                raise RuntimeError(f"pool run exited with {rc}")
    return statistics.median(walls[1]) / statistics.median(walls[nproc])


def summary(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of the samples."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(workload: Workload) -> dict:
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size = (_read(base + f) for f in ("level", "type", "size"))
        if size:
            caches[f"L{level.strip()}{'' if kind.strip() == 'Unified' else kind.strip()[0].lower()}"] = size.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas = "unknown"
    largest = max(
        (8 * m * (s.plan["model"].get("n") or s.plan["model"]["n1"] * s.plan["model"]["n2"]) / 1e6
         for s in workload.steps if s.plan for m in s.plan["m_grid"]),
        default=0.0,
    )
    llc = caches.get("L3", "")
    llc_mb = int(llc[:-1]) * {"K": 1024, "M": 1024**2}.get(llc[-1:], 0) / 1e6 if llc[:-1].isdigit() else 0.0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_model": model,
        "caches": caches,
        "git_commit": _git_commit(),
        "largest_matrix_mb": largest,
        "note": (
            f"the largest sensing matrix ({largest:.1f} MB) {'fits' if largest < llc_mb else 'may not fit'} "
            f"in the last-level cache ({llc or 'size unknown'}); pgd.gradient.mb counts computed bytes, "
            "not a bandwidth measurement"
        ),
    }


def measure(workload: Workload, ref: dict, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, list[Pass]]:
    """Run the workload; return its metrics (name -> summary) and its passes."""
    argv = write_plans(workload, seed, work)
    setups = measure_setup(work, SETUPS)
    warm_up(work)
    if not trace:
        passes = run_passes(workload, argv, ref, seconds, traced=False)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        metrics = {
            "setup_s": summary(setups),
            "wall_s": summary([p.wall for p in passes]),
            "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
            "passed_frac": summary([1.0 - failed / attempted]),
        }
        return metrics, passes
    plain = run_passes(workload, argv, ref, seconds / 2, traced=False)
    traced = run_passes(workload, argv, ref, seconds / 2, traced=True)
    metrics = {name: summary([p.layers[name] for p in traced]) for name in traced[0].layers}
    metrics["harness.pool_speedup"] = summary([pool_speedup(seed, work)])
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0
    metrics["trace.overhead_frac"] = summary([overhead])
    return metrics, plain + traced


def write_spans(path: Path, passes: list[Pass]) -> None:
    """All spans of the traced passes, times in seconds from each pass's first span."""
    rows = []
    for i, p in enumerate(q for q in passes if q.spans):
        t0 = p.spans[0][1]
        rows += [[i, name, round(s - t0, 9), round(e - t0, 9), parent, trial] for name, s, e, parent, trial in p.spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["pass", "name", "start", "end", "parent", "trial"], "spans": rows}, fh)


def report(workload: Workload, ref: dict, args, metrics: dict, units: dict, passes: list[Pass], env: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, {len(passes)} passes")
    for name, s in metrics.items():
        print(f"  {name} = {s['value']:.6g} {units[name]} (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} trials and verify checks)")
    for problem in sorted({q for p in passes for q in p.problems}):
        print(f"  FAILED {problem}")
    gap = reference.seed_deviation(workload, passes[0].outputs, ref, args.seed)
    if gap is not None:
        print(f"  largest relative gap to the committed cell means of seed {args.seed}: {gap:.3g}")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["value"], "unit": units[name]} for name, s in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="time spent on passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import quantcs.cli
    except ImportError as exc:
        print(f"error: cannot import quantcs from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(quantcs.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: quantcs was imported from {quantcs.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    workload = WORKLOADS[args.workload]
    ref = reference.load()
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        metrics, passes = measure(workload, ref, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differ = set(wanted) ^ set(metrics)
    if differ:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(differ)}", file=sys.stderr)
        return 2
    if args.trace:
        write_spans(WORK / f"spans-{workload.name}-seed{args.seed}.json", passes)
    env = environment(workload)
    result = report(workload, ref, args, {n: metrics[n] for n in wanted}, units, passes, env)
    if args.out:
        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                  **result, "summaries": metrics, "env": env}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
