"""In-memory spans around the public functions quantcs calls between its layers.

``instrument(tracer)`` rebinds each traced function in every ``quantcs``
module namespace that holds it, so the calls the harness, the solver and the
verify suites make through those names open a span; it restores the original
bindings on exit. A span records its name, start, end, parent span and trial
id. Trial ids number a pass's trials in the order the harness starts them,
which is its call of ``gen_signal``; spans outside a trial have none.

Work counts that need extra arithmetic (rows that mismatch, support size)
are computed outside every span: the tracer's clock stops while they run, so
no span, parent or child, contains that time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import SUITES

# (defining module, function name) -> span name
TRACED = {
    ("quantcs.harness", "run_experiment"): "harness.run_experiment",
    ("quantcs.signals", "gen_signal"): "signals.gen_signal",
    ("quantcs.signals", "project_model"): "signals.project_model",
    ("quantcs.sensing", "sample_instance"): "sensing.sample_instance",
    ("quantcs.sensing", "measure"): "sensing.measure",
    ("quantcs.sensing", "corrupt"): "sensing.corrupt",
    ("quantcs.pgd", "pgd_recover"): "pgd.pgd_recover",
    ("quantcs.pgd", "gradient"): "pgd.gradient",
    ("quantcs.quantizers", "quantize_vec"): "quantizers.quantize_vec",
    ("quantcs.oracles", "enumerate_net"): "oracles.enumerate_net",
    ("quantcs.oracles", "hdm_decode"): "oracles.hdm_decode",
    ("quantcs.oracles", "estimate_puv"): "oracles.estimate_puv",
}

NAME, START, END, PARENT, TRIAL = range(5)


class Tracer:
    """Spans and work counters of one pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, trial id]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.trial: int | None = None
        self.trials = 0
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self.now(), None, self.stack[-1] if self.stack else -1, self.trial])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][END] = self.now()

    @contextmanager
    def untimed(self):
        """Run bookkeeping whose time no span may contain."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0


def _traced(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            with tracer.untimed():
                after(tracer, args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_matrix(tracer, args, kwargs, result):
    tracer.counters["matrix_mb"] += 8.0 * result.m * result.n / 1e6


def _count_iterations(tracer, args, kwargs, result):
    tracer.counters["iterations"] += _arg(args, kwargs, 0, "config").iterations


def _end_experiment(tracer, args, kwargs, result):
    tracer.trial = None


# Q(Au - tau) costs another matvec, so only every MISMATCH_STRIDE-th gradient call
# counts mismatched rows. The stride is prime to the plans' 100 iterations, so
# the sampled calls cycle through every iteration index.
MISMATCH_STRIDE = 7


def _gradient_counts(quantize_vec):
    def after(tracer, args, kwargs, result):
        spec, inst, y, u = (_arg(args, kwargs, i, k) for i, k in enumerate(("spec", "instance", "y", "u")))
        m, n = inst.matrix.shape
        c = tracer.counters
        c["gradient_gflop"] += 4.0 * m * n / 1e9
        c["gradient_mb"] += 16.0 * m * n / 1e6
        c["support_sum"] += np.count_nonzero(u) / n
        if c["gradient_calls"] % MISMATCH_STRIDE == 0:
            z = inst.matrix @ np.asarray(u, dtype=float) - inst.dither
            c["mismatch_sum"] += np.count_nonzero(quantize_vec(spec, z) != np.asarray(y)) / m
            c["mismatch_samples"] += 1
        c["gradient_calls"] += 1

    return after


@contextmanager
def instrument(tracer: Tracer):
    """Trace every namespace binding of the functions in ``TRACED`` and each verify suite."""
    import quantcs.verify

    originals = {key: getattr(sys.modules[key[0]], key[1]) for key in TRACED}
    afters = {
        ("quantcs.sensing", "sample_instance"): _count_matrix,
        ("quantcs.pgd", "pgd_recover"): _count_iterations,
        ("quantcs.pgd", "gradient"): _gradient_counts(originals[("quantcs.quantizers", "quantize_vec")]),
        ("quantcs.harness", "run_experiment"): _end_experiment,
    }
    # keyed by id: the ids stay unique while ``originals`` holds the functions
    wrapped = {id(fn): _traced(tracer, TRACED[key], fn, afters.get(key)) for key, fn in originals.items()}
    gen_signal = wrapped[id(originals[("quantcs.signals", "gen_signal")])]

    @functools.wraps(gen_signal)
    def trial_start(*args, **kwargs):
        # the harness's own gen_signal binding opens each trial
        tracer.trial = tracer.trials
        tracer.trials += 1
        return gen_signal(*args, **kwargs)

    restore = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "quantcs" or modname.startswith("quantcs.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                new = trial_start if (modname, attr) == ("quantcs.harness", "gen_signal") else wrapped[id(value)]
                restore.append((mod, attr, value))
                setattr(mod, attr, new)
    suites = dict(quantcs.verify.SUITES)
    for suite, fn in suites.items():
        quantcs.verify.SUITES[suite] = _traced(tracer, f"verify.{suite}", fn)
    try:
        yield tracer
    finally:
        quantcs.verify.SUITES.update(suites)
        for mod, attr, value in restore:
            setattr(mod, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass layer metrics (see README.md for their meaning and units)."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        own[s[NAME]] += self_s
    c = tracer.counters

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    out = {
        "sensing.sample_instance.ms": 1e3 * total["sensing.sample_instance"],
        "sensing.sample_instance.calls": calls["sensing.sample_instance"],
        "sensing.matrix_mb": c["matrix_mb"],
        "sensing.measure.ms": 1e3 * total["sensing.measure"],
        "sensing.corrupt.ms": 1e3 * total["sensing.corrupt"],
        "signals.gen_signal.ms": 1e3 * total["signals.gen_signal"],
        "signals.project_model.us": per_call_us("signals.project_model"),
        "signals.project_model.calls": calls["signals.project_model"],
        "pgd.pgd_recover.ms": 1e3 * total["pgd.pgd_recover"],
        "pgd.self_ms": 1e3 * own["pgd.pgd_recover"],
        "pgd.iterations": c["iterations"],
        "pgd.gradient.us": per_call_us("pgd.gradient"),
        "pgd.gradient.calls": calls["pgd.gradient"],
        "pgd.gradient.gflop": c["gradient_gflop"],
        "pgd.gradient.mb": c["gradient_mb"],
        "pgd.gradient.gflops": c["gradient_gflop"] / total["pgd.gradient"] if total["pgd.gradient"] else 0.0,
        "pgd.mismatch_frac": c["mismatch_sum"] / max(c["mismatch_samples"], 1.0),
        "pgd.support_frac": c["support_sum"] / max(c["gradient_calls"], 1.0),
        "quantizers.quantize_vec.us": per_call_us("quantizers.quantize_vec"),
        "quantizers.quantize_vec.calls": calls["quantizers.quantize_vec"],
        "oracles.hdm_decode.ms": 1e3 * total["oracles.hdm_decode"],
        "oracles.estimate_puv.ms": 1e3 * total["oracles.estimate_puv"],
        "oracles.enumerate_net.ms": 1e3 * total["oracles.enumerate_net"],
    }
    for suite in SUITES:
        out[f"verify.{suite}.s"] = total[f"verify.{suite}"]
    out["harness.run_experiment.s"] = total["harness.run_experiment"]
    out["harness.self_ms"] = 1e3 * own["harness.run_experiment"]
    out["cli.self_ms"] = 1e3 * own["cli.main"]
    return out
