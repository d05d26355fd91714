"""Per-layer metrics from a traced pass.

The traced pass runs the workload's ``main()`` calls under stdlib
``cProfile``; the profile is aggregated by function and by module of
ticklab.  cProfile cannot see Cython functions such as
``numpy.random.default_rng`` nor read arguments, so a few thin wrappers
are installed from here for the duration of a pass: around
``default_rng`` (stream count and time), every ``sample`` method (waits
drawn, by calling module), ``empirical_inaccuracy`` (samples estimated)
and ``monte_carlo`` (wall time per protocol and truncated trials).  The
program's own files are not touched.
"""
from __future__ import annotations

import cProfile
import contextlib
import pstats
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import HERE, PROTOCOL_NAMES


def module_of(filename: str, funcname: str) -> str:
    """Module a profile entry belongs to: a ticklab module's short name,
    ``numpy``, ``scipy``, ``bench`` for this directory, else ``python``."""
    if filename == "~":  # C function; its name says whose it is
        for lib in ("numpy", "scipy"):
            if lib in funcname:
                return lib
        return "python"
    path = Path(filename)
    if path.parent.name == "ticklab" and path.parent.parent.name == "src":
        return path.stem
    if path.parent == HERE:
        return "bench"
    for lib in ("numpy", "scipy"):
        if f"/{lib}/" in filename:
            return lib
    return "python"


def _bindings(obj):
    """(module, attribute) pairs of every ticklab module that binds ``obj``
    at module level."""
    for name, module in list(sys.modules.items()):
        if name == "ticklab" or name.startswith("ticklab."):
            for attr, value in vars(module).items():
                if value is obj:
                    yield module, attr


class Probes:
    """Counters filled by the wrappers while installed."""

    def __init__(self):
        self.mc_records = []        # (protocol name, trials, s, truncated)
        self.drawn_by = Counter()   # waits drawn, by calling module
        self.estimated = 0          # samples passed to the estimator

    @contextlib.contextmanager
    def timing_monte_carlo(self):
        """Time every ``monte_carlo`` call; one wrapper call per call."""
        original = sys.modules["ticklab.protocols"].monte_carlo

        def monte_carlo(cfg, trials, seed):
            t0 = time.perf_counter()
            matrix = original(cfg, trials, seed)
            self.mc_records.append((cfg.protocol.value, trials,
                                    time.perf_counter() - t0,
                                    matrix.n_truncated))
            return matrix

        with _replaced(original, monte_carlo):
            yield

    @contextlib.contextmanager
    def counting(self):
        """Count waits drawn, samples estimated and random streams made."""
        from ticklab.distributions import WaitingTimeDistribution
        from ticklab.inaccuracy import empirical_inaccuracy as estimator

        def empirical_inaccuracy(samples, j, eps):
            est = estimator(samples, j, eps)
            self.estimated += est.n_samples
            return est

        rng_factory = np.random.default_rng

        def default_rng(*args, **kwargs):
            return rng_factory(*args, **kwargs)

        with contextlib.ExitStack() as stack:
            for cls in WaitingTimeDistribution.__subclasses__():
                if "sample" in vars(cls):
                    stack.enter_context(
                        _method_replaced(cls, self._count_sample(cls)))
            stack.enter_context(_replaced(estimator, empirical_inaccuracy))
            np.random.default_rng = default_rng
            stack.callback(setattr, np.random, "default_rng", rng_factory)
            yield

    def _count_sample(self, cls):
        original = cls.sample

        def sample(dist, rng, size=None):
            out = original(dist, rng, size)
            caller = sys._getframe(1).f_code
            self.drawn_by[module_of(caller.co_filename, caller.co_name)] \
                += np.size(out)
            return out

        return sample


@contextlib.contextmanager
def _replaced(original, wrapper):
    bound = list(_bindings(original))
    for module, attr in bound:
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr in bound:
            setattr(module, attr, original)


@contextlib.contextmanager
def _method_replaced(cls, wrapper):
    original = vars(cls)["sample"]
    cls.sample = wrapper
    try:
        yield
    finally:
        cls.sample = original


def profile_call(fn, *args):
    """Call ``fn(*args)`` under cProfile; return its result and the
    profile's raw stats."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler).stats


class Aggregate:
    """Profile entries summed by (module, function name) and by module."""

    def __init__(self, stats):
        self.calls = Counter()
        self.cum_s = Counter()
        self.self_s = Counter()
        for (filename, _, name), (_, nc, tt, ct, _) in stats.items():
            module = module_of(filename, name)
            self.calls[module, name] += nc
            self.cum_s[module, name] += ct
            self.self_s[module] += tt


def layer_metrics(agg: Aggregate, probes: Probes, traced_wall: float,
                  untraced_walls: list[float]) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    c, s = agg.calls, agg.cum_s
    input_ticks = c["clocks", "next_tick"]
    drawn_by_clocks = probes.drawn_by["clocks"]
    trials = sum(r[1] for r in probes.mc_records)
    m = {
        "rng.streams": (c["bench", "default_rng"], "count"),
        "rng.setup_s": (s["bench", "default_rng"], "s"),
        "trace.ticktrace.calls": (c["trace", "__post_init__"], "count"),
        "trace.validate_s": (s["trace", "__post_init__"], "s"),
        "trace.self_s": (agg.self_s["trace"], "s"),
        "protocols.engine_s": (s["protocols", "run_protocol"], "s"),
        "protocols.run_protocol.calls": (c["protocols", "run_protocol"],
                                         "count"),
        "protocols.self_s": (agg.self_s["protocols"], "s"),
        "protocols.prepare.calls": (c["protocols", "prepare"], "count"),
        "protocols.prepare_s": (s["protocols", "prepare"], "s"),
        "protocols.truncated_frac": (
            sum(r[3] for r in probes.mc_records) / trials if trials else 0.0,
            "ratio"),
    }
    for name in PROTOCOL_NAMES.values():
        runs = [r for r in probes.mc_records if r[0] == name]
        n = sum(r[1] for r in runs)
        m[f"protocols.{name}.us_per_trial"] = (
            sum(r[2] for r in runs) / n * 1e6 if n else 0.0, "us")
    m.update({
        "clocks.sample_tick_phase.calls": (c["clocks", "sample_tick_phase"],
                                           "count"),
        "clocks.sample_tick_phase_s": (s["clocks", "sample_tick_phase"],
                                       "s"),
        "clocks.input_ticks": (input_ticks, "count"),
        "clocks.input_use_frac": (
            input_ticks / drawn_by_clocks if drawn_by_clocks else 0.0,
            "ratio"),
        "clocks.self_s": (agg.self_s["clocks"], "s"),
        "distributions.sample.calls": (c["distributions", "sample"],
                                       "count"),
        "distributions.samples_drawn": (sum(probes.drawn_by.values()),
                                        "count"),
        "distributions.confidence.calls": (c["distributions", "confidence"],
                                           "count"),
        "distributions.confidence_s": (s["distributions", "confidence"],
                                       "s"),
        "distributions.self_s": (agg.self_s["distributions"], "s"),
        "scipy.self_s": (agg.self_s["scipy"], "s"),
        "network.run_network_s": (s["network", "run_network"], "s"),
        "network.node_runs": (c["network", "_run_node"], "count"),
        "network.check_node_s": (s["network", "_check_node"], "s"),
        "network.spread_s": (s["network", "cross_node_spread"], "s"),
        "network.self_s": (agg.self_s["network"], "s"),
        "inaccuracy.estimate.calls": (c["inaccuracy",
                                        "empirical_inaccuracy"], "count"),
        "inaccuracy.samples": (probes.estimated, "count"),
        "inaccuracy.estimate_s": (s["inaccuracy", "empirical_inaccuracy"],
                                  "s"),
        "cli.render_s": (s["cli", "render_json"] + s["cli", "render_csv"],
                         "s"),
        "cli.self_s": (agg.self_s["cli"], "s"),
        "numpy.self_s": (agg.self_s["numpy"], "s"),
        "tracing.overhead_frac": (
            traced_wall / statistics.median(untraced_walls) - 1.0, "ratio"),
    })
    return m
