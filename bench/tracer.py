"""In-memory spans around restage's public functions, and self-time arithmetic.

The tracer wraps each function where it is looked up at call time, from
outside the program: ``restage.sampler`` binds ``ddim_step``,
``cfg_combine`` and friends by name, so a wrapper placed only on
``restage.denoiser.cfg_combine`` would see no calls. Methods are wrapped on
their class.

A span is ``[name, start_ns, end_ns, parent, run]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``run`` the ordinal of the
enclosing ``sampler.run`` call within the command (-1 outside any run).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict

# (module[:class], attribute, span name, workload predicted to call it)
WRAPS = (
    ("restage.cli", "cmd_sample", "cli.command", "posterior-staged"),
    ("restage.cli", "cmd_energy_curve", "cli.command", "energy-sweep"),
    ("restage.cli", "load_config", "config.load", "posterior-staged"),
    ("restage.cli", "build_denoiser", "config.build_denoiser", "posterior-staged"),
    ("restage.cli", "build_codec", "config.build_codec", "codec-external"),
    ("restage.cli", "run", "sampler.run", "posterior-staged"),
    ("restage.cli", "write_grid", "tensorfile.write", "snapshot-io"),
    ("restage.config", "read_tensor", "tensorfile.read", "posterior-staged"),
    ("restage.config:ExperimentConfig", "build_schedule", "schedule.build", "posterior-staged"),
    ("restage.config:ExperimentConfig", "build_timeline", "schedule.build", "posterior-staged"),
    ("restage.schedule", "build_plan", "schedule.build", "posterior-staged"),
    ("restage.analysis", "trace_from_run", "analysis.trace", "energy-sweep"),
    ("restage.analysis", "mean_trace", "analysis.trace", "energy-sweep"),
    ("restage.sampler", "ddim_step", "sampler.ddim_step", "posterior-staged"),
    ("restage.sampler", "noise_refresh", "sampler.noise_refresh", "posterior-staged"),
    ("restage.sampler", "cfg_combine", "denoiser.cfg_combine", "posterior-staged"),
    ("restage.sampler", "average_energy", "latent.energy", "posterior-staged"),
    ("restage.sampler", "gaussian_noise", "latent.noise", "posterior-staged"),
    ("restage.sampler", "refresh_resize", "codec.refresh_resize", "posterior-staged"),
    ("restage.sampler", "resize_bilinear", "latent.resize", "energy-sweep"),
    ("restage.codec", "resize_bilinear", "latent.resize", "posterior-staged"),
    ("restage.codec", "write_grid", "tensorfile.write", "codec-external"),
    ("restage.codec", "read_grid", "tensorfile.read", "codec-external"),
    ("restage.codec:ExternalCodec", "_invoke", "codec.external", "codec-external"),
    ("restage.denoiser", "resize_bilinear", "latent.resize", "posterior-staged"),
    ("restage.denoiser:GaussianPrior", "predict_eps", "denoiser.predict_eps", "snapshot-io"),
    ("restage.denoiser:DatasetPrior", "predict_eps", "denoiser.predict_eps", "posterior-staged"),
    ("restage.denoiser:DatasetPrior", "prepare_resolution", "denoiser.prepare_resolution", "posterior-staged"),
    ("restage.latent:LatentGrid", "__init__", "latent.grid_init", "posterior-staged"),
)

def _rhrt_bytes(shape) -> int:
    """Size of an RHRT file: magic, version and rank, one u32 per dimension, float32 payload."""
    return 12 + 4 * len(shape) + 4 * math.prod(shape)


def _count_write(counters, args, kwargs, result):
    counters["tensorfile.write_bytes"] += _rhrt_bytes(args[1].shape)


def _count_read(counters, args, kwargs, result):
    counters["tensorfile.read_bytes"] += _rhrt_bytes(result.shape)


def _count_csv(counters, args, kwargs, result):
    header, rows = args[1], args[2]
    counters["cli.csv_bytes"] += len(header.encode()) + 1 + sum(len(r.encode()) + 1 for r in rows)


ON_CALL = {
    "tensorfile.write": _count_write,
    "tensorfile.read": _count_read,
}


class Tracer:
    """Records one span per wrapped call, in memory, for the life of the process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.calls: Counter = Counter()  # per wrap target "module[:class].attr"
        self._stack: list[int] = []
        self._run = -1
        self._runs = 0

    def wrap(self, name: str, fn, target: str, on_call=None):
        spans, stack, calls, counters = self.spans, self._stack, self.calls, self.counters
        clock = time.perf_counter_ns
        starts_run = name == "sampler.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[target] += 1
            outer_run = self._run
            if starts_run:
                self._run = self._runs
                self._runs += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self._run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._run = outer_run
            if on_call is not None:
                on_call(counters, args, kwargs, result)
            return result

        return traced

    def count_only(self, fn, on_call):
        """Wrapper that updates counters but records no span, so its time stays in the caller."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(counters, args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        for location, attr, name, _ in WRAPS:
            owner = resolve(location)
            target = f"{location}.{attr}"
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), target, ON_CALL.get(name)))
        cli = importlib.import_module("restage.cli")
        cli._write_csv = self.count_only(cli._write_csv, _count_csv)


def resolve(location: str):
    module, _, cls = location.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover.

    Children are merged as intervals, so overlapping children (which a
    single thread does not produce, but a hand-built span set may) are not
    subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> tuple[Counter, Counter]:
    """Call counts and self nanoseconds per span name."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += own
    return calls, self_ns
