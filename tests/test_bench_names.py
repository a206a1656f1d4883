"""The restage names the benchmark borrows still exist and keep their form, so
a rename or a signature change fails here instead of in ``bench/run.py``.

``bench/tracer.py`` wraps restage functions by name, ``bench/checks.py``
imports the resize and the seeded streams for its reference, and
``bench/workloads.py`` copies the variant names into energy-sweep's curves.
The bench modules are read from their files; nothing is wrapped or run here.
``tests/test_sampler.py`` calls the bench's reference run itself, and holds
``run`` to it."""

from __future__ import annotations

import ast
import importlib

import numpy as np

from restage.latent import LatentGrid, resize_bilinear
from restage.sampler import VARIANTS

from _toys import BENCH, bench_module


def _resolves(location: str, attr: str) -> bool:
    module, _, cls = location.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls, None)
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves_to_a_callable():
    tracer = bench_module("tracer")
    missing = [f"{loc}.{attr}" for loc, attr, _, _ in tracer.WRAPS if not _resolves(loc, attr)]
    assert len(tracer.WRAPS) > 0 and missing == []


def test_every_name_the_reference_check_imports_resolves():
    tree = ast.parse((BENCH / "checks.py").read_text(encoding="utf-8"))
    borrowed = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "restage"
        for alias in node.names
    ]
    missing = [
        f"{module}.{name}" for module, name in borrowed
        if not hasattr(importlib.import_module(module), name)
    ]
    assert len(borrowed) > 0 and missing == []


def test_the_reference_check_resizes_a_grid_as_it_calls_it():
    # bench/checks.py calls resize_bilinear(LatentGrid(p), h, w).data on (C, H, W) arrays
    a = np.arange(24.0).reshape(2, 3, 4)
    out = resize_bilinear(LatentGrid(a), 5, 7).data
    assert type(out) is np.ndarray
    assert out.shape == (2, 5, 7) and out.dtype == np.float64


def test_the_energy_sweep_runs_every_variant():
    # a renamed variant would otherwise drop out of energy-sweep's curves unseen
    assert bench_module("workloads").CURVE_LABELS == VARIANTS
