"""Every restage function ``bench/tracer.py`` wraps by name still exists, so a
rename cannot silently break ``bench/run.py --trace 1``. The stdlib-only tracer
module is loaded by path; nothing is wrapped."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _resolves(location: str, attr: str) -> bool:
    module, _, cls = location.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls, None)
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{loc}.{attr}" for loc, attr, _, _ in tracer.WRAPS if not _resolves(loc, attr)]
    assert len(tracer.WRAPS) > 0 and missing == []
