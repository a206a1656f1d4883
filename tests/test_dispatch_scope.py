"""Byte-stability has a scope: one numpy build, SIMD dispatch and BLAS core.

For a fixed seed and config, outputs are byte-identical on one numpy build,
SIMD dispatch and BLAS core. Across those they agree within
``2**-22 * max|ref|`` (``docs/DECISIONS.md`` entry 18). This test runs a
small dataset-prior ``sample`` twice in fresh interpreters: once as the host
dispatches, and once with numpy capped at its baseline and OpenBLAS held to
its Prescott kernels. Every final tensor and every trace energy must agree
within that tolerance. No output is pinned to a hash here.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from restage.tensorfile import read_tensor, write_tensor

from _toys import clustered_shell_prior

_SRC = Path(__file__).resolve().parent.parent / "src"
_CAPS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")

SAMPLE = """\
    [schedule]
    num_steps = 10
    [ladder]
    t_min = 5
    t_max = 10
    n_stages = 2
    m_t = 1
    omega_min = 2
    omega_max = 6
    m_omega = 1
    resolutions = 16x16, 32x32
    [denoiser]
    kind = dataset
    path = points.rhrt
    conditional = true
    [run]
    variant = rectified
    seed = 8
    run_count = 2
"""


def _dispatch_and_blas() -> tuple[list[str], str]:
    """The SIMD features numpy dispatches above its baseline here, and the BLAS's name."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 can only print its configuration
        return [], ""
    return config["SIMD Extensions"].get("found", []), config["Build Dependencies"]["blas"]["name"]


FOUND, BLAS = _dispatch_and_blas()

pytestmark = [
    pytest.mark.skipif(not FOUND, reason="numpy dispatches nothing above its baseline here"),
    pytest.mark.skipif("openblas" not in BLAS.lower(), reason="the BLAS is not OpenBLAS"),
]


def _env(**caps):
    env = {k: v for k, v in os.environ.items() if k not in _CAPS}
    return dict(env, PYTHONPATH=str(_SRC), **caps)


def _sample(tmp_path, name, env):
    out = tmp_path / name
    argv = [sys.executable, "-m", "restage.cli", "sample", "--config", str(tmp_path / "config.ini")]
    subprocess.run([*argv, "--out", str(out)], env=env, check=True, capture_output=True)
    return out


def _trace_columns(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(3, 4))
    return rows.T  # latent_energy, p_x0_energy


def test_a_capped_dispatch_agrees_within_the_storage_tolerance(tmp_path):
    write_tensor(tmp_path / "points.rhrt", clustered_shell_prior().points)
    (tmp_path / "config.ini").write_text(textwrap.dedent(SAMPLE), encoding="utf-8")
    capped = _env(NPY_DISABLE_CPU_FEATURES=" ".join(FOUND), OPENBLAS_CORETYPE="Prescott")
    # the cap takes: numpy finds none of the features it dispatched before
    probe = "import numpy; print(numpy.show_config(mode='dicts')['SIMD Extensions'].get('found', []))"
    seen = subprocess.run([sys.executable, "-c", probe], env=capped, check=True, capture_output=True)
    assert seen.stdout.strip() == b"[]"

    ref = _sample(tmp_path, "default", _env())
    got = _sample(tmp_path, "capped", capped)
    names = sorted(p.name for p in ref.iterdir())
    assert names == sorted(p.name for p in got.iterdir())
    assert names == ["final_8.rhrt", "final_9.rhrt", "trace_8.csv", "trace_9.csv"]
    for name in names:
        if name.endswith(".rhrt"):
            pairs = [(read_tensor(ref / name), read_tensor(got / name))]
        else:
            pairs = zip(_trace_columns(ref / name), _trace_columns(got / name))
        for want, have in pairs:
            assert want.shape == have.shape
            assert np.abs(have - want).max() <= 2.0**-22 * np.abs(want).max(), name
