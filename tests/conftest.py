"""Fixtures shared across the test modules."""

from __future__ import annotations

import tempfile

import pytest


@pytest.fixture
def codec_tmp(tmp_path, monkeypatch):
    """A fresh, empty directory made ``tempfile``'s default for the test.

    ``ExternalCodec`` puts each batch's tensor files in a ``codec-*``
    directory under ``tempfile.gettempdir()``; a test that runs one looks
    here to see that nothing is left behind.
    """
    work = tmp_path / "tmp"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    return work
