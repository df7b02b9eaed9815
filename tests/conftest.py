"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro.nn as nn
from repro.docstore import DocumentStore
from repro.filestore import FileStore
from repro.nn import rng


@pytest.fixture(autouse=True)
def _reset_rng():
    """Every test starts from a known seed and non-deterministic mode off.

    Deterministic mode is the default in tests so results are stable; tests
    exercising non-determinism opt out explicitly.
    """
    rng.manual_seed(0)
    rng.use_deterministic_algorithms(True)
    yield
    rng.use_deterministic_algorithms(False)


@pytest.fixture
def doc_store(tmp_path):
    return DocumentStore(tmp_path / "docs")


@pytest.fixture
def mem_doc_store():
    return DocumentStore()


@pytest.fixture
def file_store(tmp_path):
    return FileStore(tmp_path / "files")


@pytest.fixture
def directory_fsyncs(monkeypatch) -> list:
    """The paths of the directories fsynced through a descriptor opened
    ``O_DIRECTORY``, as they happen."""
    directories, synced = {}, []
    real_open, real_close, real_fsync = os.open, os.close, os.fsync

    def opening(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if flags & os.O_DIRECTORY:
            directories[fd] = Path(path)
        return fd

    def closing(fd):
        directories.pop(fd, None)
        return real_close(fd)

    def syncing(fd):
        if fd in directories:
            synced.append(directories[fd])
        return real_fsync(fd)

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "close", closing)
    monkeypatch.setattr(os, "fsync", syncing)
    return synced


def replace_record(files, key: str, data: bytes) -> None:
    """Store ``data`` as record ``key`` of ``files`` (a file store or one
    cluster member) under a valid record CRC:
    damage only the content check can see."""
    files.chunks.drop(key)
    files.chunks.put(key, data)


def make_tiny_cnn(num_classes: int = 10, channels: int = 4, seed: int = 0) -> nn.Module:
    """A small Conv-BN-ReLU-Pool-Linear model for fast structural tests."""
    nn.manual_seed(seed)
    return nn.Sequential(
        nn.Conv2d(3, channels, kernel_size=3, padding=1, bias=False),
        nn.BatchNorm2d(channels),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(channels * 4 * 4, num_classes),
    )


@pytest.fixture
def tiny_cnn():
    return make_tiny_cnn()


@pytest.fixture
def tiny_batch():
    nn.manual_seed(1)
    images = nn.randn(4, 3, 8, 8)
    labels = np.array([0, 1, 2, 3], dtype=np.int64)
    return images, labels
