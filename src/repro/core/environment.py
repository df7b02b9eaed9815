"""Training/inference environment capture and compatibility checking.

The paper represents the model architecture partly "by detailed environment
information ... the framework version, all third-party libraries, the
language interpreter, operating system kernel, as well as the driver
versions, and the hardware specification" (Section 3.1).  This module
collects the equivalents available on this substrate:

* substrate (``repro``) and numpy versions — the "framework version";
* every installed distribution via ``importlib.metadata`` — the
  "third-party libraries".  The paper measures this step at over a second
  per call; here the enumeration (~50 ms for ~100 distributions) runs once
  per process and again only when a cheap fingerprint of what it reads
  has changed: ``sys.path`` and a stat of each entry on it, whose mtime
  every install, uninstall and upgrade moves (an entry modified in the
  last two seconds also has its ``*.dist-info``/``*.egg-info`` children
  listed), so a save pays a few stats for it;
* interpreter, kernel, and CPU details — interpreter / OS / hardware.

A snapshot is also a *shared* fact: every model saved from one
environment references the same document, whose id
(:func:`environment_id`) is the digest of its content.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import MetadataPathFinder
from stat import S_ISDIR

import numpy as np

from .errors import EnvironmentMismatchError

__all__ = [
    "EnvironmentInfo",
    "collect_environment",
    "environment_document",
    "check_environment",
    "environment_id",
    "STRICT_FIELDS",
    "write_lockfile",
    "read_lockfile",
    "check_lockfile",
]

#: Fields that must match exactly for a recovered model to be trusted as an
#: exact reproduction.  Hostname and CPU count are informational only.
STRICT_FIELDS = (
    "framework_version",
    "numpy_version",
    "python_version",
    "libraries",
    "os_kernel",
    "architecture",
)


@dataclass
class EnvironmentInfo:
    """A snapshot of the software/hardware stack."""

    framework_version: str
    numpy_version: str
    python_version: str
    python_implementation: str
    libraries: dict[str, str]
    os_system: str
    os_kernel: str
    architecture: str
    processor: str
    cpu_count: int
    hostname: str
    collected_at: float = field(default=0.0)

    def to_dict(self) -> dict:
        return {
            "framework_version": self.framework_version,
            "numpy_version": self.numpy_version,
            "python_version": self.python_version,
            "python_implementation": self.python_implementation,
            "libraries": dict(self.libraries),
            "os_system": self.os_system,
            "os_kernel": self.os_kernel,
            "architecture": self.architecture,
            "processor": self.processor,
            "cpu_count": self.cpu_count,
            "hostname": self.hostname,
            "collected_at": self.collected_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EnvironmentInfo":
        """Rebuild a snapshot from a stored document (extra keys ignored)."""
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in field_names})

    def differences(self, other: "EnvironmentInfo", fields=STRICT_FIELDS) -> dict:
        """Map of field name -> (self value, other value) for mismatches."""
        mismatches = {}
        for name in fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                mismatches[name] = (mine, theirs)
        return mismatches


#: Prefix of content-addressed environment document ids; documents saved
#: before ids were content-addressed carry a random id without it.
ENVIRONMENT_ID_PREFIX = "env-"


def environment_id(fields: dict) -> str:
    """``env-<sha256>`` over a snapshot's canonical JSON.

    ``collected_at`` (and a stored document's ``_id``) are left out, so
    every snapshot of one unchanged environment maps to the same id and a
    stored document can be checked against the id it sits under.
    """
    content = {k: v for k, v in fields.items() if k not in ("_id", "collected_at")}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return ENVIRONMENT_ID_PREFIX + hashlib.sha256(canonical.encode()).hexdigest()


def _installed_libraries() -> dict[str, str]:
    # importlib.metadata reuses a directory's listing while its st_mtime is
    # unchanged, as it stays across a second change in the same mtime tick
    MetadataPathFinder().invalidate_caches()
    libraries = {}
    for distribution in importlib.metadata.distributions():
        md = distribution.metadata  # parses METADATA; ``.version`` would again
        name = md.get("Name")
        if name:
            libraries[name.lower()] = md.get("Version")
    return dict(sorted(libraries.items()))


def _framework_version() -> str:
    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


#: An entry modified this recently may change again within the same
#: ``st_mtime_ns`` tick, unseen by a stat ("racily clean", as in git's
#: index), so its children are fingerprinted too.
RACY_WINDOW_NS = 2_000_000_000


def _metadata_children(entry: str) -> tuple | None:
    """Names and mtimes of the ``*.dist-info``/``*.egg-info`` children."""
    try:
        with os.scandir(entry or ".") as children:
            return tuple(sorted(
                (child.name, child.stat().st_mtime_ns)
                for child in children
                if child.name.lower().endswith((".dist-info", "egg-info"))
            ))
    except OSError:
        return None


def _entry_fingerprint(entry: str, now_ns: int, scan: bool):
    try:
        stat = os.stat(entry or ".")
    except OSError:
        return None  # missing or unreadable: contributes no distributions
    if not S_ISDIR(stat.st_mode):
        return (stat.st_mtime_ns, stat.st_size)  # a zip or egg file
    if not scan and now_ns - stat.st_mtime_ns >= RACY_WINDOW_NS:
        return (stat.st_ino, stat.st_mtime_ns)
    return (stat.st_ino, stat.st_mtime_ns, _metadata_children(entry))


def _distributions_fingerprint(previous: tuple = ()) -> tuple:
    """Everything the distribution enumeration reads, cheaply.

    ``importlib.metadata`` walks ``sys.path`` and, per entry, the
    ``*.dist-info``/``*.egg-info`` children, matched case-insensitively
    (plus ``EGG-INFO`` inside an unpacked egg; for a zip or egg file, the
    archive itself).  Installing, removing or upgrading a distribution
    creates, deletes or renames one of those children, which changes the
    entry's own ``st_mtime_ns``: one stat per entry sees it.  An entry
    modified within :data:`RACY_WINDOW_NS` of now — or scanned in
    ``previous``, so that both sides compare alike — also carries its
    children's names and mtimes.
    """
    scanned = {entry for entry, seen in previous if seen is not None and len(seen) == 3}
    now_ns = time.time_ns()
    return tuple(
        (entry, _entry_fingerprint(entry, now_ns, entry in scanned))
        for entry in sys.path
    )


def _settled(fingerprint: tuple) -> tuple:
    """``fingerprint`` without the children of entries now out of the
    racy window: a later change to them moves their own mtime."""
    now_ns = time.time_ns()
    return tuple(
        (entry, seen[:2])
        if seen is not None and len(seen) == 3 and now_ns - seen[1] >= RACY_WINDOW_NS
        else (entry, seen)
        for entry, seen in fingerprint
    )


# One enumeration per process and fingerprint: (fingerprint, framework
# version, libraries).  The lock makes concurrent first callers (a gateway's
# worker pool) enumerate once instead of once each.
_installed_lock = threading.Lock()
_installed: tuple | None = None

# The document :func:`environment_document` last built: (the enumeration's
# libraries it was built from, the fields read fresh, the document).
_document: tuple | None = None


def _installed_distributions() -> tuple[str, dict[str, str]]:
    """The enumeration's framework version and libraries — the very dict
    the enumeration keeps, the same object while its fingerprint holds."""
    global _installed
    with _installed_lock:
        # fingerprint first: an install racing the enumeration leaves a
        # stale fingerprint behind, never a stale enumeration
        previous = () if _installed is None else _installed[0]
        fingerprint = _distributions_fingerprint(previous)
        if _installed is None or previous != fingerprint:
            _installed = (fingerprint, _framework_version(), _installed_libraries())
        else:  # still valid; an entry that left the racy window is no longer scanned
            _installed = (_settled(fingerprint), *_installed[1:])
        _, framework_version, libraries = _installed
    return framework_version, libraries


def _fresh_fields() -> dict:
    """The snapshot fields read on every call (cached by ``platform``)."""
    uname = platform.uname()
    return {
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "os_system": uname.system,
        "os_kernel": uname.release,
        "architecture": uname.machine,
        "processor": uname.processor or platform.processor(),
        "cpu_count": os.cpu_count() or 1,
        "hostname": uname.node,
    }


def collect_environment() -> EnvironmentInfo:
    """Collect the current environment snapshot.

    As thorough as the paper's (every installed distribution is listed),
    without its constant >1 s per call (Section 4.4): the distribution
    enumeration is kept per process and redone only when ``sys.path`` or
    the inode or mtime of an entry on it changed — which every install,
    uninstall and upgrade does, by creating, removing or renaming a
    ``*.dist-info``/``*.egg-info`` child — so a call costs one stat per
    entry.  An entry modified within :data:`RACY_WINDOW_NS` of the call
    is checked by the names and mtimes of those children as well, so a
    second change in the same mtime tick is seen too.  Not seen: a file
    added inside an existing dist-info directory, or an in-place
    ``METADATA`` edit, neither of which an installer does.  The
    remaining fields are read fresh on every call.
    """
    framework_version, libraries = _installed_distributions()
    return EnvironmentInfo(
        framework_version=framework_version,
        libraries=dict(libraries),  # the caller's to edit
        collected_at=time.time(),
        **_fresh_fields(),
    )


def environment_document() -> dict:
    """The current environment as a document: :func:`collect_environment`'s
    snapshot with its :func:`environment_id` as ``_id``.

    The id is hashed once per distribution enumeration and kept while the
    enumeration's fingerprint holds and the fields read fresh are the same,
    so a save over an unchanged environment pays the fingerprint's stats,
    not a canonical JSON encoding and a sha256.  ``collected_at`` is when
    the document was built.  Returns a copy.
    """
    global _document
    framework_version, libraries = _installed_distributions()
    fresh = _fresh_fields()
    cached = _document
    if cached is None or cached[0] is not libraries or cached[1] != fresh:
        document = EnvironmentInfo(
            framework_version=framework_version, libraries=dict(libraries),
            collected_at=time.time(), **fresh).to_dict()
        document["_id"] = environment_id(document)
        _document = cached = (libraries, fresh, document)
    return dict(cached[2])


def check_environment(
    saved: EnvironmentInfo,
    current: EnvironmentInfo | None = None,
    fields=STRICT_FIELDS,
) -> None:
    """Raise :class:`EnvironmentMismatchError` if strict fields differ."""
    if current is None:
        current = collect_environment()
    mismatches = saved.differences(current, fields)
    if mismatches:
        summary = ", ".join(
            f"{name}: saved={mine!r} current={theirs!r}"
            for name, (mine, theirs) in list(mismatches.items())[:3]
        )
        raise EnvironmentMismatchError(
            f"environment differs in {len(mismatches)} field(s): {summary}"
        )


# ---------------------------------------------------------------------------
# environment lockfiles
# ---------------------------------------------------------------------------
#
# The paper's future work proposes integrating a ReproZip-style tool so the
# full software environment can be pinned alongside provenance.  Lockfiles
# provide that workflow: snapshot the environment of the machine that
# trained a model, ship the file with the model (or commit it), and check
# any machine that wants to reproduce the training against it.


def write_lockfile(path, info: EnvironmentInfo | None = None) -> EnvironmentInfo:
    """Write the (given or current) environment snapshot as a JSON lockfile."""
    from pathlib import Path

    info = info or collect_environment()
    Path(path).write_text(json.dumps(info.to_dict(), indent=2, sort_keys=True))
    return info


def read_lockfile(path) -> EnvironmentInfo:
    """Load an environment snapshot from a lockfile."""
    from pathlib import Path

    return EnvironmentInfo.from_dict(json.loads(Path(path).read_text()))


def check_lockfile(path, fields=STRICT_FIELDS) -> None:
    """Verify the current environment against a lockfile (raises on drift)."""
    check_environment(read_lockfile(path), fields=fields)
