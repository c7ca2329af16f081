"""Optional on-disk cache for slice dimensions.

Enabled by pointing KHH_CACHE_DIR at a directory: each computed cell lands
in its own small JSON file keyed by a fingerprint of (cache version,
algebra presentation, convention, computation kind, degree, weight).  The
presentation is `GradedAlgebra.presentation`, the tuple (name, generators,
weights, relations as sorted term tuples) that rebuilds the algebra; the
algebra computes it once, and the worker pool ships the same tuple.
`cell_path` resolves the directory once per cell.
Writes go through a temp-file rename so concurrent workers never observe
partial files.  Cached values are exact non-negative integers; anything
else found on disk is a miss, so the cache changes nothing but wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import PreconditionError

# bump whenever a change to the code could change a cached value
VERSION = 3


def cache_dir() -> Path | None:
    value = os.environ.get("KHH_CACHE_DIR")
    if not value:
        return None
    path = Path(value)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PreconditionError(f"KHH_CACHE_DIR={value} is not a usable directory: {exc}") from None
    return path


def cell_path(presentation, conv_name: str, kind: str, n: int, w) -> Path | None:
    """The file of one cell, or None when no cache directory is set."""
    root = cache_dir()
    if root is None:
        return None
    blob = repr((VERSION, presentation, conv_name, kind, n, tuple(w))).encode()
    return root / f"{hashlib.sha256(blob).hexdigest()}.json"


def get(path: Path):
    try:
        value = json.loads(path.read_text())["value"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if type(value) is not int or value < 0:  # bool is a subclass of int
        return None
    return value


def put(path: Path, value: int):
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"value": int(value)}, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
