"""Optional on-disk cache for slice dimensions.

Enabled by pointing KHH_CACHE_DIR at a directory: each computed cell lands
in its own small JSON file keyed by a fingerprint of (cache version,
algebra presentation, convention, computation kind, degree, weight).
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

# bump whenever a change to the code could change a cached value
VERSION = 2


def cache_dir() -> Path | None:
    value = os.environ.get("KHH_CACHE_DIR")
    if not value:
        return None
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cell_key(payload, conv_name: str, kind: str, n: int, w) -> str:
    blob = repr((VERSION, payload, conv_name, kind, n, tuple(w))).encode()
    return hashlib.sha256(blob).hexdigest()


def get(key: str):
    root = cache_dir()
    if root is None:
        return None
    path = root / f"{key}.json"
    try:
        value = json.loads(path.read_text())["value"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if type(value) is not int or value < 0:  # bool is a subclass of int
        return None
    return value


def put(key: str, value: int):
    root = cache_dir()
    if root is None:
        return
    path = root / f"{key}.json"
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({"value": int(value)}, fh)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
