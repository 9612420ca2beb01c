"""Process environment for every benchmark process, and its fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

#: BLAS threads per process, pinned identically for every run and child:
#: the fleet runs three numpy processes on a two-core box.
BLAS_THREADS = "1"
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin(root: str) -> None:
    """Pin BLAS threads and put ``<root>/src`` first on the import path.

    Must run before numpy is imported; child processes inherit both.
    """
    for name in _BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS
    source = os.path.join(root, "src")
    sys.path.insert(0, source)
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = source + (os.pathsep + previous if previous else "")


def source_digest(root: str) -> str:
    """SHA-256 over every file under ``src`` (path and bytes), sorted."""
    digest = hashlib.sha256()
    source = os.path.join(root, "src")
    for directory, subdirectories, files in os.walk(source):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, source).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint(root: str) -> dict:
    import numpy

    # Stop git at the root: a checkout that is no repository has no commit.
    ceiling = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=ceiling,
        ).stdout.strip() or None
    except OSError:
        commit = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": source_digest(root),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_VARIABLES},
    }
