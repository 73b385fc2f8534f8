"""Thread pinning and environment capture for the benchmark.

`pin_threads` must run before numpy is first imported: BLAS libraries read
their thread count once, at load time. The count is fixed (not "all cores")
because it moves results both ways: at the seed, two threads made the
two-term route slower and the four-term route faster than one thread did.
Results taken with different pins must not be compared. One thread keeps a
run on a single core, so its timings depend on one core's load, not two.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Set every BLAS/OpenMP thread variable to BLAS_THREADS."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_matwaring():
    """Import the package from this checkout's src/, never from elsewhere.

    Exits with an error when the checkout has no source tree, so a copy of
    the benchmark alone cannot report a result for some other build.
    """
    if not (SRC / "matwaring" / "__init__.py").is_file():
        sys.exit(f"error: no matwaring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matwaring

    where = Path(matwaring.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"error: imported matwaring from {where}, not from {SRC}")
    return matwaring


def _blas_summary(config):
    out = {}
    for key in ("blas", "lapack"):
        dep = config.get("Build Dependencies", {}).get(key, {})
        out[key] = {
            "name": dep.get("name"),
            "version": dep.get("version"),
            "config": dep.get("openblas configuration"),
        }
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest():
    """sha256 over src/matwaring/*.py: names the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "matwaring").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def capture():
    """Facts without which two results cannot be compared."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_summary(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas_summary(scipy.show_config(mode="dicts")),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
