"""Shared plumbing: repository paths, the artifact cache, ``/proc`` readers
and the summary statistics every workload reports.

Nothing here imports the program under test, so the harness can fail
fast (and cleanly) in a checkout that lacks it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import sys
from pathlib import Path

#: The checkout root (``perfbench/ncbench/common.py`` -> ``.``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: Built inputs reused across runs (compiled snapshots, type tables),
#: keyed by a digest of the program source so a changed program rebuilds.
CACHE_DIR = BENCH_DIR / ".cache"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, server never came up)."""


def require_program() -> None:
    """Raise :class:`BenchError` unless the program's source is present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The environment for processes the harness starts.

    Inherits everything (thread-pool variables included: pinning BLAS
    here would hide a candidate optimisation) and puts ``src`` first on
    ``PYTHONPATH``.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def source_digest() -> str:
    """A digest of every program source file (path + bytes)."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cached_dir(name: str, build) -> Path:
    """A cache directory built once per program version.

    ``build(path)`` fills a fresh temporary directory; it is renamed into
    place only when complete, so an interrupted build is never reused.
    """
    target = CACHE_DIR / f"{name}-{source_digest()}"
    if target.is_dir():
        return target
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    staging = CACHE_DIR / f".{target.name}.{os.getpid()}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    try:
        build(staging)
        staging.rename(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


# -- /proc readers ------------------------------------------------------------


def process_tree(pid: int) -> "list[int]":
    """``pid`` and all its live descendants (via ``/proc/*/task/*/children``)."""
    found: "list[int]" = []
    pending = [pid]
    while pending:
        current = pending.pop()
        if not os.path.isdir(f"/proc/{current}"):
            continue
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return found


def cpu_seconds(pids: "list[int]") -> float:
    """utime + stime of ``pids`` (live processes only), in seconds."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state (field 3); utime/stime are fields 14/15.
        total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def peak_rss_mb(pids: "list[int]") -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def host_cpu_counters() -> "tuple[int, int]":
    """``(steal, total)`` jiffies from the first line of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user/nice
    return steal, sum(values[:8])


class StealMeter:
    """Host steal fraction between :meth:`start` and :meth:`stop`."""

    def start(self) -> None:
        self._start = host_cpu_counters()

    def stop(self) -> float:
        steal, total = host_cpu_counters()
        delta_total = total - self._start[1]
        if delta_total <= 0:
            return 0.0
        return (steal - self._start[0]) / delta_total


def environment() -> dict:
    """The per-run environment block (host, interpreters, thread pools)."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    block = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "thread_env": {
            name: os.environ.get(name, "unset")
            for name in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
    }
    for module in ("numpy", "scipy"):
        try:
            block[module] = __import__(module).__version__
        except ImportError:
            block[module] = "missing"
    block["blas"] = blas_pool()
    return block


def blas_pool() -> dict:
    """The OpenBLAS build numpy loaded and its thread-pool size.

    Read from the library itself (the same default every process the
    harness starts inherits); empty when it cannot be found.
    """
    import ctypes
    import glob

    try:
        import numpy
    except ImportError:
        return {}
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return {"library": os.path.basename(path), "threads": getter()}
    return {}


# -- statistics ---------------------------------------------------------------


def quantile(values: "list[float]", p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A Beta-weighted average of all order statistics: it estimates the
    same quantile as the sample percentile with a smaller run-to-run
    spread when the distribution is skewed or has gaps, as request
    latencies over mixed query widths do.
    """
    if not values:
        return float("nan")
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ ordered)


def latency_summary(values: "list[float]") -> dict:
    """Median and p90 of ``values`` with the sample counts behind them."""
    p90 = quantile(values, 0.9)
    return {
        "count": len(values),
        "p50": quantile(values, 0.5),
        "p90": p90,
        "beyond_p90": sum(1 for v in values if v > p90),
    }
