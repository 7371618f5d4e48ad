"""Statistics, run metadata and answer checks shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def tail(values) -> dict:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest: any
    higher order statistic leaves fewer than ten samples above it.  The
    record names the percentile (``100 * (n - 10) / n``) and ``n``.  With
    ``n <= 10`` no percentile qualifies and the maximum is reported with
    ``beyond`` = 0, so the shortfall is visible.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": None, "n": 0, "beyond": 0}
    if n <= TAIL_BEYOND:
        return {"value": float(ordered[-1]), "percentile": 100.0, "n": n, "beyond": 0}
    rank = n - TAIL_BEYOND  # 1-based order statistic
    return {
        "value": float(ordered[rank - 1]),
        "percentile": 100.0 * rank / n,
        "n": n,
        "beyond": n - rank,
    }


def zipf_counts(n_ranks: int, total: int, exponent: float = 1.0) -> list[int]:
    """Split ``total`` requests over ranks ∝ 1/rank^exponent, each rank ≥ 1.

    Largest-remainder rounding, so every round of traffic holds the same
    multiset of requests and only their order depends on the seed.
    """
    if total < n_ranks:
        raise ValueError("a round must hold every rank at least once")
    weights = [1.0 / (rank ** exponent) for rank in range(1, n_ranks + 1)]
    spare = total - n_ranks
    shares = [spare * w / sum(weights) for w in weights]
    counts = [1 + int(share) for share in shares]
    order = sorted(range(n_ranks), key=lambda r: (int(shares[r]) - shares[r], r))
    for r in order[: total - sum(counts)]:
        counts[r] += 1
    return counts


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=root,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def source_digest(src: str) -> str:
    """SHA-256 over the program's Python sources (names and bytes).

    Identifies the code measured when the checkout is not a git work
    tree, where no commit hash can be read.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_metadata(root: str, workload: str, seed: int) -> dict:
    """Provenance of one run: code identity, host and library versions."""
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs_core

        highs = "{}.{}.{}".format(
            highs_core.HIGHS_VERSION_MAJOR,
            highs_core.HIGHS_VERSION_MINOR,
            highs_core.HIGHS_VERSION_PATCH,
        )
    except (ImportError, AttributeError):
        highs = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
    }


# --- answer checks ---------------------------------------------------------

#: Deterministic constraints of the Table 3 templates, restated here so
#: the check does not trust the engine's own compilation of the query.
_COUNT_BOUNDS = {"galaxy": (5, 10), "tpch": (1, 10)}
_MAX_MULTIPLICITY = {"galaxy": 1, "tpch": 1}
_PRICE_BUDGET = {"portfolio": 1000.0}


def deterministic_violations(workload: str, rows: list, multiplicities) -> list[str]:
    """Deterministic constraints of ``workload``'s template that fail.

    ``rows`` holds one mapping per package tuple copy (a tuple chosen
    twice appears twice); ``multiplicities`` the per-key counts.
    """
    problems = []
    count = len(rows)
    if workload in _COUNT_BOUNDS:
        lo, hi = _COUNT_BOUNDS[workload]
        if not lo <= count <= hi:
            problems.append(f"COUNT(*)={count} outside [{lo}, {hi}]")
    if workload in _MAX_MULTIPLICITY:
        worst = max(multiplicities, default=0)
        if worst > _MAX_MULTIPLICITY[workload]:
            problems.append(f"REPEAT 0 broken: a tuple chosen {worst} times")
    if workload in _PRICE_BUDGET:
        spent = sum(float(row["price"]) for row in rows)
        if spent > _PRICE_BUDGET[workload] + 1e-6:
            problems.append(f"SUM(price)={spent:.2f} > {_PRICE_BUDGET[workload]}")
    if sum(multiplicities) != count:
        problems.append("multiplicities do not match the package rows")
    return problems
