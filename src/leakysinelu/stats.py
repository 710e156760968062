"""Comparison statistics over a complete accuracy matrix.

Average ranks, the Friedman chi-square test, pairwise Wilcoxon signed-rank
tests (exact by enumeration up to n = 20, tie- and continuity-corrected
normal approximation beyond), Holm's step-down correction, win/tie/loss
counts, and the data behind critical-difference diagrams, multi-comparison
matrices, and one-vs-one scatter plots.

Conventions: zero differences are dropped before ranking (classic Wilcoxon),
and W = min(W+, W-). Both choices are recorded in report metadata.

Ranks come from a numpy helper that follows scipy's average-rank algorithm,
so they are the bits of scipy's ``rankdata``. Of scipy only ``scipy.special``
loads, on first use: ``chdtrc`` for the Friedman tail (the call behind the
chi-square ``sf``) and ``ndtr`` for Wilcoxon's normal approximation. So `cli`,
which imports this module, starts without scipy, and ``compare`` never loads
scipy's statistics package.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import activations as zoo
from .errors import ConfigError, ContractError, DataError

__all__ = [
    "AccuracyMatrix",
    "WilcoxonResult",
    "PairComparison",
    "ComparisonReport",
    "rank_matrix",
    "average_ranks",
    "friedman",
    "wilcoxon_signed_rank",
    "holm_correct",
    "pairwise_wtl",
    "build_report",
    "matrix_from_records",
    "write_report_files",
]

EXACT_CUTOFF = 20


def _finite(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ContractError(f"{name} contains non-finite values")
    return values


@dataclass(frozen=True)
class AccuracyMatrix:
    """Complete (datasets x methods) accuracy block; no missing cells."""

    methods: tuple[str, ...]
    datasets: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.datasets), len(self.methods)):
            raise ContractError(
                f"matrix shape {values.shape} does not match "
                f"{len(self.datasets)} datasets x {len(self.methods)} methods"
            )
        if len(self.methods) < 2 or len(self.datasets) < 2:
            raise ContractError("need at least 2 methods and 2 datasets")
        if not np.all(np.isfinite(values)):
            raise ContractError("accuracy matrix contains non-finite cells")

    def column(self, method: str) -> np.ndarray:
        return self.values[:, self.methods.index(method)]


def _rankdata(x: np.ndarray) -> np.ndarray:
    """Ranks of a finite 1-d array, 1 = lowest, ties get the mean tied position.

    scipy's algorithm: a stable sort, dense ids of the distinct sorted values,
    and the mean of each id's first and last position. Average ranks are
    multiples of 0.5, so the float64 result is that of ``rankdata(x)``.
    """
    order = np.argsort(x, kind="mergesort")
    y = x[order]
    distinct = np.empty(x.size, dtype=bool)
    distinct[:1] = True
    distinct[1:] = y[1:] != y[:-1]
    dense = np.empty(x.size, dtype=np.intp)
    dense[order] = np.cumsum(distinct)
    count = np.append(np.flatnonzero(distinct), x.size)
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def rank_matrix(values: np.ndarray) -> np.ndarray:
    """Per-row ranks, 1 = highest value, ties get the mean tied position."""
    values = _finite("rank matrix", values)
    if values.ndim != 2:
        raise ContractError(f"rank_matrix needs a 2-d array, got {values.ndim}-d")
    ranks = np.empty_like(values)
    for i, row in enumerate(values):
        ranks[i] = _rankdata(-row)
    return ranks


def average_ranks(matrix: AccuracyMatrix) -> np.ndarray:
    """Column means of the per-dataset ranks, aligned with matrix.methods."""
    return rank_matrix(matrix.values).mean(axis=0)


def friedman(matrix: AccuracyMatrix) -> tuple[float, float]:
    """Friedman chi-square over average ranks, df = k - 1."""
    from scipy.special import chdtrc  # what scipy's chi2.sf(stat, df) calls

    n, k = matrix.values.shape
    if k < 3:
        raise ConfigError("friedman needs k >= 3 methods; use wilcoxon for pairs")
    rbar = average_ranks(matrix)
    stat = 12.0 * n / (k * (k + 1)) * float(np.sum((rbar - (k + 1) / 2.0) ** 2))
    return stat, float(chdtrc(k - 1, stat))


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # W = min(W+, W-)
    p_value: float
    n_effective: int  # pairs left after dropping zero differences
    method: str  # "exact", "normal", or "degenerate"


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped. For n <= 20 the p-value is exact: the
    distribution of W+ over all 2^n sign assignments is built by subset-sum
    counting on doubled ranks (integers even under average-rank ties).
    """
    from scipy.special import ndtr

    a = _finite("wilcoxon sample a", a)
    b = _finite("wilcoxon sample b", b)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ContractError("wilcoxon needs two equal-length 1-d samples")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0, "degenerate")
    ranks = _rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_CUTOFF:
        p = _exact_two_sided(ranks, w)
        return WilcoxonResult(w, p, n, "exact")
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    correction = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - correction
    z = (w - mean + 0.5) / math.sqrt(var)
    return WilcoxonResult(w, min(1.0, 2.0 * float(ndtr(z))), n, "normal")


def _exact_two_sided(ranks: np.ndarray, w: float) -> float:
    r2 = np.rint(2.0 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in r2:
        counts[r:] = counts[r:] + counts[:-r]
    w2 = int(np.rint(2.0 * w))
    count_le = int(counts[: w2 + 1].sum())
    return min(1.0, 2.0 * count_le / 2.0 ** len(r2))


def holm_correct(pvals, alpha: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Holm step-down adjustment; returns (adjusted p, reject flags).

    With the m p-values sorted ascending as p_(1) <= ... <= p_(m), the
    adjusted value is a running max over the scaled p-values, capped at 1:
    p~_(i) = min(1, max_{j <= i} (m - j + 1) * p_(j)) (Holm 1979). So the
    adjusted values never fall as the raw p-value rises. Hypotheses are
    rejected in sorted order while p~_(i) < alpha.
    """
    pvals = np.asarray(pvals, dtype=np.float64)
    if pvals.ndim != 1 or pvals.size == 0:
        raise ContractError("holm_correct needs a non-empty 1-d p-value array")
    if not np.all((pvals >= 0) & (pvals <= 1)):
        raise ContractError("p-values must lie in [0, 1] (NaN does not)")
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    adjusted_sorted = np.minimum(
        np.maximum.accumulate((m - np.arange(m)) * pvals[order]), 1.0
    )
    adjusted = np.empty(m)
    adjusted[order] = adjusted_sorted
    # In sorted order the adjusted values never fall, so the ones below alpha
    # are exactly the leading run that the step-down procedure rejects.
    return adjusted, adjusted < alpha


def pairwise_wtl(matrix: AccuracyMatrix) -> dict[tuple[str, str], tuple[int, int, int]]:
    """(win, tie, loss) counts for every ordered method pair, exact equality."""
    out = {}
    for a, b in itertools.permutations(matrix.methods, 2):
        ca, cb = matrix.column(a), matrix.column(b)
        out[(a, b)] = (int((ca > cb).sum()), int((ca == cb).sum()), int((ca < cb).sum()))
    return out


@dataclass(frozen=True)
class PairComparison:
    method_a: str
    method_b: str
    p_raw: float
    p_holm: float
    significant: bool
    win: int
    tie: int
    loss: int
    mean_diff: float  # mean accuracy of a minus mean accuracy of b


@dataclass(frozen=True)
class ComparisonReport:
    methods: tuple[str, ...]  # ordered by ascending average rank
    avg_ranks: dict[str, float]
    mean_accuracy: dict[str, float]
    friedman_statistic: float | None
    friedman_p: float | None
    pairs: tuple[PairComparison, ...]
    cliques: tuple[tuple[str, ...], ...]
    alpha: float
    conventions: dict


def _interval_cliques(
    ordered: list[str], significant: dict[frozenset, bool]
) -> list[tuple[str, ...]]:
    # Maximal intervals over the rank order whose internal pairs are all
    # non-significant; a method in no wider interval forms a singleton.
    # The widest interval starting at i+1 reaches at least as far right as
    # the one starting at i, so an interval is maximal exactly when its
    # right end passes the previous one's.
    k = len(ordered)
    cliques = []
    last = -1
    for i in range(k):
        j = i
        while j + 1 < k and not any(
            significant[frozenset((ordered[t], ordered[j + 1]))] for t in range(i, j + 1)
        ):
            j += 1
        if j > last:
            cliques.append(tuple(ordered[i : j + 1]))
            last = j
    return cliques


def build_report(matrix: AccuracyMatrix, alpha: float = 0.05) -> ComparisonReport:
    """Assemble ranks, tests, Holm decisions, WTL counts and CD cliques."""
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    k = len(matrix.methods)
    ranks = average_ranks(matrix)
    means = matrix.values.mean(axis=0)
    avg_ranks = dict(zip(matrix.methods, map(float, ranks)))
    mean_acc = dict(zip(matrix.methods, map(float, means)))
    fr_stat = fr_p = None
    if k >= 3:
        fr_stat, fr_p = friedman(matrix)
    pairs = list(itertools.combinations(matrix.methods, 2))
    raw = np.array([wilcoxon_signed_rank(matrix.column(a), matrix.column(b)).p_value
                    for a, b in pairs])
    adjusted, reject = holm_correct(raw, alpha)
    wtl = pairwise_wtl(matrix)
    comparisons = tuple(
        PairComparison(
            method_a=a,
            method_b=b,
            p_raw=float(raw[i]),
            p_holm=float(adjusted[i]),
            significant=bool(reject[i]),
            win=wtl[(a, b)][0],
            tie=wtl[(a, b)][1],
            loss=wtl[(a, b)][2],
            mean_diff=float(mean_acc[a] - mean_acc[b]),
        )
        for i, (a, b) in enumerate(pairs)
    )
    significant = {frozenset((c.method_a, c.method_b)): c.significant for c in comparisons}
    ordered = sorted(matrix.methods, key=lambda m: (avg_ranks[m], m))
    cliques = tuple(_interval_cliques(ordered, significant))
    return ComparisonReport(
        methods=tuple(ordered),
        avg_ranks=avg_ranks,
        mean_accuracy=mean_acc,
        friedman_statistic=fr_stat,
        friedman_p=fr_p,
        pairs=comparisons,
        cliques=cliques,
        alpha=alpha,
        conventions={"zero_differences": "drop", "exact_cutoff": EXACT_CUTOFF},
    )


def _method_order_key(name: str):
    try:
        return (0, zoo.ACTIVATION_NAMES.index(name))
    except ValueError:
        return (1, name)


def matrix_from_records(records, architecture: str):
    """Build an AccuracyMatrix from result records of one architecture.

    Returns (matrix, missing) where ``missing`` lists (dataset, method)
    cells absent from the records; the matrix is None unless complete.
    Only completed runs count; the first record wins on duplicates. DataError
    if a record's config differs from an earlier one of its activation, or its
    recipe (the config apart from the activation) from the first record's.
    """
    cells: dict[tuple[str, str], float] = {}
    configs: dict[str, dict] = {}  # activation name -> the config its records share
    for rec in records:
        if rec.get("status") != "completed":
            continue
        config = rec["config"]
        if config["architecture"] != architecture:
            continue
        name = config["activation"]["name"]
        first = next(iter(configs.values()), config)
        if (configs.setdefault(name, config) != config
                or {**first, "activation": None} != {**config, "activation": None}):
            raise DataError(f"dataset {rec['dataset']!r}, activation {name!r}: its config "
                            "differs from an earlier record's; compare one experiment at a time")
        cells.setdefault((rec["dataset"], name), float(rec["accuracy"]))
    if not cells:
        raise DataError(f"no completed {architecture} results found")
    datasets = tuple(sorted({d for d, _ in cells}))
    methods = tuple(sorted({m for _, m in cells}, key=_method_order_key))
    if len(datasets) < 2 or len(methods) < 2:
        raise DataError(f"need at least 2 datasets and 2 activations to rank, found "
                        f"{len(datasets)} dataset(s) and {len(methods)} activation(s)")
    missing = [(d, m) for d in datasets for m in methods if (d, m) not in cells]
    if missing:
        return None, missing
    values = np.array([[cells[(d, m)] for m in methods] for d in datasets])
    return AccuracyMatrix(methods=methods, datasets=datasets, values=values), []


def _write_csv(path: Path, header: list[str], rows) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def write_report_files(report: ComparisonReport, matrix: AccuracyMatrix, outdir) -> list[str]:
    """Emit report.json, cd.csv, mcm.csv and one scatter CSV per pair."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.json"
    path.write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    written = [str(path)]

    clique_ids = {}
    for cid, clique in enumerate(report.cliques):
        for m in clique:
            clique_ids.setdefault(m, []).append(cid)
    written.append(_write_csv(
        outdir / "cd.csv",
        ["method", "avg_rank", "clique_id"],
        ([m, repr(report.avg_ranks[m]), cid] for m in report.methods for cid in clique_ids[m]),
    ))
    written.append(_write_csv(
        outdir / "mcm.csv",
        ["method_a", "method_b", "mean_diff", "p", "win", "tie", "loss"],
        ([c.method_a, c.method_b, repr(c.mean_diff), repr(c.p_raw), c.win, c.tie, c.loss]
         for c in report.pairs),
    ))
    for a, b in itertools.combinations(matrix.methods, 2):
        written.append(_write_csv(
            outdir / f"scatter_{a}_vs_{b}.csv",
            ["dataset", f"acc_{a}", f"acc_{b}"],
            ([d, repr(float(va)), repr(float(vb))]
             for d, va, vb in zip(matrix.datasets, matrix.column(a), matrix.column(b))),
        ))
    return written
