import itertools

import numpy as np
import pytest
from scipy.stats import chi2, rankdata

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from leakysinelu.errors import ConfigError, ContractError, DataError
from leakysinelu.stats import (
    AccuracyMatrix,
    _interval_cliques,
    _rankdata,
    average_ranks,
    build_report,
    friedman,
    holm_correct,
    matrix_from_records,
    pairwise_wtl,
    rank_matrix,
    wilcoxon_signed_rank,
)


def enum_two_sided_p(a, b):
    """Oracle: full enumeration of all sign assignments of the ranked
    absolute differences; p = P(min(W+, W-) <= observed)."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(d))
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    total = ranks.sum()
    masks = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    w_plus = masks @ ranks
    w_min = np.minimum(w_plus, total - w_plus)
    return float((w_min <= w_obs).sum() / 2**n)


def mc_two_sided_p(a, b, n_samples=200_000, seed=0):
    d = np.asarray(a) - np.asarray(b)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    total = ranks.sum()
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_samples, d.size))
    w_plus = signs @ ranks
    w_min = np.minimum(w_plus, total - w_plus)
    return float((w_min <= w_obs).mean())


def random_matrix(rng, n, k, with_ties=False):
    values = rng.uniform(0.3, 1.0, size=(n, k))
    if with_ties:
        mask = rng.random(size=(n, k)) < 0.3
        values[mask] = np.round(values[mask], 1)
    return AccuracyMatrix(
        methods=tuple(f"m{j}" for j in range(k)),
        datasets=tuple(f"d{i}" for i in range(n)),
        values=values,
    )


class TestRanks:
    def test_two_methods(self):
        m = AccuracyMatrix(("a", "b"), ("d1", "d2"), np.array([[0.9, 0.8], [0.7, 0.6]]))
        assert average_ranks(m).tolist() == [1.0, 2.0]

    def test_all_equal_row(self):
        m = AccuracyMatrix(("a", "b", "c"), ("d1", "d2"), np.full((2, 3), 0.5))
        assert average_ranks(m).tolist() == [2.0, 2.0, 2.0]

    def test_hand_case(self):
        m = AccuracyMatrix(
            ("a", "b", "c"), ("d1", "d2"), np.array([[0.9, 0.8, 0.7], [0.7, 0.9, 0.8]])
        )
        # row 1 ranks (1,2,3); row 2 ranks (3,1,2) -> means (2, 1.5, 2.5)
        assert average_ranks(m).tolist() == [2.0, 1.5, 2.5]

    def test_rank_sums_property(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(2, 8))
            m = random_matrix(rng, n, k, with_ties=True)
            sums = rank_matrix(m.values).sum(axis=1)
            assert np.all(sums == k * (k + 1) / 2)

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(ContractError):
            AccuracyMatrix(("a", "b"), ("d1", "d2"), np.array([[0.5, np.nan], [0.5, 0.5]]))


# Values drawn mostly from a few, so heavy ties, +0.0 against -0.0 and
# all-equal rows occur; any finite float64 otherwise.
_V = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
               st.floats(allow_nan=False, allow_infinity=False))


class TestRanksMatchScipy:
    """scipy.stats is the oracle: the numpy ranks give the bits of its
    rankdata, and the Friedman p-value the bits of its chi2.sf."""

    @seed(27)
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_V, min_size=1, max_size=40))
    @example([0.5])
    @example([0.7] * 9)
    @example([0.0, -0.0, 0.0, -0.0, 1.0, -0.0])
    def test_average_ranks_are_rankdata_bits(self, row):
        x = np.array(row)
        assert _rankdata(x).tobytes() == rankdata(x).tobytes()

    @seed(27)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30), st.integers(3, 8), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @example(2, 3, 1, 0)  # every row all equal
    def test_friedman_p_is_chi2_sf_bits(self, n, k, levels, rng_seed):
        rng = np.random.default_rng(rng_seed)
        values = rng.integers(0, levels, size=(n, k)) / levels - 0.5  # ties; 0.0 negates to -0.0
        m = AccuracyMatrix(tuple(f"m{j}" for j in range(k)),
                           tuple(f"d{i}" for i in range(n)), values)
        assert rank_matrix(values).tobytes() == rankdata(-values, axis=1).tobytes()
        stat, p = friedman(m)
        assert np.float64(p).tobytes() == np.float64(chi2.sf(stat, k - 1)).tobytes()


class TestNonFiniteInputIsAContractError:
    """Each case is a one-line ContractError, with no numpy warning on the way."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b, which", [
        ([0.5, np.nan, 0.7], [0.4, 0.3, 0.2], "a"),
        ([np.inf] * 3, [np.inf] * 3, "a"),
        ([0.5, 0.6, 0.7], [0.4, -np.inf, 0.2], "b"),
    ], ids=["nan", "inf-against-inf", "minus-inf"])
    def test_wilcoxon(self, a, b, which):
        with pytest.raises(ContractError, match=f"^wilcoxon sample {which} contains "
                                                "non-finite values$"):
            wilcoxon_signed_rank(a, b)

    def test_holm_nan(self):
        with pytest.raises(ContractError,
                           match=r"^p-values must lie in \[0, 1\] \(NaN does not\)$"):
            holm_correct([np.nan, 0.1])

    @pytest.mark.filterwarnings("error")
    def test_rank_matrix_nan_row(self):
        with pytest.raises(ContractError, match="^rank matrix contains non-finite values$"):
            rank_matrix(np.array([[0.9, np.nan, 0.7], [0.6, 0.5, 0.4]]))


class TestFriedman:
    def test_hand_case_statistic(self):
        m = AccuracyMatrix(
            ("a", "b", "c"), ("d1", "d2"), np.array([[0.9, 0.8, 0.7], [0.9, 0.8, 0.7]])
        )
        stat, p = friedman(m)
        assert stat == pytest.approx(4.0, abs=1e-12)
        assert 0.0 < p < 1.0

    def test_identical_methods(self):
        m = AccuracyMatrix(("a", "b", "c"), ("d1", "d2", "d3"), np.full((3, 3), 0.7))
        stat, p = friedman(m)
        assert stat == 0.0 and p == 1.0

    def test_pairs_unsupported(self):
        m = AccuracyMatrix(("a", "b"), ("d1", "d2"), np.array([[0.9, 0.8], [0.7, 0.6]]))
        with pytest.raises(ConfigError):
            friedman(m)

    def test_pvalue_matches_permutation_oracle(self):
        rng = np.random.default_rng(5)
        n, k = 40, 4
        values = rng.uniform(size=(n, k))
        m = AccuracyMatrix(tuple("abcd"), tuple(f"d{i}" for i in range(n)), values)
        stat, p = friedman(m)
        ranks = rank_matrix(values)
        n_perm, chunk = 100_000, 10_000
        exceed = 0
        for _ in range(n_perm // chunk):
            noise = rng.random(size=(chunk, n, k))
            perm_ranks = np.take_along_axis(
                np.broadcast_to(ranks, (chunk, n, k)), np.argsort(noise, axis=2), axis=2
            )
            rbar = perm_ranks.mean(axis=1)
            stats = 12.0 * n / (k * (k + 1)) * ((rbar - (k + 1) / 2.0) ** 2).sum(axis=1)
            exceed += int((stats >= stat - 1e-12).sum())
        p_mc = exceed / n_perm
        assert abs(p - p_mc) < 0.02


class TestWilcoxon:
    def test_spec_example(self):
        res = wilcoxon_signed_rank(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.0]))
        assert res.statistic == 0.0
        assert res.p_value == 0.25
        assert res.method == "exact"

    def test_degenerate_all_zero_diffs(self):
        a = np.array([0.5, 0.6, 0.7])
        res = wilcoxon_signed_rank(a, a)
        assert res.p_value == 1.0 and res.method == "degenerate"

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(size=15), rng.uniform(size=15)
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_signed_rank(b, a).p_value

    def test_exact_matches_enumeration_for_200_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = rng.uniform(size=n)
            b = a.copy()
            move = rng.random(size=n) < 0.8
            b[move] += rng.normal(scale=0.2, size=int(move.sum()))
            if rng.random() < 0.3:  # force tied |differences|
                b[~move] = a[~move] + 0.05
            res = wilcoxon_signed_rank(a, b)
            assert res.p_value == enum_two_sided_p(a, b)

    def test_normal_approximation_close_to_monte_carlo(self):
        rng = np.random.default_rng(9)
        for n in (21, 30, 40):
            a = rng.uniform(size=n)
            b = a + rng.normal(scale=0.1, size=n)
            res = wilcoxon_signed_rank(a, b)
            assert res.method == "normal"
            assert abs(res.p_value - mc_two_sided_p(a, b)) < 0.01


class TestHolm:
    def test_hand_example(self):
        adjusted, reject = holm_correct(np.array([0.01, 0.04]))
        assert adjusted.tolist() == [0.02, 0.04]
        assert reject.tolist() == [True, True]

    def test_single_p_unchanged(self):
        adjusted, reject = holm_correct(np.array([0.03]))
        assert adjusted.tolist() == [0.03] and reject.tolist() == [True]

    def test_no_rejections(self):
        adjusted, reject = holm_correct(np.array([0.5, 0.9]))
        assert not reject.any()
        # Step-down: [min(1, 2*0.5), max(1.0, min(1, 1*0.9))] = [1.0, 1.0].
        assert adjusted.tolist() == [1.0, 1.0]

    def test_adjusted_at_least_raw_and_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(size=int(rng.integers(1, 12)))
            adjusted, _ = holm_correct(p)
            assert np.all(adjusted >= p)
            order = np.argsort(p, kind="stable")
            assert np.all(np.diff(adjusted[order]) >= -1e-15)

    def test_step_down_stops_at_first_failure(self):
        adjusted, reject = holm_correct(np.array([0.001, 0.2, 0.002]), alpha=0.05)
        assert reject.tolist() == [True, False, True]
        assert adjusted[1] == pytest.approx(0.2)


def holm_loop(pvals, alpha=0.05):
    """Oracle: the step-down loop that holm_correct replaced, verbatim."""
    pvals = np.asarray(pvals, dtype=np.float64)
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    adjusted_sorted = np.minimum(
        np.maximum.accumulate((m - np.arange(m)) * pvals[order]), 1.0
    )
    reject_sorted = np.zeros(m, dtype=bool)
    for i in range(m):
        if adjusted_sorted[i] < alpha:
            reject_sorted[i] = True
        else:
            break
    adjusted = np.empty(m)
    reject = np.empty(m, dtype=bool)
    adjusted[order] = adjusted_sorted
    reject[order] = reject_sorted
    return adjusted, reject


# p-values drawn from a few values so ties, 0, 1 and m * p == alpha all occur.
_P = st.one_of(st.sampled_from([0.0, 1.0, 0.05, 0.025, 0.0125, 0.01, 0.05 / 3]),
               st.floats(0.0, 1.0))


class TestHolmMatchesStepDownLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_P, min_size=1, max_size=12), st.sampled_from([0.05, 0.01, 0.5]))
    @example([0.025, 0.025], 0.05)  # m * p == alpha: not rejected
    @example([0.0, 1.0, 0.0, 0.0125, 0.05 / 3], 0.05)
    def test_equals_loop(self, pvals, alpha):
        adjusted, reject = holm_correct(pvals, alpha)
        want_adjusted, want_reject = holm_loop(pvals, alpha)
        assert adjusted.tobytes() == want_adjusted.tobytes()
        assert reject.tolist() == want_reject.tolist()


def maximal_intervals(ordered, significant):
    """Oracle: every interval of the rank order whose pairs are all
    non-significant, kept when no other such interval contains it."""
    k = len(ordered)
    valid = [
        (i, j) for i in range(k) for j in range(i, k)
        if not any(significant[frozenset(pair)]
                   for pair in itertools.combinations(ordered[i : j + 1], 2))
    ]
    return [
        tuple(ordered[i : j + 1]) for i, j in valid
        if not any(p <= i and j <= q and (p, q) != (i, j) for p, q in valid)
    ]


@st.composite
def significance_patterns(draw):
    k = draw(st.integers(2, 8))
    ordered = [f"m{i}" for i in range(k)]
    flags = draw(st.lists(st.booleans(), min_size=k * (k - 1) // 2,
                          max_size=k * (k - 1) // 2))
    pairs = itertools.combinations(ordered, 2)
    return ordered, {frozenset(pair): flag for pair, flag in zip(pairs, flags)}


class TestIntervalCliquesAreMaximal:
    @settings(max_examples=500, deadline=None)
    @given(significance_patterns())
    def test_equals_brute_force(self, pattern):
        ordered, significant = pattern
        assert _interval_cliques(ordered, significant) == maximal_intervals(ordered, significant)


class TestWtl:
    def test_counts(self):
        m = AccuracyMatrix(
            ("a", "b"), tuple("wxyz"), np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.5, 0.5]])
        )
        wtl = pairwise_wtl(m)
        assert wtl[("a", "b")] == (3, 1, 0)
        assert wtl[("b", "a")] == (0, 1, 3)

    def test_identical_columns(self):
        m = AccuracyMatrix(("a", "b"), ("d1", "d2", "d3"), np.tile([[0.6, 0.6]], (3, 1)))
        assert pairwise_wtl(m)[("a", "b")] == (0, 3, 0)


class TestBuildReport:
    def test_identical_columns_single_clique(self):
        m = AccuracyMatrix(("a", "b", "c"), ("d1", "d2", "d3"), np.full((3, 3), 0.5))
        report = build_report(m)
        assert report.cliques == (("a", "b", "c"),)

    def test_two_methods_one_pair(self):
        m = AccuracyMatrix(("a", "b"), ("d1", "d2"), np.array([[0.9, 0.8], [0.7, 0.6]]))
        report = build_report(m)
        assert len(report.pairs) == 1
        assert report.friedman_statistic is None

    def test_dominant_method_is_singleton_clique(self):
        rng = np.random.default_rng(3)
        n = 30
        base = rng.uniform(0.3, 0.6, size=n)
        values = np.column_stack(
            [base + 0.2] + [base + rng.normal(scale=0.005, size=n) for _ in range(3)]
        )
        m = AccuracyMatrix(("best", "m1", "m2", "m3"), tuple(f"d{i}" for i in range(n)), values)
        report = build_report(m)
        assert ("best",) in report.cliques
        assert report.methods[0] == "best"

    def test_column_permutation_consistency(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(size=(12, 4))
        names = ("a", "b", "c", "d")
        m = AccuracyMatrix(names, tuple(f"d{i}" for i in range(12)), values)
        report = build_report(m)
        perm = [2, 0, 3, 1]
        m2 = AccuracyMatrix(
            tuple(names[j] for j in perm), m.datasets, values[:, perm]
        )
        report2 = build_report(m2)
        assert report.avg_ranks == report2.avg_ranks
        assert report.methods == report2.methods
        assert report.cliques == report2.cliques
        p1 = {frozenset((c.method_a, c.method_b)): c.p_raw for c in report.pairs}
        p2 = {frozenset((c.method_a, c.method_b)): c.p_raw for c in report2.pairs}
        assert p1 == p2

    def test_stricter_alpha_gives_superset_cliques(self):
        rng = np.random.default_rng(6)
        n = 25
        base = rng.uniform(0.4, 0.6, size=n)
        values = np.column_stack(
            [base + 0.08, base + rng.normal(scale=0.02, size=n), base, base - 0.08]
        )
        m = AccuracyMatrix(("a", "b", "c", "d"), tuple(f"d{i}" for i in range(n)), values)
        loose = build_report(m, alpha=0.05)
        strict = build_report(m, alpha=0.01)
        for clique in loose.cliques:
            assert any(set(clique) <= set(big) for big in strict.cliques)

    def test_wtl_antisymmetry_in_pairs(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, 10, 3)
        report = build_report(m)
        for c in report.pairs:
            assert c.win + c.tie + c.loss == len(m.datasets)


class TestMatrixFromRecords:
    def _record(self, dataset, method, acc, arch="mlp", status="completed", epochs=1):
        return {
            "dataset": dataset,
            "status": status,
            "accuracy": acc,
            "config": {"architecture": arch, "activation": {"name": method}, "epochs": epochs},
        }

    def _grid(self, **kwargs):
        return [
            self._record(d, m, 0.5 + 0.01 * i, **kwargs)
            for i, (d, m) in enumerate(itertools.product(["d1", "d2"], ["relu", "sine"]))
        ]

    def test_complete(self):
        records = [
            self._record(d, m, 0.5 + 0.01 * i)
            for i, (d, m) in enumerate(itertools.product(["d1", "d2"], ["relu", "sine"]))
        ]
        matrix, missing = matrix_from_records(records, "mlp")
        assert missing == []
        assert matrix.methods == ("sine", "relu")  # catalog order
        assert matrix.datasets == ("d1", "d2")

    def test_missing_cell_listed(self):
        records = [
            self._record("d1", "relu", 0.5),
            self._record("d1", "sine", 0.6),
            self._record("d2", "relu", 0.7),
        ]
        matrix, missing = matrix_from_records(records, "mlp")
        assert matrix is None and missing == [("d2", "sine")]

    def test_non_completed_ignored(self):
        records = [
            self._record("d1", "relu", 0.5),
            self._record("d1", "sine", None, status="diverged"),
            self._record("d2", "relu", 0.7),
            self._record("d2", "sine", 0.2),
        ]
        matrix, missing = matrix_from_records(records, "mlp")
        assert matrix is None and missing == [("d1", "sine")]

    def test_identical_config_duplicates_pass_first_wins(self):
        records = self._grid() + [self._record("d1", "relu", 0.99)]
        matrix, missing = matrix_from_records(records, "mlp")
        assert missing == [] and matrix.values[0, 1] == 0.5

    @pytest.mark.parametrize("case, cell", [
        ("two configs for one cell", "'d1', activation 'relu'"),
        ("one cell from another recipe", "'d1', activation 'sine'"),
        ("activation settings differ by dataset", "'d2', activation 'relu'"),
    ])
    def test_records_from_two_experiments_rejected(self, case, cell):
        if case == "two configs for one cell":
            records = self._grid(epochs=0) + self._grid(epochs=3)
        elif case == "one cell from another recipe":
            records = [self._record("d1", "relu", 0.5, epochs=0)] + self._grid(epochs=3)[1:]
        else:
            records = self._grid()
            records[2]["config"]["activation"]["alpha"] = 0.5  # d2 x relu
        with pytest.raises(DataError, match=f"dataset {cell}"):
            matrix_from_records(records, "mlp")

    @pytest.mark.parametrize("datasets, methods", [(["d1"], ["relu", "sine"]),
                                                   (["d1", "d2"], ["relu"])])
    def test_too_few_datasets_or_methods_rejected(self, datasets, methods):
        records = [self._record(d, m, 0.5) for d in datasets for m in methods]
        with pytest.raises(DataError, match=f"found {len(datasets)} dataset\\(s\\) "
                                            f"and {len(methods)} activation\\(s\\)"):
            matrix_from_records(records, "mlp")
