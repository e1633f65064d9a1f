import math
from itertools import combinations

import numpy as np
import pytest

from ewdist import elemental, pipelines
from ewdist.dist import MvtParams
from ewdist.elemental import (
    all_weights,
    as_design_matrix,
    chain_ratios,
    expected_weight_sum,
    simulate_weight_distribution,
    simulated_design,
    weight_of_set,
)
from ewdist.errors import DomainError, RankError, SizeError

from conftest import cofactor_det


def random_full_rank(rng, l, c):
    while True:
        x = rng.normal(size=(l, c))
        if np.linalg.matrix_rank(x) == c:
            return x


def test_weight_of_full_set_is_one(rng):
    x = random_full_rank(rng, 3, 3)
    assert weight_of_set(x, (1, 2, 3)) == pytest.approx(1.0, abs=1e-12)


def test_weight_zero_row_gives_zero_weight():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
    assert weight_of_set(x, (1, 3)) == 0.0
    assert weight_of_set(x, (2, 3)) == 0.0
    assert weight_of_set(x, (1, 2)) > 0.0


def test_weight_against_cofactor_oracle(rng):
    x = random_full_rank(rng, 4, 2)
    sub = x[[0, 1]]
    expected = cofactor_det(sub) ** 2 / cofactor_det(x.T @ x)
    assert weight_of_set(x, (1, 2)) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_all_weights_cauchy_binet(rng):
    for _ in range(3):
        x = random_full_rank(rng, 5, 2)
        subsets, weights = all_weights(x)
        assert subsets.shape == (10, 2) and weights.shape == (10,)
        assert subsets.tolist() == [list(e) for e in combinations(range(1, 6), 2)]
        assert sum(weights) == pytest.approx(1.0, abs=1e-10)
        assert all(0.0 <= w <= 1.0 for w in weights)


def test_all_weights_duplicate_row_symmetry(rng):
    x = random_full_rank(rng, 5, 2)
    x[3] = x[1]  # rows 2 and 4 identical (1-based)
    by_set = {tuple(e): w for e, w in zip(*(a.tolist() for a in all_weights(x)))}
    for s, wt in by_set.items():
        swapped = tuple(sorted(4 if i == 2 else 2 if i == 4 else i for i in s))
        assert by_set[swapped] == pytest.approx(wt, rel=1e-12, abs=0.0)


def test_all_weights_larger_set_size_sum(rng):
    # sum over k-subsets equals C(l - c, k - c)
    x = random_full_rank(rng, 6, 2)
    _, weights = all_weights(x, set_size=3)
    assert sum(weights) == pytest.approx(
        expected_weight_sum(6, 2, 3), abs=1e-9
    )


def test_all_weights_cap():
    x = np.eye(40)[:, :10] + 0.01  # C(40, 10) > ENUMERATION_CAP
    with pytest.raises(SizeError):
        all_weights(x)


def reference_weight(x, subset):
    """Per-subset 2-D slogdet with math.exp: the computation the kernel must reproduce."""
    rows = x[[i - 1 for i in subset]]
    sign, log_e = np.linalg.slogdet(rows.T @ rows)
    _, log_full = np.linalg.slogdet(x.T @ x)
    return math.exp(log_e - log_full) if sign > 0 else 0.0


def _intercept_matrix(rng):
    return np.column_stack([np.ones(9), rng.standard_t(5, size=(9, 2))])


def _duplicate_row_matrix(rng):
    # small integers keep the LU of a singular Gram matrix exact, so its sign is 0
    while True:
        x = rng.integers(-3, 4, size=(7, 3)).astype(float)
        x[3] = x[1]
        if np.linalg.matrix_rank(x) == 3:
            return x


@pytest.mark.parametrize(
    "make, set_size",
    [
        (lambda rng: random_full_rank(rng, 7, 3), None),
        (lambda rng: random_full_rank(rng, 40, 3), None),
        (_intercept_matrix, None),
        (_duplicate_row_matrix, None),
        (lambda rng: random_full_rank(rng, 8, 2), 4),
    ],
    ids=["7x3", "40x3", "intercept", "duplicate-row", "8x2-size4"],
)
def test_weights_equal_per_subset_reference_bitwise(rng, make, set_size):
    x = make(rng)
    subsets, weights = all_weights(x, set_size=set_size)
    ws = list(zip(map(tuple, subsets.tolist()), weights.tolist()))
    assert len(ws) == math.comb(x.shape[0], set_size or x.shape[1])
    for indices, weight in ws:
        assert weight == reference_weight(x, indices)
    for indices, weight in ws[:: max(1, len(ws) // 50)]:
        assert weight_of_set(x, indices) == weight
    if make is _duplicate_row_matrix:
        assert any(weight == 0.0 for indices, weight in ws if {2, 4} <= set(indices))


def test_simulate_all_mode_first_matrix_equals_all_weights():
    p = MvtParams(2, 50.0)
    for intercept in (False, True):
        w = simulate_weight_distribution(p, 7, 3, 23, mode="all", intercept=intercept)
        _, first = all_weights(simulated_design(p, 7, 23, 0, intercept), set_size=3)
        assert w.size == 3 * len(first)
        assert list(w[: len(first)]) == list(first)


def test_simulate_sampled_mode_uses_the_simulated_designs():
    p = MvtParams(2, 5.0)
    w = simulate_weight_distribution(p, 9, 6, 31)
    for j, wj in enumerate(w):
        x = simulated_design(p, 9, 31, j)
        assert wj in set(all_weights(x, set_size=3)[1].tolist())


def test_simulated_design_stream_layout():
    # matrix j draws its rows from derive_seed(seed, 2 * j); 2 * j + 1 picks its sampled subset
    from ewdist.dist import mvt_sample_rows
    from ewdist.rng import derive_seed

    p = MvtParams(2, 5.0)
    for j in (0, 3):
        rows = mvt_sample_rows(p, 8, derive_seed(41, 2 * j))
        assert np.array_equal(simulated_design(p, 8, 41, j), rows)
        with_intercept = simulated_design(p, 8, 41, j, intercept=True)
        assert np.array_equal(with_intercept, np.column_stack([np.ones(8), rows]))
    # an index array stacks the designs of its indices
    for intercept in (False, True):
        stacked = simulated_design(p, 8, 41, np.array([0, 3, 1]), intercept)
        assert stacked.shape == (3, 8, 3 if intercept else 2)
        for x, j in zip(stacked, (0, 3, 1)):
            assert np.array_equal(x, simulated_design(p, 8, 41, j, intercept))


_CHILD_TAG, _CHUNK_TAG = 0x535542, 0x43484B  # the stream layout's namespaces


def _reference_simulation(p, l, n_matrices, seed, mode, intercept):
    """Matrix by matrix, every stream keyed by numpy's SeedSequence itself."""

    def child(parent, index):
        ss = np.random.SeedSequence([parent, _CHILD_TAG, index])
        return int(ss.generate_state(1, np.uint64)[0])

    def stream(entropy):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    k, out = p.dim + 1, []
    for j in range(n_matrices):
        rows = stream([child(seed, 2 * j), _CHUNK_TAG, 0])
        z = rows.standard_normal((l, p.dim))
        x = z / np.sqrt(rows.chisquare(p.dof, l) / p.dof)[:, None]
        if intercept:
            x = np.column_stack([np.ones(l), x])
        if mode == "all":
            out += all_weights(x, set_size=k)[1].tolist()
        else:
            rank = int(stream([child(seed, 2 * j + 1)]).integers(0, math.comb(l, k)))
            out.append(weight_of_set(x, list(combinations(range(1, l + 1), k))[rank]))
    return np.array(out)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("mode", ["sampled-sets", "all"])
def test_simulate_matches_per_matrix_reference(mode, intercept):
    p = MvtParams(2, 7.0)
    for seed in (0, 41, 2**64 - 1):
        got = simulate_weight_distribution(p, 7, 25, seed, mode=mode, intercept=intercept)
        assert np.array_equal(got, _reference_simulation(p, 7, 25, seed, mode, intercept))


def test_simulate_sampled_rank_past_int64_raises_before_drawing(monkeypatch):
    # C(4e6, 3) > 2**63: a 64-bit rank draw cannot reach every subset
    count = math.comb(4_000_000, 3)
    assert count > 2**63
    drawn = []
    monkeypatch.setattr(elemental, "simulated_design", lambda *args: drawn.append(args))
    p = MvtParams(2, 50.0)
    with pytest.raises(SizeError, match=str(count)):
        simulate_weight_distribution(p, 4_000_000, 1, 0)
    assert not drawn


@pytest.mark.parametrize("call", [
    lambda: MvtParams(True, 5.0),
    lambda: MvtParams(2.0, 5.0),
    lambda: simulate_weight_distribution(MvtParams(2, 50.0), 7.9, 3, 0),
    lambda: pipelines.elemental_simulation_report(2, 50, 7.9, 3, 0),
], ids=["dim-bool", "dim-float", "simulate-l-float", "report-l-float"])
def test_simulation_counts_that_are_not_integers_raise(call):
    with pytest.raises(DomainError, match="must be a positive integer"):
        call()


def test_simulate_all_mode_over_cap_raises():
    p = MvtParams(2, 50.0)
    with pytest.raises(SizeError):
        simulate_weight_distribution(p, 200, 1, 0, mode="all")


def test_chain_singular_base_subset_raises(rng):
    x = random_full_rank(rng, 6, 2)
    x[1] = 2.0 * x[0]  # rows 1 and 2 are collinear
    with pytest.raises(RankError):
        chain_ratios(x, (1, 2))


def test_chain_telescopes_to_weight(rng):
    x = random_full_rank(rng, 6, 3)
    for sub in [(1, 2, 3), (2, 4, 6), (1, 2, 3, 5)]:
        ratios = chain_ratios(x, sub)
        assert len(ratios) == 6 - len(sub)
        assert np.all((ratios > 0) & (ratios <= 1.0))
        assert np.prod(ratios) == pytest.approx(weight_of_set(x, sub), rel=1e-10, abs=0.0)


def test_chain_matches_matrix_determinant_lemma(rng):
    # t_i = 1 / (1 + x_i' M_{i-1}^{-1} x_i) computed independently
    x = random_full_rank(rng, 6, 3)
    sub = (1, 3, 5)
    ratios = chain_ratios(x, sub)
    m = x[[0, 2, 4]].T @ x[[0, 2, 4]]
    expected = []
    for i in (2, 4, 6):
        row = x[i - 1]
        expected.append(1.0 / (1.0 + row @ np.linalg.solve(m, row)))
        m = m + np.outer(row, row)
    assert np.allclose(ratios, expected, rtol=1e-10, atol=0.0)


def test_chain_matches_sequential_update_loop(rng):
    # the loop chain_ratios replaced: the same additions, one 2-D slogdet per step
    x = random_full_rank(rng, 12, 3)
    sub = (2, 5, 9)
    m = x[[1, 4, 8]].T @ x[[1, 4, 8]]
    log_prev = np.linalg.slogdet(m)[1]
    expected = []
    for i in sorted(set(range(1, 13)) - set(sub)):
        m = m + np.outer(x[i - 1], x[i - 1])
        log_new = np.linalg.slogdet(m)[1]
        expected.append(math.exp(log_prev - log_new))
        log_prev = log_new
    # only the final exp differs (np.exp vs math.exp): allow two ulp
    np.testing.assert_allclose(chain_ratios(x, sub), expected, rtol=4.5e-16, atol=0.0)


def test_chain_zero_row_contributes_unit_ratio(rng):
    x = random_full_rank(rng, 5, 2)
    x[4] = 0.0
    ratios = chain_ratios(x, (1, 2))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-14)


def test_column_scaling_invariance(rng):
    # X A for any invertible A: both determinants of a weight gain det(A)**2,
    # so no scale matrix of the t rows can change a weight
    x = random_full_rank(rng, 6, 3)
    subsets1, ws1 = all_weights(x)
    lower = np.array([[1.5, 0.0, 0.0], [0.8, 0.6, 0.0], [-1.2, 0.4, 2.0]])
    for a in (np.diag([2.0, -0.5, 7.0]), lower):
        subsets2, ws2 = all_weights(x @ a)
        assert np.array_equal(subsets1, subsets2)
        for w1, w2 in zip(ws1, ws2, strict=True):
            assert w2 == pytest.approx(w1, rel=1e-10, abs=0.0)


def test_row_permutation_equivariance(rng):
    x = random_full_rank(rng, 5, 2)
    perm = np.array([3, 0, 4, 1, 2])
    ws = sorted(all_weights(x)[1])
    ws_p = sorted(all_weights(x[perm])[1])
    assert np.allclose(ws, ws_p, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("l,k", [(7, 3), (12, 4), (30, 2), (9, 9), (5, 1)])
def test_array_ranks_match_itertools(l, k):
    want = np.array(list(combinations(range(l), k)), dtype=np.intp).reshape(-1, k)
    got = elemental._subsets_by_rank(l, k, np.arange(len(want)))
    assert got.dtype == np.intp and np.array_equal(got, want)


def _lex_rank(l, subset):
    """Lexicographic rank of a 1-based k-subset of {1..l}, by counting the ones before it."""
    rank, start, k = 0, 1, len(subset)
    for slot, v in enumerate(subset):
        rank += sum(math.comb(l - u, k - slot - 1) for u in range(start, v))
        start = v + 1
    return rank


def test_array_ranks_at_large_l_and_near_2_63():
    count = math.comb(100_000, 3)
    got = elemental._subsets_by_rank(100_000, 3, np.array([0, count - 1])) + 1
    assert got.tolist() == [[1, 2, 3], [99_998, 99_999, 100_000]]
    # C(66, 33) is just below 2**63; at (79, 58) and (104, 89) a table wrapped
    # past 2**64 instead of saturated would misplace some of these ranks
    gen = np.random.default_rng(1)
    for l, k in ((66, 33), (79, 58), (104, 89)):
        count = math.comb(l, k)
        ranks = gen.integers(0, count, 200).tolist() + [count - 1, count - 2, 1, 0]
        for rank, subset in zip(ranks, elemental._subsets_by_rank(l, k, np.array(ranks))):
            assert _lex_rank(l, (subset + 1).tolist()) == rank
    with pytest.raises(SizeError, match="exceeds 2\\*\\*63"):
        elemental._subsets_by_rank(67, 34, [0])


def test_simulate_outputs_in_unit_interval():
    p = MvtParams(2, 50.0)
    w = simulate_weight_distribution(p, 7, 40, 11)
    assert w.shape == (40,)
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert np.array_equal(w, simulate_weight_distribution(p, 7, 40, 11))


def test_simulate_minimal_rows_gives_unit_weights():
    p = MvtParams(2, 50.0)
    w = simulate_weight_distribution(p, 3, 10, 5)
    assert np.allclose(w, 1.0, atol=1e-12)


def test_simulate_all_mode_counts():
    p = MvtParams(2, 50.0)
    w = simulate_weight_distribution(p, 5, 4, 3, mode="all")
    assert w.size == 4 * math.comb(5, 3)


def test_simulate_intercept_weights_sum_to_one():
    # with an intercept the subset size equals the column count
    p = MvtParams(2, 50.0)
    x = simulated_design(p, 6, 19, 0, intercept=True)
    _, weights = all_weights(x, set_size=3)
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)


def test_design_matrix_validation(rng):
    with pytest.raises(RankError):
        as_design_matrix(np.ones((4, 2)))
    with pytest.raises(DomainError):
        as_design_matrix(np.ones(4))
    # the weight kernel validates stacks, the public functions only 2-D matrices
    stack = np.stack([random_full_rank(rng, 4, 2)] * 2)
    for call in (as_design_matrix, all_weights, lambda x: weight_of_set(x, (1, 2)),
                 lambda x: chain_ratios(x, (1, 2))):
        with pytest.raises(DomainError, match="must be 2-D"):
            call(stack)


def test_weight_subset_validation(rng):
    x = random_full_rank(rng, 5, 2)
    with pytest.raises(DomainError):
        weight_of_set(x, (1,))
    with pytest.raises(DomainError):
        weight_of_set(x, (1, 6))
    with pytest.raises(DomainError):
        weight_of_set(x, (2, 2))
