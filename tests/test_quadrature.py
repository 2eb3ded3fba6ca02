"""Haar quadrature grids and the brute-force coefficient oracle."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecast import (
    Objective,
    big_d_matrix,
    cached_tensor,
    coefficient_block,
    coefficient_deviation,
    integrate,
    make_grid,
)
from framecast import quadrature
from framecast.quadrature import lag_diagonals


def haar_cos_beta(alphas, betas, gammas):
    return np.cos(betas)


class TestGrid:
    def test_beta_weights_sum_to_two(self):
        grid = make_grid(3)
        assert sum(w for _, w in grid.beta_nodes) == pytest.approx(2.0, abs=1e-14)

    def test_total_weight_is_one(self):
        for j_max in (0, 1, 4):
            grid = make_grid(j_max)
            assert np.sum(grid.weights) == pytest.approx(1.0, abs=1e-14)

    def test_constant_integrates_to_one(self):
        assert integrate(lambda a, b, g: 1.0, make_grid(0)) == pytest.approx(1.0, abs=1e-14)

    def test_cos_beta_integrates_to_zero(self):
        val = integrate(haar_cos_beta, make_grid(2))
        assert abs(val) < 1e-14

    def test_rejects_negative_jmax(self):
        with pytest.raises(ValueError):
            make_grid(-1)


class TestIntegrate:
    def test_d_matrix_orthogonality_norm(self):
        grid = make_grid(1)
        val = integrate(
            lambda a, b, g: np.abs(big_d_matrix(1, a, b, g)[..., 1, 1]) ** 2, grid
        )
        assert val.real == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(val.imag) < 1e-14

    def test_weighted_d_matrix_matches_closed_form(self):
        # <cos beta |D^1_11|^2> carries the 1/(2j+1) orthogonality factor
        grid = make_grid(1)
        val = integrate(
            lambda a, b, g: np.cos(b) * np.abs(big_d_matrix(1, a, b, g)[..., 2, 2]) ** 2, grid
        )
        assert val.real == pytest.approx(0.5 / 3.0, abs=1e-12)


class TestCoefficientOracle:
    def test_unit_function_gives_orthonormality(self):
        grid = make_grid(2)
        one = lambda a, b, g: 1.0
        # block[m + j, r + j, n + k, s + k] at (m, n, r, s) = (1, 1, 0, 0) of
        # blocks (2, 2) and (2, 1), then at (1, 1, 0, 1)
        assert coefficient_block(one, 2, 2, grid)[3, 2, 3, 2].real == pytest.approx(1.0, abs=1e-12)
        assert abs(coefficient_block(one, 2, 1, grid)[3, 2, 2, 1]) < 1e-12
        assert abs(coefficient_block(one, 2, 2, grid)[3, 2, 3, 3]) < 1e-12

    def test_cos_beta_diagonal_value(self):
        grid = make_grid(1)
        val = coefficient_block(haar_cos_beta, 1, 1, grid)[2, 2, 2, 2]  # m = n = r = s = 1
        assert val.real == pytest.approx(0.5, abs=1e-12)

    def test_cos_beta_delta_structure(self):
        # entries must vanish unless m = n and r = s
        grid = make_grid(4)
        worst = 0.0
        for j in range(5):
            for k in range(5):
                block = coefficient_block(haar_cos_beta, j, k, grid)
                for mi in range(2 * j + 1):
                    for ri in range(2 * j + 1):
                        for ni in range(2 * k + 1):
                            for si in range(2 * k + 1):
                                if mi - j != ni - k or ri - j != si - k:
                                    worst = max(worst, abs(block[mi, ri, ni, si]))
        assert worst < 1e-12

    def test_exactness_plateau(self):
        # a finer grid must not move any coefficient that the base grid resolves
        base = make_grid(3)
        fine = make_grid(8)
        fn = lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g)
        worst = 0.0
        for j in range(4):
            for k in range(4):
                delta = coefficient_block(fn, j, k, base) - coefficient_block(fn, j, k, fine)
                worst = max(worst, float(np.max(np.abs(delta))))
        assert worst < 1e-12


def flat_node_blocks(f, j_max, grid):
    """Oracle: node sums of D^j conj(D^k) f, big_d_matrix at every grid node, keyed (j, k)."""
    nodes = (grid.alphas, grid.betas, grid.gammas)
    dmats = [big_d_matrix(j, *nodes).reshape(grid.node_count, -1) for j in range(j_max + 1)]
    weighted = grid.weights * np.broadcast_to(f(*nodes), grid.weights.shape)
    blocks = {}
    for j, dj in enumerate(dmats):
        for k, dk in enumerate(dmats):
            block = np.sqrt((2 * j + 1) * (2 * k + 1)) * (dj * weighted[:, None]).T @ dk.conj()
            blocks[j, k] = block.reshape(2 * j + 1, 2 * j + 1, 2 * k + 1, 2 * k + 1)
    return blocks


def pass_blocks(f, levels, grid):
    """Dense (block, bound) per pair (j, k) of levels = range(J + 1), scattered from one lag_diagonals pass."""
    top = max(levels)
    bounds, diagonals = lag_diagonals(f, levels, levels, grid)
    blocks = {(j, k): np.zeros((2 * j + 1,) * 2 + (2 * k + 1,) * 2, dtype=complex)
              for j in levels for k in levels}
    for p, q, values in diagonals:
        for (j, k), block in blocks.items():
            m, r, n, s = (index - level for index, level in zip(np.indices(block.shape), (j, j, k, k)))
            on = (m - n == p) & (r - s == q)
            block[on] = values[m[on] + top, r[on] + top, j, k]
    return {key: (block, bounds[key]) for key, block in blocks.items()}


class TestSeparableQuadrature:
    # alpha-gamma coupling and odd terms, so a DFT sign or an index wrap error shows
    FUNCTIONS = {
        "cos(a-g) sin b": lambda a, b, g: np.cos(a - g) * np.sin(b),
        "sin a sin b": lambda a, b, g: np.sin(a) * np.sin(b),
        "1 + cos b": lambda a, b, g: 1.0 + np.cos(b),
        "exp(i(2a+g)) sin b": lambda a, b, g: np.exp(1j * (2 * a + g)) * np.sin(b),
    }

    @pytest.mark.parametrize("extra_j", [0, 3])
    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_blocks_match_flat_node_sum(self, name, extra_j):
        # blocks up to j = 4 on their own grid and on the finer one of j_max = 7
        f = self.FUNCTIONS[name]
        grid = make_grid(4 + extra_j)
        worst = 0.0
        for (j, k), flat in flat_node_blocks(f, 4, grid).items():
            worst = max(worst, float(np.max(np.abs(coefficient_block(f, j, k, grid) - flat))))
        assert worst < 1e-13

    def test_aliased_frequencies_match_flat_node_sum(self):
        # frequencies beyond the exactness margin wrap modulo the node count in
        # both sums alike; on 8 azimuthal nodes 6 and 9 alias to -2 and 1
        f = lambda a, b, g: np.cos(6 * a - 7 * g) + np.sin(9 * g) * np.sin(b)
        grid = make_grid(1)
        assert grid.alpha_count == 8
        for (j, k), flat in flat_node_blocks(f, 1, grid).items():
            block = coefficient_block(f, j, k, grid)
            assert np.max(np.abs(block - flat)) < 1e-13
        assert np.max(np.abs(coefficient_block(f, 1, 1, grid))) > 0.1

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_blocks_wider_than_grid_wrap_their_lags(self, name):
        # make_grid(1) has 8 azimuthal nodes, and m - n reaches +-6 in (3, 3):
        # both sums wrap it modulo 8, as they wrap the integrand's frequencies
        f = self.FUNCTIONS[name]
        grid = make_grid(1)
        flat = flat_node_blocks(f, 3, grid)
        for j, k in [(3, 3), (3, 2), (2, 3), (1, 3)]:
            assert np.max(np.abs(coefficient_block(f, j, k, grid) - flat[j, k])) < 1e-13, (j, k)

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_one_pass_matches_single_pairs(self, name):
        # one pass over every block pair equals coefficient_block pair by pair
        f = self.FUNCTIONS[name]
        grid = make_grid(4)
        blocks = pass_blocks(f, range(5), grid)
        assert blocks.keys() == {(j, k) for j in range(5) for k in range(5)}
        for (j, k), (block, _) in blocks.items():
            assert np.max(np.abs(block - coefficient_block(f, j, k, grid))) < 1e-15, (j, k)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 3]),
           st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 3),
                              st.complex_numbers(max_magnitude=1.0)), min_size=1, max_size=4),
           st.booleans())
    def test_sparse_integrands_match_flat_node_sum(self, grid_j, terms, real):
        # a few lags (p, q) times powers of cos(beta); on make_grid(1)'s 8
        # azimuthal nodes |p|, |q| <= 9 alias, and blocks up to j = 3 wrap theirs
        def f(a, b, g):
            total = sum(c * np.exp(1j * (p * a + q * g)) * np.cos(b) ** e for p, q, e, c in terms)
            return total.real if real else total

        grid = make_grid(grid_j)
        flat = flat_node_blocks(f, 3, grid)
        for (j, k), (block, _) in pass_blocks(f, range(4), grid).items():
            assert np.max(np.abs(block - flat[j, k])) < 1e-13, (j, k)


def every_lag_blocks(monkeypatch, f, levels, grid):
    """The oracle's (block, bound) per (j, k) with a zero rounding floor: every nonzero lag kept."""
    with monkeypatch.context() as patched:
        patched.setattr(quadrature, "ROUNDING_ULPS", 0)
        return pass_blocks(f, levels, grid)


class TestDroppedLags:
    def test_lag_below_the_floor_is_dropped_and_bounded(self, monkeypatch):
        # the 1e-20 (1, 1) lag lies far below the rounding floor of cos(beta):
        # its diagonal m - n = r - s = 1 reads exact zeros, each block's bound
        # covers what the lag adds there, and the reported deviation is never
        # below the one of the oracle that keeps every lag
        grid = make_grid(3)
        f = lambda a, b, g: np.cos(b) + 1e-20j * np.exp(1j * (a + g))
        levels = range(4)
        every = every_lag_blocks(monkeypatch, f, levels, grid)
        kept = pass_blocks(f, levels, grid)
        for (j, k), (block, bound) in kept.items():
            dense = every[j, k][0]
            assert bound >= np.max(np.abs(block - dense)), (j, k)
            assert every[j, k][1] == 0.0
            if j:  # the entry m = r = 1, n = s = 0
                assert block[j + 1, j + 1, k, k] == 0.0 and dense[j + 1, j + 1, k, k] != 0.0
        # against a tensor equal to the kept lags' blocks, only the dropped lag deviates
        kept = {key: block for key, (block, _) in kept.items()}
        tensor = SimpleNamespace(j_max=3, nonzeros=lambda j, k: (np.nonzero(kept[j, k]),
                                                               kept[j, k][np.nonzero(kept[j, k])]))
        dense_worst = max(float(np.max(np.abs(every[key][0] - kept[key]))) for key in kept)
        assert coefficient_deviation(tensor, f, grid) >= dense_worst > 0.0

    def test_zero_integrand_keeps_no_lag(self):
        grid = make_grid(2)
        for (j, k), (block, bound) in pass_blocks(lambda a, b, g: 0.0, range(3), grid).items():
            assert bound == 0.0 and not np.any(block), (j, k)


class DictTensor:
    """Stand-in tensor: block nonzeros read from a dict keyed by (j, k, m, n, r, s)."""

    def __init__(self, j_max, entries):
        self.j_max = j_max
        self.entries = entries

    def nonzeros(self, j, k):
        found = [((m + j, r + j, n + k, s + k), val)
                 for (jj, kk, m, n, r, s), val in self.entries.items() if (jj, kk) == (j, k)]
        index = np.array([key for key, _ in found], dtype=np.intp).reshape(-1, 4).T
        return tuple(index), np.array([val for _, val in found], dtype=complex)


class TestCoefficientDeviation:
    def test_unit_function_against_identity_and_empty_tensors(self):
        # f = 1 has the coefficients delta_jk delta_mn delta_rs
        grid = make_grid(2)
        one = lambda a, b, g: 1.0
        identity = {(j, j, m, m, r, r): 1.0
                    for j in range(3) for m in range(-j, j + 1) for r in range(-j, j + 1)}
        assert coefficient_deviation(DictTensor(2, identity), one, grid) < 1e-12
        empty = DictTensor(2, {})
        assert coefficient_deviation(empty, one, grid) == pytest.approx(1.0, abs=1e-12)

    def test_entry_outside_band_is_compared(self):
        stray = DictTensor(2, {(2, 0, 1, 0, -1, 0): 0.25})
        assert coefficient_deviation(stray, lambda a, b, g: 0.0, make_grid(2)) == 0.25

    def test_corrupted_entry_is_reported_at_its_size(self):
        # one entry moved on a diagonal the xy integrand's lags (+-1, +-1) fill,
        # and one put on m - n = 0, r - s = 2, which no kept lag reaches
        f = lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g)
        grid = make_grid(3)
        entries = dict(cached_tensor(Objective.xy_axes(), 3).entries)
        assert coefficient_deviation(DictTensor(3, entries), f, grid) < 1e-12
        on_lag = next(key for key in entries if key[:2] == (2, 2))
        assert (on_lag[2] - on_lag[3], on_lag[4] - on_lag[5]) in {(1, 1), (-1, -1)}
        stray = (2, 1, 1, 1, 1, -1)
        assert stray not in entries
        for key, delta in [(on_lag, 0.3), (stray, 0.2)]:
            corrupted = {**entries, key: entries.get(key, 0.0) + delta}
            worst = coefficient_deviation(DictTensor(3, corrupted), f, grid)
            assert worst == pytest.approx(delta, abs=1e-12), key

    def test_large_level_gathers_no_block_sized_index(self):
        # a fancy-index gather of one block's lags would hold 17^4 x 21 complex
        # values (28 MB) at j = k = 8
        j_max = 8
        tensor = cached_tensor(Objective.xy_axes(), j_max)
        grid = make_grid(j_max)
        tracemalloc.start()
        try:
            worst = coefficient_deviation(
                tensor, lambda a, b, g: (1.0 + np.cos(b)) * np.cos(a + g), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert worst < 1e-10
        assert peak < 20e6
