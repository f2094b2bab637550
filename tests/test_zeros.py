"""Truncation-polynomial zeros, Vieta identities and orthogonal state pairs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcs.gseq import Factorial, G1, MLGamma, Table, WrightProduct
from tgcs.states import overlap
from tgcs.zeros import (MAX_DEGREE, RootFindingError, orthogonal_pair,
                        polynomial_roots)

ALL_VARIANTS = [Factorial(), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5),
                G1(1.0, 1.5, 0.8)]


class TestPolynomialRoots:
    @given(seq=st.sampled_from(ALL_VARIANTS), k=st.integers(1, MAX_DEGREE))
    @settings(max_examples=60, deadline=None)
    @example(seq=WrightProduct(0.5, 0.5), k=MAX_DEGREE)
    def test_balanced_coefficients_are_the_plain_shifted_exp(self, seq, k):
        # the coefficients of y = z / s, ln s = (ln g(k) - ln g(0)) / k, that the
        # eigenvalue solve gets: n ln s - ln g(n), shifted by its max, exp; bit for bit
        with mock.patch.object(np, "roots", wraps=np.roots) as roots:
            polynomial_roots(seq, k)
        n = np.arange(k + 1)
        log_g = seq.log_g_array(n)
        lt = n * ((log_g[k] - log_g[0]) / k) - log_g
        coeff = roots.call_args.args[0][::-1]
        assert coeff.tobytes() == np.exp(lt - lt.max()).tobytes()

    def test_factorial_k1(self):
        rs = polynomial_roots(Factorial(), 1)
        assert rs.roots == pytest.approx([-1.0])

    def test_factorial_k2(self):
        # 1 + z + z^2/2 has roots -1 +- i
        rs = polynomial_roots(Factorial(), 2)
        assert sorted(rs.roots, key=lambda z: z.imag) == pytest.approx(
            [-1.0 - 1.0j, -1.0 + 1.0j], abs=1e-12)

    @pytest.mark.parametrize("seq", ALL_VARIANTS)
    @pytest.mark.parametrize("k", [5, 10, 20, 30, 36])
    def test_residuals_small(self, seq, k, request):
        if isinstance(seq, WrightProduct) and k >= 30:
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "ill-conditioned: polyval's double floor is above 1e-9 here "
                "(1.5e-8 at k = 30, 7.9e-7 at k = 36; 8.8e-9 and 7.9e-7 after "
                "50 polish steps)")))
        rs = polynomial_roots(seq, k)
        assert len(rs.roots) == k
        assert float(np.max(rs.residuals)) <= 1e-9

    @pytest.mark.parametrize("seq,k", [(s, k) for s in (Factorial(), MLGamma(0.5, 0.5),
                                                         G1(1.0, 1.5, 0.8))
                                        for k in (20, 30, 36)]
                             + [(WrightProduct(0.5, 0.5), k) for k in (20, 30)])
    def test_polish_stops_at_the_rounding_floor(self, seq, k, monkeypatch):
        # two polyval calls per Newton step and one for the residuals: at
        # most 6 steps, where running on in rounding noise takes all 50
        calls = []
        polyval = np.polyval
        monkeypatch.setattr(np, "polyval",
                            lambda c, x: calls.append(1) or polyval(c, x))
        polynomial_roots(seq, k)
        assert len(calls) <= 13

    def test_double_root_is_finite(self):
        # 1 + 2z + z^2 = (1 + z)^2: p = p' = 0 at the start, which divided 0 by 0
        rs = polynomial_roots(Table((1.0, 0.5, 1.0)), 2)
        assert np.all(np.isfinite(rs.roots))
        assert rs.roots == pytest.approx([-1.0, -1.0], abs=1e-7)
        assert float(np.max(rs.residuals)) <= 1e-9

    @pytest.mark.parametrize("seq", ALL_VARIANTS)
    def test_vieta_sum_and_product(self, seq):
        k = 12
        rs = polynomial_roots(seq, k)
        # coefficients 1/g(n): sum = -g(k)/g(k-1), product = (-1)^k g(k)/g(0)
        sum_target = -math.exp(seq.log_g(k) - seq.log_g(k - 1))
        log_prod_target = seq.log_g(k) - seq.log_g(0)
        assert complex(np.sum(rs.roots)) == pytest.approx(sum_target, rel=1e-9)
        log_prod = float(np.sum(np.log(np.abs(rs.roots))))
        assert log_prod == pytest.approx(log_prod_target, rel=1e-9)
        prod_phase = complex(np.prod(rs.roots / np.abs(rs.roots)))
        assert prod_phase == pytest.approx((-1.0) ** k, abs=1e-9)

    @pytest.mark.parametrize("seq", ALL_VARIANTS)
    def test_conjugation_closure(self, seq):
        rs = polynomial_roots(seq, 11)
        conj = np.sort_complex(np.conj(rs.roots))
        assert np.allclose(np.sort_complex(rs.roots), conj, atol=1e-9)

    def test_deterministic_ordering(self):
        a = polynomial_roots(MLGamma(0.5, 0.5), 9)
        b = polynomial_roots(MLGamma(0.5, 0.5), 9)
        assert np.array_equal(a.roots, b.roots)

    def test_degree_cap(self):
        with pytest.raises(RootFindingError):
            polynomial_roots(Factorial(), MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            polynomial_roots(Factorial(), 0)


class TestOrthogonalPair:
    def test_factorial_k2_hand_example(self):
        a, b = orthogonal_pair(Factorial(), 2, -1.0 + 1.0j, 1.0 + 0.0j)
        assert b.z == pytest.approx(-1.0 + 1.0j)
        assert abs(overlap(a, b)) <= 1e-12

    @pytest.mark.parametrize("seq", ALL_VARIANTS)
    @pytest.mark.parametrize("k", [3, 10, 20])
    def test_overlap_vanishes_at_each_root(self, seq, k):
        rs = polynomial_roots(seq, k)
        for root in rs.roots[:3]:
            a, b = orthogonal_pair(seq, k, root, 2.0 + 0.0j)
            assert abs(overlap(a, b)) <= 1e-9

    def test_scaling_freedom(self):
        seq, k = MLGamma(0.5, 0.5), 5
        root = polynomial_roots(seq, k).roots[0]
        a1, b1 = orthogonal_pair(seq, k, root, 1.0 + 0.5j)
        a2, b2 = orthogonal_pair(seq, k, root, 2.0 * (1.0 + 0.5j))
        # z1 -> 2 z1 forces z2 -> z2/2; the product z1* z2 is unchanged
        assert b2.z == pytest.approx(b1.z / 2.0)
        assert abs(overlap(a2, b2)) <= 1e-10

    def test_degenerate_z1_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_pair(Factorial(), 2, -1.0 + 1.0j, 0.0)
