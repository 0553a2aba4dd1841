"""Ladder-basis state container, operator applications, and moments."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinent import (
    DickeState,
    InsufficientAtomsError,
    LengthMismatchError,
    NormalizationError,
    apply_jminus,
    apply_jplus,
    apply_jz,
    collective_moments,
    pairwise_correlators,
    random_state,
)
from spinent.dicke import _x_apply, _y_apply, _z_apply

SQRT3 = math.sqrt(3.0)

# (sqrt(3)/2)|1,1> + (1/2)|1,-1>, the reference two-atom entangled state.
WORKED = DickeState(2, [SQRT3 / 2, 0.0, 0.5])


def _unchecked(n_atoms, coefficients):
    # Bypass constructor validation to exercise downstream guards.
    state = object.__new__(DickeState)
    object.__setattr__(state, "n_atoms", n_atoms)
    object.__setattr__(state, "coefficients",
                       np.asarray(coefficients, dtype=complex))
    return state


class TestDickeState:
    def test_valid_construction(self):
        state = DickeState(2, [1.0, 0.0, 0.0])
        assert state.j == 1.0
        assert_allclose(state.m_values, [1.0, 0.0, -1.0])

    def test_norm_tolerated_below_threshold(self):
        DickeState(2, [1.0 + 4e-7, 0.0, 0.0])

    def test_norm_rejected_beyond_threshold(self):
        with pytest.raises(NormalizationError):
            DickeState(2, [1.0, 1.0, 0.0])

    def test_nan_norm_rejected(self):
        with pytest.raises(NormalizationError):
            DickeState(1, [math.nan, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            DickeState(2, [1.0, 0.0])

    def test_nonpositive_atom_count(self):
        with pytest.raises(LengthMismatchError):
            DickeState(0, [1.0])

    def test_coefficients_read_only(self):
        state = DickeState(2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            state.coefficients[0] = 0.0

    def test_renormalized_is_explicit_and_exact(self):
        state = DickeState(2, [1.0 + 4e-7, 0.0, 0.0])
        fixed = state.renormalized()
        assert_allclose(np.sum(np.abs(fixed.coefficients) ** 2), 1.0,
                        atol=1e-15)
        # The original is untouched.
        assert state.coefficients[0] != fixed.coefficients[0]


class TestLadderActions:
    def test_jz_weights_by_m(self):
        state = DickeState(2, [1.0, 0.0, 0.0])
        assert_allclose(apply_jz(state), [1.0, 0.0, 0.0])

    def test_jz_annihilates_m_zero(self):
        state = DickeState(2, [0.0, 1.0, 0.0])
        assert_allclose(apply_jz(state), [0.0, 0.0, 0.0])

    def test_jplus_from_bottom(self):
        state = DickeState(2, [0.0, 0.0, 1.0])
        assert_allclose(apply_jplus(state), [0.0, math.sqrt(2.0), 0.0])

    def test_jplus_kills_top(self):
        state = DickeState(2, [1.0, 0.0, 0.0])
        assert_allclose(apply_jplus(state), [0.0, 0.0, 0.0])

    def test_jminus_from_top(self):
        state = DickeState(2, [1.0, 0.0, 0.0])
        assert_allclose(apply_jminus(state), [0.0, math.sqrt(2.0), 0.0])

    def test_half_integer_ladder_factor(self):
        # |3/2, 1/2> -> sqrt(15/4 - 3/4) |3/2, 3/2>
        state = DickeState(3, [0.0, 1.0, 0.0, 0.0])
        assert_allclose(apply_jplus(state), [SQRT3, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_ladders_are_mutually_adjoint(self, n):
        rng = np.random.default_rng(100 + n)
        phi = random_state(n, rng)
        psi = random_state(n, rng)
        lhs = np.vdot(phi.coefficients, apply_jplus(psi))
        rhs = np.vdot(apply_jminus(phi), psi.coefficients)
        assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_commutator_of_x_and_y_is_iz(self, n):
        rng = np.random.default_rng(200 + n)
        c = random_state(n, rng).coefficients
        comm = (_x_apply(n, _y_apply(n, c)) - _y_apply(n, _x_apply(n, c)))
        assert_allclose(comm, 1j * _z_apply(n, c), atol=1e-12)


class TestCollectiveMoments:
    def test_stretched_state(self):
        mom = collective_moments(DickeState(2, [1.0, 0.0, 0.0]))
        assert_allclose((mom.jx, mom.jy, mom.jz), (0.0, 0.0, 1.0),
                        atol=1e-14)
        assert_allclose((mom.jx2, mom.jy2, mom.jz2), (0.5, 0.5, 1.0),
                        atol=1e-14)
        assert_allclose((mom.sym_xy, mom.sym_xz, mom.sym_yz),
                        (0.0, 0.0, 0.0), atol=1e-14)

    def test_worked_two_atom_state(self):
        mom = collective_moments(WORKED)
        assert_allclose(mom.jz, 0.5, atol=1e-14)
        assert_allclose(mom.jx, 0.0, atol=1e-14)
        assert_allclose(mom.jy, 0.0, atol=1e-14)
        assert_allclose(mom.jx2, 0.5 + SQRT3 / 4, atol=1e-14)
        assert_allclose(mom.jy2, 0.5 - SQRT3 / 4, atol=1e-14)
        assert_allclose(mom.jz2, 1.0, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_casimir_sum(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            mom = collective_moments(random_state(n, rng))
            j = n / 2.0
            assert abs(mom.jx2 + mom.jy2 + mom.jz2 - j * (j + 1)) < 1e-9

    def test_rejects_unnormalized(self):
        bad = _unchecked(2, [1.0, 1.0, 1.0])
        with pytest.raises(NormalizationError):
            collective_moments(bad)


class TestPairwiseCorrelators:
    def test_stretched_state(self):
        g = pairwise_correlators(DickeState(2, [1.0, 0.0, 0.0]))
        assert_allclose(g.zz, 0.25, atol=1e-14)
        assert_allclose((g.xx, g.yy, g.xy, g.xz, g.yz),
                        (0.0, 0.0, 0.0, 0.0, 0.0), atol=1e-14)

    def test_worked_two_atom_state(self):
        g = pairwise_correlators(WORKED)
        assert_allclose(g.zz, 0.25, atol=1e-14)
        assert_allclose(g.xx, SQRT3 / 8, atol=1e-14)
        assert_allclose(g.yy, -SQRT3 / 8, atol=1e-14)
        assert_allclose((g.xy, g.xz, g.yz), (0.0, 0.0, 0.0), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_product_state_factorizes(self, n):
        # Every atom aligned identically: <J_1a J_2b> = <J_a><J_b>/N^2.
        from spinent import CoherentSpec, coherent_state
        state = coherent_state(CoherentSpec(n, 1.1, 2.2))
        mom = collective_moments(state)
        g = pairwise_correlators(state)
        single = np.array([mom.jx, mom.jy, mom.jz]) / n
        expected = {
            "xx": single[0] * single[0], "yy": single[1] * single[1],
            "zz": single[2] * single[2], "xy": single[0] * single[1],
            "xz": single[0] * single[2], "yz": single[1] * single[2]}
        for name, value in expected.items():
            assert abs(getattr(g, name) - value) < 1e-12

    def test_needs_two_atoms(self):
        with pytest.raises(InsufficientAtomsError):
            pairwise_correlators(DickeState(1, [1.0, 0.0]))
