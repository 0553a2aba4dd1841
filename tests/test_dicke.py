"""Ladder-basis state container, operator applications, and moments."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinent import (
    CoherentSpec,
    DickeState,
    InsufficientAtomsError,
    LengthMismatchError,
    NormalizationError,
    apply_jminus,
    apply_jplus,
    apply_jz,
    coherent_state,
    collective_moments,
    custom_state,
    dicke_state,
    pairwise_correlators,
    random_state,
    twisted_state,
)
from spinent.dicke import _ladder_factors, _lower, _m_of, _raise

SQRT3 = math.sqrt(3.0)

# (sqrt(3)/2)|1,1> + (1/2)|1,-1>, the reference two-atom entangled state.
WORKED = DickeState(2, [SQRT3 / 2, 0.0, 0.5])


def _up_down(n, vec):
    # J+ and J- on a raw coefficient vector, normalized or not.
    factors = _ladder_factors(n)[1]
    return (_raise(factors, vec, np.empty(n + 1, dtype=complex)),
            _lower(factors, vec, np.empty(n + 1, dtype=complex)))


def _jx(n, vec):
    up, down = _up_down(n, vec)
    return 0.5 * (up + down)


def _jy(n, vec):
    up, down = _up_down(n, vec)
    return -0.5j * (up - down)


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
        # Drift within NORM_TOLERANCE is kept as given unless asked for.
        coefficients = [1.0 + 4e-7, 0.0, 0.0]
        state = DickeState(2, coefficients)
        fixed = custom_state(2, coefficients, renormalize=True)
        assert_allclose(np.sum(np.abs(fixed.coefficients) ** 2), 1.0,
                        atol=1e-15)
        assert state.coefficients[0] == coefficients[0]
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
        state = random_state(n, rng)
        c = state.coefficients
        comm = _jx(n, _jy(n, c)) - _jy(n, _jx(n, c))
        assert_allclose(comm, 1j * state.m_values * c, atol=1e-12)


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

    @pytest.mark.parametrize("n", [1000, 10_000, 100_000, 1_000_000])
    def test_casimir_sum_at_large_n(self, n):
        # Each second moment rounds in proportion to j(j+1), so the bound
        # scales with it.
        rng = np.random.default_rng(500 + n)
        j = n / 2.0
        casimir = j * (j + 1)
        spec = CoherentSpec(n, rng.uniform(0.0, math.pi),
                            rng.uniform(0.0, 2.0 * math.pi))
        for state in (random_state(n, rng), coherent_state(spec),
                      twisted_state(spec, rng.uniform(0.0, 0.5))):
            mom = collective_moments(state)
            assert abs(mom.jx2 + mom.jy2 + mom.jz2 - casimir) <= \
                16 * np.finfo(float).eps * casimir

    def test_rejects_unnormalized(self):
        bad = _unchecked(2, [1.0, 1.0, 1.0])
        with pytest.raises(NormalizationError):
            collective_moments(bad)

    def test_peak_memory_is_a_few_vectors(self):
        # O(N): a fixed number of (N+1) complex vectors per call, below 5.
        n = 100_000
        state = coherent_state(CoherentSpec(n, 1.0, 0.3))
        collective_moments(state)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            collective_moments(state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 5 * 16 * (n + 1)


# The ladder formulas as they stood before collective_moments shared its
# factors and buffers: m and every factor recomputed per application, and a
# fresh vector for each result, in a given real precision.  In float64 the
# library's ladder vectors must match them bit for bit.  Its moments sum in
# another order, so they are held to the same formulas in long double.

def _reference_m(n, real=np.float64):
    j = real(n) / 2
    return j - np.arange(n + 1, dtype=real)


def _reference_up(n, vec, real=np.float64):
    j = real(n) / 2
    m = _reference_m(n, real)
    out = np.zeros(n + 1, dtype=np.result_type(real, 1j))
    out[:-1] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)) * vec[1:]
    return out


def _reference_down(n, vec, real=np.float64):
    j = real(n) / 2
    m = _reference_m(n, real)
    out = np.zeros(n + 1, dtype=np.result_type(real, 1j))
    out[1:] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1)) * vec[:-1]
    return out


def _reference_x(n, vec, real):
    return 0.5 * (_reference_up(n, vec, real) + _reference_down(n, vec, real))


def _reference_y(n, vec, real):
    return -0.5j * (_reference_up(n, vec, real)
                    - _reference_down(n, vec, real))


def _reference_z(n, vec, real=np.float64):
    return _reference_m(n, real) * vec


def _reference_moments(state):
    # 80-bit extended precision on x86-64.
    real = np.longdouble
    c = state.coefficients.astype(np.clongdouble)
    n = state.n_atoms
    norm2 = np.sum(np.abs(c) ** 2)
    xv = _reference_x(n, c, real)
    yv = _reference_y(n, c, real)
    zv = _reference_z(n, c, real)
    values = [
        np.vdot(c, xv), np.vdot(c, yv), np.vdot(c, zv),
        np.vdot(xv, xv), np.vdot(yv, yv), np.vdot(zv, zv),
        np.vdot(c, _reference_x(n, yv, real) + _reference_y(n, xv, real)),
        np.vdot(c, _reference_x(n, zv, real) + _reference_z(n, xv, real)),
        np.vdot(c, _reference_y(n, zv, real) + _reference_z(n, yv, real)),
    ]
    return np.array([v.real / norm2 for v in values])


def _pin_corpus(n):
    rng = np.random.default_rng(400 + n)
    drifted = random_state(n, rng).coefficients * (1.0 + 3e-7)
    return [
        random_state(n, rng),
        DickeState(n, drifted),
        coherent_state(CoherentSpec(n, rng.uniform(0.0, math.pi),
                                    rng.uniform(0.0, 2.0 * math.pi))),
        twisted_state(CoherentSpec(n, rng.uniform(0.0, math.pi),
                                   rng.uniform(0.0, 2.0 * math.pi)),
                      rng.uniform(0.0, 0.5)),
        dicke_state(n, n / 2.0 - int(rng.integers(n + 1))),
    ]


class TestBitIdentity:
    @pytest.mark.parametrize(
        "n", list(range(1, 41)) + [99, 100, 1000, 1234, 10_000])
    def test_matches_the_per_application_formulas(self, n):
        j = n / 2.0
        bound = 4 * np.finfo(float).eps * max(1.0, j * (j + 1))
        for state in _pin_corpus(n):
            c = state.coefficients
            got = np.array(dataclasses.astuple(collective_moments(state)),
                           dtype=np.longdouble)
            assert np.max(np.abs(got - _reference_moments(state))) <= bound
            assert np.array_equal(apply_jplus(state), _reference_up(n, c))
            assert np.array_equal(apply_jminus(state), _reference_down(n, c))
            assert np.array_equal(apply_jz(state), _reference_z(n, c))

    @pytest.mark.parametrize("n", list(range(1, 300)) + [10 ** 6])
    def test_m_matches_the_integer_range(self, n):
        # m from a float range has the bits of the int range's cast.
        assert np.array_equal(_m_of(n), n / 2.0 - np.arange(n + 1))


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
