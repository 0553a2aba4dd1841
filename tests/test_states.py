"""State factories: coherent, ladder eigenstates, twisted, custom."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinent import (
    NORM_TOLERANCE,
    Classification,
    CoherentSpec,
    InvalidQuantumNumberError,
    LengthMismatchError,
    NormalizationError,
    SpinentError,
    analyze,
    coherent_state,
    collective_moments,
    custom_state,
    dicke_state,
    dicke_to_full,
    mean_spin,
    random_state,
    twisted_state,
)

SQRT3 = math.sqrt(3.0)


def exact_coherent(n, theta, phi):
    """Binomial amplitudes from exact integer binomials (N < 1030 only)."""
    k = np.arange(n + 1)
    binom = np.array([math.comb(n, r) for r in range(n + 1)], dtype=float)
    return (np.sqrt(binom) * math.cos(theta / 2.0) ** (n - k)
            * math.sin(theta / 2.0) ** k * np.exp(1j * phi * k))


class TestCoherentState:
    def test_north_pole(self):
        state = coherent_state(CoherentSpec(4, 0.0, 0.0))
        assert_allclose(state.coefficients, np.eye(5)[0], atol=1e-15)

    def test_south_pole(self):
        state = coherent_state(CoherentSpec(4, math.pi, 0.0))
        assert_allclose(np.abs(state.coefficients), np.eye(5)[4], atol=1e-15)

    def test_equatorial_two_atoms(self):
        state = coherent_state(CoherentSpec(2, math.pi / 2, 0.0))
        assert_allclose(state.coefficients,
                        [0.5, 1.0 / math.sqrt(2.0), 0.5], atol=1e-15)

    @pytest.mark.parametrize("n,theta,phi", [
        (2, 0.7, 1.1), (5, 2.8, 4.0), (9, 1.5707, 6.2), (14, 0.05, 3.3)])
    def test_equals_tensor_power(self, n, theta, phi):
        # The binomial construction must reproduce the literal N-fold
        # tensor product of the one-atom state.
        full = dicke_to_full(coherent_state(CoherentSpec(n, theta, phi)))
        single = np.array([math.cos(theta / 2.0),
                           math.sin(theta / 2.0) * np.exp(1j * phi)])
        product = single
        for _ in range(n - 1):
            product = np.kron(product, single)
        assert_allclose(full.amplitudes, product, atol=1e-12)

    def test_mean_spin_direction_and_length(self):
        rng = np.random.default_rng(4000)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            spin = mean_spin(collective_moments(
                coherent_state(CoherentSpec(n, theta, phi))))
            assert abs(spin.magnitude - n / 2.0) < 1e-10
            expected = n / 2.0 * np.array([
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta)])
            assert_allclose((spin.jx, spin.jy, spin.jz), expected,
                            atol=1e-10)

    def test_angle_ranges_enforced(self):
        with pytest.raises(ValueError):
            CoherentSpec(3, -0.1, 0.0)
        with pytest.raises(ValueError):
            CoherentSpec(3, 3.5, 0.0)
        with pytest.raises(ValueError):
            CoherentSpec(3, 1.0, 2.0 * math.pi)
        with pytest.raises(LengthMismatchError):
            CoherentSpec(0, 1.0, 0.0)
        with pytest.raises(LengthMismatchError):
            CoherentSpec("4", 1.0, 0.0)
        with pytest.raises(SpinentError):
            CoherentSpec(3, math.nan, 0.0)


class TestCoherentRange:
    THETAS = (0.0, 1e-3, 0.4, math.pi / 2, 2.9, math.pi)

    @pytest.mark.parametrize("n", [1, 2, 50, 1000, 1029])
    def test_matches_exact_binomials(self, n):
        m = n / 2.0 - np.arange(n + 1)
        for theta in self.THETAS:
            spec = CoherentSpec(n, theta, 1.7)
            want = exact_coherent(n, theta, 1.7)
            assert_allclose(coherent_state(spec).coefficients, want,
                            rtol=0, atol=1e-12)
            assert_allclose(twisted_state(spec, 0.3).coefficients,
                            want * np.exp(-0.3j * m * m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1030, 2000, 10**4, 10**6])
    def test_finite_and_normalized_past_float_binomials(self, n):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for theta in self.THETAS[1:]:
                spec = CoherentSpec(n, theta, 1.7)
                for state in (coherent_state(spec),
                              twisted_state(spec, 1e-3)):
                    coeffs = state.coefficients
                    assert np.all(np.isfinite(coeffs))
                    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) \
                        <= NORM_TOLERANCE
            pole = coherent_state(CoherentSpec(n, 0.0, 1.7)).coefficients
        assert np.array_equal(pole, np.eye(1, n + 1)[0])


class TestDickeState:
    def test_integer_m(self):
        assert_allclose(dicke_state(2, 1.0).coefficients, [1.0, 0.0, 0.0])
        assert_allclose(dicke_state(2, -1.0).coefficients, [0.0, 0.0, 1.0])

    def test_half_integer_m(self):
        assert_allclose(dicke_state(3, 0.5).coefficients,
                        [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("n,m", [(2, 0.5), (2, 2.0), (3, 0.0),
                                     (4, -3.0), (5, 1.0), (4, math.nan),
                                     (4, math.inf), (4, -math.inf)])
    def test_invalid_m_rejected(self, n, m):
        with pytest.raises(InvalidQuantumNumberError):
            dicke_state(n, m)

    def test_m_zero_is_degenerate_frame(self):
        r = analyze(dicke_state(2, 0.0)).report
        assert r.classification is Classification.DEGENERATE_FRAME


class TestTwistedState:
    def test_zero_twist_is_coherent(self):
        spec = CoherentSpec(6, 1.2, 0.4)
        assert_allclose(twisted_state(spec, 0.0).coefficients,
                        coherent_state(spec).coefficients, atol=1e-15)

    def test_twist_changes_phases_only(self):
        spec = CoherentSpec(8, math.pi / 2, 0.0)
        base = coherent_state(spec)
        twisted = twisted_state(spec, 0.3)
        assert_allclose(np.abs(twisted.coefficients),
                        np.abs(base.coefficients), rtol=1e-15)
        assert_allclose(np.sum(np.abs(twisted.coefficients) ** 2), 1.0,
                        atol=1e-13)

    def test_twist_preserves_z_moments(self):
        spec = CoherentSpec(10, math.pi / 2, 0.0)
        base = collective_moments(coherent_state(spec))
        after = collective_moments(twisted_state(spec, 0.25))
        assert_allclose(after.jz, base.jz, atol=1e-13)
        assert_allclose(after.jz2, base.jz2, atol=1e-12)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(SpinentError, match="mu"):
            twisted_state(CoherentSpec(4, 1.0), mu)

    def test_twist_entangles(self):
        spec = CoherentSpec(10, math.pi / 2, 0.0)
        for mu in (0.05, 0.2):
            assert analyze(twisted_state(spec, mu)).report.s_param > 1e-10


class TestCustomState:
    def test_worked_state_end_to_end(self):
        state = custom_state(2, [SQRT3 / 2, 0.0, 0.5])
        assert_allclose(analyze(state).report.s_param, 3.0 / 16.0,
                        atol=1e-14)

    def test_length_checked(self):
        with pytest.raises(LengthMismatchError):
            custom_state(3, [1.0, 0.0])

    def test_norm_checked_without_flag(self):
        with pytest.raises(NormalizationError):
            custom_state(2, [1.0, 1.0, 1.0])

    def test_renormalize_flag(self):
        state = custom_state(2, [3.0, 0.0, 4.0], renormalize=True)
        assert_allclose(state.coefficients, [0.6, 0.0, 0.8], atol=1e-15)

    def test_zero_vector_cannot_renormalize(self):
        with pytest.raises(NormalizationError):
            custom_state(2, [0.0, 0.0, 0.0], renormalize=True)

    def test_complex_coefficients_pass_through(self):
        state = custom_state(2, [0.6, 0.0, 0.8j])
        assert state.coefficients[2] == 0.8j


def test_random_state_is_normalized():
    rng = np.random.default_rng(123)
    for n in (1, 2, 7, 20):
        state = random_state(n, rng)
        assert abs(np.sum(np.abs(state.coefficients) ** 2) - 1.0) < 1e-12
