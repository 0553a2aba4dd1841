"""Transverse variances, correlation terms, S, Q, xi, classification."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinent import (
    Classification,
    CoherentSpec,
    CollectiveMoments,
    DegenerateMeanSpinError,
    DickeState,
    Frame,
    InsufficientAtomsError,
    LengthMismatchError,
    SpinentError,
    analyze,
    build_frame,
    classify,
    coherent_state,
    collective_moments,
    correlation_terms,
    correlation_terms_pairwise,
    custom_state,
    dicke_state,
    dicke_to_full,
    entanglement_parameter,
    mean_spin,
    random_state,
    s_from_q,
    s_from_variances,
    s_from_xi,
    schmidt_rank_two_atoms,
    spectroscopic_parameters,
    squeezing_parameters,
    transverse_variances,
    twisted_state,
)

SQRT3 = math.sqrt(3.0)
WORKED = DickeState(2, [SQRT3 / 2, 0.0, 0.5])


def _frame_of(state):
    moments = collective_moments(state)
    return moments, build_frame(mean_spin(moments))


def _near_zero_variance_states(n):
    """|m=0> + delta |m=1>, turned by pi/2 about x, then by phi about z.

    For even n.  The turn takes the J_z eigenbasis of the Dicke state to
    one of J_y, so the y' axis carries a variance near zero.
    """
    j = n / 2.0
    m = j - np.arange(n + 1)
    half = 0.5 * np.sqrt(j * (j + 1) - m[1:] * m[:-1])
    lam, vec = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))
    turn = (vec * np.exp(-0.5j * np.pi * lam)) @ vec.T
    for delta in (1e-6, 1e-8):
        base = np.zeros(n + 1, dtype=complex)
        base[n // 2 - 1:n // 2 + 1] = delta, 1.0
        turned = turn @ base
        for phi in np.linspace(0.05, 6.25, 60):
            c = np.exp(-1j * phi * m) * turned
            yield DickeState(n, c / np.linalg.norm(c))


class TestTransverseVariances:
    def test_worked_two_atom_state(self):
        moments, frame = _frame_of(WORKED)
        var_xp, var_yp = transverse_variances(moments, frame)
        assert_allclose(var_xp, 0.5 + SQRT3 / 4, atol=1e-14)
        assert_allclose(var_yp, 0.5 - SQRT3 / 4, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_coherent_state_gives_quarter_n(self, n):
        state = coherent_state(CoherentSpec(n, 0.9, 4.5))
        var_xp, var_yp = transverse_variances(*_frame_of(state))
        assert_allclose((var_xp, var_yp), (n / 4.0, n / 4.0), atol=1e-10)

    def test_dicke_three_atoms(self):
        var_xp, var_yp = transverse_variances(*_frame_of(dicke_state(3, 0.5)))
        assert_allclose((var_xp, var_yp), (1.75, 1.75), atol=1e-14)

    def test_never_negative(self):
        rng = np.random.default_rng(21)
        for n in (2, 4, 8):
            for _ in range(50):
                state = random_state(n, rng)
                spin = mean_spin(collective_moments(state))
                if spin.magnitude < 1e-9:
                    continue
                var_xp, var_yp = transverse_variances(*_frame_of(state))
                assert var_xp >= 0.0
                assert var_yp >= 0.0

    def test_negative_form_clamps_to_zero(self):
        # The forms are of the Gram matrix Re <J_a psi|J_b psi>, so a
        # negative one is rounding, clamped whatever its size; NaN passes.
        # At theta = phi = 0, x' = x and y' = y.
        frame = Frame(1.0, 0.0, 1.0, 0.0, True)

        def variances(jx2, jy2):
            return transverse_variances(CollectiveMoments(
                0.0, 0.0, 1.0, jx2, jy2, 1.0, 0.0, 0.0, 0.0), frame)

        assert variances(-3.64e-12, -1.0) == (0.0, 0.0)
        assert all(map(math.isnan, variances(math.nan, 2.0)))


class TestCorrelationTerms:
    def test_worked_two_atom_state(self):
        moments, frame = _frame_of(WORKED)
        corr_x, corr_y = correlation_terms(
            *transverse_variances(moments, frame), 2)
        assert_allclose(corr_x, SQRT3 / 4, atol=1e-14)
        assert_allclose(corr_y, -SQRT3 / 4, atol=1e-14)

    def test_coherent_state_vanishes(self):
        state = coherent_state(CoherentSpec(7, 2.0, 0.3))
        corr = correlation_terms(*transverse_variances(*_frame_of(state)), 7)
        assert_allclose(corr, (0.0, 0.0), atol=1e-11)

    def test_needs_two_atoms(self):
        with pytest.raises(InsufficientAtomsError):
            correlation_terms(0.25, 0.25, 1)

    @pytest.mark.parametrize("route", [
        lambda n: correlation_terms(0.5, 0.5, n),
        lambda n: s_from_variances(0.5, 0.5, n),
        lambda n: s_from_q(1.0, 1.0, n),
        lambda n: s_from_xi(1.0, 1.0, 0.5, n)],
        ids=["correlation_terms", "s_from_variances", "s_from_q",
             "s_from_xi"])
    @pytest.mark.parametrize("n_atoms", [0, -2, 2.5, 4.0, math.nan, True])
    def test_atom_count_not_a_positive_integer(self, route, n_atoms):
        # One two-atom rule on every route: a count that is not a positive
        # integer is refused before any arithmetic on it.
        with pytest.raises(LengthMismatchError, match="n_atoms"):
            route(n_atoms)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_pairwise_route_matches_collective_route(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(40):
            state = random_state(n, rng)
            spin = mean_spin(collective_moments(state))
            if spin.magnitude < 1e-9:
                continue
            moments, frame = _frame_of(state)
            corr_x, corr_y = correlation_terms(
                *transverse_variances(moments, frame), n)
            pair_x, pair_y = correlation_terms_pairwise(state, frame)
            assert abs(pair_x - corr_x) < 1e-9
            assert abs(pair_y - corr_y) < 1e-9

    def test_pairwise_route_on_worked_state(self):
        _, frame = _frame_of(WORKED)
        pair_x, pair_y = correlation_terms_pairwise(WORKED, frame)
        assert_allclose(pair_x, SQRT3 / 4, atol=1e-14)
        assert_allclose(pair_y, -SQRT3 / 4, atol=1e-14)


class TestEntanglementParameter:
    def test_zero_at_origin(self):
        assert entanglement_parameter(0.0, 0.0) == 0.0

    def test_worked_value(self):
        assert_allclose(entanglement_parameter(SQRT3 / 4, -SQRT3 / 4),
                        3.0 / 16.0, atol=1e-15)

    def test_dicke_three_atoms(self):
        assert entanglement_parameter(1.0, 1.0) == 1.0

    @pytest.mark.parametrize("n", [2, 4, 7, 11])
    def test_matches_variance_form(self, n):
        rng = np.random.default_rng(700 + n)
        for _ in range(40):
            analysis = analyze(random_state(n, rng))
            r = analysis.report
            if r.classification is Classification.DEGENERATE_FRAME:
                continue
            direct = s_from_variances(r.var_xp, r.var_yp, n)
            assert abs(direct - r.s_param) < 1e-12

    def test_two_atom_constant_is_half(self):
        # For N=2 the variance form carries the constant N^2/8 = 1/2.
        assert_allclose(s_from_variances(0.5, 0.5, 2), 0.0, atol=1e-15)
        assert_allclose(s_from_variances(1.0, 0.0, 2), 0.25, atol=1e-15)


class TestSqueezingParameters:
    def test_coherent_gives_unity(self):
        state = coherent_state(CoherentSpec(12, 1.3, 5.1))
        analysis = analyze(state)
        assert_allclose((analysis.report.q_x, analysis.report.q_y),
                        (1.0, 1.0), atol=1e-12)

    def test_worked_values(self):
        q_x, q_y = squeezing_parameters(0.5 + SQRT3 / 4, 0.5 - SQRT3 / 4, 2)
        assert_allclose(q_x, math.sqrt(1.0 + SQRT3 / 2), atol=1e-15)
        assert_allclose(q_y, math.sqrt(1.0 - SQRT3 / 2), atol=1e-15)

    @pytest.mark.parametrize("var_xp, var_yp, n", [
        (-1.0, 1.0, 4), (1.0, -1e-300, 4), (math.nan, 1.0, 4),
        (1.0, math.nan, 4)])
    def test_undefined_input_is_a_spinent_error(self, var_xp, var_yp, n):
        with pytest.raises(SpinentError, match="squeezing parameters"):
            squeezing_parameters(var_xp, var_yp, n)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, math.nan])
    def test_bad_atom_count_rejected(self, n):
        with pytest.raises(LengthMismatchError, match="n_atoms"):
            squeezing_parameters(1.0, 1.0, n)

    def test_dicke_three_atoms(self):
        q_x, q_y = squeezing_parameters(1.75, 1.75, 3)
        assert_allclose((q_x, q_y),
                        (math.sqrt(7.0 / 3.0), math.sqrt(7.0 / 3.0)),
                        atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_s_from_q_identity(self, n):
        rng = np.random.default_rng(800 + n)
        for _ in range(40):
            r = analyze(random_state(n, rng)).report
            if r.classification is Classification.DEGENERATE_FRAME:
                continue
            assert abs(s_from_q(r.q_x, r.q_y, n) - r.s_param) < 1e-12


class TestSpectroscopicParameters:
    def test_coherent_gives_unity(self):
        r = analyze(coherent_state(CoherentSpec(9, 0.4, 1.0))).report
        assert_allclose((r.xi_rx, r.xi_ry), (1.0, 1.0), atol=1e-12)

    def test_worked_values(self):
        # j/magnitude = 1/0.5 = 2, so xi is twice Q here.
        xi_rx, xi_ry = spectroscopic_parameters(
            math.sqrt(1.0 + SQRT3 / 2), math.sqrt(1.0 - SQRT3 / 2), 0.5, 2)
        assert_allclose(xi_rx, 2.0 * math.sqrt(1.0 + SQRT3 / 2), atol=1e-14)
        assert_allclose(xi_ry, 2.0 * math.sqrt(1.0 - SQRT3 / 2), atol=1e-14)

    def test_undefined_for_degenerate_mean_spin(self):
        with pytest.raises(DegenerateMeanSpinError):
            spectroscopic_parameters(1.0, 1.0, 0.0, 4)

    def test_nan_mean_spin_length_rejected(self):
        with pytest.raises(DegenerateMeanSpinError):
            spectroscopic_parameters(1.0, 1.0, math.nan, 4)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, math.nan])
    def test_bad_atom_count_rejected(self, n):
        with pytest.raises(LengthMismatchError, match="n_atoms"):
            spectroscopic_parameters(1.0, 1.0, 0.5, n)

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_s_from_xi_identity(self, n):
        rng = np.random.default_rng(900 + n)
        for _ in range(40):
            analysis = analyze(random_state(n, rng))
            r = analysis.report
            if r.classification is Classification.DEGENERATE_FRAME:
                continue
            recovered = s_from_xi(r.xi_rx, r.xi_ry,
                                  analysis.mean_spin.magnitude, n)
            assert abs(recovered - r.s_param) < 1e-12


class TestClassify:
    def test_below_tolerance_is_unentangled(self):
        assert classify(5e-11, 2) is Classification.UNENTANGLED

    def test_above_tolerance_is_entangled(self):
        assert classify(2e-10, 2) is Classification.ENTANGLED

    def test_degenerate_frame_wins(self):
        # A report's metrics are None exactly for a degenerate frame.
        for n_atoms in (2, 10**6):
            assert classify(None, n_atoms) is Classification.DEGENERATE_FRAME

    @pytest.mark.parametrize("s_param", [
        math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_impossible_s_rejected(self, s_param):
        # No analysis gives these, so none is read as a class.
        with pytest.raises(SpinentError, match="s_param"):
            classify(s_param, 2)

    @pytest.mark.parametrize("n_atoms", [True, False, 0, -3, 2.0, None])
    @pytest.mark.parametrize("s_param", [0.0, None, math.nan])
    def test_bad_atom_count_rejected(self, s_param, n_atoms):
        # classify(s, True), the old degenerate-frame flag, is not N = 1.
        with pytest.raises(SpinentError, match="n_atoms"):
            classify(s_param, n_atoms)

    def test_floor_grows_with_n(self):
        # 10 (ulp(1) N**2)**2 is 4.9e-19 at N = 1000, 4.9e-11 at 10**5,
        # 7.9e-10 at 2*10**5 and 4.9e-7 at 10**6: it overtakes the fixed
        # 1e-10 cut between 10**5 and 2*10**5.
        assert classify(1e-9, 1000) is Classification.ENTANGLED
        assert classify(9e-11, 10**5) is Classification.UNENTANGLED
        assert classify(2e-10, 10**5) is Classification.ENTANGLED
        assert classify(5e-10, 2 * 10**5) is Classification.UNENTANGLED
        assert classify(1e-9, 2 * 10**5) is Classification.ENTANGLED
        assert classify(1e-9, 10**6) is Classification.UNENTANGLED


class TestAnalyzePipeline:
    def test_report_assembly_is_exact(self):
        # The report must satisfy its own defining relations bit for bit.
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = analyze(random_state(5, rng))
            r = a.report
            if r.classification is Classification.DEGENERATE_FRAME:
                continue
            assert r.corr_x == r.var_xp - 5 / 4.0
            assert r.corr_y == r.var_yp - 5 / 4.0
            assert r.s_param == entanglement_parameter(r.corr_x, r.corr_y)

    def test_degenerate_frame_report(self):
        inv = 1.0 / math.sqrt(2.0)
        a = analyze(custom_state(4, [inv, 0.0, 0.0, 0.0, inv]))
        r = a.report
        assert r.classification is Classification.DEGENERATE_FRAME
        assert a.frame is None
        for name in ("var_xp", "var_yp", "corr_x", "corr_y", "s_param",
                     "q_x", "q_y", "xi_rx", "xi_ry"):
            assert getattr(r, name) is None

    def test_single_atom_rejected(self):
        with pytest.raises(InsufficientAtomsError):
            analyze(DickeState(1, [1.0, 0.0]))

    def test_worked_state_end_to_end(self):
        r = analyze(WORKED).report
        assert_allclose(r.s_param, 3.0 / 16.0, atol=1e-14)
        assert r.classification is Classification.ENTANGLED

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_norm_drift_within_tolerance_keeps_product_state(self, n):
        # |psi|^2 = 1 + 5e-7 passes NORM_TOLERANCE; undivided moments made
        # this coherent (product) state read S ~ 1.6e-10 * (n / 100)^2.
        exact = coherent_state(CoherentSpec(n, 1.0, 0.3)).coefficients
        drifted = custom_state(n, exact * math.sqrt(1.0 + 5e-7))
        r = analyze(drifted).report
        assert r.classification is Classification.UNENTANGLED
        # Rounding in S scales like N**4: 1e-20 up to N = 1000, then more
        # (S reads 7.9e-18 at N = 1e4).
        assert r.s_param <= 1e-20 * max(1.0, n / 1000) ** 4
        assert_allclose((r.q_x, r.q_y), (1.0, 1.0), atol=1e-12)


class TestLargeN:
    """The ladder path through N = 1e6: no residue error, no rounding
    misclassification of product states, twisted states still entangled."""

    THETAS = np.linspace(0.3, 2.9, 6)
    PHIS = np.linspace(0.0, 5.0, 5)

    def test_random_states_analyze_and_meet_robertson_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = analyze(random_state(10_000, rng))
            r = a.report
            assert r.classification is not Classification.DEGENERATE_FRAME
            bound = a.mean_spin.magnitude ** 2 / 4.0
            assert r.var_xp * r.var_yp >= bound * (1.0 - 1e-12)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_coherent_grid_unentangled(self, n):
        for theta in self.THETAS:
            for phi in self.PHIS:
                spec = CoherentSpec(n, float(theta), float(phi))
                r = analyze(coherent_state(spec)).report
                assert r.classification is Classification.UNENTANGLED, \
                    (theta, phi, r.s_param)

    # Without the rounding floor these read S between 4e-9 and 3e-8.
    @pytest.mark.parametrize("theta, phi", [(0.82, 0.0), (1.34, 1.25),
                                            (1.86, 3.75)])
    def test_coherent_unentangled_at_a_million(self, theta, phi):
        r = analyze(coherent_state(CoherentSpec(10**6, theta, phi))).report
        assert r.classification is Classification.UNENTANGLED, r.s_param
        # The report's S, classified by hand, gets the report's class.
        assert classify(r.s_param, 10**6) is r.classification
        assert_allclose((r.q_x, r.q_y), (1.0, 1.0), atol=1e-9)

    @pytest.mark.parametrize("n, mu", [(100_000, 3e-8), (10**6, 3e-9)])
    def test_twisted_entangled(self, n, mu):
        # S of order 1e-2 and 1: far above the rounding floor at either N.
        r = analyze(twisted_state(CoherentSpec(n, 1.2, 0.3), mu)).report
        assert r.classification is Classification.ENTANGLED
        assert r.s_param > 1e-3

    def test_floor_leaves_small_n_tolerance_alone(self):
        # At N = 1000 the floor is 4.9e-19, so the fixed 1e-10 cut decides
        # this twist's S ~ 1.8e-12.
        state = twisted_state(CoherentSpec(1000, 1.2, 0.3), 1e-7)
        s = analyze(state).report.s_param
        assert 1e-13 < s < 1e-10
        assert analyze(state).report.classification \
            is Classification.UNENTANGLED

    @pytest.mark.parametrize("n", [300, 1000])
    def test_near_zero_variance_axis(self, n):
        # The y' form rounds to a few -ulp(1) j(j+1); an absolute floor of
        # -1e-12 let 3 of these 120 states at N = 300 and 43 at N = 1000
        # reach math.sqrt negative.
        for state in _near_zero_variance_states(n):
            r = analyze(state).report
            assert r.var_xp >= 0.0 and r.var_yp >= 0.0
            assert r.classification is Classification.ENTANGLED


class TestPhysicalProperties:
    def test_robertson_uncertainty_bound(self):
        # var_xp * var_yp >= |<J>|^2 / 4 holds in the rotated frame.
        rng = np.random.default_rng(41)
        for n in range(2, 11):
            for _ in range(60):
                a = analyze(random_state(n, rng))
                r = a.report
                if r.classification is Classification.DEGENERATE_FRAME:
                    continue
                bound = a.mean_spin.magnitude ** 2 / 4.0
                assert r.var_xp * r.var_yp >= bound - 1e-9

    def test_seesaw_between_corr_terms(self):
        # corr_x + corr_y = j(j+1) - <Jz'^2> - N/2 >= 0 in the maximal-spin
        # sector, so squeezing one term forces the other positive.
        rng = np.random.default_rng(51)
        for n in range(2, 11):
            for _ in range(60):
                r = analyze(random_state(n, rng)).report
                if r.classification is Classification.DEGENERATE_FRAME:
                    continue
                if r.corr_x < -1e-12:
                    assert r.corr_y > 0.0
                if r.corr_y < -1e-12:
                    assert r.corr_x > 0.0

    def test_stronger_uncertainty_form_logged_not_enforced(self):
        # Q_x * Q_y >= 1 holds only near the coherent manifold; random
        # states violate it freely.  Record the violations, never fail.
        rng = np.random.default_rng(61)
        violations = 0
        total = 0
        for n in (2, 5, 8):
            for _ in range(60):
                r = analyze(random_state(n, rng)).report
                if r.classification is Classification.DEGENERATE_FRAME:
                    continue
                total += 1
                if r.q_x * r.q_y < 1.0 - 1e-9:
                    violations += 1
        if violations:
            warnings.warn(
                f"Q_x*Q_y >= 1 violated on {violations}/{total} random "
                "states; only the Robertson bound is enforced")
        assert total > 0

    def test_squeezing_implies_entanglement(self):
        rng = np.random.default_rng(71)
        checked = 0
        for n in range(2, 11):
            for _ in range(60):
                r = analyze(random_state(n, rng)).report
                if r.classification is Classification.DEGENERATE_FRAME:
                    continue
                if min(r.q_x, r.q_y) < 1.0 - 1e-9:
                    checked += 1
                    assert r.s_param > 0.0
        assert checked > 100

    def test_entangled_but_not_squeezed_exists(self):
        r = analyze(dicke_state(6, 1.0)).report
        assert_allclose(r.s_param, 16.0, atol=1e-12)
        assert min(r.q_x, r.q_y) >= 1.0

    def test_twisted_states_entangled_for_positive_mu(self):
        spec = CoherentSpec(10, math.pi / 2, 0.0)
        for mu in (0.05, 0.2, 0.45):
            r = analyze(twisted_state(spec, mu)).report
            assert r.s_param > 1e-10
            assert r.classification is Classification.ENTANGLED


class TestTwoAtomSeparabilityGrid:
    def test_s_zero_iff_schmidt_rank_one(self):
        """Over a dense two-atom grid, S <= 1e-10 happens exactly on
        product states (Schmidt rank 1)."""
        product_hits = 0
        entangled_hits = 0
        alphas = np.linspace(0.0, math.pi / 2, 15)
        betas = np.linspace(0.0, math.pi / 2, 15)
        gammas = (0.0, 0.9, 2.1)
        for alpha in alphas:
            for beta in betas:
                for gamma in gammas:
                    coeffs = np.array([
                        math.cos(alpha),
                        math.sin(alpha) * math.cos(beta)
                        * np.exp(1j * gamma),
                        math.sin(alpha) * math.sin(beta)])
                    state = custom_state(2, coeffs)
                    a = analyze(state)
                    if a.report.classification \
                            is Classification.DEGENERATE_FRAME:
                        continue
                    rank = schmidt_rank_two_atoms(dicke_to_full(state))
                    if a.report.s_param <= 1e-10:
                        assert rank == 1
                        product_hits += 1
                    else:
                        assert rank == 2
                        entangled_hits += 1
        # The grid corners contain genuine product states; most of the grid
        # is entangled.  Both branches must actually fire.
        assert product_hits > 0
        assert entangled_hits > 100

    def test_coherent_grid_is_product(self):
        for theta in np.linspace(0.05, math.pi - 0.05, 9):
            for phi in np.linspace(0.0, 6.0, 7):
                state = coherent_state(CoherentSpec(2, float(theta),
                                                    float(phi)))
                a = analyze(state)
                assert a.report.s_param <= 1e-10
                assert schmidt_rank_two_atoms(dicke_to_full(state)) == 1
