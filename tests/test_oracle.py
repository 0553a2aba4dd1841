"""Brute-force 2**N path: operator actions, basis maps, full cross-check."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spinent
from spinent import (
    Classification,
    CoherentSpec,
    DegenerateMeanSpinError,
    DickeState,
    DimensionCapError,
    FullState,
    InsufficientAtomsError,
    LengthMismatchError,
    NormalizationError,
    NotSymmetricError,
    SpinentError,
    StateAnalysis,
    WrongAtomCountError,
    analyze,
    build_frame,
    coherent_state,
    correlation_terms,
    custom_state,
    dicke_state,
    dicke_to_full,
    entanglement_parameter,
    full_to_dicke,
    mean_spin,
    oracle_metrics,
    pairwise_correlators,
    random_state,
    rotation_matrix,
    schmidt_rank_two_atoms,
    single_atom_action,
    spectroscopic_parameters,
    squeezing_parameters,
    twisted_state,
)
from spinent.dicke import CollectiveMoments, _ladder_factors, _lower, _raise
from spinent.io import report_document
from spinent.oracle import _real_parts

SQRT3 = math.sqrt(3.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _weights(n):
    return np.array([bin(b).count("1") for b in range(1 << n)])


def _embed(coeffs, n):
    # Independent re-derivation of the orbit spreading used by the tests to
    # push unnormalized ladder vectors into the product basis.
    w = _weights(n)
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return np.asarray(coeffs, dtype=complex)[w] / np.sqrt(binom[w])


class TestSingleAtomAction:
    def test_z_reads_the_bit(self):
        s = FullState(2, [1.0, 0.0, 0.0, 0.0])
        assert_allclose(single_atom_action(s.amplitudes, s.n_atoms, 0, "z"),
                        [0.5, 0.0, 0.0, 0.0])
        assert_allclose(single_atom_action(s.amplitudes, s.n_atoms, 1, "z"),
                        [0.5, 0.0, 0.0, 0.0])

    def test_x_flips_the_addressed_atom(self):
        s = FullState(2, [1.0, 0.0, 0.0, 0.0])
        # Atom 0 is the most significant bit.
        assert_allclose(single_atom_action(s.amplitudes, s.n_atoms, 0, "x"),
                        [0.0, 0.0, 0.5, 0.0])
        assert_allclose(single_atom_action(s.amplitudes, s.n_atoms, 1, "x"),
                        [0.0, 0.5, 0.0, 0.0])

    def test_y_signs(self):
        up = FullState(1, [1.0, 0.0])
        down = FullState(1, [0.0, 1.0])
        assert_allclose(single_atom_action(up.amplitudes, 1, 0, "y"),
                        [0.0, 0.5j])
        assert_allclose(single_atom_action(down.amplitudes, 1, 0, "y"),
                        [-0.5j, 0.0])

    def test_index_and_axis_validation(self):
        s = FullState(2, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(IndexError):
            single_atom_action(s.amplitudes, s.n_atoms, 2, "x")
        with pytest.raises(ValueError):
            single_atom_action(s.amplitudes, s.n_atoms, 0, "w")

    @pytest.mark.parametrize("n,atom", [(1, 0), (3, 1), (4, 3)])
    def test_same_atom_commutator(self, n, atom):
        rng = np.random.default_rng(10 * n + atom)
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        xy = single_atom_action(
            single_atom_action(vec, n, atom, "y"), n, atom, "x")
        yx = single_atom_action(
            single_atom_action(vec, n, atom, "x"), n, atom, "y")
        z = single_atom_action(vec, n, atom, "z")
        assert_allclose(xy - yx, 1j * z, atol=1e-12)

    def test_different_atoms_commute(self):
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ab = single_atom_action(single_atom_action(vec, 3, 1, "y"), 3, 0, "x")
        ba = single_atom_action(single_atom_action(vec, 3, 0, "x"), 3, 1, "y")
        assert_allclose(ab, ba, atol=1e-13)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_collective_sum_matches_ladder_action(self, axis):
        n = 5
        rng = np.random.default_rng(55)
        state = random_state(n, rng)
        c = state.coefficients
        factors = _ladder_factors(n)[1]
        up = _raise(factors, c, np.empty(n + 1, dtype=complex))
        down = _lower(factors, c, np.empty(n + 1, dtype=complex))
        ladder = {
            "x": lambda: 0.5 * (up + down),
            "y": lambda: -0.5j * (up - down),
            "z": lambda: state.m_values * c}[axis]
        collective = sum(
            single_atom_action(_embed(c, n), n, i, axis)
            for i in range(n))
        expected = _embed(ladder(), n)
        assert_allclose(collective, expected, atol=1e-12)


class TestBasisMaps:
    def test_two_atom_symmetric_middle(self):
        full = dicke_to_full(custom_state(2, [0.0, 1.0, 0.0]))
        assert_allclose(full.amplitudes,
                        [0.0, INV_SQRT2, INV_SQRT2, 0.0], atol=1e-15)

    def test_two_atom_top(self):
        full = dicke_to_full(custom_state(2, [1.0, 0.0, 0.0]))
        assert_allclose(full.amplitudes, [1.0, 0.0, 0.0, 0.0])

    def test_three_atom_single_excitation(self):
        full = dicke_to_full(dicke_state(3, 0.5))
        expected = np.zeros(8)
        for b in (0b001, 0b010, 0b100):
            expected[b] = 1.0 / SQRT3
        assert_allclose(full.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_round_trip(self, n):
        rng = np.random.default_rng(1000 + n)
        state = random_state(n, rng)
        back = full_to_dicke(dicke_to_full(state))
        assert_allclose(back.coefficients, state.coefficients, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_expansion_bit_identical_to_embed(self, n):
        rng = np.random.default_rng(2000 + n)
        for state in (random_state(n, rng),
                      coherent_state(CoherentSpec(n, 1.1, 0.4)),
                      dicke_state(n, n / 2.0 - n // 3)):
            assert np.array_equal(dicke_to_full(state).amplitudes,
                                  _embed(state.coefficients, n))

    def test_rejection_names_the_widest_orbit(self):
        # Orbit 1 is off by 0.1, orbit 2 by more; the error names orbit 2.
        amps = _embed(coherent_state(CoherentSpec(3, 1.0)).coefficients, 3)
        amps[0b001] += 0.1
        amps[0b100] -= 0.1
        amps[0b011] += 0.2
        amps[0b101] -= 0.2
        with pytest.raises(NotSymmetricError,
                           match="orbit with 2 excited lower levels"):
            full_to_dicke(FullState(3, amps / np.linalg.norm(amps)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rejects_as_the_per_orbit_loop(self, n):
        # Perturbations straddling the 1e-10 tolerance: full_to_dicke must
        # accept exactly when a per-orbit loop finds every spread within it.
        rng = np.random.default_rng(3000 + n)
        weights = _weights(n)
        for size in np.geomspace(1e-11, 1e-9, 12):
            amps = _embed(random_state(n, rng).coefficients, n)
            amps = amps + size * (rng.standard_normal(amps.size)
                                  + 1j * rng.standard_normal(amps.size))
            amps /= np.linalg.norm(amps)
            spread = max(np.max(np.abs(orbit - orbit.mean())) for orbit in
                         (amps[weights == k] for k in range(n + 1)))
            if spread > 1e-10:
                with pytest.raises(NotSymmetricError):
                    full_to_dicke(FullState(n, amps))
            else:
                full_to_dicke(FullState(n, amps))

    def test_rejects_antisymmetric_state(self):
        singlet = FullState(2, [0.0, INV_SQRT2, -INV_SQRT2, 0.0])
        with pytest.raises(NotSymmetricError):
            full_to_dicke(singlet)

    def test_rejects_weight_orbit_imbalance(self):
        lopsided = FullState(2, [0.0, 0.8, 0.6, 0.0])
        with pytest.raises(NotSymmetricError):
            full_to_dicke(lopsided)

    def test_expansion_peaks_near_three_vectors(self):
        # The gathered vector, its validated copy and the norm check's one
        # float temporary, plus the half-vector orbit table: 3 vectors of
        # 2**N, below the 3.5 of a norm check with two float temporaries.
        n = 14
        state = random_state(n, np.random.default_rng(3314))
        dicke_to_full(state)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dicke_to_full(state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3.1 * 16 * (1 << n)

    def test_dimension_cap(self):
        coeffs = np.zeros(21)
        coeffs[0] = 1.0
        with pytest.raises(DimensionCapError):
            dicke_to_full(DickeState(20, coeffs))

    def test_dimension_cap_override(self):
        coeffs = np.zeros(16)
        coeffs[0] = 1.0
        full = dicke_to_full(DickeState(15, coeffs), cap=15)
        assert full.amplitudes.shape == (1 << 15,)

    @pytest.mark.parametrize("n", [59, 60, 64, 100])
    def test_numpy_size_limit(self, n):
        # A complex 2**N vector numpy cannot size is refused under any cap,
        # before anything is allocated.
        coeffs = np.zeros(n + 1)
        coeffs[0] = 1.0
        with pytest.raises(DimensionCapError, match="too large for numpy"):
            dicke_to_full(DickeState(n, coeffs), cap=n)

    def test_only_the_expansion_takes_a_setting(self):
        for entry in (full_to_dicke, oracle_metrics):
            assert list(inspect.signature(entry).parameters) == ["state"]
        assert list(inspect.signature(dicke_to_full).parameters) \
            == ["state", "cap"]

    def test_full_state_validation(self):
        with pytest.raises(ValueError):
            FullState(2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            FullState(2, [1.0, 1.0, 0.0, 0.0])

    def test_full_state_error_classes(self):
        with pytest.raises(LengthMismatchError):
            FullState(2, [1.0, 0.0, 0.0])
        with pytest.raises(LengthMismatchError):
            FullState(0, [1.0])
        with pytest.raises(NormalizationError):
            FullState(1, [math.nan, 0.0])


class TestOracleMetrics:
    @pytest.mark.parametrize("n", [*range(2, 9), 12, 14])
    def test_field_agreement_with_ladder_path(self, n):
        # 12 and 14 (the cap) reach the level axis at high atom indices.
        rng = np.random.default_rng(2000 + n)
        for _ in range(10 if n <= 8 else 2):
            state = random_state(n, rng)
            ladder = analyze(state)
            oracle = oracle_metrics(dicke_to_full(state))
            for name in ("jx", "jy", "jz", "jx2", "jy2", "jz2",
                         "sym_xy", "sym_xz", "sym_yz"):
                assert abs(getattr(ladder.moments, name)
                           - getattr(oracle.moments, name)) < 1e-10
            pairs = pairwise_correlators(state)
            for name in ("xx", "yy", "zz", "xy", "xz", "yz"):
                assert abs(getattr(pairs, name)
                           - getattr(oracle.correlators, name)) < 1e-10
            if ladder.report.classification \
                    is Classification.DEGENERATE_FRAME:
                assert oracle.report.classification \
                    is Classification.DEGENERATE_FRAME
                continue
            for name in ("var_xp", "var_yp", "corr_x", "corr_y", "s_param",
                         "q_x", "q_y", "xi_rx", "xi_ry"):
                assert abs(getattr(ladder.report, name)
                           - getattr(oracle.report, name)) < 1e-10
            assert ladder.report.classification \
                is oracle.report.classification

    def test_per_atom_transverse_variances_are_quarter(self):
        rng = np.random.default_rng(3000)
        for n in (2, 4, 7):
            for _ in range(10):
                oracle = oracle_metrics(dicke_to_full(random_state(n, rng)))
                if oracle.frame is None:
                    continue
                assert_allclose(oracle.per_atom_var_xp, 0.25, atol=1e-12)
                assert_allclose(oracle.per_atom_var_yp, 0.25, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_norm_drift_divides_out_on_both_paths(self, n):
        # Both paths divide every expectation by the squared norm, so drift
        # within NORM_TOLERANCE leaves them agreeing to rounding, and the
        # per-atom variances of a symmetric state at 1/4.
        rng = np.random.default_rng(5000 + n)

        def close(ours, theirs):
            assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

        for norm2 in (1.0 - 9e-7, 1.0 + 5e-7, 1.0 + 9e-7):
            state = DickeState(n, random_state(n, rng).coefficients
                               * math.sqrt(norm2))
            ladder = analyze(state)
            oracle = oracle_metrics(dicke_to_full(state))
            for theirs, ours in ((ladder.moments, oracle.moments),
                                 (pairwise_correlators(state),
                                  oracle.correlators),
                                 (ladder.report, oracle.report)):
                for field in dataclasses.fields(theirs):
                    value = getattr(theirs, field.name)
                    if isinstance(value, float):
                        close(getattr(ours, field.name), value)
                    else:
                        assert getattr(ours, field.name) == value
            close(oracle.mean_spin.magnitude, ladder.mean_spin.magnitude)
            assert ladder.frame is not None and oracle.frame is not None
            assert_allclose(oracle.per_atom_var_xp, 0.25, rtol=0, atol=1e-14)
            assert_allclose(oracle.per_atom_var_yp, 0.25, rtol=0, atol=1e-14)

    def test_degenerate_frame_matches_ladder_path(self):
        state = dicke_state(4, 0)
        ladder = analyze(state)
        oracle = oracle_metrics(dicke_to_full(state))
        for report in (ladder.report, oracle.report):
            assert report.classification is Classification.DEGENERATE_FRAME
            for name in ("var_xp", "var_yp", "corr_x", "corr_y", "s_param",
                         "q_x", "q_y", "xi_rx", "xi_ry"):
                assert getattr(report, name) is None
        assert oracle.frame is None
        assert oracle.per_atom_var_xp is None
        assert oracle.per_atom_var_yp is None

    def test_result_is_a_state_analysis(self):
        # Whatever takes analyze's result takes the oracle's.
        state = twisted_state(CoherentSpec(6, 1.1, 0.4), 0.3)
        ladder = report_document(analyze(state))
        oracle = oracle_metrics(dicke_to_full(state))
        assert isinstance(oracle, StateAnalysis)
        document = report_document(oracle)
        assert list(document) == list(ladder)
        assert document["classification"] == ladder["classification"] \
            == "entangled"
        for group in ("mean_spin", "frame", "metrics"):
            assert list(document[group]) == list(ladder[group])
            assert_allclose(list(document[group].values()),
                            list(ladder[group].values()), atol=1e-12)

    def test_pair_choice_does_not_matter(self):
        # <J_ia J_lb> must be identical for every atom pair and symmetric
        # under swapping the axes between the atoms.
        n = 4
        rng = np.random.default_rng(3100)
        state = random_state(n, rng)
        amps = dicke_to_full(state).amplitudes
        pairs = [(0, 1), (0, 3), (2, 1), (3, 2)]
        for a, b in (("x", "x"), ("x", "y"), ("y", "z"), ("x", "z")):
            values = []
            for i, l in pairs:
                acted = single_atom_action(
                    single_atom_action(amps, n, l, b), n, i, a)
                values.append(complex(np.vdot(amps, acted)))
                swapped = single_atom_action(
                    single_atom_action(amps, n, l, a), n, i, b)
                values.append(complex(np.vdot(amps, swapped)))
            assert_allclose(values, values[0], atol=1e-12)

    def test_variance_decomposition_over_pairs(self):
        # var_xp = sum_i per-atom variance + sum over ordered pairs of the
        # frame-rotated two-atom correlators, evaluated pair by pair.
        n = 5
        rng = np.random.default_rng(3200)
        state = random_state(n, rng)
        full = dicke_to_full(state)
        oracle = oracle_metrics(full)
        assert oracle.frame is not None
        ct, st = oracle.frame.cos_theta, oracle.frame.sin_theta
        cp, sp = oracle.frame.cos_phi, oracle.frame.sin_phi
        amps = full.amplitudes
        rotated = []
        for i in range(n):
            rotated.append(ct * cp * single_atom_action(amps, n, i, "x")
                           + ct * sp * single_atom_action(amps, n, i, "y")
                           - st * single_atom_action(amps, n, i, "z"))
        total = sum(oracle.per_atom_var_xp)
        for i in range(n):
            for l in range(n):
                if i == l:
                    continue
                total += complex(np.vdot(rotated[i], rotated[l])).real
        # Subtract the product of the (vanishing) rotated first moments.
        means = [complex(np.vdot(amps, vec)).real for vec in rotated]
        for i in range(n):
            for l in range(n):
                if i != l:
                    total -= means[i] * means[l]
        assert abs(total - oracle.report.var_xp) < 1e-10

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_peak_memory_is_a_few_vectors(self, n):
        # O(2**N): a fixed number of complex 2**N vectors, below 7, not a
        # number growing with N (3N single-atom actions are 36 at N = 12).
        # At odd N the two halves of the walk differ in size.
        full = dicke_to_full(random_state(n, np.random.default_rng(3300)))
        assert oracle_metrics(full).frame is not None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            oracle_metrics(full)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 7 * 16 * (1 << n)

    def test_single_atom_state_rejected(self):
        with pytest.raises(InsufficientAtomsError):
            oracle_metrics(FullState(1, [1.0, 0.0]))

    def test_no_cap_past_the_expansion(self):
        # A FullState's 2**N amplitudes exist already: only dicke_to_full
        # holds the cap.
        coeffs = np.zeros(16)
        coeffs[0] = 1.0
        full = dicke_to_full(DickeState(15, coeffs), cap=15)
        result = oracle_metrics(full)
        assert result.report.classification is Classification.UNENTANGLED
        assert_allclose(result.moments.jz, 7.5, rtol=1e-14)


def _brute_force(full):
    """Every OracleReport field, from 3N separately stored public actions.

    Returns (moments, correlators, per-atom x'/y' variances, variances);
    the last two are None for a degenerate frame.  Every expectation is
    divided by the squared norm.
    """
    n, amps = full.n_atoms, full.amplitudes
    actions = [[single_atom_action(amps, n, i, axis) for axis in "xyz"]
               for i in range(n)]
    lab = [sum(actions[i][a] for i in range(n)) for a in range(3)]
    norm2 = complex(np.vdot(amps, amps)).real

    def real(bra, ket):
        return complex(np.vdot(bra, ket)).real / norm2

    moments = CollectiveMoments(
        *[real(amps, vec) for vec in lab],
        *[real(vec, vec) for vec in lab],
        *[2.0 * real(lab[a], lab[b]) for a, b in ((0, 1), (0, 2), (1, 2))])
    correlators = {a + b: real(actions[0]["xyz".index(a)],
                               actions[1]["xyz".index(b)])
                   for a, b in ("xx", "yy", "zz", "xy", "xz", "yz")}
    try:
        frame = build_frame(mean_spin(moments))
    except DegenerateMeanSpinError:
        return moments, correlators, None, None

    def variance(vectors, axis):
        acted = sum(c * vec for c, vec in zip(axis, vectors))
        return real(acted, acted) - real(amps, acted) ** 2

    axes = rotation_matrix(frame)[:2]
    per_atom = [[variance(actions[i], axis) for i in range(n)]
                for axis in axes]
    return (moments, correlators, per_atom,
            [variance(lab, axis) for axis in axes])


class TestBruteForceReference:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_every_field_matches(self, n):
        # N = 11..14, the largest sizes oracle-check is timed on, walk both
        # halves of the atoms on long blocks; there one random symmetric
        # and one non-symmetric state keep the 3N stored actions cheap.
        rng = np.random.default_rng(4000 + n)
        small = n <= 10
        states = [random_state(n, rng) for _ in range(3 if small else 1)]
        if small:
            states += [coherent_state(CoherentSpec(n, 1.1, 0.4)),
                       twisted_state(CoherentSpec(n, 0.7, 2.0), 0.3)]
            if n % 2 == 0:
                states.append(dicke_state(n, 0))
        fulls = [dicke_to_full(state) for state in states]
        # Without exchange symmetry every atom has its own variances.  The
        # last state's squared norm drifts by 9e-7.
        for norm in [1.0] * (1 if small else 0) + [math.sqrt(1.0 + 9e-7)]:
            raw = rng.standard_normal((1 << n, 2)) @ [1.0, 1j]
            fulls.append(FullState(n, raw * (norm / np.linalg.norm(raw))))
        for full in fulls:
            oracle = oracle_metrics(full)
            moments, correlators, per_atom, variances = _brute_force(full)

            def close(ours, theirs):
                assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))

            for name in moments.__dataclass_fields__:
                close(getattr(oracle.moments, name), getattr(moments, name))
            for name, value in correlators.items():
                close(getattr(oracle.correlators, name), value)
            if variances is None:
                assert oracle.frame is None
                assert oracle.per_atom_var_xp is None
                assert oracle.report.var_xp is None
                continue
            for ours, theirs in zip(
                    (oracle.per_atom_var_xp, oracle.per_atom_var_yp),
                    per_atom):
                assert len(ours) == n
                for value, expected in zip(ours, theirs):
                    close(value, expected)
            corr = correlation_terms(*variances, n)
            q = squeezing_parameters(*variances, n)
            expected = dict(
                zip(("var_xp", "var_yp"), variances),
                **dict(zip(("corr_x", "corr_y"), corr)),
                s_param=entanglement_parameter(*corr),
                **dict(zip(("q_x", "q_y"), q)),
                **dict(zip(("xi_rx", "xi_ry"), spectroscopic_parameters(
                    *q, mean_spin(moments).magnitude, n))))
            for name, value in expected.items():
                close(getattr(oracle.report, name), value)


def _expectation(bra, ket):
    # <bra|ket> under the residue rule, with |bra| |ket| as the scale.
    return _real_parts(np.vdot(bra, ket),
                       lambda: np.linalg.norm(bra) * np.linalg.norm(ket))


def _traces(operators, densities):
    # tr(A rho), (k, m), with the Frobenius norms |A| |rho| as the scale.
    return _real_parts(
        np.einsum("kij,mji->km", operators, densities),
        lambda: np.outer(np.linalg.norm(operators, axis=(1, 2)),
                         np.linalg.norm(densities, axis=(1, 2))))


class TestResidueCheck:
    def test_hermitian_pair_returns_real_part(self):
        vec = np.array([0.6, 0.8j])
        assert _expectation(vec, 2.0 * vec) == 2.0

    @pytest.mark.parametrize("ket", [[1j, 0.0], [1e-6j, 0.0],
                                     [complex("nanj"), 0.0]])
    def test_non_hermitian_pair_raises(self, ket):
        # The error survives python -O, unlike an assert.
        with pytest.raises(SpinentError, match="imaginary residue"):
            _expectation(np.array([1.0, 0.0]), np.array(ket))

    def test_residue_scaled_to_operand_norms(self):
        # A residue of 1e-9 is past the absolute 1e-10 but within 1e-12
        # times |bra| |ket| = 1e4; 1e-7 is past both.
        bra = np.array([100.0, 0.0])
        ket = np.array([100.0 + 1e-11j, 0.0])
        assert _expectation(bra, ket) == 1e4
        with pytest.raises(SpinentError):
            _expectation(bra, np.array([100.0 + 1e-9j, 0.0]))

    def test_scale_only_past_the_absolute_bound(self):
        def unreachable():
            raise AssertionError("scale computed within the absolute bound")

        assert _real_parts([1.0 + 1e-10j, 2.0], unreachable).tolist() == \
            [1.0, 2.0]


class TestTraceResidueCheck:
    def test_hermitian_pair_returns_real_part(self):
        # tr(A rho) for each operator (rows) and density matrix (columns).
        rho = np.array([[[0.75, 0.25j], [-0.25j, 0.25]],
                        [[0.5, 0.0], [0.0, 0.5]]])
        half_z = np.array([[[0.5, 0.0], [0.0, -0.5]]])
        half_y = np.array([[[0.0, -0.5j], [0.5j, 0.0]]])
        assert _traces(half_z, rho).tolist() == [[0.25, 0.0]]
        assert _traces(half_y, rho).tolist() == [[-0.25, 0.0]]

    @pytest.mark.parametrize("coherence", [0.5j, 1e-6j, complex("nanj")])
    def test_non_hermitian_pair_raises(self, coherence):
        # sigma+ is not Hermitian: its trace is the coherence rho[1, 0].
        raising = np.array([[[0.0, 1.0], [0.0, 0.0]]])
        rho = np.array([[[0.5, np.conj(coherence)], [coherence, 0.5]]])
        with pytest.raises(SpinentError, match="imaginary residue"):
            _traces(raising, rho)

    def test_residue_scaled_to_operand_norms(self):
        # A residue of 1e-9 is past the absolute 1e-10 but within 1e-12
        # times |A| |rho| = 100 sqrt(2) * 100; 1e-7 is past both.
        scaled = np.array([100.0 * np.eye(2)])
        rho = np.array([[[100.0 + 1e-11j, 0.0], [0.0, 0.0]]])
        assert _traces(scaled, rho).tolist() == [[1e4]]
        with pytest.raises(SpinentError):
            _traces(scaled, np.array([[[100.0 + 1e-9j, 0.0],
                                       [0.0, 0.0]]]))

    def test_one_bad_entry_raises(self):
        # Every entry is checked, not only the largest operand's.
        ops = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        rho = np.array([[[0.5, 0.0], [0.0, 0.5]],
                        [[0.5, -0.5j], [0.5j, 0.5]]])
        with pytest.raises(SpinentError, match="imaginary residue 5.000e-01"):
            _traces(ops, rho)


def test_residue_checks_hold_under_python_O():
    # The residue check is a plain if, so python -O (which strips
    # asserts from the package) must leave every case above passing.
    here = Path(__file__).resolve()
    src = Path(spinent.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::TestResidueCheck", f"{here}::TestTraceResidueCheck"],
        capture_output=True, text=True, cwd=here.parents[1],
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "\n12 passed" in done.stdout


class TestSchmidtRank:
    def test_product_state(self):
        assert schmidt_rank_two_atoms(FullState(2, [1.0, 0, 0, 0])) == 1

    def test_coherent_is_rank_one(self):
        full = dicke_to_full(coherent_state(CoherentSpec(2, 1.0, 0.5)))
        assert schmidt_rank_two_atoms(full) == 1

    def test_bell_like_state(self):
        full = dicke_to_full(custom_state(2, [0.0, 1.0, 0.0]))
        assert schmidt_rank_two_atoms(full) == 2

    def test_worked_state_is_entangled(self):
        full = dicke_to_full(DickeState(2, [SQRT3 / 2, 0.0, 0.5]))
        assert schmidt_rank_two_atoms(full) == 2

    def test_wrong_atom_count(self):
        with pytest.raises(WrongAtomCountError):
            schmidt_rank_two_atoms(FullState(3, np.eye(8)[0]))
