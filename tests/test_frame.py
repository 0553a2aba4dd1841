"""Mean-spin frame construction and first-moment rotation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinent import (
    CoherentSpec,
    DegenerateMeanSpinError,
    DickeState,
    SpinentError,
    build_frame,
    coherent_state,
    collective_moments,
    custom_state,
    dicke_state,
    mean_spin,
    random_state,
    rotated_first_moments,
    rotation_matrix,
)


def test_mean_spin_of_stretched_state():
    spin = mean_spin(collective_moments(DickeState(2, [1.0, 0.0, 0.0])))
    assert_allclose((spin.jx, spin.jy, spin.jz), (0.0, 0.0, 1.0), atol=1e-14)
    assert_allclose(spin.magnitude, 1.0, atol=1e-14)
    assert_allclose(spin.transverse, 0.0, atol=1e-14)


def test_mean_spin_of_equatorial_coherent_state():
    state = coherent_state(CoherentSpec(2, math.pi / 2, 0.0))
    spin = mean_spin(collective_moments(state))
    assert_allclose((spin.jx, spin.jy, spin.jz), (1.0, 0.0, 0.0), atol=1e-14)
    assert_allclose(spin.magnitude, 1.0, atol=1e-14)


def test_ghz_mean_spin_vanishes():
    inv = 1.0 / math.sqrt(2.0)
    state = custom_state(4, [inv, 0.0, 0.0, 0.0, inv])
    spin = mean_spin(collective_moments(state))
    assert spin.magnitude < 1e-14


def test_frame_along_z_defaults_phi():
    spin = mean_spin(collective_moments(dicke_state(3, 0.5)))
    frame = build_frame(spin)
    assert frame.degenerate_phi
    assert_allclose((frame.cos_theta, frame.sin_theta), (1.0, 0.0),
                    atol=1e-14)
    assert_allclose((frame.cos_phi, frame.sin_phi), (1.0, 0.0))


def test_frame_along_minus_z_keeps_sin_theta_nonnegative():
    spin = mean_spin(collective_moments(dicke_state(3, -0.5)))
    frame = build_frame(spin)
    assert_allclose(frame.cos_theta, -1.0, atol=1e-14)
    assert frame.sin_theta >= 0.0
    moments = collective_moments(dicke_state(3, -0.5))
    jxp, jyp, jzp = rotated_first_moments(moments, frame)
    assert_allclose(jzp, spin.magnitude, atol=1e-14)


def test_frame_along_x():
    state = coherent_state(CoherentSpec(2, math.pi / 2, 0.0))
    frame = build_frame(mean_spin(collective_moments(state)))
    assert not frame.degenerate_phi
    assert_allclose((frame.cos_theta, frame.sin_theta), (0.0, 1.0),
                    atol=1e-14)
    assert_allclose((frame.cos_phi, frame.sin_phi), (1.0, 0.0), atol=1e-14)


def test_degenerate_mean_spin_raises():
    inv = 1.0 / math.sqrt(2.0)
    spin = mean_spin(collective_moments(
        custom_state(4, [inv, 0.0, 0.0, 0.0, inv])))
    with pytest.raises(DegenerateMeanSpinError):
        build_frame(spin)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_non_positive_epsilon_rejected(epsilon):
    # Checked before the mean-spin length, which it would otherwise divide by.
    spin = mean_spin(collective_moments(dicke_state(4, 0.0)))
    with pytest.raises(SpinentError, match="epsilon"):
        build_frame(spin, epsilon)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_rotation_matrix_is_orthogonal(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(20):
        state = random_state(n, rng)
        spin = mean_spin(collective_moments(state))
        if spin.magnitude < 1e-9:
            continue
        rot = rotation_matrix(build_frame(spin))
        assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert_allclose(np.linalg.det(rot), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 9, 11])
def test_rotated_first_moments_align_with_z(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(30):
        moments = collective_moments(random_state(n, rng))
        spin = mean_spin(moments)
        if spin.magnitude < 1e-9:
            continue
        jxp, jyp, jzp = rotated_first_moments(moments, build_frame(spin))
        assert abs(jxp) < 1e-10
        assert abs(jyp) < 1e-10
        assert abs(jzp - spin.magnitude) < 1e-10


def test_frame_cosine_pairs_are_normalized():
    rng = np.random.default_rng(77)
    for n in (2, 5, 10):
        for _ in range(20):
            spin = mean_spin(collective_moments(random_state(n, rng)))
            if spin.magnitude < 1e-9:
                continue
            frame = build_frame(spin)
            assert abs(frame.cos_theta ** 2 + frame.sin_theta ** 2
                       - 1.0) < 1e-12
            assert abs(frame.cos_phi ** 2 + frame.sin_phi ** 2
                       - 1.0) < 1e-12


def test_frame_invariant_under_global_phase():
    rng = np.random.default_rng(9)
    state = random_state(6, rng)
    rotated = DickeState(6, state.coefficients * np.exp(0.7j))
    a = build_frame(mean_spin(collective_moments(state)))
    b = build_frame(mean_spin(collective_moments(rotated)))
    assert_allclose(
        (a.cos_theta, a.sin_theta, a.cos_phi, a.sin_phi),
        (b.cos_theta, b.sin_theta, b.cos_phi, b.sin_phi), atol=1e-12)
