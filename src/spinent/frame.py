"""Rotated coordinate frame aligned with the mean collective spin.

The primed frame puts z' along the mean spin <J>, so the rotated first
moments become (0, 0, |<J>|).  The rotation is parametrized by the polar
angle theta (cos theta = <J_z>/|<J>|, sin theta >= 0, so theta lies in
[0, pi]) and the azimuth phi (cos phi = <J_x>/t, sin phi = <J_y>/t with
t the transverse length).  Angles are carried as cosine/sine pairs; no
inverse trig is ever taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dicke import CollectiveMoments
from .errors import DegenerateMeanSpinError, SpinentError

# Degeneracy threshold for the mean-spin length and its transverse part.
DEFAULT_EPSILON = 1e-12


@dataclass(frozen=True)
class MeanSpin:
    """Mean collective spin vector with its derived lengths."""

    jx: float
    jy: float
    jz: float
    magnitude: float
    transverse: float


@dataclass(frozen=True)
class Frame:
    """Direction cosines of the mean-spin-aligned frame.

    degenerate_phi marks states whose mean spin points along z, where the
    azimuth is arbitrary and defaults to phi = 0.
    """

    cos_theta: float
    sin_theta: float
    cos_phi: float
    sin_phi: float
    degenerate_phi: bool


def mean_spin(moments: CollectiveMoments) -> MeanSpin:
    """Mean spin vector, its length, and its transverse (xy-plane) length."""
    jx, jy, jz = moments.jx, moments.jy, moments.jz
    transverse = math.sqrt(jx * jx + jy * jy)
    magnitude = math.sqrt(jx * jx + jy * jy + jz * jz)
    return MeanSpin(jx=jx, jy=jy, jz=jz, magnitude=magnitude,
                    transverse=transverse)


def build_frame(spin: MeanSpin, epsilon: float = DEFAULT_EPSILON) -> Frame:
    """Frame whose z' axis points along the mean spin.

    Raises DegenerateMeanSpinError when the mean spin is shorter than
    epsilon; no frame (and no squeezing analysis) exists there.  When only
    the transverse part vanishes the azimuth is conventionally set to 0 and
    the frame is flagged degenerate_phi.  epsilon must be positive.
    """
    # Negated so that a NaN epsilon is rejected too.
    if not epsilon > 0.0:
        raise SpinentError(f"epsilon must be positive, got {epsilon!r}")
    if spin.magnitude < epsilon:
        raise DegenerateMeanSpinError(
            f"mean spin length {spin.magnitude:.3e} is below {epsilon:.3e}; "
            "no aligned frame exists")
    cos_theta = spin.jz / spin.magnitude
    sin_theta = spin.transverse / spin.magnitude
    if spin.transverse < epsilon * max(1.0, spin.magnitude):
        return Frame(cos_theta=cos_theta, sin_theta=sin_theta,
                     cos_phi=1.0, sin_phi=0.0, degenerate_phi=True)
    return Frame(cos_theta=cos_theta, sin_theta=sin_theta,
                 cos_phi=spin.jx / spin.transverse,
                 sin_phi=spin.jy / spin.transverse,
                 degenerate_phi=False)


def _transverse_axes(frame: Frame) -> tuple[tuple[float, float, float],
                                             tuple[float, float, float]]:
    """Lab-frame x' and y' axes, the rows every primed-frame rotation uses."""
    ct, st = frame.cos_theta, frame.sin_theta
    cp, sp = frame.cos_phi, frame.sin_phi
    return (ct * cp, ct * sp, -st), (-sp, cp, 0.0)


def rotation_matrix(frame: Frame) -> np.ndarray:
    """Orthogonal 3x3 matrix taking lab-frame vectors to the primed frame.

    Rows are the primed axes x', y', z' expressed in lab coordinates.
    """
    st, ct = frame.sin_theta, frame.cos_theta
    z_axis = (st * frame.cos_phi, st * frame.sin_phi, ct)
    return np.array([*_transverse_axes(frame), z_axis])


def rotated_first_moments(moments: CollectiveMoments,
                          frame: Frame) -> tuple[float, float, float]:
    """(<J_x'>, <J_y'>, <J_z'>); by construction (0, 0, |<J>|) up to rounding."""
    vec = rotation_matrix(frame) @ np.array(
        [moments.jx, moments.jy, moments.jz])
    return float(vec[0]), float(vec[1]), float(vec[2])
