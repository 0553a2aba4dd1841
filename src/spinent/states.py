"""Factories for the symmetric states used throughout the library and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dicke import DickeState
from .errors import InvalidQuantumNumberError, LengthMismatchError, \
    NormalizationError, SpinentError

_M_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CoherentSpec:
    """Bloch direction (theta, phi) of a coherent spin state, in radians.

    theta is the polar angle in [0, pi], phi the azimuth in [0, 2*pi).
    """

    n_atoms: int
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n_atoms, (int, np.integer)) \
                or self.n_atoms < 1:
            raise LengthMismatchError(
                f"n_atoms must be a positive integer, got {self.n_atoms!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise SpinentError(
                f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise SpinentError(
                f"phi must lie in [0, 2*pi), got {self.phi!r}")


def coherent_state(spec: CoherentSpec) -> DickeState:
    """Product state with every atom pointing along (theta, phi).

    Coefficients are binomial amplitudes,
    c_k = sqrt(C(N, k)) cos(theta/2)**(N-k) sin(theta/2)**k exp(i k phi),
    which expand to the exact N-fold tensor power of the one-atom state.
    The mean spin has length N/2 and both rotated transverse variances
    equal N/4, so S = 0 and Q = (1, 1).
    """
    n = spec.n_atoms
    k = np.arange(n + 1)
    binom = np.array([math.comb(n, r) for r in range(n + 1)], dtype=float)
    cos_half = math.cos(spec.theta / 2.0)
    sin_half = math.sin(spec.theta / 2.0)
    coeffs = (np.sqrt(binom)
              * cos_half ** (n - k)
              * sin_half ** k
              * np.exp(1j * spec.phi * k))
    return DickeState(n, coeffs)


def dicke_state(n_atoms: int, m: float) -> DickeState:
    """Ladder eigenstate |j, m> with j = N/2.

    m must match one of j, j-1, ..., -j within 1e-9.
    """
    j = n_atoms / 2.0
    k = j - m
    # Negated, with round() last, so that a NaN or infinite m fails it.
    if not (-0.5 < k < n_atoms + 0.5 and abs(k - round(k)) <= _M_TOLERANCE):
        raise InvalidQuantumNumberError(
            f"m={m!r} is not one of j, j-1, ..., -j for j={j}")
    coeffs = np.zeros(n_atoms + 1, dtype=complex)
    coeffs[round(k)] = 1.0
    return DickeState(n_atoms, coeffs)


def twisted_state(spec: CoherentSpec, mu: float) -> DickeState:
    """One-axis-twisted coherent state: coefficient phases exp(-i mu m**2).

    Pure phases, so the coefficient magnitudes of the underlying coherent
    state are untouched.
    """
    base = coherent_state(spec)
    m = base.m_values
    return DickeState(spec.n_atoms,
                      base.coefficients * np.exp(-1j * mu * m * m))


def custom_state(n_atoms: int, coefficients: Sequence[complex],
                 renormalize: bool = False) -> DickeState:
    """State from explicit coefficients, optionally rescaled to unit norm.

    Without the flag the squared magnitudes must already sum to 1 within
    1e-6; nothing is ever rescaled silently.
    """
    arr = np.asarray(coefficients, dtype=complex)
    if renormalize:
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise NormalizationError("cannot renormalize the zero vector")
        arr = arr / norm
    return DickeState(n_atoms, arr)


def random_state(n_atoms: int, rng: np.random.Generator) -> DickeState:
    """Normalized state with independent complex Gaussian coefficients."""
    raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(
        n_atoms + 1)
    return DickeState(n_atoms, raw / np.linalg.norm(raw))
