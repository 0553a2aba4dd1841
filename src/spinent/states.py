"""Factories for the symmetric states used throughout the library and CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dicke import DickeState, _atom_count, _m_of
from .errors import InvalidQuantumNumberError, NormalizationError, \
    SpinentError

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
        _atom_count(self.n_atoms)
        if not 0.0 <= self.theta <= math.pi:
            raise SpinentError(
                f"theta must lie in [0, pi], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise SpinentError(
                f"phi must lie in [0, 2*pi), got {self.phi!r}")


def _coherent_coefficients(spec: CoherentSpec) -> np.ndarray:
    """The coefficient vector of coherent_state, built in log space."""
    n = spec.n_atoms
    sin_half = math.sin(spec.theta / 2.0)
    if sin_half == 0.0:
        # The pole: the log form would meet 0 * log 0.
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[0] = 1.0
        return coeffs
    k = np.arange(n + 1)
    log_binom = np.zeros(n + 1)
    np.cumsum(np.log((n - k[1:] + 1) / k[1:]), out=log_binom[1:])
    log_amp = (0.5 * log_binom
               + (n - k) * math.log(math.cos(spec.theta / 2.0))
               + k * math.log(sin_half))
    return np.exp(log_amp + 1j * spec.phi * k)


def coherent_state(spec: CoherentSpec) -> DickeState:
    """Product state with every atom pointing along (theta, phi).

    Coefficients are binomial amplitudes,
    c_k = sqrt(C(N, k)) cos(theta/2)**(N-k) sin(theta/2)**k exp(i k phi),
    which expand to the exact N-fold tensor power of the one-atom state.
    Each is the exp of its logarithm: log C(N, k) is the cumulative sum of
    log((N-r+1)/r), the powers add (N-k) log cos(theta/2) + k log
    sin(theta/2), and one complex exp also applies the phase.  No factor
    leaves the float range, so the coefficients are finite for any N;
    theta = 0 returns the basis vector of m = +j exactly.  The mean spin
    has length N/2 and both rotated transverse variances equal N/4, so
    S = 0 and Q = (1, 1).
    """
    return DickeState(spec.n_atoms, _coherent_coefficients(spec))


def dicke_state(n_atoms: int, m: float) -> DickeState:
    """Ladder eigenstate |j, m> with j = N/2.

    m must match one of j, j-1, ..., -j within 1e-9.
    """
    j = _atom_count(n_atoms) / 2.0
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
    state are untouched.  mu must keep mu * j**2 finite.
    """
    # j**2 is the largest m**2, so every twist phase stays finite too.
    if not math.isfinite(mu * spec.n_atoms * spec.n_atoms / 4.0):
        raise SpinentError(
            f"mu must be finite and keep mu * j**2 finite, got {mu!r}")
    m = _m_of(spec.n_atoms)
    return DickeState(spec.n_atoms,
                      _coherent_coefficients(spec) * np.exp(-1j * mu * m * m))


def _unit_vector(amplitudes: np.ndarray) -> np.ndarray:
    """amplitudes rescaled to unit norm, or NormalizationError saying why not.

    Divided by a power of two near the largest real or imaginary part first,
    so that the norm neither overflows nor underflows whatever the scale of
    the input.  That division is exact, so an input the plain norm handles
    keeps its bits.
    """
    largest = float(np.max(np.abs([amplitudes.real, amplitudes.imag]),
                           initial=0.0))
    if math.isnan(largest):
        raise NormalizationError("cannot renormalize a NaN amplitude")
    if math.isinf(largest):
        raise NormalizationError("cannot renormalize an infinite amplitude")
    if largest == 0.0:
        raise NormalizationError("cannot renormalize the zero vector")
    scale = math.ldexp(0.5, math.frexp(largest)[1])
    # Part by part: numpy's complex division would take 1/scale, which
    # overflows for a subnormal scale.
    scaled = np.empty_like(amplitudes)
    scaled.real = amplitudes.real / scale
    scaled.imag = amplitudes.imag / scale
    return scaled / np.linalg.norm(scaled)


def custom_state(n_atoms: int, coefficients: Sequence[complex],
                 renormalize: bool = False) -> DickeState:
    """State from explicit coefficients, optionally rescaled to unit norm.

    Without the flag the squared magnitudes must already sum to 1 within
    1e-6; nothing is ever rescaled silently.  With it, any finite nonzero
    vector is rescaled, and a zero, infinite or NaN one is refused by name.
    """
    arr = np.asarray(coefficients, dtype=complex)
    return DickeState(n_atoms, _unit_vector(arr) if renormalize else arr)


def random_state(n_atoms: int, rng: np.random.Generator) -> DickeState:
    """Normalized state with independent complex Gaussian coefficients."""
    _atom_count(n_atoms)
    raw = rng.standard_normal(n_atoms + 1) + 1j * rng.standard_normal(
        n_atoms + 1)
    return DickeState(n_atoms, raw / np.linalg.norm(raw))
