"""Symmetric-sector states of N two-level atoms and the collective spin algebra.

A pure state of N identical two-level atoms that is invariant under every
atom exchange lives in the maximal-spin sector j = N/2, spanned by the N+1
ladder states |j, m> with m = j, j-1, ..., -j.  A state is stored as the
complex coefficient vector c with index k = 0..N mapping to m = j - k, so
index 0 is the fully excited state m = +j.

Collective operators J_x, J_y, J_z are the sums of the single-atom spin-1/2
operators.  The ladder operators act as

    J+- |j, m> = sqrt(j(j+1) - m(m +- 1)) |j, m +- 1>

with the standard all-positive (Condon-Shortley) phase convention.  All
second moments are obtained by applying ladder combinations to the
coefficient vector, never by materializing operator matrices.  Each moment
is the real part of a complex inner product; the imaginary part is rounding
that grows with N, so it is dropped unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientAtomsError, LengthMismatchError, NormalizationError

# Constructor and expectation-value guard: reject beyond this, tolerate below.
NORM_TOLERANCE = 1e-6


def _check_norm(amplitudes: np.ndarray) -> float:
    """Squared norm of amplitudes; raises unless within NORM_TOLERANCE of 1."""
    # One float temporary, squared in place: bit for bit np.abs(a) ** 2.
    magnitudes = np.abs(amplitudes)
    norm2 = float(np.sum(np.square(magnitudes, out=magnitudes)))
    # Negated so that a NaN norm is rejected too.
    if not abs(norm2 - 1.0) <= NORM_TOLERANCE:
        raise NormalizationError(
            f"squared amplitude magnitudes sum to {norm2!r}, "
            f"more than {NORM_TOLERANCE} away from 1")
    return norm2


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


def _atom_count(n_atoms) -> int:
    """n_atoms as an int; LengthMismatchError unless a positive integer."""
    if not isinstance(n_atoms, (int, np.integer)) or n_atoms < 1:
        raise LengthMismatchError(
            f"n_atoms must be a positive integer, got {n_atoms!r}")
    return int(n_atoms)


def _freeze_amplitudes(state, field: str, dimension: Callable[[int], int]):
    """Validate n_atoms and the amplitude vector, storing both read-only.

    Serves DickeState and FullState; dimension maps N to the vector length.
    """
    n = _atom_count(state.n_atoms)
    arr = np.array(getattr(state, field), dtype=complex)
    expected = dimension(n)
    if arr.shape != (expected,):
        raise LengthMismatchError(
            f"expected {expected} {field} for n_atoms={n}, "
            f"got shape {arr.shape}")
    # A square past the float range reads inf and is rejected as such; only
    # unvalidated input can get there, so the warning is silenced here.
    with np.errstate(over="ignore"):
        _check_norm(arr)
    arr.setflags(write=False)
    object.__setattr__(state, field, arr)
    object.__setattr__(state, "n_atoms", n)


@dataclass(frozen=True, eq=False)
class DickeState:
    """Immutable symmetric pure state in the j = N/2 ladder basis.

    Attributes
    ----------
    n_atoms : int
        Number of atoms N, at least 1.
    coefficients : np.ndarray
        Complex vector of length N+1; entry k is the amplitude of
        |j, m = j - k>.  Stored read-only; the squared magnitudes must sum
        to 1 within NORM_TOLERANCE.
    """

    n_atoms: int
    coefficients: np.ndarray

    def __post_init__(self):
        _freeze_amplitudes(self, "coefficients", lambda n: n + 1)

    @property
    def j(self) -> float:
        """Total spin quantum number N/2."""
        return self.n_atoms / 2.0

    @property
    def m_values(self) -> np.ndarray:
        """m for each coefficient index: j, j-1, ..., -j."""
        return _m_of(self.n_atoms)

    def renormalized(self) -> "DickeState":
        """Return a copy rescaled to unit norm.

        Renormalization is never applied implicitly anywhere in the library;
        this is the one explicit way to absorb small norm drift.
        """
        return DickeState(self.n_atoms, _unit_vector(self.coefficients))


@dataclass(frozen=True)
class CollectiveMoments:
    """First and second moments of the collective spin in the lab frame.

    jx, jy, jz are first moments; jx2, jy2, jz2 are second moments; sym_ab
    is the expectation of the symmetrized product J_a J_b + J_b J_a for the
    three distinct axis pairs.
    """

    jx: float
    jy: float
    jz: float
    jx2: float
    jy2: float
    jz2: float
    sym_xy: float
    sym_xz: float
    sym_yz: float


@dataclass(frozen=True)
class PairCorrelators:
    """Two-atom correlators <J_1a J_2b> of a symmetric state.

    Exchange symmetry makes the value independent of which atom pair is
    picked and invariant under swapping the axis labels between the two
    atoms, so a single entry per unordered axis pair suffices.
    """

    xx: float
    yy: float
    zz: float
    xy: float
    xz: float
    yz: float


def _m_of(n_atoms: int) -> np.ndarray:
    # The one formula for m; DickeState.m_values returns it too.
    j = n_atoms / 2.0
    return j - np.arange(n_atoms + 1)


def _ladder_factors(n_atoms: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m and the J+ and J- factors, the one place they are computed.

    up[k] = sqrt(j(j+1) - m(m+1)) at m = m[k+1] and down[k] =
    sqrt(j(j+1) - m(m-1)) at m = m[k], each of length N.
    """
    j = n_atoms / 2.0
    m = _m_of(n_atoms)
    up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    down = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] - 1))
    return m, up, down


def _raise(up: np.ndarray, vec: np.ndarray, out: np.ndarray) -> np.ndarray:
    # J+ sends index k to k-1 (m -> m+1).
    np.multiply(up, vec[1:], out=out[:-1])
    out[-1] = 0
    return out


def _lower(down: np.ndarray, vec: np.ndarray, out: np.ndarray) -> np.ndarray:
    # J- sends index k to k+1 (m -> m-1).
    np.multiply(down, vec[:-1], out=out[1:])
    out[0] = 0
    return out


def _ladder_up(n_atoms: int, vec: np.ndarray) -> np.ndarray:
    return _raise(_ladder_factors(n_atoms)[1], vec,
                  np.empty(n_atoms + 1, dtype=complex))


def _ladder_down(n_atoms: int, vec: np.ndarray) -> np.ndarray:
    return _lower(_ladder_factors(n_atoms)[2], vec,
                  np.empty(n_atoms + 1, dtype=complex))


def apply_jz(state: DickeState) -> np.ndarray:
    """Coefficient vector of J_z applied to the state (not normalized)."""
    return state.m_values * state.coefficients


def apply_jplus(state: DickeState) -> np.ndarray:
    """Coefficient vector of J+ applied to the state (not normalized)."""
    return _ladder_up(state.n_atoms, state.coefficients)


def apply_jminus(state: DickeState) -> np.ndarray:
    """Coefficient vector of J- applied to the state (not normalized)."""
    return _ladder_down(state.n_atoms, state.coefficients)


def collective_moments(state: DickeState) -> CollectiveMoments:
    """All first and second collective-spin moments of a symmetric state.

    Every expectation is evaluated by applying ladder combinations to the
    coefficient vector, O(N) work per operator application, and divided by
    the squared norm, so drift within NORM_TOLERANCE does not bias them.

    m and the ladder factors are computed in one pass per call, and every
    application writes into one block of six O(N) rows made for the call:
    J_x psi, J_y psi, J_z psi, two ladder rows and one sum row.  Each row
    gets the same floating-point operations, in the same order, as
    applying J_x = (J+ + J-)/2, J_y = -i(J+ - J-)/2 and J_z = m one
    operator at a time into fresh vectors, so the moments are the same to
    the bit.
    """
    c = state.coefficients
    n = state.n_atoms
    norm2 = _check_norm(c)
    m, up, down = _ladder_factors(n)
    xv, yv, zv, a, b, total = np.empty((6, n + 1), dtype=complex)

    def x_of(vec, out):
        np.add(_raise(up, vec, a), _lower(down, vec, b), out=out)
        return np.multiply(0.5, out, out=out)

    def y_of(vec, out):
        np.subtract(_raise(up, vec, a), _lower(down, vec, b), out=out)
        return np.multiply(-0.5j, out, out=out)

    x_of(c, xv)
    y_of(c, yv)
    np.multiply(m, c, out=zv)
    jx = float(np.vdot(c, xv).real)
    jy = float(np.vdot(c, yv).real)
    jz = float(np.vdot(c, zv).real)
    # <A^2> = |A psi|^2 for Hermitian A, real by construction.
    jx2 = float(np.vdot(xv, xv).real)
    jy2 = float(np.vdot(yv, yv).real)
    jz2 = float(np.vdot(zv, zv).real)
    # <AB + BA> = <psi|A(B psi) + B(A psi)>: A(B psi) goes to total first,
    # then B(A psi) to row a, which the first no longer needs.
    sym_xy = float(np.vdot(c, np.add(x_of(yv, total), y_of(xv, a),
                                     out=total)).real)
    sym_xz = float(np.vdot(c, np.add(x_of(zv, total),
                                     np.multiply(m, xv, out=a),
                                     out=total)).real)
    sym_yz = float(np.vdot(c, np.add(y_of(zv, total),
                                     np.multiply(m, yv, out=a),
                                     out=total)).real)
    return CollectiveMoments(
        jx=jx / norm2, jy=jy / norm2, jz=jz / norm2,
        jx2=jx2 / norm2, jy2=jy2 / norm2, jz2=jz2 / norm2,
        sym_xy=sym_xy / norm2, sym_xz=sym_xz / norm2, sym_yz=sym_yz / norm2)


def pairwise_correlators(state: DickeState) -> PairCorrelators:
    """Two-atom correlators <J_1a J_2b> recovered from collective moments.

    For exchange-symmetric states the collective second moment decomposes as
    <J_a^2> = N/4 + N(N-1) <J_1a J_2a> because every single-atom squared spin
    component is exactly 1/4.  Mixed-axis collective anticommutators contain
    no single-atom part at all (spin-1/2 components anticommute to zero), so
    <J_a J_b + J_b J_a> = 2 N(N-1) <J_1a J_2b>.
    """
    n = state.n_atoms
    if n < 2:
        raise InsufficientAtomsError(
            f"pair correlators need at least 2 atoms, got {n}")
    return _correlators_from_moments(n, collective_moments(state))


def _correlators_from_moments(n: int, mom: CollectiveMoments
                              ) -> PairCorrelators:
    """pairwise_correlators' reduction, from moments already computed."""
    pairs = n * (n - 1)
    quarter = n / 4.0
    return PairCorrelators(
        xx=(mom.jx2 - quarter) / pairs,
        yy=(mom.jy2 - quarter) / pairs,
        zz=(mom.jz2 - quarter) / pairs,
        xy=mom.sym_xy / (2.0 * pairs),
        xz=mom.sym_xz / (2.0 * pairs),
        yz=mom.sym_yz / (2.0 * pairs),
    )
