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
moments are obtained by applying the ladder operators to the coefficient
vector, never by materializing operator matrices.  Each moment is Re <a|b>
for a and b the state or an operator applied to it, which is the dot
product of the float views of a and b; imaginary parts are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientAtomsError, LengthMismatchError, NormalizationError

# Constructor and expectation-value guard: reject beyond this, tolerate below.
NORM_TOLERANCE = 1e-6
# The most elements numpy can size for one complex vector.
_MAX_COMPLEX_SIZE = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def _check_norm(amplitudes: np.ndarray) -> float:
    """Squared norm of amplitudes; raises unless within NORM_TOLERANCE of 1."""
    # |a|^2 summed is the float view dotted with itself: no temporary.
    parts = amplitudes.view(float)
    norm2 = float(parts @ parts)
    # Negated so that a NaN norm is rejected too.
    if not abs(norm2 - 1.0) <= NORM_TOLERANCE:
        raise NormalizationError(
            f"squared amplitude magnitudes sum to {norm2!r}, "
            f"more than {NORM_TOLERANCE} away from 1")
    return norm2


def _atom_count(n_atoms) -> int:
    """n_atoms as an int; LengthMismatchError unless a positive integer."""
    # bool is an int subclass, and numpy sizes an array in intp bytes.
    if isinstance(n_atoms, bool) or \
            not isinstance(n_atoms, (int, np.integer)) or n_atoms < 1:
        raise LengthMismatchError(
            f"n_atoms must be a positive integer, got {n_atoms!r}")
    if n_atoms >= _MAX_COMPLEX_SIZE:
        raise LengthMismatchError(f"n_atoms={n_atoms} is too large for numpy")
    return int(n_atoms)


def _pair_count(n_atoms) -> int:
    """n_atoms as _atom_count takes it; InsufficientAtomsError below 2."""
    n = _atom_count(n_atoms)
    if n < 2:
        raise InsufficientAtomsError(
            f"pair quantities need at least 2 atoms, got {n}")
    return n


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
    return j - np.arange(n_atoms + 1.0)


def _ladder_factors(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """m and the ladder factors, the one place they are computed.

    ladder[k] = sqrt(j(j+1) - m(m+1)) at m = m[k+1], where m + 1 = m[k]
    exactly.  That is J+'s factor from index k+1 to k and J-'s from k to
    k+1: both are sqrt((k+1)(N-k)), so one array of length N serves both.
    """
    j = n_atoms / 2.0
    m = _m_of(n_atoms)
    return m, np.sqrt(j * (j + 1) - m[1:] * m[:-1])


def _raise(ladder: np.ndarray, vec: np.ndarray, out: np.ndarray
           ) -> np.ndarray:
    # J+ sends index k to k-1 (m -> m+1).
    np.multiply(ladder, vec[1:], out=out[:-1])
    out[-1] = 0
    return out


def _lower(ladder: np.ndarray, vec: np.ndarray, out: np.ndarray
           ) -> np.ndarray:
    # J- sends index k to k+1 (m -> m-1).
    np.multiply(ladder, vec[:-1], out=out[1:])
    out[0] = 0
    return out


def apply_jz(state: DickeState) -> np.ndarray:
    """Coefficient vector of J_z applied to the state (not normalized)."""
    return state.m_values * state.coefficients


def apply_jplus(state: DickeState) -> np.ndarray:
    """Coefficient vector of J+ applied to the state (not normalized)."""
    return _raise(_ladder_factors(state.n_atoms)[1], state.coefficients,
                  np.empty(state.n_atoms + 1, dtype=complex))


def apply_jminus(state: DickeState) -> np.ndarray:
    """Coefficient vector of J- applied to the state (not normalized)."""
    return _lower(_ladder_factors(state.n_atoms)[1], state.coefficients,
                  np.empty(state.n_atoms + 1, dtype=complex))


def collective_moments(state: DickeState) -> CollectiveMoments:
    """All first and second collective-spin moments of a symmetric state.

    Each ladder move is applied to the coefficient vector once, O(N) work,
    and every moment is an inner product of applied vectors, divided by the
    squared norm so that drift within NORM_TOLERANCE does not bias it.  The
    second moments are the Gram matrix Re <J_a psi|J_b psi>.  They agree
    with applying J_x, J_y and J_z one operator at a time to within a few
    rounding units of j(j+1), not to the bit: BLAS sets the summation order.
    """
    c = state.coefficients
    n = state.n_atoms
    norm2 = _check_norm(c)
    m, ladder = _ladder_factors(n)
    # One block per call: rows 0-2 take J+ psi, J- psi and J_z psi.
    lab = np.empty((3, n + 1), dtype=complex)
    xv, yv, zv = lab
    _raise(ladder, c, xv)
    _lower(ladder, c, yv)
    np.multiply(m, c, out=zv)
    # J_x = (J+ + J-)/2 and J_y = i(J- - J+)/2 = i(J- - J_x), in place.
    xv += yv
    xv *= 0.5
    yv -= xv
    yv *= 1j
    # Re <a|b> is the dot product of the float views of a and b, so no
    # imaginary part is ever formed.  The Gram matrix is one batched
    # product of each row against each row: nine BLAS dots, no copy.
    parts = lab.view(float)
    jx, jy, jz = (parts @ c.view(float) / norm2).tolist()
    (xx, xy, xz), (_, yy, yz), (_, _, zz) = (np.matmul(
        parts[:, None, None], parts[..., None])[..., 0, 0] / norm2).tolist()
    # <A^2> = |A psi|^2 and <AB + BA> = 2 Re <A psi|B psi> for Hermitian
    # A and B.
    return CollectiveMoments(
        jx=jx, jy=jy, jz=jz, jx2=xx, jy2=yy, jz2=zz,
        sym_xy=2.0 * xy, sym_xz=2.0 * xz, sym_yz=2.0 * yz)


def pairwise_correlators(state: DickeState) -> PairCorrelators:
    """Two-atom correlators <J_1a J_2b> recovered from collective moments.

    For exchange-symmetric states the collective second moment decomposes as
    <J_a^2> = N/4 + N(N-1) <J_1a J_2a> because every single-atom squared spin
    component is exactly 1/4.  Mixed-axis collective anticommutators contain
    no single-atom part at all (spin-1/2 components anticommute to zero), so
    <J_a J_b + J_b J_a> = 2 N(N-1) <J_1a J_2b>.
    """
    return _correlators_from_moments(_pair_count(state.n_atoms),
                                     collective_moments(state))


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
