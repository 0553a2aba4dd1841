"""Brute-force 2**N product-basis cross-check for the symmetric-sector path.

Everything here works on the full tensor-product amplitude vector and builds
collective quantities by summing explicit single-atom operator actions, so
it shares no reduction formula with the ladder-basis modules.  Operators are
applied matrix-free by bit manipulation on basis indices: basis index b has
atom i stored in bit (N-1-i), atom 0 being the most significant bit, with
bit value 0 for the upper level.

Single-atom spin-1/2 actions on the levels |u> (bit 0) and |l> (bit 1):

    x:  |u> -> (1/2)|l>,   |l> -> (1/2)|u>
    y:  |u> -> (i/2)|l>,   |l> -> (-i/2)|u>
    z:  |u> -> (1/2)|u>,   |l> -> (-1/2)|l>

The exponential dimension is capped (default 14 atoms) and every function
that allocates a 2**N vector takes an overridable cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dicke import DickeState, CollectiveMoments, PairCorrelators, \
    _freeze_amplitudes, _real_expectation
from .errors import DegenerateMeanSpinError, DimensionCapError, \
    InsufficientAtomsError, NotSymmetricError, WrongAtomCountError
from .frame import DEFAULT_EPSILON, Frame, MeanSpin, _transverse_axes, \
    build_frame, mean_spin
from .metrics import MetricsReport, DEFAULT_S_TOLERANCE, _assemble_report
# Unused here, but bench/tracing.py wraps these names on this module.
from .metrics import classify, correlation_terms, entanglement_parameter, \
    spectroscopic_parameters, squeezing_parameters

DEFAULT_DIMENSION_CAP = 14

_AXES = ("x", "y", "z")

# Schmidt-rank threshold on the smaller singular value of the 2x2 reshape.
_SCHMIDT_TOLERANCE = 1e-10

_SYMMETRY_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class FullState:
    """Immutable state in the full 2**n_atoms product basis."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _freeze_amplitudes(self, "amplitudes", lambda n: 1 << n)


@dataclass(frozen=True)
class OracleReport:
    """Everything the brute-force path computes for one state.

    per_atom_var_xp / per_atom_var_yp hold the rotated single-atom variances
    (1/4 each for exchange-symmetric states); correlators is the direct
    two-site evaluation on atoms 0 and 1.  Frame-degenerate states carry
    frame None and a report with None metrics, like the ladder path.
    """

    moments: CollectiveMoments
    mean_spin: MeanSpin
    frame: Frame | None
    correlators: PairCorrelators | None
    per_atom_var_xp: tuple[float, ...] | None
    per_atom_var_yp: tuple[float, ...] | None
    report: MetricsReport


@lru_cache(maxsize=None)
def _hamming_weights(n_atoms: int) -> np.ndarray:
    # weights[b] = number of set bits of b, built by doubling.
    w = np.zeros(1, dtype=np.intp)
    for _ in range(n_atoms):
        w = np.concatenate([w, w + 1])
    w.setflags(write=False)
    return w


def _check_cap(n_atoms: int, cap: int):
    if n_atoms > cap:
        raise DimensionCapError(
            f"n_atoms={n_atoms} exceeds the 2**N dimension cap {cap}")


def dicke_to_full(state: DickeState,
                  cap: int = DEFAULT_DIMENSION_CAP) -> FullState:
    """Expand ladder-basis coefficients into the full product basis.

    Each coefficient spreads uniformly over its fixed-excitation-count orbit:
    a basis state with k lower-level atoms receives c_k / sqrt(C(N, k)).
    """
    _check_cap(state.n_atoms, cap)
    n = state.n_atoms
    weights = _hamming_weights(n)
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    amps = state.coefficients[weights] / np.sqrt(binom[weights])
    return FullState(n, amps)


def full_to_dicke(state: FullState, tolerance: float = _SYMMETRY_TOLERANCE
                  ) -> DickeState:
    """Project a full product-basis state back to ladder-basis coefficients.

    Requires genuine exchange symmetry: within every fixed-excitation orbit
    all amplitudes must agree within tolerance of their mean.
    """
    n = state.n_atoms
    weights = _hamming_weights(n)
    coeffs = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        orbit = state.amplitudes[weights == k]
        center = orbit.mean()
        spread = float(np.max(np.abs(orbit - center)))
        if spread > tolerance:
            raise NotSymmetricError(
                f"orbit with {k} excited lower levels has amplitude spread "
                f"{spread:.3e}, above {tolerance:.3e}")
        coeffs[k] = center * math.sqrt(math.comb(n, k))
    return DickeState(n, coeffs)


def single_atom_action(amplitudes: np.ndarray, n_atoms: int, atom_index: int,
                       axis: str) -> np.ndarray:
    """Apply one atom's spin-1/2 component to a raw 2**N amplitude vector.

    Matrix-free: partner indices come from flipping the atom's bit, signs
    from reading it.  Accepts unnormalized vectors so actions compose.
    """
    if not 0 <= atom_index < n_atoms:
        raise IndexError(
            f"atom_index {atom_index} out of range for {n_atoms} atoms")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    shift = n_atoms - 1 - atom_index
    idx = np.arange(1 << n_atoms)
    bit = (idx >> shift) & 1
    if axis == "z":
        return np.where(bit == 0, 0.5, -0.5) * amplitudes
    flipped = amplitudes[idx ^ (1 << shift)]
    if axis == "x":
        return 0.5 * flipped
    # y: the amplitude arriving on |l> (bit 1) picks up +i/2, on |u> -i/2.
    return 0.5j * np.where(bit == 1, flipped, -flipped)


def single_atom_operator(state: FullState, atom_index: int,
                         axis: str) -> np.ndarray:
    """single_atom_action applied to a FullState's amplitudes."""
    return single_atom_action(state.amplitudes, state.n_atoms, atom_index,
                              axis)


def schmidt_rank_two_atoms(state: FullState) -> int:
    """Schmidt rank (1 or 2) of a two-atom state via its 2x2 reshape.

    Rank 1 (a product state) is declared when the smaller singular value
    falls below 1e-10.
    """
    if state.n_atoms != 2:
        raise WrongAtomCountError(
            f"Schmidt rank check is for exactly 2 atoms, got {state.n_atoms}")
    singular = np.linalg.svd(state.amplitudes.reshape(2, 2),
                             compute_uv=False)
    return 1 if float(singular[-1]) < _SCHMIDT_TOLERANCE else 2


def oracle_metrics(state: FullState, cap: int = DEFAULT_DIMENSION_CAP,
                   epsilon: float = DEFAULT_EPSILON,
                   s_tolerance: float = DEFAULT_S_TOLERANCE) -> OracleReport:
    """Recompute the whole report in the 2**N space, reduction-free.

    Collective operators are sums of the N single-atom actions; rotated
    variances come from applying the rotated collective operator directly,
    never from the nine-moment expansion; pair correlators are direct
    two-site expectations on atoms 0 and 1.
    """
    _check_cap(state.n_atoms, cap)
    n = state.n_atoms
    if n < 2:
        raise InsufficientAtomsError(
            f"oracle analysis needs at least 2 atoms, got {n}")
    amps = state.amplitudes
    actions = {axis: [single_atom_action(amps, n, i, axis) for i in range(n)]
               for axis in _AXES}
    collective = {axis: np.sum(actions[axis], axis=0) for axis in _AXES}

    firsts = {axis: _real_expectation(amps, collective[axis])
              for axis in _AXES}
    seconds = {axis: float(np.vdot(collective[axis], collective[axis]).real)
               for axis in _AXES}

    def sym(a: str, b: str) -> float:
        # <Ja Jb + Jb Ja> = 2 Re <Ja psi|Jb psi>; the imaginary part is the
        # commutator expectation and is legitimately nonzero, so no residue
        # assertion applies here.
        return 2.0 * float(np.vdot(collective[a], collective[b]).real)

    moments = CollectiveMoments(
        jx=firsts["x"], jy=firsts["y"], jz=firsts["z"],
        jx2=seconds["x"], jy2=seconds["y"], jz2=seconds["z"],
        sym_xy=sym("x", "y"), sym_xz=sym("x", "z"), sym_yz=sym("y", "z"))
    spin = mean_spin(moments)

    correlators = PairCorrelators(
        xx=_real_expectation(actions["x"][0], actions["x"][1]),
        yy=_real_expectation(actions["y"][0], actions["y"][1]),
        zz=_real_expectation(actions["z"][0], actions["z"][1]),
        xy=_real_expectation(actions["x"][0], actions["y"][1]),
        xz=_real_expectation(actions["x"][0], actions["z"][1]),
        yz=_real_expectation(actions["y"][0], actions["z"][1]))

    try:
        frame = build_frame(spin, epsilon)
    except DegenerateMeanSpinError:
        frame = variances = per_atom_xp = per_atom_yp = None
    else:
        x_axis, y_axis = _transverse_axes(frame)

        def rotated(axis: tuple[float, float, float],
                    vectors: tuple[np.ndarray, ...]) -> np.ndarray:
            # axis . vectors; a zero component (always z for y') is skipped.
            out = axis[0] * vectors[0] + axis[1] * vectors[1]
            return out + axis[2] * vectors[2] if axis[2] else out

        def variance(acted: np.ndarray) -> float:
            first = _real_expectation(amps, acted)
            return float(np.vdot(acted, acted).real) - first * first

        # Keep xp_vec and yp_vec alive and each atom's x', y' adjacent: other
        # orders moved the heap layout and oracle-check p90 by up to 25 %.
        lab = tuple(collective[axis] for axis in _AXES)
        xp_vec, yp_vec = rotated(x_axis, lab), rotated(y_axis, lab)
        variances = variance(xp_vec), variance(yp_vec)
        per_atom_xp, per_atom_yp = zip(*[
            (variance(rotated(x_axis, atom)), variance(rotated(y_axis, atom)))
            for atom in zip(*(actions[axis] for axis in _AXES))])

    report = _assemble_report(n, variances, spin.magnitude, epsilon,
                              s_tolerance)
    return OracleReport(moments=moments, mean_spin=spin, frame=frame,
                        correlators=correlators,
                        per_atom_var_xp=per_atom_xp,
                        per_atom_var_yp=per_atom_yp, report=report)
