"""Brute-force 2**N product-basis cross-check for the symmetric-sector path.

Everything here works on the full tensor-product amplitude vector and builds
collective quantities by summing explicit single-atom operator actions, so
it shares no reduction formula with the ladder-basis modules.  Basis index
b has atom i stored in bit (N-1-i), atom 0 being the most significant bit,
with bit value 0 for the upper level.  Operators are applied matrix-free on
the (2**i, 2, 2**(N-1-i)) view of the amplitudes, whose middle axis is atom
i's level: z scales the two levels, x and y swap them and scale.

Single-atom spin-1/2 actions on the levels |u> (bit 0) and |l> (bit 1):

    x:  |u> -> (1/2)|l>,   |l> -> (1/2)|u>
    y:  |u> -> (i/2)|l>,   |l> -> (-i/2)|u>
    z:  |u> -> (1/2)|u>,   |l> -> (-1/2)|l>

The exponential dimension is capped (default 14 atoms) and every function
that allocates a 2**N vector takes an overridable cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .dicke import DickeState, CollectiveMoments, PairCorrelators, \
    _freeze_amplitudes
from .errors import DegenerateMeanSpinError, DimensionCapError, \
    InsufficientAtomsError, NotSymmetricError, SpinentError, \
    WrongAtomCountError
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

# Im <bra|ket> of a Hermitian pair is rounding unless above both bounds.
_IMAG_TOLERANCE = 1e-10
_IMAG_RELATIVE = 1e-12


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

    Matrix-free on the atom's level axis, per the table in the module
    docstring.  Accepts unnormalized vectors so actions compose.
    """
    if not 0 <= atom_index < n_atoms:
        raise IndexError(
            f"atom_index {atom_index} out of range for {n_atoms} atoms")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    view = amplitudes.reshape(1 << atom_index, 2, -1)
    if axis == "z":
        return (np.array([[0.5], [-0.5]]) * view).reshape(-1)
    if axis == "x":
        return (0.5 * view[:, ::-1]).reshape(-1)
    # y: the amplitude arriving on |l> picks up +i/2, on |u> -i/2.
    out = np.empty(view.shape, dtype=complex)
    np.negative(view[:, 1], out=out[:, 0])
    out[:, 1] = view[:, 0]
    out *= 0.5j
    return out.reshape(-1)


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


def _real_expectation(bra: np.ndarray, ket: np.ndarray) -> float:
    """Real part of <bra|ket>; a residue beyond rounding is a coding error."""
    val = complex(np.vdot(bra, ket))
    residue = abs(val.imag)
    # Negated so that NaN raises; the relative bound is |bra| |ket| times
    # _IMAG_RELATIVE, its norms taken only past the absolute bound.
    if not (residue <= _IMAG_TOLERANCE or residue <= _IMAG_RELATIVE
            * float(np.linalg.norm(bra) * np.linalg.norm(ket))):
        raise SpinentError(
            f"Hermitian expectation has imaginary residue {val.imag:.3e}")
    return val.real


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
    lab = tuple(np.sum(actions[axis], axis=0) for axis in _AXES)
    # CollectiveMoments field order.  The sym_ab real parts go unchecked:
    # Im <Ja psi|Jb psi> is the commutator expectation, legitimately nonzero.
    moments = CollectiveMoments(
        *[_real_expectation(amps, vec) for vec in lab],
        *[float(np.vdot(vec, vec).real) for vec in lab],
        *[2.0 * float(np.vdot(lab[a], lab[b]).real)
          for a, b in ((0, 1), (0, 2), (1, 2))])
    spin = mean_spin(moments)

    # Each field name is an axis pair: atom 0's axis, then atom 1's.
    correlators = PairCorrelators(**{
        f.name: _real_expectation(actions[f.name[0]][0], actions[f.name[1]][1])
        for f in fields(PairCorrelators)})

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
