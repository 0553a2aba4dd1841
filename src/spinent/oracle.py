"""Brute-force 2**N product-basis cross-check for the symmetric-sector path.

Everything here works on the full tensor-product amplitude vector and builds
collective quantities by summing explicit single-atom operator actions, so
it shares no reduction formula with the ladder-basis modules.  Basis index
b has atom i stored in bit (N-1-i), atom 0 being the most significant bit,
with bit value 0 for the upper level.  Atom i's 2x2 operators act on the
middle axis of the (2**i, 2, 2**(N-1-i)) view, in O(2**N) memory.
oracle_metrics makes its 2**N arrays once per call and reuses them for
every atom: the state with the atom's level axis first (one vector), the
gemm output (three) and the collective actions (three).  With numpy's
fixed 128 KB ufunc buffer that is 0.56 MB at N=12 and 1.88 MB at N=14.

Single-atom spin-1/2 actions on the levels |u> (bit 0) and |l> (bit 1),
and the matrix on (|u>, |l>) of the component along a lab axis a:

    x:  |u> -> (1/2)|l>,   |l> -> (1/2)|u>
    y:  |u> -> (i/2)|l>,   |l> -> (-i/2)|u>
    z:  |u> -> (1/2)|u>,   |l> -> (-1/2)|l>
    a:  (1/2) [[a_z, a_x - i a_y], [a_x + i a_y, -a_z]]

The exponential dimension is capped (default 14 atoms) and every function
that allocates a 2**N vector takes an overridable cap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

# The table's matrices in _AXES order, indexed [axis, out level, in level].
_HALF_PAULI = 0.5 * np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                              [[1, 0], [0, -1]]])

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


def _orbits(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    # The orbit k of every basis index b (its set bits, built by doubling),
    # and the orbit sizes C(N, k).
    weights = np.zeros(1, dtype=np.intp)
    for _ in range(n_atoms):
        weights = np.concatenate([weights, weights + 1])
    return weights, np.bincount(weights)


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
    weights, sizes = _orbits(state.n_atoms)
    # Divided before the gather, so that only the gather is 2**N long.
    return FullState(state.n_atoms,
                     (state.coefficients / np.sqrt(sizes))[weights])


def full_to_dicke(state: FullState, tolerance: float = _SYMMETRY_TOLERANCE
                  ) -> DickeState:
    """Project a full product-basis state back to ladder-basis coefficients.

    Requires genuine exchange symmetry: within every fixed-excitation orbit
    all amplitudes must agree within tolerance of their mean.  The error
    names the orbit holding the largest deviation.
    """
    weights, sizes = _orbits(state.n_atoms)
    amps = state.amplitudes
    centers = (np.bincount(weights, amps.real)
               + 1j * np.bincount(weights, amps.imag)) / sizes
    deviation = np.abs(amps - centers[weights])
    worst = int(np.argmax(deviation))
    if deviation[worst] > tolerance:
        raise NotSymmetricError(
            f"orbit with {weights[worst]} excited lower levels has amplitude "
            f"spread {deviation[worst]:.3e}, above {tolerance:.3e}")
    return DickeState(state.n_atoms, centers * np.sqrt(sizes))


def _level_actions(amplitudes: np.ndarray, atom_index: int,
                   matrices: np.ndarray, level: np.ndarray,
                   acted: np.ndarray) -> np.ndarray:
    """k 2x2 matrices on one atom's levels as (k, 2**N), in one gemm.

    level (2, 2**(N-1)) receives the amplitudes with the atom's level axis
    first, and acted's leading 2k rows the actions in that level-major
    order, which is basis order only for atom 0; they are returned as a view.
    """
    high = 1 << atom_index
    np.copyto(level.reshape(2, high, -1),
              amplitudes.reshape(high, 2, -1).transpose(1, 0, 2))
    rows = acted[:2 * len(matrices)]
    np.matmul(matrices.reshape(-1, 2), level, out=rows)
    return rows.reshape(len(matrices), -1)


def _basis_order(actions: np.ndarray, atom_index: int) -> np.ndarray:
    # Level-major actions as a (k, 2**i, 2, rest) view in basis order.
    return actions.reshape(len(actions), 2, 1 << atom_index, -1).transpose(
        0, 2, 1, 3)


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
    level = np.empty((2, amplitudes.size // 2), dtype=complex)
    actions = _level_actions(amplitudes, atom_index,
                             _HALF_PAULI[[_AXES.index(axis)]], level,
                             np.empty_like(level))
    return _basis_order(actions, atom_index).reshape(-1)


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
    # The call's only 2**N arrays: psi level-major, the gemm rows, and lab.
    level = np.empty((2, amps.size // 2), dtype=complex)
    acted = np.empty((2 * len(_HALF_PAULI), amps.size // 2), dtype=complex)
    lab = np.empty((len(_HALF_PAULI), amps.size), dtype=complex)
    # Atom 1's actions go to lab first; atom 0's come out in basis order.
    np.copyto(lab.reshape(len(lab), 2, 2, -1), _basis_order(
        _level_actions(amps, 1, _HALF_PAULI, level, acted), 1))
    atom0 = _level_actions(amps, 0, _HALF_PAULI, level, acted)
    # Field names pair atom 0's axis (atom0) with atom 1's (lab, so far).
    correlators = PairCorrelators(**{
        f.name: _real_expectation(atom0[_AXES.index(f.name[0])],
                                  lab[_AXES.index(f.name[1])])
        for f in fields(PairCorrelators)})
    lab += atom0
    for i in range(2, n):
        target = lab.reshape(len(lab), 1 << i, 2, -1)
        target += _basis_order(
            _level_actions(amps, i, _HALF_PAULI, level, acted), i)
    # CollectiveMoments field order.  The sym_ab real parts go unchecked:
    # Im <Ja psi|Jb psi> is the commutator expectation, legitimately nonzero.
    moments = CollectiveMoments(
        *[_real_expectation(amps, vec) for vec in lab],
        *[float(np.vdot(vec, vec).real) for vec in lab],
        *[2.0 * float(np.vdot(lab[a], lab[b]).real)
          for a, b in ((0, 1), (0, 2), (1, 2))])
    spin = mean_spin(moments)

    try:
        frame = build_frame(spin, epsilon)
    except DegenerateMeanSpinError:
        frame = variances = per_atom_xp = per_atom_yp = None
    else:
        axes = np.array(_transverse_axes(frame))
        primed = np.einsum("ka,aij->kij", axes, _HALF_PAULI)

        def variance(psi: np.ndarray, image: np.ndarray) -> float:
            # Of the operator that takes psi to image.
            mean = _real_expectation(psi, image)
            return float(np.vdot(image, image).real) - mean * mean

        # The gemm rows are free until the per-atom loop below.
        rotated = acted[:2 * len(axes)].reshape(len(axes), -1)
        np.matmul(axes, lab, out=rotated)
        variances = tuple(variance(amps, vec) for vec in rotated)
        # Both operands level-major for atom i, so nothing is permuted back.
        level_psi = level.reshape(-1)
        per_atom_xp, per_atom_yp = zip(*[
            [variance(level_psi, vec)
             for vec in _level_actions(amps, i, primed, level, acted)]
            for i in range(n)])

    report = _assemble_report(n, variances, spin.magnitude, epsilon,
                              s_tolerance)
    return OracleReport(moments=moments, mean_spin=spin, frame=frame,
                        correlators=correlators,
                        per_atom_var_xp=per_atom_xp,
                        per_atom_var_yp=per_atom_yp, report=report)
