"""Brute-force 2**N product-basis cross-check for the symmetric-sector path.

Everything here works on the full tensor-product amplitude vector and builds
collective quantities by summing explicit single-atom operator actions, so
it shares no reduction formula with the ladder-basis modules.  Basis index
b has atom i stored in bit (N-1-i), atom 0 being the most significant bit,
with bit value 0 for the upper level.  Atom i's 2x2 operators act on the
middle axis of the (2**i, 2, 2**(N-1-i)) view, in O(2**N) memory.
oracle_metrics walks the atoms once and takes its 2**N work memory as one
(5, 2**N) block: J+, J- and J_z on the state (J+ and J- become J_x and J_y
in place), the state's transpose, and a scratch row for, in turn, the state
with one atom's level axis first (for that atom's 2x2 reduced density
matrix), the J_z diagonal and the x' and y' actions.  One block rather than
six arrays: with six, in a loop of calls, the memory one call freed went
back to the OS and the next call faulted it in again (476 minor page faults
per `oracle-check --n 13..14 --trials 1`, now none).  The first N//2 atoms
are walked on the state, the rest on its (2**(N-N//2), 2**(N//2))
transpose, where each level axis leads a block of 2**(N//2) amplitudes or
more; the rest of the call works in that order.  The peak is 6.0 vectors of
2**N, the block and numpy's buffers for one slice add: 0.40 MB at N=12 and
1.58 MB at N=14 (tracemalloc).  Expectations are divided by the squared norm.

Single-atom spin-1/2 actions on the levels |u> (bit 0) and |l> (bit 1),
and the matrix on (|u>, |l>) of the component along a lab axis a:

    x:  |u> -> (1/2)|l>,   |l> -> (1/2)|u>
    y:  |u> -> (i/2)|l>,   |l> -> (-i/2)|u>
    z:  |u> -> (1/2)|u>,   |l> -> (-1/2)|l>
    a:  (1/2) [[a_z, a_x - i a_y], [a_x + i a_y, -a_z]]

dicke_to_full, the one step from an O(N) input to a 2**N vector, alone
holds the dimension cap (default 14 atoms) and refuses N >= 59, which numpy
cannot size; every other entry point takes a FullState.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dicke import DickeState, CollectiveMoments, PairCorrelators, \
    _freeze_amplitudes
from .errors import DegenerateMeanSpinError, DimensionCapError, \
    InsufficientAtomsError, NotSymmetricError, SpinentError, \
    WrongAtomCountError
from .frame import _transverse_axes, build_frame, mean_spin
from .metrics import StateAnalysis, _assemble_report
# Unused here, but bench/tracing.py wraps these names on this module.
from .metrics import classify, correlation_terms, entanglement_parameter, \
    spectroscopic_parameters, squeezing_parameters

DEFAULT_DIMENSION_CAP = 14

_AXES = ("x", "y", "z")

# The table's matrices in _AXES order, indexed [axis, out level, in level].
_HALF_PAULI = 0.5 * np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                              [[1, 0], [0, -1]]])

# Atom 0's axis (a) times atom 1's (b), in PairCorrelators field order.
_PAIR_OPERATORS = np.array([
    np.kron(_HALF_PAULI[_AXES.index(f.name[0])],
            _HALF_PAULI[_AXES.index(f.name[1])])
    for f in fields(PairCorrelators)])

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
class OracleReport(StateAnalysis):
    """A StateAnalysis from the 2**N path, plus what only that path sees.

    per_atom_var_xp / per_atom_var_yp hold the rotated single-atom variances
    (1/4 each, to rounding, for exchange-symmetric states, whatever the norm
    drift); correlators is the direct two-site evaluation on atoms 0 and 1.
    Frame-degenerate states carry frame None and a report with None
    metrics, like the ladder path.
    """

    correlators: PairCorrelators | None
    per_atom_var_xp: tuple[float, ...] | None
    per_atom_var_yp: tuple[float, ...] | None


def _count_bits(out: np.ndarray, first, step) -> np.ndarray:
    # out[b] = first + step * (the set bits of b), built by doubling in
    # place; out has 2**N entries.
    out[0] = first
    for k in range(out.size.bit_length() - 1):
        np.add(out[:1 << k], step, out=out[1 << k:2 << k])
    return out


def _orbits(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    # The orbit k of every basis index b (its set bits), and the orbit
    # sizes C(N, k).
    weights = _count_bits(np.empty(1 << n_atoms, dtype=np.intp), 0, 1)
    return weights, np.bincount(weights)


def _check_cap(n_atoms: int, cap: int):
    if n_atoms > cap:
        raise DimensionCapError(
            f"n_atoms={n_atoms} exceeds the 2**N dimension cap {cap}")
    # 16 bytes per complex amplitude: from N = 59 on numpy cannot size it.
    if 16 << n_atoms > np.iinfo(np.intp).max:
        raise DimensionCapError(
            f"n_atoms={n_atoms}: a 2**N complex vector is too large for numpy")


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


def full_to_dicke(state: FullState) -> DickeState:
    """Project a full product-basis state back to ladder-basis coefficients.

    Requires genuine exchange symmetry: within every fixed-excitation orbit
    all amplitudes must agree within 1e-10 of their mean.  The error names
    the orbit holding the largest deviation.
    """
    weights, sizes = _orbits(state.n_atoms)
    amps = state.amplitudes
    centers = (np.bincount(weights, amps.real)
               + 1j * np.bincount(weights, amps.imag)) / sizes
    deviation = np.abs(amps - centers[weights])
    worst = int(np.argmax(deviation))
    if deviation[worst] > _SYMMETRY_TOLERANCE:
        raise NotSymmetricError(
            f"orbit with {weights[worst]} excited lower levels has amplitude "
            f"spread {deviation[worst]:.3e}, above {_SYMMETRY_TOLERANCE:.3e}")
    return DickeState(state.n_atoms, centers * np.sqrt(sizes))


def single_atom_action(amplitudes: np.ndarray, n_atoms: int, atom_index: int,
                       axis: str) -> np.ndarray:
    """Apply one atom's spin-1/2 component to a raw 2**N amplitude vector.

    The component's 2x2 matrix (module docstring) acts on the atom's level
    axis.  Accepts unnormalized vectors so actions compose.
    """
    if not 0 <= atom_index < n_atoms:
        raise IndexError(
            f"atom_index {atom_index} out of range for {n_atoms} atoms")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    view = amplitudes.reshape(1 << atom_index, 2, -1)
    return (_HALF_PAULI[_AXES.index(axis)] @ view).reshape(-1)


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


def _real_parts(values, scale) -> np.ndarray:
    """Real parts of complex Hermitian expectations (a scalar or an array).

    A residue beyond rounding is a coding error: each |Im| must be within
    _IMAG_TOLERANCE, or else within _IMAG_RELATIVE times its entry of
    scale(), the operand norms |bra| |ket| or |A| |rho|, which is called
    only past the absolute bound.  Negated so that NaN raises.
    """
    values = np.asarray(values)
    residue = np.abs(values.imag)
    if not residue.max() <= _IMAG_TOLERANCE:
        bound = _IMAG_RELATIVE * scale()
        if not ((residue <= _IMAG_TOLERANCE) | (residue <= bound)).all():
            raise SpinentError("Hermitian expectation has imaginary residue "
                               f"{residue.max():.3e}")
    return values.real


def oracle_metrics(state: FullState) -> OracleReport:
    """Recompute the whole report in the 2**N space, reduction-free.

    Collective operators are sums of the N single-atom actions; rotated
    variances come from applying the rotated collective operator directly,
    never from the nine-moment expansion.  Per-atom variances are traces
    against each atom's 2x2 reduced density matrix, and pair correlators
    traces against the 4x4 one of atoms 0 and 1.  All are divided by the
    squared norm, taken as the trace of that 4x4 matrix.
    """
    n = state.n_atoms
    if n < 2:
        raise InsufficientAtomsError(
            f"oracle analysis needs at least 2 atoms, got {n}")
    amps = state.amplitudes
    # All 2**N work memory is one block per call.  Atoms 0..h-1 gather J+
    # psi and J- psi in rows 0-1, with row 4 taking the level-first copy.
    # Atoms h..N-1 gather them, transposed, in rows 2-3, with psi's
    # transpose in row 0 and row 1 taking the copy.  Then row 4 takes J_z
    # psi, rows 2-3 become J_x psi and J_y psi, and row 1 is scratch.
    block = np.empty((5, amps.size), dtype=complex)
    psi, spare, lab = block[0], block[1], block[2:]
    # rho[i, a, b] sums psi_a conj(psi_b) over the atoms other than i.
    rho = np.empty((n, 2, 2), dtype=complex)

    def walk(vec, ladders, level, atoms, first):
        # Atom i's level axis is bit i - first from the top of vec; level
        # takes vec with that axis first.
        for i in atoms:
            high = 1 << (i - first)
            np.copyto(level.reshape(2, high, -1),
                      vec.reshape(high, 2, -1).transpose(1, 0, 2))
            upper, lower = level.reshape(2, -1)
            # sigma+ = |u><l| and sigma- = |l><u| only move amplitudes: J+
            # psi gains the lower half in atom i's upper slot, J- psi the
            # reverse.
            ladders[0].reshape(high, 2, -1)[:, 0] += lower.reshape(high, -1)
            ladders[1].reshape(high, 2, -1)[:, 1] += upper.reshape(high, -1)
            rho[i, 0, 0] = np.vdot(upper, upper)
            rho[i, 1, 1] = np.vdot(lower, lower)
            rho[i, 1, 0] = np.vdot(upper, lower)

    # The last atoms' level axes lead narrow blocks of psi, and numpy's
    # slice adds over narrow blocks are slow; in psi's (2**(N-h), 2**h)
    # transpose each leads 2**h amplitudes or more.  So atoms 0..h-1 are
    # walked on psi, then J+ psi and J- psi move to that layout for atoms
    # h..N-1, and the call stays there: what follows is inner products,
    # blind to the basis order.
    half = n // 2
    shape = (1 << half, amps.size >> half)
    block[:2] = 0
    walk(amps, block[:2], block[4], range(half), 0)
    np.copyto(lab[:2].reshape(2, *shape[::-1]),
              block[:2].reshape(2, *shape).transpose(0, 2, 1))
    np.copyto(psi.reshape(shape[::-1]), amps.reshape(shape).T)
    walk(psi, lab, spare, range(half, n), half)
    rho[:, 0, 1] = rho[:, 1, 0].conj()
    # J_z's diagonal n/2 - (set bits); the transpose only reorders bits.
    diagonal = _count_bits(spare.view(float)[:amps.size], n / 2, -1.0)
    np.multiply(psi, diagonal, out=lab[2])
    # J_x = (J+ + J-)/2 and J_y = i(J- - J+)/2 = i(J- - J_x), in place.
    lab[0] += lab[1]
    lab[0] *= 0.5
    lab[1] -= lab[0]
    lab[1] *= 1j
    pairs = amps.reshape(4, -1)
    conj_pairs = np.conjugate(pairs, out=spare.reshape(4, -1))
    pair_rho = pairs @ conj_pairs.T
    # The trace sums |psi|^2 closer to exact than one dot over all 2**N
    # amplitudes: 3e-16 against 1.2e-15 (median error at N = 14).
    norm2 = float(pair_rho.trace().real)
    pair_rho /= norm2
    rho /= norm2
    correlators = PairCorrelators(*_real_parts(
        np.einsum("kij,ji->k", _PAIR_OPERATORS, pair_rho),
        lambda: np.linalg.norm(_PAIR_OPERATORS, axis=(1, 2))
        * np.linalg.norm(pair_rho)).tolist())
    # Re <Ja psi|Jb psi> from one batched product of float views, unchecked:
    # its Im is the commutator expectation, legitimately nonzero.
    parts = lab.view(float)
    gram = np.matmul(parts[:, None, None], parts[..., None])[..., 0, 0]
    first = _real_parts([np.vdot(psi, vec) for vec in lab],
                        lambda: np.sqrt(norm2 * gram.diagonal()))
    moments = CollectiveMoments(  # in field order
        *(first / norm2).tolist(), *(gram.diagonal() / norm2).tolist(),
        *(2.0 * gram[(0, 0, 1), (1, 2, 2)] / norm2).tolist())
    spin = mean_spin(moments)

    try:
        frame = build_frame(spin)
    except DegenerateMeanSpinError:
        frame = variances = per_atom_xp = per_atom_yp = None
    else:
        axes = np.array(_transverse_axes(frame))
        # P, the table's matrix for x' and y'; <P^dag P> = <P^2> and <P> are
        # traced for every atom at once.
        primed = (axes @ _HALF_PAULI.reshape(3, 4)).reshape(2, 2, 2)
        operators = np.concatenate((primed @ primed, primed))
        traces = _real_parts(
            np.einsum("kij,mji->km", operators, rho),
            lambda: np.outer(np.linalg.norm(operators, axis=(1, 2)),
                             np.linalg.norm(rho, axis=(1, 2))))
        per_atom_xp, per_atom_yp = (
            tuple(row) for row in (traces[:2] - traces[2:] ** 2).tolist())
        # A real axis mixes the complex rows as a float gemv on their parts;
        # |P psi|^2 is a float-view dot, as in the Gram product.
        squares, means, mixed = [], [], spare.view(float)
        for axis in axes:
            np.matmul(axis, lab.view(float), out=mixed)
            squares.append(float(mixed @ mixed))
            means.append(np.vdot(psi, spare))
        means = _real_parts(means, lambda: np.sqrt(norm2 * np.array(squares)))
        variances = tuple(square / norm2 - (mean / norm2) ** 2
                          for square, mean in zip(squares, means.tolist()))

    report = _assemble_report(n, variances, spin.magnitude)
    return OracleReport(moments=moments, mean_spin=spin, frame=frame,
                        correlators=correlators,
                        per_atom_var_xp=per_atom_xp,
                        per_atom_var_yp=per_atom_yp, report=report)
