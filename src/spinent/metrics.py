"""Transverse variances, squeezing parameters, and the entanglement parameter S.

In the mean-spin-aligned frame the two transverse variances var_xp and var_yp
carry all the pairwise correlation content of a symmetric pure state.  Their
deviations from the uncorrelated value N/4,

    corr_x = var_xp - N/4,    corr_y = var_yp - N/4,

vanish simultaneously on product states, and

    S = (corr_x**2 + corr_y**2) / 2

is therefore zero there; any S > 0 certifies entanglement of a
(frame-nondegenerate) symmetric pure state.  S = 0 does not rule it out:
custom_state(3, [1, 0, 0, 0.5], renormalize=True) is entangled, yet gets
S = 0.0.  S also depends on the choice of transverse axes: a rotation about
the mean spin can change it.  S is exposed
through four algebraically identical routes (from corr, from the variances,
from the squeezing parameters Q, and from the spectroscopic parameters xi)
plus an independent pairwise-correlator evaluation used for cross-checks.
classify holds the whole threshold rule on S, a fixed 1e-10 cut raised to
a rounding floor; analyze and the 2**N oracle classify through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .dicke import DickeState, CollectiveMoments, _atom_count, \
    _pair_count, collective_moments, pairwise_correlators
from .errors import DegenerateMeanSpinError, SpinentError
from .frame import DEFAULT_EPSILON, Frame, MeanSpin, _transverse_axes, \
    build_frame, mean_spin

# Fixed classification cut on S; values at or below count as unentangled.
DEFAULT_S_TOLERANCE = 1e-10

# Rounding gives product states S up to ~0.6 (eps N**2)**2; S is classified
# against at least this multiple of it, above 1e-10 only for N > ~1.2e5.
_S_FLOOR_FACTOR = 10.0


class Classification(Enum):
    UNENTANGLED = "unentangled"
    ENTANGLED = "entangled"
    DEGENERATE_FRAME = "degenerate-frame"


@dataclass(frozen=True)
class MetricsReport:
    """Full set of scalar diagnostics for one state.

    All float fields are None exactly when the mean spin is degenerate (no
    frame, classification DEGENERATE_FRAME).
    """

    n_atoms: int
    var_xp: float | None
    var_yp: float | None
    corr_x: float | None
    corr_y: float | None
    s_param: float | None
    q_x: float | None
    q_y: float | None
    xi_rx: float | None
    xi_ry: float | None
    classification: Classification


# The nine metrics between n_atoms and classification, in field order: the
# report, the CSV row and oracle-check all read the layout from here.
_METRIC_NAMES = tuple(f.name for f in fields(MetricsReport))[1:-1]


@dataclass(frozen=True)
class StateAnalysis:
    """Bundle returned by analyze: moments, frame data, and the report."""

    moments: CollectiveMoments
    mean_spin: MeanSpin
    frame: Frame | None
    report: MetricsReport


def _transverse_forms(frame: Frame, xx: float, yy: float, zz: float,
                      xy: float, xz: float, yz: float) -> list[float]:
    """x' and y' quadratic forms of the symmetric lab matrix with these
    entries, axis . M . axis for each of the frame's transverse axes."""
    return [a * a * xx + b * b * yy + c * c * zz
            + 2.0 * (a * b * xy + a * c * xz + b * c * yz)
            for a, b, c in _transverse_axes(frame)]


def transverse_variances(moments: CollectiveMoments,
                         frame: Frame) -> tuple[float, float]:
    """Variances of J_x' and J_y' from lab-frame moments and the frame.

    The rotated first moments vanish, so the variances are the rotated
    second moments: the x' and y' quadratic forms of the lab moment matrix.
    That matrix is the Gram matrix Re <J_a psi|J_b psi>, positive
    semidefinite, so a negative form is rounding (about ulp(1) j(j+1) in
    size) and is clamped to zero; -0.0 and NaN pass through.
    """
    var_xp, var_yp = _transverse_forms(
        frame, moments.jx2, moments.jy2, moments.jz2, 0.5 * moments.sym_xy,
        0.5 * moments.sym_xz, 0.5 * moments.sym_yz)
    return max(var_xp, 0.0), max(var_yp, 0.0)


def correlation_terms(var_xp: float, var_yp: float,
                      n_atoms: int) -> tuple[float, float]:
    """corr_x and corr_y: transverse variances minus the product value N/4."""
    quarter = _pair_count(n_atoms) / 4.0
    return var_xp - quarter, var_yp - quarter


def correlation_terms_pairwise(state: DickeState,
                               frame: Frame) -> tuple[float, float]:
    """corr_x and corr_y evaluated directly from two-atom correlators.

    Independent route: sums the frame-rotated pair correlators over all
    N(N-1) ordered atom pairs instead of subtracting N/4 from a collective
    variance.  Must agree with correlation_terms on every state; the two
    routes share no intermediate beyond the lab-frame moments.
    """
    g = pairwise_correlators(state)
    pairs = state.n_atoms * (state.n_atoms - 1)
    return tuple(_transverse_forms(
        frame, *(pairs * value
                 for value in (g.xx, g.yy, g.zz, g.xy, g.xz, g.yz))))


def entanglement_parameter(corr_x: float, corr_y: float) -> float:
    """S = (corr_x**2 + corr_y**2) / 2.

    Zero on product states, so S > 0 certifies entanglement; S = 0 does not
    rule it out, and S depends on the choice of transverse axes.
    """
    return 0.5 * (corr_x * corr_x + corr_y * corr_y)


def s_from_variances(var_xp: float, var_yp: float, n_atoms: int) -> float:
    """S written directly in the transverse variances.

    Expanded form of entanglement_parameter(corr_x, corr_y); the constant
    N**2/8 completes the two squares.
    """
    n_atoms = _pair_count(n_atoms)
    half_n = n_atoms / 2.0
    return 0.5 * (var_xp * (var_xp - half_n)
                  + var_yp * (var_yp - half_n)
                  + n_atoms * n_atoms / 8.0)


def squeezing_parameters(var_xp: float, var_yp: float,
                         n_atoms: int) -> tuple[float, float]:
    """Q_x = sqrt(2/j) * dJ_x' and Q_y likewise, with j = N/2.

    A coherent (product) state gives exactly (1, 1); Q < 1 along one axis is
    squeezing.  A negative or NaN variance raises SpinentError, and an
    n_atoms that is not a positive integer LengthMismatchError.
    """
    j = _atom_count(n_atoms) / 2.0
    # Negated so that a NaN variance is rejected too.
    if not (var_xp >= 0.0 and var_yp >= 0.0):
        raise SpinentError(
            f"squeezing parameters are undefined for var_xp={var_xp!r}, "
            f"var_yp={var_yp!r}")
    return math.sqrt(2.0 * var_xp / j), math.sqrt(2.0 * var_yp / j)


def s_from_q(q_x: float, q_y: float, n_atoms: int) -> float:
    """S recovered from the squeezing parameters alone."""
    j = n_atoms / 2.0
    return s_from_variances(q_x * q_x * j / 2.0, q_y * q_y * j / 2.0, n_atoms)


def spectroscopic_parameters(q_x: float, q_y: float, magnitude: float,
                             n_atoms: int) -> tuple[float, float]:
    """Ramsey phase-sensitivity parameters xi_R = (j/|<J>|) Q per axis.

    Undefined (raises) when the mean-spin length is below DEFAULT_EPSILON,
    the frame's threshold, or NaN; the spectroscopic gain diverges there and
    no finite value is meaningful.  An n_atoms that is not a positive
    integer raises LengthMismatchError.
    """
    j = _atom_count(n_atoms) / 2.0
    # Negated so that a NaN length is rejected too.
    if not magnitude >= DEFAULT_EPSILON:
        raise DegenerateMeanSpinError(
            f"mean spin length {magnitude:.3e} is below "
            f"{DEFAULT_EPSILON:.3e}; spectroscopic parameters are undefined")
    scale = j / magnitude
    return scale * q_x, scale * q_y


def s_from_xi(xi_rx: float, xi_ry: float, magnitude: float,
              n_atoms: int) -> float:
    """S recovered from the spectroscopic parameters and mean-spin length."""
    j = _pair_count(n_atoms) / 2.0
    m2 = magnitude * magnitude
    return s_from_variances(xi_rx * xi_rx * m2 / (2.0 * j),
                            xi_ry * xi_ry * m2 / (2.0 * j), n_atoms)


def classify(s_param: float | None, n_atoms: int) -> Classification:
    """The whole S rule: entangled when S exceeds the threshold.

    The threshold is max(DEFAULT_S_TOLERANCE, 10*(ulp(1)*N**2)**2), the
    fixed 1e-10 cut raised to the rounding floor of S at N atoms.  s_param
    None means a degenerate frame, the one case in which a report's metrics
    are None.  An n_atoms that is not a positive integer raises, checked
    first; then so does an s_param that no analysis can produce, negative,
    infinite or NaN.
    """
    n_atoms = _atom_count(n_atoms)
    if s_param is None:
        return Classification.DEGENERATE_FRAME
    # Negated so that a NaN S is rejected too.
    if not 0.0 <= s_param < math.inf:
        raise SpinentError(
            f"s_param must be finite and non-negative, got {s_param!r}")
    floor = _S_FLOOR_FACTOR * (math.ulp(1.0) * n_atoms * n_atoms) ** 2
    if s_param <= max(DEFAULT_S_TOLERANCE, floor):
        return Classification.UNENTANGLED
    return Classification.ENTANGLED


def _assemble_report(n_atoms: int, variances: tuple[float, float] | None,
                     magnitude: float) -> MetricsReport:
    """Report from the transverse variances (None: degenerate frame).

    analyze and the 2**N oracle share it, and nothing before the variances.
    """
    if variances is None:
        values = (None,) * len(_METRIC_NAMES)
        s_param = None
    else:
        var_xp, var_yp = variances
        corr_x, corr_y = correlation_terms(var_xp, var_yp, n_atoms)
        s_param = entanglement_parameter(corr_x, corr_y)
        q_x, q_y = squeezing_parameters(var_xp, var_yp, n_atoms)
        xi_rx, xi_ry = spectroscopic_parameters(q_x, q_y, magnitude, n_atoms)
        # In MetricsReport field order.
        values = (var_xp, var_yp, corr_x, corr_y, s_param, q_x, q_y, xi_rx,
                  xi_ry)
    return MetricsReport(n_atoms, *values, classify(s_param, n_atoms))


def analyze(state: DickeState) -> StateAnalysis:
    """Full pipeline: moments, frame, variances, corr, S, Q, xi, class.

    States whose mean spin is shorter than DEFAULT_EPSILON get a report with
    every float field None and classification DEGENERATE_FRAME instead of an
    exception.
    """
    _pair_count(state.n_atoms)
    moments = collective_moments(state)
    spin = mean_spin(moments)
    try:
        frame = build_frame(spin)
    except DegenerateMeanSpinError:
        frame = variances = None
    else:
        variances = transverse_variances(moments, frame)
    report = _assemble_report(state.n_atoms, variances, spin.magnitude)
    return StateAnalysis(moments=moments, mean_spin=spin, frame=frame,
                         report=report)
