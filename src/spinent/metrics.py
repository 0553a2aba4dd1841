"""Transverse variances, squeezing parameters, and the entanglement parameter S.

In the mean-spin-aligned frame the two transverse variances var_xp and var_yp
carry all the pairwise correlation content of a symmetric pure state.  Their
deviations from the uncorrelated value N/4,

    corr_x = var_xp - N/4,    corr_y = var_yp - N/4,

vanish simultaneously exactly on product states, and

    S = (corr_x**2 + corr_y**2) / 2

is therefore zero if and only if the (frame-nondegenerate) symmetric pure
state is a product state; any S > 0 certifies entanglement.  S is exposed
through four algebraically identical routes (from corr, from the variances,
from the squeezing parameters Q, and from the spectroscopic parameters xi)
plus an independent pairwise-correlator evaluation used for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dicke import DickeState, CollectiveMoments, collective_moments, \
    pairwise_correlators
from .errors import DegenerateMeanSpinError, InsufficientAtomsError
from .frame import DEFAULT_EPSILON, Frame, MeanSpin, _transverse_axes, \
    build_frame, mean_spin

# Classification threshold on S; values at or below count as unentangled.
DEFAULT_S_TOLERANCE = 1e-10

# Variances are clamped to zero when rounding drives them this far negative.
_VARIANCE_FLOOR = -1e-12


class Classification(Enum):
    UNENTANGLED = "unentangled"
    ENTANGLED = "entangled"
    DEGENERATE_FRAME = "degenerate-frame"


@dataclass(frozen=True)
class MetricsReport:
    """Full set of scalar diagnostics for one state.

    All float fields are None when the mean spin is degenerate (no frame,
    classification DEGENERATE_FRAME); xi_rx and xi_ry additionally require a
    nonzero mean-spin length.
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


@dataclass(frozen=True)
class StateAnalysis:
    """Bundle returned by analyze: moments, frame data, and the report."""

    moments: CollectiveMoments
    mean_spin: MeanSpin
    frame: Frame | None
    report: MetricsReport


def _clamp_variance(value: float) -> float:
    if _VARIANCE_FLOOR < value < 0.0:
        return 0.0
    return value


def _quadratic_form(axis: tuple[float, float, float], xx: float, yy: float,
                    zz: float, xy: float, xz: float, yz: float) -> float:
    """axis . M . axis for the symmetric 3x3 matrix M with these entries."""
    a, b, c = axis
    return (a * a * xx + b * b * yy + c * c * zz
            + 2.0 * (a * b * xy + a * c * xz + b * c * yz))


def transverse_variances(moments: CollectiveMoments,
                         frame: Frame) -> tuple[float, float]:
    """Variances of J_x' and J_y' from lab-frame moments and the frame.

    The rotated first moments vanish, so the variances are the rotated
    second moments: the x' and y' quadratic forms of the lab moment matrix.
    """
    x_axis, y_axis = _transverse_axes(frame)
    second = (moments.jx2, moments.jy2, moments.jz2, 0.5 * moments.sym_xy,
              0.5 * moments.sym_xz, 0.5 * moments.sym_yz)
    return (_clamp_variance(_quadratic_form(x_axis, *second)),
            _clamp_variance(_quadratic_form(y_axis, *second)))


def correlation_terms(var_xp: float, var_yp: float,
                      n_atoms: int) -> tuple[float, float]:
    """corr_x and corr_y: transverse variances minus the product value N/4."""
    if n_atoms < 2:
        raise InsufficientAtomsError(
            f"correlation terms need at least 2 atoms, got {n_atoms}")
    quarter = n_atoms / 4.0
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
    scaled = tuple(pairs * value
                   for value in (g.xx, g.yy, g.zz, g.xy, g.xz, g.yz))
    x_axis, y_axis = _transverse_axes(frame)
    return (_quadratic_form(x_axis, *scaled),
            _quadratic_form(y_axis, *scaled))


def entanglement_parameter(corr_x: float, corr_y: float) -> float:
    """S = (corr_x**2 + corr_y**2) / 2; zero exactly on product states."""
    return 0.5 * (corr_x * corr_x + corr_y * corr_y)


def s_from_variances(var_xp: float, var_yp: float, n_atoms: int) -> float:
    """S written directly in the transverse variances.

    Expanded form of entanglement_parameter(corr_x, corr_y); the constant
    N**2/8 completes the two squares.
    """
    if n_atoms < 2:
        raise InsufficientAtomsError(
            f"the entanglement parameter needs at least 2 atoms, got {n_atoms}")
    half_n = n_atoms / 2.0
    return 0.5 * (var_xp * (var_xp - half_n)
                  + var_yp * (var_yp - half_n)
                  + n_atoms * n_atoms / 8.0)


def squeezing_parameters(var_xp: float, var_yp: float,
                         n_atoms: int) -> tuple[float, float]:
    """Q_x = sqrt(2/j) * dJ_x' and Q_y likewise, with j = N/2.

    A coherent (product) state gives exactly (1, 1); Q < 1 along one axis is
    squeezing.
    """
    j = n_atoms / 2.0
    return math.sqrt(2.0 * var_xp / j), math.sqrt(2.0 * var_yp / j)


def s_from_q(q_x: float, q_y: float, n_atoms: int) -> float:
    """S recovered from the squeezing parameters alone."""
    j = n_atoms / 2.0
    return s_from_variances(q_x * q_x * j / 2.0, q_y * q_y * j / 2.0, n_atoms)


def spectroscopic_parameters(q_x: float, q_y: float, magnitude: float,
                             n_atoms: int,
                             epsilon: float = DEFAULT_EPSILON
                             ) -> tuple[float, float]:
    """Ramsey phase-sensitivity parameters xi_R = (j/|<J>|) Q per axis.

    Undefined (raises) when the mean-spin length is below epsilon; the
    spectroscopic gain diverges there and no finite value is meaningful.
    """
    if magnitude < epsilon:
        raise DegenerateMeanSpinError(
            f"mean spin length {magnitude:.3e} is below {epsilon:.3e}; "
            "spectroscopic parameters are undefined")
    j = n_atoms / 2.0
    scale = j / magnitude
    return scale * q_x, scale * q_y


def s_from_xi(xi_rx: float, xi_ry: float, magnitude: float,
              n_atoms: int) -> float:
    """S recovered from the spectroscopic parameters and mean-spin length."""
    j = n_atoms / 2.0
    m2 = magnitude * magnitude
    return s_from_variances(xi_rx * xi_rx * m2 / (2.0 * j),
                            xi_ry * xi_ry * m2 / (2.0 * j), n_atoms)


def classify(s_param: float | None, degenerate_frame: bool = False,
             s_tolerance: float = DEFAULT_S_TOLERANCE) -> Classification:
    """Map S to a classification; tolerance absorbs rounding around zero."""
    if degenerate_frame:
        return Classification.DEGENERATE_FRAME
    if s_param is None:
        raise ValueError("s_param is required for a non-degenerate frame")
    if s_param <= s_tolerance:
        return Classification.UNENTANGLED
    return Classification.ENTANGLED


def _assemble_report(n_atoms: int, variances: tuple[float, float] | None,
                     magnitude: float, epsilon: float,
                     s_tolerance: float) -> MetricsReport:
    """Report from the transverse variances (None: degenerate frame).

    analyze and the 2**N oracle share it, and nothing before the variances.
    """
    if variances is None:
        values = (None,) * 9
        classification = Classification.DEGENERATE_FRAME
    else:
        var_xp, var_yp = variances
        corr_x, corr_y = correlation_terms(var_xp, var_yp, n_atoms)
        s_param = entanglement_parameter(corr_x, corr_y)
        q_x, q_y = squeezing_parameters(var_xp, var_yp, n_atoms)
        xi_rx, xi_ry = spectroscopic_parameters(q_x, q_y, magnitude, n_atoms,
                                                epsilon)
        # In MetricsReport field order.
        values = (var_xp, var_yp, corr_x, corr_y, s_param, q_x, q_y, xi_rx,
                  xi_ry)
        classification = classify(s_param, s_tolerance=s_tolerance)
    return MetricsReport(n_atoms, *values, classification)


def analyze(state: DickeState, epsilon: float = DEFAULT_EPSILON,
            s_tolerance: float = DEFAULT_S_TOLERANCE) -> StateAnalysis:
    """Full pipeline: moments, frame, variances, corr, S, Q, xi, class.

    States whose mean spin is degenerate get a report with every float field
    None and classification DEGENERATE_FRAME instead of an exception.
    """
    if state.n_atoms < 2:
        raise InsufficientAtomsError(
            f"analysis needs at least 2 atoms, got {state.n_atoms}")
    moments = collective_moments(state)
    spin = mean_spin(moments)
    try:
        frame = build_frame(spin, epsilon)
    except DegenerateMeanSpinError:
        frame = variances = None
    else:
        variances = transverse_variances(moments, frame)
    report = _assemble_report(state.n_atoms, variances, spin.magnitude,
                              epsilon, s_tolerance)
    return StateAnalysis(moments=moments, mean_spin=spin, frame=frame,
                         report=report)
