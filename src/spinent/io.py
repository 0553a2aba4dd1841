"""State-file and report serialization plus CSV row formatting.

State files and reports are JSON: human-readable, hand-editable key/value
text with nested arrays.  Floats are emitted through Python's shortest
round-trip repr, so serialize -> parse -> serialize is a byte-for-byte fixed
point at full double precision.  CSV cells default to 17 significant digits;
the SPINENT_PRECISION environment variable (1..17) overrides that, and is
the only environment configuration the tool reads.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .dicke import DickeState
from .errors import SpinentError
from .metrics import Classification, StateAnalysis
from .states import custom_state

CSV_HEADER = ("parameter,var_xp,var_yp,corr_x,corr_y,s_param,"
              "q_x,q_y,xi_rx,xi_ry,classification")

_PRECISION_VAR = "SPINENT_PRECISION"


def _precision() -> int:
    raw = os.environ.get(_PRECISION_VAR)
    if raw is None:
        return 17
    try:
        value = int(raw)
    except ValueError as exc:
        raise SpinentError(
            f"{_PRECISION_VAR} must be an integer in 1..17, got {raw!r}"
        ) from exc
    if not 1 <= value <= 17:
        raise SpinentError(
            f"{_PRECISION_VAR} must be in 1..17, got {value}")
    return value


def dump_document(doc: dict) -> str:
    """Canonical JSON text used for both state files and reports."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def state_document(state: DickeState, renormalize: bool = False) -> dict:
    return {
        "n": state.n_atoms,
        "coefficients": [[float(c.real), float(c.imag)]
                         for c in state.coefficients],
        "renormalize": bool(renormalize),
    }


def parse_state(text: str) -> DickeState:
    """Build a state from state-file text; honors the renormalize flag."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpinentError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or \
            "coefficients" not in doc:
        raise SpinentError(
            "state file must be an object with keys 'n' and 'coefficients'")
    n = doc["n"]
    if not isinstance(n, int):
        raise SpinentError(f"'n' must be an integer, got {n!r}")
    pairs = doc["coefficients"]
    try:
        coeffs = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise SpinentError(
            "'coefficients' must be a list of [re, im] pairs") from exc
    renormalize = doc.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise SpinentError(
            f"'renormalize' must be true or false, got {renormalize!r}")
    return custom_state(n, coeffs, renormalize=renormalize)


def report_document(analysis: StateAnalysis) -> dict:
    """Report dict: metrics plus mean spin, frame cosines, and flags."""
    report = analysis.report
    spin = analysis.mean_spin
    degenerate = report.classification is Classification.DEGENERATE_FRAME
    if analysis.frame is None:
        frame_doc = None
        degenerate_phi = False
    else:
        frame_doc = {
            "cos_theta": analysis.frame.cos_theta,
            "sin_theta": analysis.frame.sin_theta,
            "cos_phi": analysis.frame.cos_phi,
            "sin_phi": analysis.frame.sin_phi,
        }
        degenerate_phi = analysis.frame.degenerate_phi
    return {
        "version": __version__,
        "n_atoms": report.n_atoms,
        "mean_spin": {
            "jx": spin.jx, "jy": spin.jy, "jz": spin.jz,
            "magnitude": spin.magnitude, "transverse": spin.transverse,
        },
        "frame": frame_doc,
        "degenerate_frame": degenerate,
        "degenerate_phi": degenerate_phi,
        "metrics": {
            "var_xp": report.var_xp, "var_yp": report.var_yp,
            "corr_x": report.corr_x, "corr_y": report.corr_y,
            "s_param": report.s_param,
            "q_x": report.q_x, "q_y": report.q_y,
            "xi_rx": report.xi_rx, "xi_ry": report.xi_ry,
        },
        "classification": report.classification.value,
    }


def parse_report(text: str) -> dict:
    """Parse report text back to its document dict."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpinentError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise SpinentError("report must be an object with a 'metrics' key")
    return doc


def _format_cell(value: float | None, precision: int) -> str:
    if value is None:
        return "nan"
    return f"{value:.{precision}g}"


def csv_row(parameter: float, analysis: StateAnalysis) -> str:
    """One sweep row; undefined metrics of degenerate frames print as nan."""
    precision = _precision()
    report = analysis.report
    cells = [_format_cell(parameter, precision)]
    cells += [_format_cell(v, precision) for v in (
        report.var_xp, report.var_yp, report.corr_x, report.corr_y,
        report.s_param, report.q_x, report.q_y, report.xi_rx, report.xi_ry)]
    cells.append(report.classification.value)
    return ",".join(cells)
