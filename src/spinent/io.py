"""State-file and report serialization plus CSV row formatting.

State files and reports are JSON: human-readable, hand-editable key/value
text with nested arrays; a state's complex coefficient array is written,
by its type, as [re, im] rows.  Floats are emitted through Python's shortest
round-trip repr, so serialize -> parse -> serialize is a byte-for-byte fixed
point at full double precision.  CSV cells default to 17 significant digits;
the SPINENT_PRECISION environment variable (1..17) overrides that, and is
the only environment configuration the tool reads.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from dataclasses import fields
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .dicke import DickeState
from .errors import SpinentError
from .frame import Frame, MeanSpin
from .metrics import Classification, StateAnalysis, _METRIC_NAMES
from .states import custom_state

CSV_HEADER = ",".join(("parameter", *_METRIC_NAMES, "classification"))

_SPIN_NAMES = tuple(f.name for f in fields(MeanSpin))
# The four direction cosines; degenerate_phi is reported beside the frame.
_FRAME_NAMES = tuple(f.name for f in fields(Frame))[:-1]

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
    """Canonical JSON text used for both state files and reports.

    For a document of dicts with str keys, lists, tuples, str, int, float,
    bool and None, the text equals json.dumps(doc, indent=2,
    allow_nan=False) + "\n"; a NaN or infinite float raises ValueError.
    A 1-D complex ndarray is written, by its type, as its [re, im] rows
    would be, and any other array raises TypeError.  json writes indented
    text with its pure-Python encoder, which takes about twice as long as
    this emitter on a coefficient block.
    """
    return _text(doc, "\n") + "\n"


def _text(value, newline: str) -> str:
    # The JSON text of value; newline is "\n" plus the indent of its line.
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                "Out of range float values are not JSON compliant: "
                + repr(value))
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_text(item, inner) for item in value]
    elif isinstance(value, np.ndarray):
        if value.dtype != complex or value.ndim != 1:
            raise TypeError(f"Array of {value.dtype} and shape {value.shape} "
                            "is not JSON serializable")
        parts = np.ascontiguousarray(value).view(float)
        if not np.isfinite(parts).all():  # raise json's ValueError
            _text(float(parts[~np.isfinite(parts)][0]), newline)
        brackets, deeper, floats = "[]", inner + "  ", iter(parts.tolist())
        # One f-string per row: float repr is most of a state's cost.
        items = [f"[{deeper}{re!r},{deeper}{im!r}{inner}]"
                 for re, im in zip(floats, floats)]
    elif isinstance(value, dict):
        brackets = "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"keys must be str, not {type(key).__name__}")
        items = [encode_basestring_ascii(key) + ": " + _text(item, inner)
                 for key, item in value.items()]
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + newline
            + brackets[1])


def state_document(state: DickeState) -> dict:
    """State-file dict; dump_document writes the coefficients as rows."""
    return {"n": state.n_atoms, "coefficients": state.coefficients,
            "renormalize": False}


def parse_state(text: str) -> DickeState:
    """Build a state from state-file text; honors the renormalize flag."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer beyond int's digit limit
        raise SpinentError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or \
            "coefficients" not in doc:
        raise SpinentError(
            "state file must be an object with keys 'n' and 'coefficients'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SpinentError(f"'n' must be an integer, got {n!r}")
    pairs = doc["coefficients"]
    try:
        if not set(map(len, pairs)) <= {2}:
            raise ValueError("a row is not a pair")
        # pos refuses a string or a null, which fromiter reads as a float.
        coeffs = np.fromiter(map(operator.pos, chain.from_iterable(pairs)),
                             float, 2 * len(pairs)).view(complex)
    except OverflowError as exc:
        k = next(k for k, pair in enumerate(pairs)
                 if max(map(abs, pair)) > sys.float_info.max)
        raise SpinentError(f"coefficient {k} exceeds float range") from exc
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
    frame = analysis.frame
    return {
        "version": __version__,
        "n_atoms": report.n_atoms,
        "mean_spin": {name: getattr(analysis.mean_spin, name)
                      for name in _SPIN_NAMES},
        "frame": None if frame is None else {
            name: getattr(frame, name) for name in _FRAME_NAMES},
        "degenerate_frame":
            report.classification is Classification.DEGENERATE_FRAME,
        "degenerate_phi": frame is not None and frame.degenerate_phi,
        "metrics": {name: getattr(report, name) for name in _METRIC_NAMES},
        "classification": report.classification.value,
    }


def _format_cell(value: float | None, precision: int) -> str:
    if value is None:
        return "nan"
    return f"{value:.{precision}g}"


def csv_row(parameter: float, analysis: StateAnalysis) -> str:
    """One sweep row; undefined metrics of degenerate frames print as nan."""
    precision = _precision()
    report = analysis.report
    cells = [_format_cell(parameter, precision)]
    cells += [_format_cell(getattr(report, name), precision)
              for name in _METRIC_NAMES]
    cells.append(report.classification.value)
    return ",".join(cells)
