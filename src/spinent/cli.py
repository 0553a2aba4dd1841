"""Command-line interface: analyze, make-state, sweep, oracle-check.

Exit codes: 0 success, 1 usage or input errors, 2 when analyze meets a
degenerate mean spin (the report is still emitted, classified
degenerate-frame, so sweeps near <J> = 0 can branch on it).  All angles are
radians.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import fields

import numpy as np

from .dicke import CollectiveMoments, DickeState, PairCorrelators, \
    _correlators_from_moments
# Unused here, but bench/tracing.py wraps this name on this module.
from .dicke import pairwise_correlators
from .errors import SpinentError
from .io import CSV_HEADER, csv_row, dump_document, parse_state, \
    report_document, state_document
from .metrics import Classification, DEFAULT_S_TOLERANCE, _METRIC_NAMES, \
    analyze
from .oracle import DEFAULT_DIMENSION_CAP, _check_cap, dicke_to_full, \
    oracle_metrics
from .states import CoherentSpec, coherent_state, custom_state, dicke_state, \
    random_state, twisted_state

_ORACLE_TOLERANCE = 1e-9

# The factory argument each sweep kind varies.
_SWEPT = {"coherent": "theta", "dicke": "m", "twist": "mu"}

_MOMENT_NAMES = tuple(f.name for f in fields(CollectiveMoments))
_CORRELATOR_NAMES = tuple(f.name for f in fields(PairCorrelators))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3, -0.8j, -inf and -nan are values too, not just -1 and -.5;
        # no option here looks like a number or starts -inf or -nan.
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)",
                                                   re.IGNORECASE)

    # Usage errors must exit 1; argparse defaults to 2, which is reserved
    # for the degenerate-frame outcome.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first main call and reused: parse_args keeps no state
    # between calls, and each call gets a fresh namespace.
    parser = _Parser(prog="spinent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_analyze = sub.add_parser(
        "analyze", help="analyze a state file, report JSON on stdout")
    p_analyze.add_argument("state_file",
                           help="path to a state file, or - for stdin")
    p_analyze.add_argument("--s-tolerance", type=float,
                           default=DEFAULT_S_TOLERANCE,
                           help="classification threshold on S")

    p_make = sub.add_parser(
        "make-state", help="emit a state file on stdout")
    p_make.add_argument("kind",
                        choices=["coherent", "dicke", "twist", "custom"])
    p_make.add_argument("--n", type=int, required=True,
                        help="number of atoms")
    p_make.add_argument("--theta", type=float,
                        help="polar angle in radians (coherent, twist)")
    p_make.add_argument("--phi", type=float, default=0.0,
                        help="azimuth in radians (coherent, twist)")
    p_make.add_argument("--m", type=float,
                        help="magnetic quantum number (dicke)")
    p_make.add_argument("--mu", type=float,
                        help="twisting angle (twist)")
    p_make.add_argument("--coeffs", nargs="+", metavar="C",
                        help="complex coefficients, index 0 is m=+j, e.g. "
                             "0.5 0.7071 0.5 or 0.5+0.5j (custom)")
    p_make.add_argument("--renormalize", action="store_true",
                        help="rescale custom coefficients to unit norm")

    p_sweep = sub.add_parser(
        "sweep", help="sweep one factory parameter, CSV on stdout or file")
    p_sweep.add_argument("kind", choices=["coherent", "dicke", "twist"],
                        help="swept parameter: theta (coherent), "
                             "m (dicke), mu (twist)")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--theta", type=float, default=math.pi / 2,
                        help="fixed polar angle for twist sweeps")
    p_sweep.add_argument("--phi", type=float, default=0.0,
                        help="fixed azimuth for coherent and twist sweeps")
    p_sweep.add_argument("--output", default="-",
                        help="output path, - for stdout (default)")

    p_oracle = sub.add_parser(
        "oracle-check",
        help="compare the ladder path against the 2**N oracle")
    p_oracle.add_argument("--n", required=True, metavar="A..B",
                          help="atom-count range, e.g. 2..8 or a single "
                               "count")
    p_oracle.add_argument("--trials", type=int, default=100,
                          help="random states per atom count")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--cap", type=int,
                          default=DEFAULT_DIMENSION_CAP,
                          help="2**N dimension cap")
    return parser


def _cmd_analyze(args) -> int:
    if args.state_file == "-":
        text = sys.stdin.read()
    else:
        with open(args.state_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    state = parse_state(text)
    analysis = analyze(state, s_tolerance=args.s_tolerance)
    sys.stdout.write(dump_document(report_document(analysis)))
    if analysis.report.classification is Classification.DEGENERATE_FRAME:
        return 2
    return 0


def _parse_coeffs(tokens: list[str]) -> list[complex]:
    values = []
    for token in tokens:
        try:
            values.append(complex(token))
        except ValueError as exc:
            raise SpinentError(
                f"cannot parse coefficient {token!r}; use forms like 0.5, "
                "-1e-3, or 0.5+0.5j") from exc
    return values


def _make_state(args) -> DickeState:
    """The state of kind args.kind, built from the parsed flags."""
    def require(flag):
        value = getattr(args, flag)
        if value is None:
            raise SpinentError(f"make-state {args.kind} requires --{flag}")
        return value

    if args.kind == "coherent":
        return coherent_state(CoherentSpec(args.n, require("theta"),
                                           args.phi))
    if args.kind == "dicke":
        return dicke_state(args.n, require("m"))
    if args.kind == "twist":
        return twisted_state(
            CoherentSpec(args.n, require("theta"), args.phi), require("mu"))
    return custom_state(args.n, _parse_coeffs(require("coeffs")),
                        renormalize=args.renormalize)


def _cmd_make_state(args) -> int:
    # Factories emit exactly normalized coefficients, so the file never
    # needs its own renormalize flag set.
    sys.stdout.write(dump_document(state_document(_make_state(args))))
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 2:
        raise SpinentError(f"--steps must be at least 2, got {args.steps}")
    # False for a NaN or infinite end, and for a span np.linspace overflows.
    if not math.isfinite(args.stop - args.start):
        raise SpinentError(
            "--start and --stop must be finite, as must their difference, "
            f"got {args.start!r} and {args.stop!r}")
    lines = [CSV_HEADER]
    for value in np.linspace(args.start, args.stop, args.steps).tolist():
        setattr(args, _SWEPT[args.kind], value)
        lines.append(csv_row(value, analyze(_make_state(args))))
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


def _parse_n_range(raw: str) -> tuple[int, int]:
    try:
        if ".." in raw:
            low_text, high_text = raw.split("..", 1)
            low, high = int(low_text), int(high_text)
        else:
            low = high = int(raw)
    except ValueError as exc:
        raise SpinentError(
            f"--n must be a count or a range like 2..8, got {raw!r}"
        ) from exc
    if low < 2 or high < low:
        raise SpinentError(
            f"--n range must satisfy 2 <= A <= B, got {raw!r}")
    return low, high


def _cmd_oracle_check(args) -> int:
    low, high = _parse_n_range(args.n)
    _check_cap(high, args.cap)
    if args.trials < 1:
        raise SpinentError(f"--trials must be positive, got {args.trials}")
    if args.seed < 0:
        raise SpinentError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    groups = (_MOMENT_NAMES, _CORRELATOR_NAMES, ("magnitude",), _METRIC_NAMES)
    deviations = dict.fromkeys(sum(groups, ()), 0.0)
    class_mismatches = 0
    for n in range(low, high + 1):
        for _ in range(args.trials):
            state = random_state(n, rng)
            ladder = analyze(state)
            oracle = oracle_metrics(dicke_to_full(state, cap=args.cap))
            sides = ((ladder.moments, oracle.moments),
                     (_correlators_from_moments(n, ladder.moments),
                      oracle.correlators),
                     (ladder.mean_spin, oracle.mean_spin),
                     (ladder.report, oracle.report))
            for names, (ours, theirs) in zip(groups, sides):
                for name in names:
                    left, right = getattr(ours, name), getattr(theirs, name)
                    # None only in a degenerate report; compared below.
                    if left is None or right is None:
                        continue
                    deviations[name] = max(deviations[name],
                                           abs(left - right))
            if ladder.report.classification \
                    is not oracle.report.classification:
                class_mismatches += 1
    print(f"oracle check: n {low}..{high}, trials {args.trials} per n, "
          f"seed {args.seed}, cap {args.cap}")
    for name, value in deviations.items():
        print(f"  {name:<12s} max deviation {value:.3e}")
    print(f"  classification mismatches: {class_mismatches}")
    ok = (max(deviations.values()) < _ORACLE_TOLERANCE
          and class_mismatches == 0)
    print(f"result: {'PASS' if ok else 'FAIL'} "
          f"(tolerance {_ORACLE_TOLERANCE:.0e})")
    return 0 if ok else 1


_HANDLERS = {
    "analyze": _cmd_analyze,
    "make-state": _cmd_make_state,
    "sweep": _cmd_sweep,
    "oracle-check": _cmd_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (SpinentError, OSError, MemoryError) as exc:
        print(f"spinent: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
