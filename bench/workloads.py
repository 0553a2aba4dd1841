"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload builds its inputs one cycle at a time from a numpy Generator.
A cycle holds a fixed list of templates (size, kind, command shape); the seed
picks only the continuous parameters and the order.  Every cycle therefore
costs about the same whatever the seed, and the call percentiles fall inside
fixed classes of the mix rather than on the boundary between two of them.

An item's `run` is the timed call.  Its `check` runs after the whole cycle
has been timed, so that checking does not disturb the timed calls: it raises
WrongOutput when the program returned a wrong result, and returns the number
of CSV rows it read back (sweeps only).  Files the checks read are named per
slot of the cycle, so a later call of the same cycle cannot overwrite them.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import spinent.cli as cli
import spinent.dicke as dicke
import spinent.metrics as metrics
import spinent.oracle as oracle

# Oracle agreement, as in `spinent oracle-check`.
ORACLE_TOLERANCE = 1e-9
# Relative tolerance of the closed forms.
CLOSED_FORM_TOLERANCE = 1e-9
# Largest N whose analyses are checked against the 2**N oracle.
ORACLE_MAX_N = 12

REPORT_FIELDS = ("var_xp", "var_yp", "corr_x", "corr_y", "s_param",
                 "q_x", "q_y", "xi_rx", "xi_ry")


class WrongOutput(Exception):
    """The program returned a result that fails the benchmark's check."""


# The program's known defects, as (exception type, text of its message).  An
# item that may hit one names it; the loop counts the item as failed when it
# raises exactly that.  Any other exception, or one of these raised by an item
# that does not name it, is a wrong output.
RESIDUE_ASSERT = (AssertionError, "imaginary residue")
FACTORY_OVERFLOW = (OverflowError, "int too large to convert to float")


@dataclass
class Item:
    run: Callable[[], object]
    check: Callable[[object], int | None]
    weight: int = 1          # items this call stands for (states, commands)
    sweep: bool = False      # a `sweep` command (for rows per second)
    known_defect: tuple[type[BaseException], str] | None = None

    def is_known_defect(self, exc: BaseException) -> bool:
        return self.known_defect is not None and isinstance(
            exc, self.known_defect[0]) and self.known_defect[1] in str(exc)


# --- inputs ---------------------------------------------------------------

def m_values(n: int) -> np.ndarray:
    return n / 2.0 - np.arange(n + 1)


def coherent_amplitudes(n: int, theta: float, phi: float) -> np.ndarray:
    """Binomial amplitudes in log space; finite for every N."""
    k = np.arange(1, n + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(n - k + 1)
                                                 - np.log(k))))
    k = np.arange(n + 1)
    log_amp = (0.5 * log_binom + (n - k) * math.log(math.cos(theta / 2))
               + k * math.log(math.sin(theta / 2)))
    return np.exp(log_amp) * np.exp(1j * phi * k)


def twisted_amplitudes(n: int, theta: float, phi: float,
                       mu: float) -> np.ndarray:
    m = m_values(n)
    return coherent_amplitudes(n, theta, phi) * np.exp(-1j * mu * m * m)


def random_amplitudes(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return raw / np.linalg.norm(raw)


def _angles(rng: np.random.Generator) -> tuple[float, float]:
    # Away from the poles, so that log(cos) and log(sin) stay finite.
    return float(rng.uniform(0.2, math.pi - 0.2)), float(
        rng.uniform(0.0, 2.0 * math.pi))


def state_input(kind: str, n: int, rng: np.random.Generator):
    """(coefficients, closed-form facts) for one analyze-* input."""
    if kind == "random":
        return random_amplitudes(n, rng), {}
    if kind == "dicke":
        k = int(rng.integers(0, n + 1))
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[k] = 1.0
        return coeffs, {"m": n / 2.0 - k}
    theta, phi = _angles(rng)
    if kind == "coherent":
        return coherent_amplitudes(n, theta, phi), {}
    return twisted_amplitudes(n, theta, phi,
                              float(rng.uniform(0.01, 0.5))), {}


# --- closed forms ---------------------------------------------------------

def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= CLOSED_FORM_TOLERANCE * max(
        1.0, abs(expected))


def check_closed_form(kind: str, n: int, facts: dict, report: dict,
                      magnitude: float | None):
    """Closed-form check of one report given as a dict of its fields."""
    cls = report["classification"]
    if kind == "coherent":
        if cls != "unentangled" or not (_close(report["q_x"], 1.0)
                                        and _close(report["q_y"], 1.0)):
            raise WrongOutput(f"coherent N={n}: {cls}, Q=({report['q_x']}, "
                              f"{report['q_y']}), want unentangled and Q=1")
    elif kind == "dicke":
        m = facts["m"]
        if m == 0:
            if cls != "degenerate-frame":
                raise WrongOutput(f"Dicke N={n} m=0: {cls}")
            return
        j = n / 2.0
        want = (j * (j + 1) - m * m) / 2.0
        if not (_close(report["var_xp"], want)
                and _close(report["var_yp"], want)):
            raise WrongOutput(
                f"Dicke N={n} m={m}: variances ({report['var_xp']}, "
                f"{report['var_yp']}), want {want}")
    else:
        bound = magnitude * magnitude / 4.0
        product = report["var_xp"] * report["var_yp"]
        if product < bound * (1.0 - CLOSED_FORM_TOLERANCE):
            raise WrongOutput(f"{kind} N={n}: var_xp*var_yp={product} "
                              f"below |<J>|^2/4={bound}")


def _report_fields(report) -> dict:
    fields = {name: getattr(report, name) for name in REPORT_FIELDS}
    fields["classification"] = report.classification.value
    return fields


# --- analyze-small and analyze-large --------------------------------------

def _analyze_item(kind: str, n: int, rng: np.random.Generator) -> Item:
    coeffs, facts = state_input(kind, n, rng)

    def run():
        # Both names are looked up per call so that the traced run's
        # wrappers apply.
        return metrics.analyze(dicke.DickeState(n, coeffs))

    def check(analysis):
        report = _report_fields(analysis.report)
        if n <= ORACLE_MAX_N:
            reference = oracle.oracle_metrics(
                oracle.dicke_to_full(dicke.DickeState(n, coeffs)))
            want = _report_fields(reference.report)
            for name, value in report.items():
                other = want[name]
                if isinstance(value, float) and isinstance(other, float):
                    agree = abs(value - other) < ORACLE_TOLERANCE
                else:
                    agree = value == other
                if not agree:
                    raise WrongOutput(f"{kind} N={n}: {name}={value!r}, "
                                      f"oracle {other!r}")
        else:
            check_closed_form(kind, n, facts, report,
                              analysis.mean_spin.magnitude)

    # At N=1e4 the absolute 1e-10 residue assert in collective_moments
    # fails on about half of the inputs.
    return Item(run, check,
                known_defect=RESIDUE_ASSERT if n >= 10000 else None)


KINDS = ("random", "coherent", "twist", "dicke")


def _shuffled(items: list, rng: np.random.Generator) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def analyze_small_cycle(rng: np.random.Generator, workdir: str) -> list[Item]:
    # Every (N, kind) 20 times: 240 calls of near-equal cost, ~0.2 ms each.
    # A long cycle keeps the calls that follow a round of checks, and so
    # start with cold caches, well below 1 % of the calls.
    return _shuffled([_analyze_item(kind, n, rng) for _ in range(20)
                      for n in (2, 10, 100) for kind in KINDS], rng)


def analyze_large_cycle(rng: np.random.Generator, workdir: str) -> list[Item]:
    # 96 calls at N=1e3 and 4 at N=1e4: p50 and p90 fall inside the 1e3
    # class, p99 three quarters up the 1e4 class.  There about half the
    # calls fail early (see NOTES.md), so p99 sits among the successful
    # N=1e4 calls, not on the edge between failing and successful ones.
    plan = [(1000, kind) for kind in KINDS for _ in range(24)]
    plan += [(10000, kind) for kind in KINDS]
    return _shuffled([_analyze_item(kind, n, rng) for n, kind in plan], rng)


# --- cli ------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """spinent.cli.main in process, stdout captured; stderr discarded."""
    out = _io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(_io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_cli_to_file(argv: list[str], path: str) -> tuple[int, str]:
    """As `spinent ... > path`; returns the exit code and the file's name."""
    with open(path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(_io.StringIO()):
        code = cli.main(argv)
    return code, path


def _require_exit_zero(argv: list[str], code: int):
    if code != 0:
        raise WrongOutput(f"`spinent {' '.join(argv)}` exited {code}")


def _num(value: float) -> str:
    return repr(float(value))


def _csv_check(kind: str, n: int, values: np.ndarray, path: str) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(values):
        raise WrongOutput(f"sweep {kind} N={n}: {len(rows)} rows, "
                          f"want {len(values)}")
    for row, value in zip(rows, values):
        if float(row["parameter"]) != float(value):
            raise WrongOutput(f"sweep {kind}: parameter {row['parameter']}, "
                              f"want {value!r}")
        report = {name: float(row[name]) for name in REPORT_FIELDS}
        report["classification"] = row["classification"]
        magnitude = None
        if kind == "twist":
            # |<J>| = j * Q_x / xi_Rx, from the row itself.
            magnitude = n / 2.0 * report["q_x"] / report["xi_rx"]
        facts = {"m": float(value)} if kind == "dicke" else {}
        check_closed_form(kind, n, facts, report, magnitude)
    return len(rows)


def _sweep_item(kind: str, n: int, steps: int, rng: np.random.Generator,
                path: str) -> Item:
    if kind == "dicke":
        # Grid points must be valid m values (N is even, so integers); the
        # sweep may pass through m = 0, whose row is degenerate-frame.
        spacing = int(rng.integers(1, 3))
        span = spacing * (steps - 1)
        start = n // 2 - int(rng.integers(0, n - span + 1))
        stop = start - span
        extra = []
    elif kind == "coherent":
        start, stop = sorted(rng.uniform(0.2, math.pi - 0.2, size=2))
        extra = ["--phi", _num(rng.uniform(0.0, 2.0 * math.pi))]
    else:
        start, stop = 0.0, float(rng.uniform(0.05, 0.5))
        extra = ["--theta", _num(rng.uniform(0.2, math.pi - 0.2)),
                 "--phi", _num(rng.uniform(0.0, 2.0 * math.pi))]
    argv = (["sweep", kind, "--n", str(n), "--start", _num(start),
             "--stop", _num(stop), "--steps", str(steps)] + extra
            + ["--output", path])
    values = np.linspace(start, stop, steps)

    def check(result) -> int:
        _require_exit_zero(argv, result[0])
        return _csv_check(kind, n, values, path)

    return Item(lambda: run_cli(argv), check, sweep=True,
                known_defect=_factory_defect(kind, n))


def _factory_defect(kind: str, n: int):
    """The exact-binomial factories overflow a float from N=1030 on."""
    return FACTORY_OVERFLOW if kind != "dicke" and n >= 1030 else None


def _state_pair(kind: str, n: int, rng: np.random.Generator, path: str,
                with_analyze: bool = True) -> list[Item]:
    """make-state to a file, then (optionally) analyze of that file."""
    if kind == "dicke":
        k = int(rng.integers(0, n))
        k += k == n // 2        # m = 0 has no frame: analyze would exit 2
        m = n / 2.0 - k
        argv = ["make-state", "dicke", "--n", str(n), "--m", _num(m)]
        want = np.zeros(n + 1, dtype=complex)
        want[k] = 1.0
        facts = {"m": m}
    else:
        theta, phi = _angles(rng)
        argv = ["make-state", kind, "--n", str(n), "--theta", _num(theta),
                "--phi", _num(phi)]
        if kind == "twist":
            mu = float(rng.uniform(0.01, 0.5))
            argv += ["--mu", _num(mu)]
            want = twisted_amplitudes(n, theta, phi, mu)
        else:
            want = coherent_amplitudes(n, theta, phi)
        facts = {}

    def check_state(result):
        _require_exit_zero(argv, result[0])
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        coeffs = np.array([complex(re, im) for re, im in doc["coefficients"]])
        if doc["n"] != n or coeffs.shape != want.shape or np.max(
                np.abs(coeffs - want)) > CLOSED_FORM_TOLERANCE:
            raise WrongOutput(f"make-state {kind} N={n}: coefficients differ "
                              "from the closed form")

    items = [Item(lambda: run_cli_to_file(argv, path), check_state,
                  known_defect=_factory_defect(kind, n))]
    if with_analyze:
        analyze_argv = ["analyze", path]

        def check_report(result):
            code, text = result
            _require_exit_zero(analyze_argv, code)
            doc = json.loads(text)
            report = dict(doc["metrics"],
                          classification=doc["classification"])
            check_closed_form(kind, n, facts, report,
                              doc["mean_spin"]["magnitude"])

        items.append(Item(lambda: run_cli(analyze_argv), check_report))
    return items


def cli_cycle(rng: np.random.Generator, workdir: str) -> list[Item]:
    """60 commands, ~0.9 s, in three cost classes.

    The top four (~150 ms: the N=2000 coherent/twist commands, which raise
    OverflowError today, and two 5-step N=1000 coherent/twist sweeps) hold
    p99.  The next four, N=1000 coherent/twist make-state (~35 ms, one
    factory call each), hold p90 in the middle of their band.  The other 52
    take 1-15 ms and hold the median.  Each analyze directly follows the
    make-state that wrote its file.
    """
    slot = iter(range(100))

    def path(suffix: str) -> str:
        return os.path.join(workdir, f"cli-{next(slot)}.{suffix}")

    units: list[list[Item]] = [
        _state_pair("coherent", 2000, rng, path("json"), with_analyze=False),
        [_sweep_item("twist", 2000, 3, rng, path("csv"))],
        [_sweep_item("coherent", 1000, 5, rng, path("csv"))],
        [_sweep_item("twist", 1000, 5, rng, path("csv"))],
    ]
    for kind in ("coherent", "twist"):
        units += [_state_pair(kind, 1000, rng, path("json"))
                  for _ in range(2)]
    units += [_state_pair("dicke", 2000, rng, path("json")),
              _state_pair("dicke", 1000, rng, path("json")),
              [_sweep_item("dicke", 2000, 4, rng, path("csv"))],
              [_sweep_item("dicke", 1000, 4, rng, path("csv"))],
              [_sweep_item("dicke", 1000, 8, rng, path("csv"))]]
    for _ in range(4):
        for kind in ("coherent", "twist", "dicke"):
            units.append(_state_pair(kind, 100, rng, path("json")))
            units.append([_sweep_item(kind, 100, 4, rng, path("csv"))])
    units += [_state_pair("dicke", 100, rng, path("json")),
              [_sweep_item("dicke", 100, 8, rng, path("csv"))],
              [_sweep_item("twist", 100, 6, rng, path("csv"))],
              [_sweep_item("coherent", 100, 6, rng, path("csv"))]]
    return [item for unit in _shuffled(units, rng) for item in unit]


# --- oracle-check -----------------------------------------------------------

# (low N, high N, trials); per state ~1.7 ms at N=8 up to ~21 ms at N=14.
# Two 78 ms invocations hold p99 and four 31 ms ones hold p90 in the middle
# of their band; the other 34 take 4-15 ms and hold the median.
ORACLE_PLAN = (
    [(8, 14, 2)] * 2 + [(13, 14, 1)] * 4
    + [(8, 8, 3), (9, 9, 3), (10, 10, 3), (11, 11, 2), (12, 12, 2),
       (13, 13, 1), (8, 10, 2), (9, 11, 1), (10, 12, 1), (11, 12, 1),
       (8, 9, 2), (10, 11, 2), (12, 13, 1), (8, 12, 1), (9, 10, 3),
       (8, 11, 1), (12, 12, 1)] * 2)


def _oracle_item(low: int, high: int, trials: int,
                 rng: np.random.Generator) -> Item:
    argv = ["oracle-check", "--n", f"{low}..{high}", "--trials", str(trials),
            "--seed", str(int(rng.integers(0, 2**31)))]

    def check(result):
        code, text = result
        if code != 0 or "result: PASS" not in text:
            raise WrongOutput(f"`spinent {' '.join(argv)}` exited {code}: "
                              f"{text.strip().splitlines()[-1:]}")

    return Item(lambda: run_cli(argv), check,
                weight=(high - low + 1) * trials)


def oracle_check_cycle(rng: np.random.Generator,
                       workdir: str) -> list[Item]:
    return _shuffled([_oracle_item(low, high, trials, rng)
                      for low, high, trials in ORACLE_PLAN], rng)


# --- warm-up ----------------------------------------------------------------

def _analyze_warmup(sizes):
    def warmup(rng, workdir):
        return [_analyze_item(kind, n, rng) for n in sizes for kind in KINDS]
    return warmup


def _cli_warmup(rng, workdir):
    items = []
    for kind in ("coherent", "twist", "dicke"):
        items += _state_pair(kind, 100, rng,
                             os.path.join(workdir, f"warm-{kind}.json"))
        items.append(_sweep_item(kind, 100, 2, rng,
                                 os.path.join(workdir, f"warm-{kind}.csv")))
    return items


def _oracle_warmup(rng, workdir):
    # One state per N fills the per-N _hamming_weights cache.
    return [_oracle_item(8, 14, 1, rng)]


@dataclass(frozen=True)
class Workload:
    cycle: Callable[[np.random.Generator, str], list[Item]]
    warmup: Callable[[np.random.Generator, str], list[Item]]
    # Cycles in one pass over the run's inputs: about 8 s with their checks
    # on a 2-vCPU host, so that a 25 s run makes about three passes.
    pool: int


WORKLOADS = {
    "analyze-small": Workload(analyze_small_cycle,
                              _analyze_warmup((2, 10, 100)), pool=40),
    "analyze-large": Workload(analyze_large_cycle,
                              _analyze_warmup((1000, 10000)), pool=120),
    "cli": Workload(cli_cycle, _cli_warmup, pool=8),
    "oracle-check": Workload(oracle_check_cycle, _oracle_warmup, pool=14),
}
