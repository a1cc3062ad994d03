"""Problem instances as portable JSON files.

A ``ProblemSpec`` is one instance: its objective, the start point ``x0``
and, optionally, the generator seed. The objective holds everything else
(the data, ``ell``, ``L`` and, when known, the minimizer), and it is
validated and built once, by ``load_problem`` or by a ``make_*_problem``
factory; callers read ``spec.objective``.

A problem file fully determines an instance. Two kinds exist:

* ``"quadratic"``: fields ``matrix`` (row-major, symmetric positive
  definite) and ``rhs``.
* ``"logistic_ridge"``: fields ``data_matrix`` (rows are label-folded
  samples) and ``ridge``; the declared ``ell`` and ``L`` must match the
  ridge and the data-derived bound.

Common fields: ``kind``, ``dim``, ``x0``, ``ell``, ``L``, plus optional
``x_star`` and ``seed``. Arrays are base64 strings of their little-endian
float64 (``<f8``) bytes, row-major, so a save/load round trip is bit-exact
by construction and repeated saves are byte-identical; a file with JSON
number lists for arrays is refused. Scalars are JSON numbers.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import MissingGroundTruthError
from .generate import SpectrumSpec, generate_with_start
from .objective import (
    LogisticRidgeObjective,
    Objective,
    QuadraticObjective,
    newton_reference_minimizer,
)
from .rng import SplitMix64
from .serialize import render_json

KINDS = ("quadratic", "logistic_ridge")

# A stored minimizer must actually minimize: gradient norm at x_star may
# not exceed this multiple of max(1, gradient norm at x0).
GROUND_TRUTH_TOL = 1e-10


@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance: objective, start point and generator seed."""

    objective: Objective
    x0: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.objective, (QuadraticObjective, LogisticRidgeObjective)):
            raise TypeError(f"no problem kind for {type(self.objective).__name__}")
        x0 = self.objective._check_vector(self.x0, "x0")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 contains non-finite entries")
        object.__setattr__(self, "x0", x0)

    @property
    def kind(self) -> str:
        if isinstance(self.objective, LogisticRidgeObjective):
            return "logistic_ridge"
        return "quadratic"

    def to_json(self) -> str:
        obj = self.objective
        doc = {"kind": self.kind, "dim": obj.dim}
        if self.kind == "quadratic":
            doc["matrix"] = encode_array(obj.matrix)
            doc["rhs"] = encode_array(obj.rhs)
        else:
            doc["data_matrix"] = encode_array(obj.data_matrix)
            doc["ridge"] = obj.ridge
        doc["x0"] = encode_array(self.x0)
        doc["ell"] = obj.ell
        doc["L"] = obj.lip
        if obj.minimizer is not None:
            doc["x_star"] = encode_array(obj.minimizer)
        if self.seed is not None:
            doc["seed"] = int(self.seed)
        return render_json(doc) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def encode_array(arr) -> str:
    """A problem file's array field: base64 of the little-endian float64 bytes, row-major."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _number_field(doc, name, cast):
    value = doc[name]
    kind = "an integer" if cast is int else "a number"
    try:
        # JSON true/false and strings are not numbers, and int() would
        # truncate 1.5. A JSON int is taken as it is: its float rounding
        # differs from it past 2**53.
        if isinstance(value, (bool, str)):
            raise TypeError
        number = cast(value)
        if cast is int and isinstance(value, float) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"problem file field {name!r} is not {kind}: {value!r}") from None


def _array_field(doc, name, dim, ndim=1):
    """A vector of dim floats (ndim=2: whole rows of dim floats) from the file.

    Only the canonical base64 that ``encode_array`` writes is accepted:
    ``b64decode`` alone lets padding past a complete quantum through.
    """
    value = doc[name]
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError):  # not a string, bad alphabet or padding, non-ASCII
        raw = None
    if raw is None or base64.b64encode(raw).decode("ascii") != value:
        raise ValueError(f"problem file field {name!r} must be base64 <f8 data "
                         "(little-endian float64 bytes); regenerate the file")
    rows, rest = divmod(len(raw), 8 * dim)
    if rest or not rows or (ndim == 1 and rows != 1):
        want = f"{dim} float64 values" if ndim == 1 else f"whole rows of {dim} float64 values"
        raise ValueError(f"{name} must hold {want}, got {len(raw)} bytes")
    arr = np.frombuffer(raw, "<f8").astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr if ndim == 1 else arr.reshape(rows, dim)


def load_problem(path) -> ProblemSpec:
    """Read a problem JSON file and build its validated objective."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("problem file is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("problem file must contain a JSON object")
    try:
        kind = doc["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        dim = _number_field(doc, "dim", int)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        ell = _number_field(doc, "ell", float)
        lip = _number_field(doc, "L", float)
        if kind == "quadratic":
            matrix = _array_field(doc, "matrix", dim, ndim=2)
            obj = QuadraticObjective(matrix, _array_field(doc, "rhs", dim), ell, lip)
        else:
            data = _array_field(doc, "data_matrix", dim, ndim=2)
            obj = LogisticRidgeObjective(data, _number_field(doc, "ridge", float))
        x0 = _array_field(doc, "x0", dim)
    except KeyError as exc:
        raise ValueError(f"problem file missing field {exc.args[0]!r}") from None
    if kind == "logistic_ridge":
        for name, declared, derived in (("ell", ell, obj.ell), ("L", lip, obj.lip)):
            if not np.isclose(derived, declared, rtol=1e-6):
                raise ValueError(
                    f"declared {name}={declared} disagrees with data-derived bound {derived}"
                )
    seed = None if doc.get("seed") is None else _number_field(doc, "seed", int)
    spec = ProblemSpec(obj, x0, seed)
    # A finite x0 can still be too far out for the solvers: a gradient or
    # gap that overflows would only surface later as nan cells or a false
    # divergence. Overflow is the verdict here, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        g_zero = float(np.linalg.norm(obj.grad(spec.x0)))
        if not np.isfinite(g_zero):
            raise ValueError(f"x0 is too large: |grad f(x0)| = {g_zero:g} is not finite")
        if doc.get("x_star") is None:
            return spec
        # Fail fast on a bogus stored minimizer rather than at certify time.
        x_star = _array_field(doc, "x_star", dim)
        g_star = float(np.linalg.norm(obj.grad(x_star)))
        if not g_star <= GROUND_TRUTH_TOL * max(1.0, g_zero):
            raise MissingGroundTruthError(
                f"stored x_star is not a minimizer: |grad| = {g_star:g} "
                f"exceeds {GROUND_TRUTH_TOL:g} * max(1, {g_zero:g})"
            )
        obj = obj.with_minimizer(x_star)
        gap_zero = obj.f_gap(spec.x0)
        if not np.isfinite(gap_zero):
            raise ValueError(f"x0 is too large: f(x0) - f* = {gap_zero:g} is not finite")
    return replace(spec, objective=obj)


def make_quadratic_problem(spectrum: SpectrumSpec) -> ProblemSpec:
    """Deterministic quadratic instance with its exact minimizer attached."""
    obj, _, x0 = generate_with_start(spectrum)
    return ProblemSpec(obj, x0, spectrum.seed)


def make_logistic_problem(
    dim: int, n_samples: int, ridge: float, seed: int = 0
) -> ProblemSpec:
    """Random label-folded logistic-ridge instance with a Newton minimizer.

    Stream layout: one SplitMix64 stream seeded with ``seed`` emits the
    data matrix row by row (standard gaussian entries), then the start
    point. Raw rows keep the data curvature well above the ridge, so the
    instances are genuinely ill-conditioned rather than ridge-dominated.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    stream = SplitMix64(seed)
    data = stream.gaussian_vector(n_samples * dim).reshape(n_samples, dim)
    x0 = stream.gaussian_vector(dim)
    obj = LogisticRidgeObjective(data, ridge)
    x_star = newton_reference_minimizer(obj, x0)
    return ProblemSpec(obj.with_minimizer(x_star), x0, seed)
