"""Problem instances as portable JSON files.

A problem file fully determines an optimization instance: the objective
data, the strong-convexity and smoothness constants, the start point, and
(optionally) the minimizer and the generator seed.  Two kinds exist:

* ``"quadratic"``: fields ``matrix`` (row-major, symmetric positive
  definite) and ``rhs``.
* ``"logistic_ridge"``: fields ``data_matrix`` (rows are label-folded
  samples) and ``ridge``.

Common fields: ``kind``, ``dim``, ``x0``, ``ell``, ``L``, plus optional
``x_star`` and ``seed``.  All floats are written with 17 significant
digits, so a save/load round trip is bit-exact and repeated saves are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MissingGroundTruthError
from .generate import GroundTruth, SpectrumSpec, generate_with_start
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


def _as_vector(value, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ProblemSpec:
    """Validated, serializable description of one problem instance."""

    kind: str
    dim: int
    x0: np.ndarray
    ell: float
    lip: float
    matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    data_matrix: np.ndarray | None = None
    ridge: float | None = None
    x_star: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0.0 < self.ell <= self.lip):
            raise ValueError("need 0 < ell <= L")
        object.__setattr__(self, "x0", _as_vector(self.x0, self.dim, "x0"))
        if self.kind == "quadratic":
            if self.matrix is None or self.rhs is None:
                raise ValueError("quadratic problems need matrix and rhs")
            mat = np.asarray(self.matrix, dtype=float)
            if mat.shape != (self.dim, self.dim):
                raise ValueError(
                    f"matrix must have shape ({self.dim}, {self.dim}), got {mat.shape}"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError("matrix contains non-finite entries")
            object.__setattr__(self, "matrix", mat)
            object.__setattr__(self, "rhs", _as_vector(self.rhs, self.dim, "rhs"))
        else:
            if self.data_matrix is None or self.ridge is None:
                raise ValueError("logistic_ridge problems need data_matrix and ridge")
            data = np.asarray(self.data_matrix, dtype=float)
            if data.ndim != 2 or data.shape[1] != self.dim:
                raise ValueError(
                    f"data_matrix must have {self.dim} columns, got shape {data.shape}"
                )
            if not np.all(np.isfinite(data)):
                raise ValueError("data_matrix contains non-finite entries")
            if not self.ridge > 0.0:
                raise ValueError("ridge must be positive")
            object.__setattr__(self, "data_matrix", data)
            object.__setattr__(self, "ridge", float(self.ridge))
        if self.x_star is not None:
            object.__setattr__(
                self, "x_star", _as_vector(self.x_star, self.dim, "x_star")
            )

    def objective(self) -> Objective:
        """Build the objective, with the minimizer attached when stored."""
        if self.kind == "quadratic":
            obj = QuadraticObjective(self.matrix, self.rhs, self.ell, self.lip)
        else:
            obj = LogisticRidgeObjective(self.data_matrix, self.ridge)
            if not np.isclose(obj.lip, self.lip, rtol=1e-6):
                raise ValueError(
                    f"declared L={self.lip} disagrees with data-derived bound {obj.lip}"
                )
        if self.x_star is None:
            return obj
        g_star = float(np.linalg.norm(obj.grad(self.x_star)))
        g_zero = float(np.linalg.norm(obj.grad(self.x0)))
        if g_star > GROUND_TRUTH_TOL * max(1.0, g_zero):
            raise MissingGroundTruthError(
                f"stored x_star is not a minimizer: |grad| = {g_star:g} "
                f"exceeds {GROUND_TRUTH_TOL:g} * max(1, {g_zero:g})"
            )
        return obj.with_minimizer(self.x_star, float(obj.value(self.x_star)))

    def ground_truth(self) -> GroundTruth:
        """Stored minimizer as a GroundTruth record; raises when absent."""
        if self.x_star is None:
            raise MissingGroundTruthError("problem has no stored x_star")
        obj = self.objective()
        return GroundTruth(
            x_star=self.x_star,
            f_star=float(obj.value(self.x_star)),
            lambda_min=self.ell,
            lambda_max=self.lip,
        )

    def to_json(self) -> str:
        doc = {"kind": self.kind, "dim": self.dim}
        if self.kind == "quadratic":
            doc["matrix"] = self.matrix
            doc["rhs"] = self.rhs
        else:
            doc["data_matrix"] = self.data_matrix
            doc["ridge"] = self.ridge
        doc["x0"] = self.x0
        doc["ell"] = self.ell
        doc["L"] = self.lip
        if self.x_star is not None:
            doc["x_star"] = self.x_star
        if self.seed is not None:
            doc["seed"] = int(self.seed)
        return render_json(doc) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _number_field(doc, name, cast):
    value = doc[name]
    kind = "an integer" if cast is int else "a number"
    try:
        # JSON true/false and strings are not numbers, and int() would
        # truncate 1.5.
        if isinstance(value, (bool, str)):
            raise TypeError
        number = cast(value)
        if cast is int and number != float(value):
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"problem file field {name!r} is not {kind}: {value!r}") from None


def _array_field(value, name):
    """A float array read from the file (None passes through).

    Every cell must be a JSON number: strings, booleans (also mixed in
    among numbers), nulls and ragged nesting are rejected rather than cast
    to float.
    """
    if value is None:
        return None
    try:
        cells = np.array(value, dtype=object)
        if set(map(type, cells.flat)) <= {int, float}:
            return cells.astype(float)
    except (ValueError, OverflowError):  # ragged nesting, integers beyond float
        pass
    raise ValueError(f"problem file field {name!r} is not a numeric array")


def load_problem(path) -> ProblemSpec:
    """Read and validate a problem JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("problem file must contain a JSON object")
    try:
        kind = doc["kind"]
        dim = _number_field(doc, "dim", int)
        x0 = _array_field(doc["x0"], "x0")
        ell = _number_field(doc, "ell", float)
        lip = _number_field(doc, "L", float)
    except KeyError as exc:
        raise ValueError(f"problem file missing field {exc.args[0]!r}") from None
    spec = ProblemSpec(
        kind=kind,
        dim=dim,
        x0=x0,
        ell=ell,
        lip=lip,
        matrix=_array_field(doc.get("matrix"), "matrix"),
        rhs=_array_field(doc.get("rhs"), "rhs"),
        data_matrix=_array_field(doc.get("data_matrix"), "data_matrix"),
        ridge=None if doc.get("ridge") is None else _number_field(doc, "ridge", float),
        x_star=_array_field(doc.get("x_star"), "x_star"),
        seed=doc.get("seed"),
    )
    # Fail fast on a bogus stored minimizer rather than at certify time.
    if spec.x_star is not None:
        spec.objective()
    return spec


def make_quadratic_problem(spectrum: SpectrumSpec) -> ProblemSpec:
    """Deterministic quadratic instance with its exact minimizer stored."""
    obj, truth, x0 = generate_with_start(spectrum)
    return ProblemSpec(
        kind="quadratic",
        dim=spectrum.dim,
        x0=x0,
        ell=spectrum.ell,
        lip=spectrum.lip,
        matrix=obj.matrix,
        rhs=obj.rhs,
        x_star=truth.x_star,
        seed=spectrum.seed,
    )


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
    return ProblemSpec(
        kind="logistic_ridge",
        dim=dim,
        x0=x0,
        ell=obj.ell,
        lip=obj.lip,
        data_matrix=data,
        ridge=ridge,
        x_star=x_star,
        seed=seed,
    )
