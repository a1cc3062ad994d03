"""Problem file schema, validation, and round trips."""

import base64
import json

import numpy as np
import pytest

from gradcert.errors import MissingGroundTruthError
from gradcert.generate import SpectrumSpec, generate_with_start
from gradcert.objective import LogisticRidgeObjective, QuadraticObjective
from gradcert.problems import (
    GROUND_TRUTH_TOL,
    ProblemSpec,
    _array_field,
    encode_array,
    load_problem,
    make_logistic_problem,
    make_quadratic_problem,
)


@pytest.fixture(scope="module")
def quad_spec():
    return make_quadratic_problem(
        SpectrumSpec(dim=7, ell=1.0, lip=40.0, layout="log_uniform", seed=5)
    )


@pytest.fixture(scope="module")
def logistic_spec():
    return make_logistic_problem(6, 30, 0.1, seed=2)


def test_round_trip_is_byte_identical(tmp_path, quad_spec):
    path = tmp_path / "p.json"
    quad_spec.save(path)
    reloaded = load_problem(path)
    path2 = tmp_path / "p2.json"
    reloaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()
    for got, want in [
        (reloaded.objective.matrix, quad_spec.objective.matrix),
        (reloaded.objective.rhs, quad_spec.objective.rhs),
        (reloaded.x0, quad_spec.x0),
        (reloaded.objective.minimizer, quad_spec.objective.minimizer),
    ]:
        assert got.tobytes() == want.tobytes()


def test_json_key_order_quadratic(quad_spec):
    doc = json.loads(quad_spec.to_json())
    assert list(doc) == ["kind", "dim", "matrix", "rhs", "x0", "ell", "L", "x_star", "seed"]
    assert doc["kind"] == "quadratic"
    assert doc["dim"] == 7


def test_json_key_order_logistic(logistic_spec):
    doc = json.loads(logistic_spec.to_json())
    assert list(doc) == [
        "kind", "dim", "data_matrix", "ridge", "x0", "ell", "L", "x_star", "seed",
    ]


EXTREMES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308]


def test_array_bytes_survive_and_saves_repeat(tmp_path, quad_spec):
    # signed zero, the smallest subnormal and normal, and both ends of float64
    matrix = np.eye(5)
    matrix[0, 1] = matrix[1, 0] = 5e-324
    matrix[2, 3] = matrix[3, 2] = -0.0
    extreme = QuadraticObjective(matrix, EXTREMES, 1.0, 1.0).with_minimizer(EXTREMES[::-1])
    for spec in (quad_spec, ProblemSpec(extreme, EXTREMES)):
        doc = json.loads(spec.to_json())
        obj, dim = spec.objective, spec.objective.dim
        assert _array_field(doc, "matrix", dim, ndim=2).tobytes() == obj.matrix.tobytes()
        for name, want in [("rhs", obj.rhs), ("x0", spec.x0), ("x_star", obj.minimizer)]:
            # the documented recipe reads the same bytes as the loader
            assert np.frombuffer(base64.b64decode(doc[name]), "<f8").tobytes() == want.tobytes()
            assert _array_field(doc, name, dim).tobytes() == want.tobytes()
        spec.save(tmp_path / "a.json")
        spec.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _bare(spec):
    """spec's quadratic without its minimizer, as its own ProblemSpec."""
    obj = spec.objective
    return ProblemSpec(QuadraticObjective(obj.matrix, obj.rhs, obj.ell, obj.lip), spec.x0)


def test_optional_fields_stay_optional(tmp_path, quad_spec):
    bare = _bare(quad_spec)
    doc = json.loads(bare.to_json())
    assert "x_star" not in doc and "seed" not in doc
    path = tmp_path / "bare.json"
    bare.save(path)
    loaded = load_problem(path)
    assert loaded.objective.minimizer is None and loaded.seed is None
    with pytest.raises(MissingGroundTruthError):
        loaded.objective.f_gap(loaded.x0)


def test_objective_attaches_minimizer(tmp_path, quad_spec):
    obj = quad_spec.objective
    assert obj.minimizer is not None
    # the generator's exact spectrum endpoints and reference solve, bit for bit
    _, x_star, _ = generate_with_start(SpectrumSpec(7, 1.0, 40.0, "log_uniform", 5))
    assert (obj.ell, obj.lip) == (1.0, 40.0)
    assert np.array_equal(obj.minimizer, x_star)
    # a load attaches the stored x_star bit for bit
    path = tmp_path / "p.json"
    quad_spec.save(path)
    loaded = load_problem(path).objective
    assert np.array_equal(loaded.minimizer, obj.minimizer)


def test_load_rejects_missing_field(tmp_path, quad_spec):
    doc = json.loads(quad_spec.to_json())
    del doc["ell"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="ell"):
        load_problem(path)


def test_load_rejects_bad_kind(tmp_path, quad_spec):
    doc = json.loads(quad_spec.to_json())
    doc["kind"] = "cubic"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="kind"):
        load_problem(path)


def test_load_rejects_dim_mismatch(tmp_path, quad_spec):
    doc = json.loads(quad_spec.to_json())
    doc["x0"] = encode_array(quad_spec.x0[:-1])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="x0"):
        load_problem(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="object"):
        load_problem(path)


def test_load_rejects_corrupt_minimizer(tmp_path, quad_spec):
    doc = json.loads(quad_spec.to_json())
    doc["x_star"] = encode_array(quad_spec.objective.minimizer + 0.1)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MissingGroundTruthError):
        load_problem(path)


def test_stored_minimizer_gate_is_relative(tmp_path, quad_spec):
    # a perturbation below the gate must still load
    obj = quad_spec.objective
    g0 = np.linalg.norm(obj.grad(quad_spec.x0))
    tiny = obj.minimizer + 1e-14 * max(1.0, g0)
    doc = json.loads(quad_spec.to_json())
    doc["x_star"] = encode_array(tiny)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    assert np.array_equal(load_problem(path).objective.minimizer, tiny)
    assert GROUND_TRUTH_TOL == 1e-10


def test_constructor_validation(tmp_path):
    # dim >= 1 and 0 < ell <= L are the objective's checks; x0 is the spec's
    with pytest.raises(ValueError):
        QuadraticObjective(np.zeros((0, 0)), [], 1.0, 2.0)
    with pytest.raises(ValueError):
        QuadraticObjective(np.eye(2), np.zeros(2), 2.0, 1.0)
    obj = QuadraticObjective(np.eye(2), np.zeros(2), 1.0, 2.0)
    with pytest.raises(ValueError, match="x0"):
        ProblemSpec(obj, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="x0"):
        ProblemSpec(obj, [0.0, np.nan])
    with pytest.raises(TypeError):
        ProblemSpec(None, [0.0, 0.0])
    # a quadratic file without its payload is missing a field
    path = tmp_path / "nomatrix.json"
    x0 = encode_array([0.0, 0.0])
    path.write_text(json.dumps({"kind": "quadratic", "dim": 2, "x0": x0, "ell": 1, "L": 2}))
    with pytest.raises(ValueError, match="matrix"):
        load_problem(path)


def test_logistic_round_trip(tmp_path, logistic_spec):
    path = tmp_path / "log.json"
    logistic_spec.save(path)
    reloaded = load_problem(path)
    obj = reloaded.objective
    assert isinstance(obj, LogisticRidgeObjective) and reloaded.kind == "logistic_ridge"
    assert obj.minimizer is not None
    assert np.linalg.norm(obj.grad(obj.minimizer)) <= GROUND_TRUTH_TOL
    assert reloaded.to_json() == logistic_spec.to_json()
    assert obj.data_matrix.tobytes() == logistic_spec.objective.data_matrix.tobytes()
    assert obj.minimizer.tobytes() == logistic_spec.objective.minimizer.tobytes()
    assert reloaded.x0.tobytes() == logistic_spec.x0.tobytes()


def test_logistic_declared_lip_must_match(tmp_path, logistic_spec):
    doc = json.loads(logistic_spec.to_json())
    doc["L"] = doc["L"] * 2.0
    del doc["x_star"]  # isolate: the L check fires without a minimizer too
    path = tmp_path / "log.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="declared L"):
        load_problem(path)


def test_logistic_generator_is_deterministic():
    a = make_logistic_problem(5, 12, 0.2, seed=7)
    b = make_logistic_problem(5, 12, 0.2, seed=7)
    c = make_logistic_problem(5, 12, 0.2, seed=8)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()
    assert a.objective.ell == pytest.approx(0.2)


def test_quadratic_factory_records_seed(quad_spec):
    assert quad_spec.seed == 5
    assert quad_spec.kind == "quadratic"
    # stored spectrum bounds are the generator's exact targets
    obj = quad_spec.objective
    eigs = np.linalg.eigvalsh(obj.matrix)
    assert eigs[0] == pytest.approx(obj.ell, rel=1e-12)
    assert eigs[-1] == pytest.approx(obj.lip, rel=1e-12)


def _load_edited(tmp_path, spec, **fields):
    doc = json.loads(spec.to_json())
    doc.update(fields)
    path = tmp_path / "edited.json"
    # json writes float("inf") as Infinity, which json.load reads back
    path.write_text(json.dumps(doc))
    return load_problem(path)


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"L": float("inf")}, id="L-inf"),
        pytest.param({"ell": float("inf"), "L": float("inf")}, id="ell-L-inf"),
        pytest.param({"L": float("nan")}, id="L-nan"),
        pytest.param({"ell": float("nan")}, id="ell-nan"),
    ],
)
def test_load_rejects_nonfinite_curvature_bounds(tmp_path, quad_spec, logistic_spec, fields):
    with pytest.raises(ValueError, match="finite 0 < ell <= lip"):
        _load_edited(tmp_path, quad_spec, **fields)
    # a logistic file's bounds must match the ridge and the data
    with pytest.raises(ValueError, match="declared"):
        _load_edited(tmp_path, logistic_spec, **fields)


@pytest.mark.parametrize("seed", [1.5, True, "x", [5], float("inf")])
def test_seed_must_be_an_integer(tmp_path, quad_spec, seed):
    with pytest.raises(ValueError, match="seed"):
        _load_edited(tmp_path, quad_spec, seed=seed)


def test_seed_is_optional(tmp_path, quad_spec):
    assert _load_edited(tmp_path, quad_spec, seed=None).seed is None
    assert _load_edited(tmp_path, quad_spec, seed=2**70).seed == 2**70
    # an int is taken as it is, not through its float rounding
    assert _load_edited(tmp_path, quad_spec, seed=2**53 + 1).seed == 2**53 + 1
    assert _load_edited(tmp_path, quad_spec, seed=3.0).seed == 3


def test_logistic_declared_ell_must_match(tmp_path, logistic_spec):
    with pytest.raises(ValueError, match="declared ell"):
        _load_edited(tmp_path, logistic_spec, ell=logistic_spec.objective.ell / 2.0)


def test_logistic_load_estimates_lip_once(tmp_path, logistic_spec, monkeypatch):
    # L needs the data matrix's 2-norm (an SVD); count those calls
    calls = []
    norm = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(1)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    path = tmp_path / "log.json"
    logistic_spec.save(path)
    obj = load_problem(path).objective
    assert len(calls) == 1
    # attaching the minimizer shares the bound instead of re-estimating it
    assert obj.lip == logistic_spec.objective.lip
    assert obj.data_matrix is obj.with_minimizer(obj.minimizer).data_matrix
    calls.clear()
    fresh = make_logistic_problem(6, 30, 0.1, seed=2)
    assert len(calls) == 1 and fresh.objective.lip == logistic_spec.objective.lip


def test_hand_made_logistic_resaves_its_own_bound(tmp_path, logistic_spec):
    # L within the declared-bound tolerance loads; the objective's own L is saved
    lip = logistic_spec.objective.lip
    spec = _load_edited(tmp_path, logistic_spec, L=lip * (1.0 + 1e-8))
    assert json.loads(spec.to_json())["L"] == lip
