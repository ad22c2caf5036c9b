"""Piece / coefficient / problem construction, validation, and JSON I/O."""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slindef import (
    InvalidProblemError,
    Piece,
    PiecewiseCoefficient,
    ProblemSpec,
    application_problem,
    build_canonical,
    load_problem,
    normalize_domain,
    one_turning_point,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    two_turning_point,
)


# --------------------------------------------------------------------------
# Piece validation and evaluation
# --------------------------------------------------------------------------

class TestPiece:
    def test_constant_q(self):
        p = Piece(0.0, 1.0, -2.0, 3.5)
        assert p.q_at(0.0) == 3.5
        assert p.q_at(0.77) == 3.5
        assert p.q_extremes(0.0, 1.0) == (3.5, 3.5)

    def test_table_q_linear_interpolation(self):
        p = Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.5, 2.0), (1.0, 1.0)))
        assert p.q_at(0.25) == pytest.approx(1.0)
        assert p.q_at(0.5) == 2.0
        assert p.q_at(0.75) == pytest.approx(1.5)
        lo, hi = p.q_extremes(0.0, 1.0)
        assert (lo, hi) == (0.0, 2.0)
        lo, hi = p.q_extremes(0.6, 0.9)
        assert lo == pytest.approx(3.0 - 2.0 * 0.9)   # q is 3 - 2x past the knee
        assert hi == pytest.approx(3.0 - 2.0 * 0.6)

    def test_q_table_on_interior_interval(self):
        # the interpolated ends and the nodes strictly between them; a node
        # on an end appears once, as that end
        p = Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.25, 4.0), (0.5, 2.0),
                                  (0.75, 6.0), (1.0, 1.0)))
        assert p.q_table(0.1, 0.6) == ((0.1, p.q_at(0.1)), (0.25, 4.0),
                                       (0.5, 2.0), (0.6, p.q_at(0.6)))
        assert p.q_table(0.25, 0.5) == ((0.25, 4.0), (0.5, 2.0))
        assert p.q_table(0.0, 1.0) == p.q
        assert Piece(0.0, 1.0, 1.0, 3.5).q_table(0.2, 0.7) == ((0.2, 3.5),
                                                               (0.7, 3.5))

    @pytest.mark.parametrize("q", [np.float32(2.0), np.int64(2), np.array(2.0)])
    def test_numpy_scalar_constant_q(self, q):
        p = Piece(0.0, 1.0, 1.0, q)
        assert p == Piece(0.0, 1.0, 1.0, 2.0)
        assert p.constant == (1.0, 2.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [
        dict(x0=1.0, x1=0.0, w=1.0, q=0.0),        # reversed interval
        dict(x0=0.0, x1=0.0, w=1.0, q=0.0),        # empty interval
        dict(x0=0.0, x1=1.0, w=0.0, q=0.0),        # vanishing weight
        dict(x0=0.0, x1=1.0, w=math.nan, q=0.0),   # non-finite weight
        dict(x0=0.0, x1=1.0, w=1.0, q=math.inf),   # non-finite q
        dict(x0=0.0, x1=1.0, w=1.0, q=((0.0, 1.0),)),            # one node
        dict(x0=0.0, x1=1.0, w=1.0, q=((0.0, 1.0), (0.0, 2.0))),  # not increasing
        dict(x0=0.0, x1=1.0, w=1.0, q=((0.1, 1.0), (1.0, 2.0))),  # gap at left
        dict(x0=0.0, x1=1.0, w=1.0, q=((0.0, 1.0), (0.9, 2.0))),  # gap at right
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(InvalidProblemError):
            Piece(**bad)


# --------------------------------------------------------------------------
# PiecewiseCoefficient tiling and lookup
# --------------------------------------------------------------------------

class TestPiecewiseCoefficient:
    def test_exact_tiling_required(self):
        with pytest.raises(InvalidProblemError):
            PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),
                                  Piece(1.5, 2.0, 1.0, 0.0)))
        with pytest.raises(InvalidProblemError):
            PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),
                                  Piece(0.5, 2.0, 1.0, 0.0)))
        with pytest.raises(InvalidProblemError):
            PiecewiseCoefficient(())

    def test_piece_lookup_uses_right_limit_at_breakpoints(self):
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 5.0),
                                      Piece(1.0, 2.0, -1.0, 7.0)))
        assert coeff.piece_at(0.0).q_at(0.0) == 5.0
        assert coeff.piece_at(1.0).w == -1.0        # right limit at the jump
        assert coeff.piece_at(2.0).w == -1.0        # b belongs to the last piece
        w, q = coeff.evaluate(1.0)
        assert (w, q) == (-1.0, 7.0)

    def test_turning_points_and_sign_pattern(self):
        coeff = PiecewiseCoefficient((Piece(-1.0, 0.0, -1.0, 0.0),
                                      Piece(0.0, 1.0, 2.0, 0.0),
                                      Piece(1.0, 2.0, -3.0, 0.0)))
        assert coeff.turning_points() == (0.0, 1.0)
        assert coeff.sign_pattern() == (-1, 1, -1)
        assert coeff.weight_range() == (-3.0, 2.0)

    def test_breakpoints(self):
        coeff = two_turning_point(-1.0, 1.0, -1.0, 0.0).coeff
        assert coeff.breakpoints == (-1.0, 0.0, 1.0, 2.0)
        assert (coeff.a, coeff.b) == (-1.0, 2.0)


# --------------------------------------------------------------------------
# ProblemSpec and boundary angles
# --------------------------------------------------------------------------

class TestProblemSpec:
    def test_dirichlet_default(self, classical_spec):
        assert classical_spec.alpha == 0.0
        assert classical_spec.beta == 0.0
        assert classical_spec.is_dirichlet

    def test_angle_range_enforced(self):
        coeff = PiecewiseCoefficient((Piece(0.0, 1.0, 1.0, 0.0),))
        with pytest.raises(InvalidProblemError):
            ProblemSpec(coeff, alpha=-0.1)
        with pytest.raises(InvalidProblemError):
            ProblemSpec(coeff, beta=math.pi)
        spec = ProblemSpec(coeff, alpha=0.3, beta=1.2)
        assert not spec.is_dirichlet

    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2, 3.1])
    @pytest.mark.parametrize("beta", [0.0, math.pi / 2, 3.1])
    def test_angles_become_numbers_once(self, alpha, beta):
        # the walks start from launch and form D with cos_beta, sin_beta
        spec = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, 1.0),)),
                           alpha, beta)
        y, yp = math.sin(alpha), math.cos(alpha)
        want = (y, yp, max(1.0, abs(y) + abs(yp)), math.cos(beta), math.sin(beta))
        got = (*spec.launch, spec.cos_beta, spec.sin_beta)
        assert [v.hex() for v in got] == [v.hex() for v in want]


# --------------------------------------------------------------------------
# Value semantics shared by the three problem types
# --------------------------------------------------------------------------

PIECE = dict(x0=0.0, x1=1.0, w=-2.0, q=3.5)
TABLE_PIECE = dict(x0=1.0, x1=2.0, w=1.5, q=((1.0, 0.0), (2.0, -1.0)))
COEFF = dict(pieces=(Piece(**PIECE), Piece(**TABLE_PIECE)))
SPEC = dict(coeff=PiecewiseCoefficient(**COEFF), alpha=0.25, beta=1.5)
VALUE_CASES = [(Piece, PIECE), (Piece, TABLE_PIECE),
               (PiecewiseCoefficient, COEFF), (ProblemSpec, SPEC)]
VALUE_IDS = ["Piece-const", "Piece-table", "PiecewiseCoefficient", "ProblemSpec"]
# what each type computes once, at construction, from its fields
DERIVED = {Piece: ("length", "has_constant_q", "constant"),
           PiecewiseCoefficient: ("a", "b", "breakpoints"),
           ProblemSpec: ("a", "b", "pieces", "is_dirichlet", "launch",
                         "cos_beta", "sin_beta")}
PIECE_REPRS = ("Piece(x0=0.0, x1=1.0, w=-2.0, q=3.5)",
               "Piece(x0=1.0, x1=2.0, w=1.5, q=((1.0, 0.0), (2.0, -1.0)))")


class TestValueSemantics:
    @pytest.mark.parametrize("cls, fields", VALUE_CASES, ids=VALUE_IDS)
    def test_construction_by_keyword_and_position(self, cls, fields):
        value = cls(**fields)
        assert {name: getattr(value, name) for name in fields} == fields
        assert cls(*fields.values()) == value

    def test_repr_is_the_field_listing(self):
        # the text of the former dataclass repr, pinned
        coeff = "PiecewiseCoefficient(pieces=(" + ", ".join(PIECE_REPRS) + "))"
        expected = [*PIECE_REPRS, coeff,
                    f"ProblemSpec(coeff={coeff}, alpha=0.25, beta=1.5)"]
        assert [repr(cls(**fields)) for cls, fields in VALUE_CASES] == expected
        # integers are stored as floats, and q defaults to 0
        assert repr(Piece(x0=0, x1=1, w=1)) == "Piece(x0=0.0, x1=1.0, w=1.0, q=0.0)"

    @pytest.mark.parametrize("cls, fields", VALUE_CASES, ids=VALUE_IDS)
    def test_equality_and_hash_by_fields(self, cls, fields):
        a, b = cls(**fields), cls(**dict(fields))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert a != tuple(fields.values())
        assert a != ProblemSpec(PiecewiseCoefficient((Piece(0.0, 1.0, 1.0),)))

    def test_fields_differ_unequal(self):
        assert Piece(**PIECE) != Piece(**{**PIECE, "w": 2.0})
        assert ProblemSpec(**SPEC) != ProblemSpec(**{**SPEC, "beta": 0.0})
        assert (PiecewiseCoefficient(**COEFF)
                != PiecewiseCoefficient(COEFF["pieces"][:1]))

    def test_constant_is_not_a_field(self):
        a, b = Piece(**PIECE), Piece(**PIECE)
        assert a.constant == (-2.0, 3.5, 0.0, 1.0)
        assert Piece(**TABLE_PIECE).constant is None
        object.__setattr__(b, "constant", None)
        assert a == b and hash(a) == hash(b)
        assert "constant" not in repr(a)
        # every derived value: a slot set in __init__, no property, no field;
        # a copy or an unpickled value recomputes it from the fields
        for cls, fields in VALUE_CASES:
            names = DERIVED[cls]
            assert set(names) <= set(cls.__slots__) - set(cls._fields)
            assert not [v for v in vars(cls).values() if isinstance(v, property)]
            value, twin = cls(**fields), cls(**fields)
            want = {name: getattr(value, name) for name in names}
            for name in names:
                object.__setattr__(twin, name, None)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
            for copied in (pickle.loads(pickle.dumps(twin)), copy.copy(twin),
                           copy.deepcopy(twin)):
                assert {name: getattr(copied, name) for name in names} == want

    @pytest.mark.parametrize("cls, fields", VALUE_CASES, ids=VALUE_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields):
        value = cls(**fields)
        for name in [*fields, *DERIVED[cls], "other"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert {name: getattr(value, name) for name in fields} == fields

    @pytest.mark.parametrize("cls, fields", VALUE_CASES, ids=VALUE_IDS)
    def test_pickle_and_copy_round_trip(self, cls, fields):
        value = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(twin) is cls and twin == value
            assert repr(twin) == repr(value)
            if cls is Piece:
                assert twin.constant == value.constant

    def test_unpickling_validates(self):
        piece = Piece(**PIECE)
        object.__setattr__(piece, "w", 0.0)
        blob = pickle.dumps(piece)
        with pytest.raises(InvalidProblemError, match="weight must be nonzero"):
            pickle.loads(blob)

    def test_validation_messages(self):
        with pytest.raises(InvalidProblemError, match="must be Piece instances"):
            PiecewiseCoefficient(((0.0, 1.0, 1.0, 0.0),))
        with pytest.raises(InvalidProblemError, match="at least one piece"):
            PiecewiseCoefficient([])
        with pytest.raises(InvalidProblemError, match="must be a PiecewiseCoefficient"):
            ProblemSpec(COEFF["pieces"])
        with pytest.raises(InvalidProblemError, match="alpha must lie in"):
            ProblemSpec(SPEC["coeff"], 4.0)
        with pytest.raises(InvalidProblemError, match="piece x1 is not a number"):
            Piece(0.0, "one", 1.0)
        # a list of pieces is stored as a tuple
        assert PiecewiseCoefficient(list(COEFF["pieces"])) == PiecewiseCoefficient(**COEFF)


# --------------------------------------------------------------------------
# Canonical builders
# --------------------------------------------------------------------------

class TestBuilders:
    def test_one_turning_point_shape(self):
        spec = one_turning_point(-10.0)
        assert (spec.a, spec.b) == (-1.0, 1.0)
        assert [p.w for p in spec.pieces] == [-1.0, 1.0]
        assert [p.q_at(p.x0) for p in spec.pieces] == [-10.0, -10.0]
        assert spec.is_dirichlet

    def test_two_turning_point_sign_checks(self):
        spec = two_turning_point(-2.0, 3.0, -0.5, 1.0)
        assert [p.w for p in spec.pieces] == [-2.0, 3.0, -0.5]
        with pytest.raises(InvalidProblemError):
            two_turning_point(2.0, 3.0, -0.5, 1.0)
        with pytest.raises(InvalidProblemError):
            two_turning_point(-2.0, -3.0, -0.5, 1.0)
        with pytest.raises(InvalidProblemError):
            two_turning_point(-2.0, 3.0, 0.5, 1.0)

    def test_application_weights_and_q_forms(self):
        spec = application_problem(-1.5)
        assert [p.w for p in spec.pieces] == [-1.0, 2.0, -1.0]
        assert (spec.a, spec.b) == (-1.0, 2.0)
        assert all(p.q_at(p.x0) == -1.5 for p in spec.pieces)
        spec3 = application_problem([0.0, -1.0, 0.5])
        assert [p.q_at(p.x0) for p in spec3.pieces] == [0.0, -1.0, 0.5]
        assert application_problem(2) == application_problem(2.0)
        assert application_problem(np.float32(1.0)) == application_problem(1.0)
        assert application_problem(np.int64(1)) == application_problem(1.0)
        with pytest.raises(InvalidProblemError, match="constant q is not a number"):
            application_problem(True)

    def test_build_canonical_dispatch(self):
        assert build_canonical("one_tp_sign", q0=-3.0) == one_turning_point(-3.0)
        assert build_canonical("two_tp", w_left=-1.0, w_mid=1.0, w_right=-1.0,
                               q0=0.0) == two_turning_point(-1.0, 1.0, -1.0, 0.0)
        assert build_canonical("application", q=0.0) == application_problem(0.0)
        with pytest.raises(InvalidProblemError):
            build_canonical("unknown_kind")


# --------------------------------------------------------------------------
# JSON schema round trips
# --------------------------------------------------------------------------

class TestJsonIO:
    def test_round_trip_const_and_table(self, tmp_path):
        spec = ProblemSpec(
            PiecewiseCoefficient((
                Piece(-1.0, 0.25, -2.0, ((-1.0, 0.0), (0.0, 1.0), (0.25, 0.5))),
                Piece(0.25, 2.0, 1.5, -4.0),
            )),
            alpha=0.2, beta=1.1)
        blob = json.dumps(problem_to_dict(spec))
        assert problem_from_dict(json.loads(blob)) == spec

        path = tmp_path / "prob.json"
        save_problem(spec, path)
        assert load_problem(path) == spec

    def test_schema_shape(self, app_spec):
        d = problem_to_dict(app_spec)
        assert d["interval"] == [-1.0, 2.0]
        assert d["alpha"] == 0.0 and d["beta"] == 0.0
        assert [p["w"] for p in d["pieces"]] == [-1.0, 2.0, -1.0]
        assert d["pieces"][0]["q"] == {"const": 0.0}

    def test_interval_field_is_optional_but_checked(self, app_spec):
        d = problem_to_dict(app_spec)
        d.pop("interval")
        assert problem_from_dict(d) == app_spec   # tiling alone defines it

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("pieces"),
        lambda d: d.update(interval=[0.0, 5.0]),              # disagrees with tiling
        lambda d: d.update(extra_key=1),
        lambda d: d["pieces"][0].update(q={"bad": 0.0}),
        lambda d: d["pieces"][0].update(shape="round"),
        lambda d: d.update(alpha=-1.0),
        lambda d: d["pieces"][0].update(q={"table": [1, 2]}),  # scalar rows
        lambda d: d["pieces"][0].update(q={"const": [1]}),
        lambda d: d["pieces"][0].update(q={"const": "abc"}),
    ])
    def test_rejects_malformed_documents(self, app_spec, mutate):
        d = problem_to_dict(app_spec)
        mutate(d)
        with pytest.raises(InvalidProblemError):
            problem_from_dict(d)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(alpha=True), "alpha"),
        (lambda d: d["pieces"][0].update(x1=True), "piece x1"),
        (lambda d: d["pieces"][0].update(q={"const": False}), "constant q"),
        (lambda d: d["pieces"][0].update(
            q={"table": [[-1.0, 0.0], [0.0, True]]}), "q table value"),
        (lambda d: d.update(interval=[-1.0, True]), "interval end"),
    ], ids=["alpha", "x1", "const", "table", "interval"])
    def test_rejects_json_booleans(self, app_spec, mutate, field):
        # JSON true and false are not numbers, though Python's bool is an int
        d = problem_to_dict(app_spec)
        mutate(d)
        with pytest.raises(InvalidProblemError, match=f"^{field} is not a number"):
            problem_from_dict(d)

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(alpha="0.3"), "alpha"),
        (lambda d: d["pieces"][0].update(x1=" 1e0 "), "piece x1"),
        (lambda d: d["pieces"][0].update(w="2"), "piece weight"),
        (lambda d: d["pieces"][0].update(
            q={"table": [["0", "1"], ["1", "2"]]}), "q table node"),
        (lambda d: d["pieces"][0].update(
            q={"table": [[0.0, "1"], [1.0, "2"]]}), "q table value"),
        (lambda d: d.update(interval=["0", "1"]), "interval start"),
    ], ids=["alpha", "x1", "w", "table node", "table value", "interval"])
    def test_rejects_json_strings(self, mutate, field):
        # float() would parse each of these strings; a problem file that
        # quotes its numbers is malformed all the same
        d = {"pieces": [{"x0": 0.0, "x1": 1.0, "w": 1.0, "q": {"const": 0.0}}]}
        mutate(d)
        with pytest.raises(InvalidProblemError, match=f"^{field} is not a number"):
            problem_from_dict(d)

    def test_accepts_ints_and_numpy_scalars(self):
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(np.int64(0), 1, np.float64(2.0), ((0, np.float32(1.0)),
                                                    (1, 2))),)),
            alpha=np.float64(0.3))
        assert spec == ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, 2.0, ((0.0, 1.0), (1.0, 2.0))),)), alpha=0.3)
        assert problem_from_dict({"interval": [0, 1], "pieces": [
            {"x0": 0, "x1": 1, "w": 2, "q": {"const": 3}}]}).pieces[0].q == 3.0

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "nope.json")


# --------------------------------------------------------------------------
# Domain normalization
# --------------------------------------------------------------------------

class TestNormalizeDomain:
    def test_identity_when_already_canonical(self, app_spec):
        assert normalize_domain(app_spec) is app_spec

    def test_maps_interval_exactly(self, classical_spec):
        norm = normalize_domain(classical_spec)
        assert (norm.a, norm.b) == (-1.0, 2.0)
        jac = (classical_spec.b - classical_spec.a) / 3.0
        assert norm.pieces[0].w == pytest.approx(jac * jac)

    def test_table_nodes_pinned_to_new_endpoints(self):
        spec = ProblemSpec(PiecewiseCoefficient((
            Piece(0.0, 1.0, 1.0, ((0.0, 0.0), (0.3, 1.0), (1.0, 2.0))),)))
        norm = normalize_domain(spec)
        table = norm.pieces[0].q
        assert table[0][0] == -1.0
        assert table[-1][0] == 2.0

    def test_angles_preserved(self):
        spec = ProblemSpec(PiecewiseCoefficient((Piece(0.0, 2.0, 1.0, 0.0),)),
                           alpha=0.5, beta=0.25)
        norm = normalize_domain(spec)
        assert (norm.alpha, norm.beta) == (0.5, 0.25)


# --------------------------------------------------------------------------
# Property tests
# --------------------------------------------------------------------------

@st.composite
def coefficient_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    start = draw(st.floats(min_value=-5.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=3.0),
                         min_size=n, max_size=n))
    xs = [start]
    for g in gaps:
        xs.append(xs[-1] + g)
    pieces = []
    for x0, x1 in zip(xs, xs[1:]):
        w = draw(st.floats(min_value=0.1, max_value=4.0)) * draw(
            st.sampled_from([-1.0, 1.0]))
        q = draw(st.floats(min_value=-10.0, max_value=10.0))
        pieces.append(Piece(x0, x1, w, q))
    return PiecewiseCoefficient(tuple(pieces))


@given(coefficient_strategy())
def test_piece_at_always_contains_query_point(coeff):
    span = coeff.b - coeff.a
    for frac in (0.0, 0.17, 0.5, 0.93, 1.0):
        x = min(max(coeff.a + frac * span, coeff.a), coeff.b)
        piece = coeff.piece_at(x)
        assert piece.x0 <= x <= piece.x1


@given(coefficient_strategy(),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_json_round_trip_is_identity(coeff, alpha, beta):
    spec = ProblemSpec(coeff, alpha=alpha, beta=beta)
    assert problem_from_dict(problem_to_dict(spec)) == spec


@given(coefficient_strategy())
def test_normalize_domain_lands_on_canonical_interval(coeff):
    norm = normalize_domain(ProblemSpec(coeff))
    assert (norm.a, norm.b) == (-1.0, 2.0)
    assert len(norm.pieces) == len(coeff.pieces)
    assert normalize_domain(norm) is norm
