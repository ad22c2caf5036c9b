"""Piece / coefficient / problem construction, validation, and JSON I/O."""

import json
import math

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
