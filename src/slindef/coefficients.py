"""Problem data model: piecewise coefficients and boundary conditions.

A problem is the equation ``y'' + (lambda * w(x) + q(x)) * y = 0`` on a
compact interval ``[a, b]`` with separated boundary conditions

    y(a) * cos(alpha) - y'(a) * sin(alpha) = 0,
    y(b) * cos(beta)  + y'(b) * sin(beta)  = 0,

where ``alpha, beta`` lie in ``[0, pi)`` and ``alpha = beta = 0`` is the
Dirichlet case.  The weight ``w`` is constant on each piece and may change
sign between pieces; the potential ``q`` is either constant on a piece or
given by a table of samples interpolated linearly.

Conventions:

* pieces tile ``[a, b]`` exactly (each piece starts where the previous ends,
  compared with exact float equality);
* coefficient values at an interior breakpoint come from the piece to the
  right (right-limit convention); the value at ``x = b`` comes from the
  last piece.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import json
import math
from collections.abc import Iterable, Mapping, Set
from typing import Union

from .errors import InvalidProblemError, SlindefError, overflow_failure

QTable = tuple[tuple[float, float], ...]
QSpec = Union[float, QTable]

__all__ = [
    "Piece",
    "PiecewiseCoefficient",
    "ProblemSpec",
    "one_turning_point",
    "two_turning_point",
    "application_problem",
    "build_canonical",
    "normalize_domain",
    "problem_to_dict",
    "problem_from_dict",
    "load_problem",
    "save_problem",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidProblemError(message)


def _as_finite_float(value: object, what: str) -> float:
    _require(not isinstance(value, (bool, str, bytes, bytearray)),
             f"{what} is not a number: {value!r}")
    try:
        x = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise InvalidProblemError(f"{what} is not a number: {value!r}") from exc
    _require(math.isfinite(x), f"{what} must be finite, got {x!r}")
    return x


def _as_tol(tol: object) -> float:
    """A caller's tolerance as a float, which must be positive and finite."""
    tol = _as_finite_float(tol, "tol")
    _require(tol > 0.0, f"tol must be positive and finite, got {tol!r}")
    return tol


def _is_scalar(q: object) -> bool:
    """Whether ``q`` is one number, not a table: a ``str``, ``bytes``, a 0-d
    array or anything not iterable, for :func:`_as_finite_float` to check."""
    return (not isinstance(q, Iterable) or isinstance(q, (str, bytes))
            or getattr(q, "ndim", None) == 0)


def _as_sequence(value: object, what: str, length: int | None = None) -> tuple:
    """A caller's sequence as a tuple, of ``length`` entries if given: an
    iterable that is not one number, a string, a mapping or a set."""
    if not (_is_scalar(value) or isinstance(value, (Mapping, Set))):
        entries = tuple(value)
        if length in (None, len(entries)):
            return entries
    size = "" if length is None else f" of {length}"
    raise InvalidProblemError(f"{what} must be a sequence{size}, got {value!r}")


def _as_pair(value: object, what: str, lo: str = "start",
             hi: str = "end") -> tuple[float, float]:
    """A caller's pair of finite numbers, named ``what lo`` and ``what hi``."""
    first, second = _as_sequence(value, f"{what} ({lo}, {hi})", 2)
    return (_as_finite_float(first, f"{what} {lo}"),
            _as_finite_float(second, f"{what} {hi}"))


def _as_count(value: object, what: str) -> int:
    """A caller's positive ``int`` or numpy integer, never a ``bool``."""
    _require(type(value) is not bool and hasattr(value, "__index__") and value >= 1,
             f"{what} must be a positive integer, got {value!r}")
    return int(value)


def _as_problem(spec: object) -> ProblemSpec:
    _require(isinstance(spec, ProblemSpec),
             f"spec must be a ProblemSpec, got {type(spec).__name__}")
    return spec  # type: ignore[return-value]


def _require_real(lam: complex | float, what: str) -> float:
    if isinstance(lam, complex):
        _require(lam.imag == 0.0, f"{what} requires a real lambda")
        return lam.real
    return float(lam)


def lambda_entry(fn):
    """Guard a public ``fn(spec, lam, ...)``: a ``spec`` that is no problem,
    or a ``lam`` that is not one number (a ``bool``, string, ``None`` or
    container), NaN or infinite is an :class:`InvalidProblemError`, and float
    overflow inside (``cosh`` past ``e^709``, a NaN reaching ``int``) a
    :class:`NumericalFailure`."""

    @functools.wraps(fn)
    def guarded(spec, lam, *args, **kwargs):
        if not isinstance(spec, ProblemSpec):
            _as_problem(spec)
        # cmath rejects str, None and lists, not bools or 1-element arrays;
        # every call pays these tests, so no message is built unless one fails
        number = type(lam) is not bool and getattr(lam, "ndim", 0) == 0
        try:
            finite = number and cmath.isfinite(lam)
        except TypeError:
            number = finite = False
        if not finite:
            raise InvalidProblemError(f"lambda must be finite, got {lam!r}"
                                      if number else f"lambda is not a number: {lam!r}")
        try:
            return fn(spec, lam, *args, **kwargs)
        except SlindefError:
            raise
        except (OverflowError, ValueError) as exc:
            raise overflow_failure(lam) from exc

    return guarded


def _normalize_q(q: object, x0: float, x1: float) -> QSpec:
    """Validate a potential given as a constant or as a sample table."""
    if _is_scalar(q):
        return _as_finite_float(q, "constant q")
    rows = []
    for row in q:  # type: ignore[attr-defined]
        _require(isinstance(row, Iterable),
                 f"q table rows must be [x, q] pairs, got {row!r}")
        pair = tuple(row)
        _require(len(pair) == 2, f"q table rows need 2 entries, got {pair!r}")
        rows.append((_as_finite_float(pair[0], "q table node"),
                     _as_finite_float(pair[1], "q table value")))
    _require(len(rows) >= 2, "q table needs at least 2 nodes")
    xs = [r[0] for r in rows]
    _require(all(x2 > x1_ for x1_, x2 in zip(xs, xs[1:])),
             "q table nodes must be strictly increasing")
    _require(xs[0] == x0 and xs[-1] == x1,
             f"q table must span the piece exactly: nodes cover "
             f"[{xs[0]!r}, {xs[-1]!r}], piece is [{x0!r}, {x1!r}]")
    return tuple(rows)


class _Value:
    """An immutable value: ``__init__`` sets each slot once, and equality,
    hash, ``repr`` and pickling (through ``__init__``) go by ``_fields``."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._astuple() == other._astuple() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()


class Piece(_Value):
    """One coefficient piece: constant weight, constant or sampled potential.
    ``constant`` is ``(w, q, x0, x1)`` for a constant ``q``, else ``None``:
    the per-lambda loops read that one attribute per piece."""

    _fields = ("x0", "x1", "w", "q")
    __slots__ = _fields + ("length", "has_constant_q", "constant")

    def __init__(self, x0: float, x1: float, w: float, q: QSpec = 0.0) -> None:
        x0 = _as_finite_float(x0, "piece x0")
        x1 = _as_finite_float(x1, "piece x1")
        w = _as_finite_float(w, "piece weight")
        _require(x0 < x1, f"piece must have positive length: [{x0!r}, {x1!r}]")
        _require(w != 0.0, "piece weight must be nonzero")
        q = _normalize_q(q, x0, x1)
        const = isinstance(q, float)
        self._set(x0, x1, w, q, x1 - x0, const, (w, q, x0, x1) if const else None)

    def q_at(self, x: float) -> float:
        """Potential value at ``x`` (within the closed piece)."""
        if isinstance(self.q, float):
            return self.q
        nodes = self.q
        if x <= nodes[0][0]:
            return nodes[0][1]
        if x >= nodes[-1][0]:
            return nodes[-1][1]
        # Linear interpolation between the bracketing nodes.
        hi = bisect.bisect_right(nodes, x, key=lambda node: node[0])
        (xa, qa), (xb, qb) = nodes[hi - 1], nodes[hi]
        t = (x - xa) / (xb - xa)
        return qa + t * (qb - qa)

    def q_table(self, lo: float, hi: float) -> QTable:
        """``q`` on ``[lo, hi]`` inside the piece as a table, linear between
        rows: its values at both ends and the nodes strictly between."""
        inner = () if isinstance(self.q, float) else [
            node for node in self.q if lo < node[0] < hi]
        return ((lo, self.q_at(lo)), *inner, (hi, self.q_at(hi)))

    def q_extremes(self, lo: float | None = None, hi: float | None = None) -> tuple[float, float]:
        """(min, max) of q over the intersection of the piece with [lo, hi]."""
        lo = self.x0 if lo is None else max(lo, self.x0)
        hi = self.x1 if hi is None else min(hi, self.x1)
        vals = [qv for _, qv in self.q_table(lo, hi)]
        return (min(vals), max(vals))


class PiecewiseCoefficient(_Value):
    """An ordered run of pieces tiling a compact interval exactly."""

    _fields = ("pieces",)
    __slots__ = _fields + ("a", "b", "breakpoints")

    def __init__(self, pieces: Iterable[Piece]) -> None:
        pieces = tuple(pieces)
        _require(len(pieces) >= 1, "at least one piece is required")
        _require(all(isinstance(p, Piece) for p in pieces),
                 "pieces must be Piece instances")
        for left, right in zip(pieces, pieces[1:]):
            _require(left.x1 == right.x0,
                     f"pieces must tile the interval exactly: piece ending at "
                     f"{left.x1!r} followed by piece starting at {right.x0!r}")
        breakpoints = tuple(p.x0 for p in pieces) + (pieces[-1].x1,)
        self._set(pieces, breakpoints[0], breakpoints[-1], breakpoints)

    def piece_at(self, x: float) -> Piece:
        """The piece governing ``x``, using the right-limit convention."""
        _require(self.a <= x <= self.b,
                 f"x={x!r} outside the problem interval [{self.a!r}, {self.b!r}]")
        return self.pieces[bisect.bisect_right(self.pieces, x, key=lambda p: p.x0) - 1]

    def evaluate(self, x: float) -> tuple[float, float]:
        """``(w(x), q(x))`` with right limits at interior breakpoints."""
        piece = self.piece_at(x)
        return (piece.w, piece.q_at(x))

    def turning_points(self) -> tuple[float, ...]:
        """Interior breakpoints where the weight changes sign."""
        return tuple(right.x0 for left, right in zip(self.pieces, self.pieces[1:])
                     if left.w * right.w < 0.0)

    def weight_range(self) -> tuple[float, float]:
        ws = [p.w for p in self.pieces]
        return (min(ws), max(ws))

    def sign_pattern(self) -> tuple[int, ...]:
        return tuple(1 if p.w > 0 else -1 for p in self.pieces)


class ProblemSpec(_Value):
    """A complete problem: coefficients plus boundary-condition angles.
    ``launch`` starts the left solution; ``D = y cos_beta + y' sin_beta``."""

    _fields = ("coeff", "alpha", "beta")
    __slots__ = _fields + ("a", "b", "pieces", "is_dirichlet", "launch",
                           "cos_beta", "sin_beta")

    def __init__(self, coeff: PiecewiseCoefficient, alpha: float = 0.0, beta: float = 0.0) -> None:
        _require(isinstance(coeff, PiecewiseCoefficient),
                 "coeff must be a PiecewiseCoefficient")
        alpha = _as_finite_float(alpha, "alpha")
        beta = _as_finite_float(beta, "beta")
        _require(0.0 <= alpha < math.pi, f"alpha must lie in [0, pi), got {alpha!r}")
        _require(0.0 <= beta < math.pi, f"beta must lie in [0, pi), got {beta!r}")
        y, yp = math.sin(alpha), math.cos(alpha)
        self._set(coeff, alpha, beta, coeff.a, coeff.b, coeff.pieces,
                  alpha == 0.0 and beta == 0.0,
                  (y, yp, max(1.0, abs(y) + abs(yp))),
                  math.cos(beta), math.sin(beta))


# ---------------------------------------------------------------------------
# Canonical families
# ---------------------------------------------------------------------------

def one_turning_point(q0: float) -> ProblemSpec:
    """Sign weight on [-1, 1]: ``w = -1`` then ``w = +1``, constant ``q = q0``,
    Dirichlet ends."""
    q0 = _as_finite_float(q0, "q0")
    coeff = PiecewiseCoefficient((
        Piece(-1.0, 0.0, -1.0, q0),
        Piece(0.0, 1.0, 1.0, q0),
    ))
    return ProblemSpec(coeff)


def two_turning_point(w_left: float, w_mid: float, w_right: float,
                      q0: float = 0.0) -> ProblemSpec:
    """Step weight on [-1, 2] with pattern negative/positive/negative on
    unit pieces, constant ``q = q0``, Dirichlet ends."""
    w_left = _as_finite_float(w_left, "left weight")
    w_mid = _as_finite_float(w_mid, "middle weight")
    w_right = _as_finite_float(w_right, "right weight")
    q0 = _as_finite_float(q0, "q0")
    _require(w_left < 0.0, f"left weight must be negative, got {w_left!r}")
    _require(w_mid > 0.0, f"middle weight must be positive, got {w_mid!r}")
    _require(w_right < 0.0, f"right weight must be negative, got {w_right!r}")
    coeff = PiecewiseCoefficient((
        Piece(-1.0, 0.0, w_left, q0),
        Piece(0.0, 1.0, w_mid, q0),
        Piece(1.0, 2.0, w_right, q0),
    ))
    return ProblemSpec(coeff)


def application_problem(q: object = 0.0) -> ProblemSpec:
    """Weight (-1, 2, -1) on unit pieces of [-1, 2], Dirichlet ends.

    ``q`` may be a single number (used on all three pieces) or a sequence of
    three per-piece potentials, each a number or a sample table.
    """
    bounds = [(-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
    weights = [-1.0, 2.0, -1.0]
    qs = [q] * 3 if _is_scalar(q) else list(q)  # type: ignore[arg-type]
    _require(len(qs) == 3, "q must be a number or a sequence of 3 entries")
    coeff = PiecewiseCoefficient(tuple(
        Piece(x0, x1, w, qp) for (x0, x1), w, qp in zip(bounds, weights, qs)
    ))
    return ProblemSpec(coeff)


_CANONICAL_BUILDERS = {
    "one_tp_sign": one_turning_point,
    "two_tp": two_turning_point,
    "application": application_problem,
}


def build_canonical(kind: str, *args: object, **kwargs: object) -> ProblemSpec:
    """Dispatch to a named canonical family: ``one_tp_sign``, ``two_tp``,
    ``application``."""
    try:
        builder = _CANONICAL_BUILDERS[kind]
    except KeyError:
        raise InvalidProblemError(
            f"unknown canonical family {kind!r}; expected one of "
            f"{sorted(_CANONICAL_BUILDERS)}") from None
    return builder(*args, **kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Domain normalization
# ---------------------------------------------------------------------------

def normalize_domain(spec: ProblemSpec) -> ProblemSpec:
    """Affine change of variables onto [-1, 2] with the length-scale factor
    folded into the coefficients.

    The substitution ``x = a + (b - a) * (u + 1) / 3`` maps ``u in [-1, 2]``
    onto ``x in [a, b]``; with ``J = (b - a) / 3`` the transformed problem has
    weight ``J^2 * w`` and potential ``J^2 * q`` and exactly the same
    eigenvalues as the original.  Specs already on [-1, 2] are returned
    unchanged, so the operation is idempotent.
    """
    a, b = spec.a, spec.b
    if a == -1.0 and b == 2.0:
        return spec
    jac = (b - a) / 3.0
    scale = jac * jac

    def to_u(x: float) -> float:
        return -1.0 + (x - a) / jac

    # Map breakpoints once and pin the outer ends so the image tiles [-1, 2]
    # exactly despite rounding.
    us = [to_u(bp) for bp in spec.coeff.breakpoints]
    us[0] = -1.0
    us[-1] = 2.0
    new_pieces = []
    for i, piece in enumerate(spec.pieces):
        u0, u1 = us[i], us[i + 1]
        if isinstance(piece.q, float):
            q_new: QSpec = piece.q * scale
        else:
            nodes = [(to_u(xv), qv * scale) for (xv, qv) in piece.q]
            nodes[0] = (u0, nodes[0][1])
            nodes[-1] = (u1, nodes[-1][1])
            q_new = tuple(nodes)
        new_pieces.append(Piece(u0, u1, piece.w * scale, q_new))
    coeff = PiecewiseCoefficient(tuple(new_pieces))
    return ProblemSpec(coeff, spec.alpha, spec.beta)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _q_to_json(q: QSpec) -> dict:
    if isinstance(q, float):
        return {"const": q}
    return {"table": [[x, v] for (x, v) in q]}


def _q_from_json(obj: object) -> QSpec | object:
    if isinstance(obj, dict):
        if set(obj) == {"const"}:
            _require(isinstance(obj["const"], (int, float)),
                     f"q 'const' must be a number, got {obj['const']!r}")
            return obj["const"]
        if set(obj) == {"table"}:
            return obj["table"]
        raise InvalidProblemError(
            f"q object must have exactly one of 'const' or 'table', got {sorted(obj)}")
    raise InvalidProblemError(f"q entry must be an object, got {type(obj).__name__}")


def problem_to_dict(spec: ProblemSpec) -> dict:
    return {
        "interval": [spec.a, spec.b],
        "alpha": spec.alpha,
        "beta": spec.beta,
        "pieces": [
            {"x0": p.x0, "x1": p.x1, "w": p.w, "q": _q_to_json(p.q)}
            for p in spec.pieces
        ],
    }


def problem_from_dict(data: object) -> ProblemSpec:
    _require(isinstance(data, dict), "problem document must be a JSON object")
    assert isinstance(data, dict)
    unknown = set(data) - {"interval", "alpha", "beta", "pieces"}
    _require(not unknown, f"unknown problem keys: {sorted(unknown)}")
    _require("pieces" in data, "problem document lacks 'pieces'")
    rows = data["pieces"]
    _require(isinstance(rows, list) and rows, "'pieces' must be a nonempty list")
    pieces = []
    for row in rows:
        _require(isinstance(row, dict), "each piece must be an object")
        missing = {"x0", "x1", "w", "q"} - set(row)
        _require(not missing, f"piece lacks keys: {sorted(missing)}")
        extra = set(row) - {"x0", "x1", "w", "q"}
        _require(not extra, f"unknown piece keys: {sorted(extra)}")
        pieces.append(Piece(row["x0"], row["x1"], row["w"], _q_from_json(row["q"])))
    coeff = PiecewiseCoefficient(tuple(pieces))
    if "interval" in data:
        lo, hi = _as_pair(data["interval"], "interval")
        _require(lo == coeff.a and hi == coeff.b,
                 f"'interval' [{lo!r}, {hi!r}] does not match the piece tiling "
                 f"[{coeff.a!r}, {coeff.b!r}]")
    return ProblemSpec(coeff, data.get("alpha", 0.0), data.get("beta", 0.0))


def load_problem(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidProblemError(f"problem file {path!r} is not valid UTF-8 JSON: {exc}") from exc
    return problem_from_dict(data)


def save_problem(spec: ProblemSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(spec), fh, indent=2)
        fh.write("\n")
