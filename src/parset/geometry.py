"""Core types: point sets, norm bodies, parallel-set specs, and the smallest
ball that holds a point set (`enclosing_radius`).

All types are immutable after construction; operations are pure functions.
Every pairwise temporary is cut by `row_blocks`.  Every open-ended real
parameter, a radius or any other, is checked by `positive_real` or
`nonnegative_real`, every count (a dimension, a sample size, a thread count)
by `positive_count`, and every probability vector by `probability_weights`.
Point-to-set distances are `_kernels.min_dist`, looked up at call time.

The IO section at the end holds every input format the CLI reads: UTF-8
point files (CSV with header x0..x{d-1}, or JSON), JSON objects checked for
unknown and required keys, JSON point arrays and spec objects.  A number in
JSON is a JSON number, read by `json_reals` (`json_real` for one), never a
string, a boolean or null.  Every other cast runs inside `reading(where)`, so
a malformed input is an InvalidArgumentError that names its file and key.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError, RangeOverflowError


class NormKind(Enum):
    L2 = "l2"
    LINF = "linf"

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        try:
            return cls(text.strip().lower())
        except (AttributeError, ValueError):  # AttributeError: a JSON value other than a string
            shown = repr(text) if isinstance(text, str) else json.dumps(text, default=repr)
            raise InvalidArgumentError(f"unknown norm {shown}, expected 'l2' or 'linf'")


@dataclass(frozen=True)
class PointSet:
    """Nonempty finite set of points in R^d, stored as an (n, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidArgumentError("points must form a nonempty (n, d) array")
        if not np.isfinite(pts).all():
            raise InvalidArgumentError("coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ParallelSetSpec:
    """The dilation of a finite base set by radius r under the chosen norm body."""

    base: PointSet
    norm: NormKind
    radius: float

    def __post_init__(self):
        positive_radius(self.radius)


def enclosing_radius(points: np.ndarray, norm: NormKind) -> float:
    """Radius of the smallest ball of the norm that holds every point.

    Under L-inf it is measured from the centre of the bounding box, which is
    exact.  Under L2 the centre is that of the smallest enclosing ball
    (_ball_center).  Either way the radius is the largest distance measured
    from the rounded centre, so a ball of that radius about it holds the set;
    where the rounding leaves it a few ulps above the true radius, a set whose
    true radius is exactly the dilation radius is not compared.
    """
    if norm is NormKind.LINF:
        center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    else:
        center = _ball_center(points)
    return float(_kernels.min_dist(points, center[None, :], norm is NormKind.LINF).max())


def _ball_center(points: np.ndarray) -> np.ndarray:
    """Centre of the smallest L2 ball holding every point.  The points go to
    _welzl in a fixed shuffle: in their own order, sorted or circular inputs
    would take one recursive call per point."""
    shuffled = points[np.random.default_rng(0).permutation(len(points))]
    return _welzl(shuffled, len(points), [])


def _welzl(points: np.ndarray, end: int, support: list) -> np.ndarray:
    """Centre of the smallest L2 ball holding points[:end] with every support
    point on its sphere: Welzl's move-to-front recursion (Welzl 1991; Gaertner
    1999), which is at most d + 1 calls deep.  Each point found outside the
    ball is put on the support of a recursive call and moved to the front of
    points, which is reordered in place.  A point counts as outside only past
    1e-12 of the radius, so rounding cannot put a support point twice."""
    center = _circumcenter(np.asarray(support)) if support else points[0]
    if len(support) == points.shape[1] + 1:
        return center
    radius_sq = ((np.asarray(support) - center) ** 2).sum(axis=1).max() if support else 0.0
    i = 0
    while i < end:
        outside = ((points[i:end] - center) ** 2).sum(axis=1) > radius_sq * (1.0 + 1e-12)
        if not outside.any():
            break
        j = i + int(outside.argmax())
        p = points[j].copy()
        center = _welzl(points, j, support + [p])
        radius_sq = ((np.asarray(support + [p]) - center) ** 2).sum(axis=1).max()
        points[1 : j + 1] = points[:j]
        points[0] = p
        i = j + 1
    return center


def _circumcenter(support: np.ndarray) -> np.ndarray:
    """Centre of the smallest sphere through every support point: the point
    of their affine hull equidistant from them (least squares where rounding
    leaves the support degenerate)."""
    edges = support[1:] - support[0]
    if not len(edges):
        return support[0]
    coef = np.linalg.lstsq(edges @ edges.T, 0.5 * (edges * edges).sum(axis=1), rcond=None)[0]
    return support[0] + coef @ edges


def _log_omega(d: int) -> float:
    """log of the unit-ball volume pi^(d/2) / Gamma(1 + d/2), itself 0.0 from d = 453 on."""
    return 0.5 * d * math.log(math.pi) - math.lgamma(1.0 + 0.5 * d)


def left_sum(terms) -> float:
    """The terms added left to right from 0.0: the bits of sum() before Python
    3.12, whose sum() of floats is compensated."""
    return functools.reduce(operator.add, terms, 0.0)


def positive_real(x, name: str) -> float:
    """x as a float, checked to be a positive finite real."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise InvalidArgumentError(f"{name} must be a positive finite real")
    return x


def nonnegative_real(x, name: str) -> float:
    """x as a float, checked to be a nonnegative finite real."""
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise InvalidArgumentError(f"{name} must be a nonnegative finite real")
    return x


def positive_count(x, name: str, least: int = 1) -> int:
    """x as a Python int, checked to be an integer >= least: an int or a numpy
    integer, never a bool or a float, however whole."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise InvalidArgumentError(f"{name} must be an integer")
    n = operator.index(x)
    if n < least:
        raise InvalidArgumentError(f"{name} must be >= {least}")
    return n


def probability_weights(weights, n: int, what: str) -> np.ndarray:
    """weights as a read-only float64 copy: n finite, strictly positive reals summing to 1 within 1e-12."""
    w = np.array(weights, dtype=np.float64)
    if w.shape != (n,):
        raise InvalidArgumentError(f"need one weight per {what}")
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise InvalidArgumentError("weights must be finite and strictly positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise InvalidArgumentError("weights must sum to 1 within 1e-12")
    w.flags.writeable = False
    return w


def positive_radius(r) -> float:
    """The radius check: positive_real(r, "radius")."""
    return positive_real(r, "radius")


# ---------------------------------------------------------------------------
# IO: point files, JSON objects, point arrays and spec objects
# ---------------------------------------------------------------------------


def load_points_csv(path) -> PointSet:
    """Points from a CSV file with the header x0,...,x(d-1), one point a row;
    blank rows are skipped.  Every field goes through one float() pass at
    the end, and a field float() rejects is traced back to its line only
    then, so a bad file names the same first bad line as a row-by-row read."""
    with reading(path):  # a file that is not UTF-8 text
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8"), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise InvalidArgumentError(f"{path}: empty point file")
        dim = len(header)
        expected = [f"x{i}" for i in range(dim)]
        if [h.strip() for h in header] != expected:
            raise InvalidArgumentError(
                f"{path}: header must be {','.join(expected)}, got {','.join(header)}"
            )
        fields: list[str] = []
        lines: list[int] = []  # the line of each row
        for row in reader:  # a row's line is the last line of its record
            if not row:
                continue
            if len(row) != dim:
                _csv_floats(path, fields, lines)  # a non-numeric row above comes first
                raise InvalidArgumentError(f"{path}:{reader.line_num}: ragged row of width {len(row)}")
            fields += row
            lines.append(reader.line_num)
    except csv.Error as exc:  # a field longer than csv.field_size_limit()
        raise InvalidArgumentError(f"{path}:{reader.line_num}: {exc}") from None
    if not lines:
        raise InvalidArgumentError(f"{path}: no points")
    points = _csv_floats(path, fields, lines).reshape(len(lines), dim)
    with reading(path):
        return PointSet(points)


def _csv_floats(path, fields: list[str], lines: list[int]) -> np.ndarray:
    """The fields of the rows on lines, as one flat float array."""
    try:
        return np.array(list(map(float, fields)))
    except ValueError:
        dim = len(fields) // len(lines)
        for k, lineno in enumerate(lines):
            try:
                list(map(float, fields[k * dim : (k + 1) * dim]))
            except ValueError:
                raise InvalidArgumentError(f"{path}:{lineno}: non-numeric coordinate")
        raise


class _PlacedError(InvalidArgumentError):
    """An InvalidArgumentError whose message already starts with its place."""


@contextmanager
def reading(where):
    """Report a malformed input value as InvalidArgumentError("WHERE: ...").

    A constructor's InvalidArgumentError gets the prefix too; one that an
    inner `reading` block has prefixed already passes through unchanged.
    """
    try:
        yield
    except _PlacedError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise _PlacedError(f"{where}: {exc}") from exc


def read_json(path):
    """The parsed contents of a JSON file; malformed JSON is an InvalidArgumentError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or a file that is not UTF-8 text
        raise InvalidArgumentError(f"{path}: not valid JSON ({exc})")


def json_object(data, where, keys, required=(), kind="key") -> dict:
    """data, checked to be a JSON object with only `keys` and every required key."""
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"{where}: expected a JSON object")
    for key in data:
        if key not in keys:
            raise InvalidArgumentError(f"{where}: unknown {kind} {key!r}")
    for key in required:
        if key not in data:
            raise InvalidArgumentError(f"{where}: missing required key {key!r}")
    return data


def load_json_object(path, keys, required=()) -> dict:
    """The JSON object in a spec or config file, checked as json_object does."""
    return json_object(read_json(path), path, keys, required)


def is_json_int(value) -> bool:
    """A JSON integer; JSON's true, 2.0 and "2" are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value) -> bool:
    """A JSON integer >= 1."""
    return is_json_int(value) and value >= 1


def json_count(data: dict, key: str, default: int, where) -> int:
    """data[key], or default when it is absent, checked to be a count."""
    value = data.get(key, default)
    if not is_count(value):
        raise InvalidArgumentError(f"{where}: {key}: need an integer >= 1")
    return value


def json_reals(values, where) -> np.ndarray:
    """A JSON array of JSON numbers, which json.loads gives as ints and floats, as a float array."""
    if not isinstance(values, list):
        raise _PlacedError(f"{where}: need an array of numbers")
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise _PlacedError(f"{where}: need a number, got {json.dumps(bad)}")
    with reading(where):  # an integer past double range
        return np.array(values, dtype=np.float64)


def json_real(value, where) -> float:
    """A JSON number as a float, read as json_reals reads one."""
    return float(json_reals([value], where)[0])


def points_from_json(data, where) -> PointSet:
    """The point set in parsed JSON: a nonempty array of equal-length arrays of numbers."""
    if not isinstance(data, list) or not data:
        raise InvalidArgumentError(f"{where}: expected a nonempty JSON array of arrays")
    widths = {len(row) if isinstance(row, list) else -1 for row in data}
    if len(widths) != 1 or -1 in widths:
        raise InvalidArgumentError(f"{where}: ragged or non-array rows")
    with reading(where):
        return PointSet(json_reals([x for row in data for x in row], where).reshape(len(data), -1))


def points_from_dict(data: dict, where) -> PointSet:
    """The base points of a spec, inline as 'points' or in a 'points_file'."""
    if "points_file" in data:
        with reading(f"{where}: points_file"):
            path = Path(data["points_file"])
        return load_points(path)
    if "points" in data:
        return points_from_json(data["points"], f"{where}: points")
    raise InvalidArgumentError(f"{where}: need 'points' or 'points_file'")


# the keys spec_from_dict reads
SPEC_KEYS = frozenset({"points", "points_file", "norm", "radius"})


def spec_from_dict(data: dict, where) -> ParallelSetSpec:
    """A parallel set from a spec object: points, 'norm' (default l2), 'radius' (default 1)."""
    base = points_from_dict(data, where)
    with reading(f"{where}: norm"):
        norm = NormKind.parse(data.get("norm", "l2"))
    with reading(where):
        return ParallelSetSpec(base, norm, json_real(data.get("radius", 1.0), f"{where}: radius"))


def kneser_triple(a_k: float, b_k: float, t: float) -> None:
    """The rule of a shell-scaling triple: 0 < a_k <= b_k, 1 <= t and t * b_k finite."""
    if not (0.0 < a_k <= b_k < math.inf):
        raise InvalidArgumentError("need 0 < a_k <= b_k < inf")
    if not (1.0 <= t < math.inf):
        raise InvalidArgumentError("need 1 <= t < inf")
    if math.isinf(t * b_k):
        raise RangeOverflowError("t * b_k exceeds double range")


def kneser_params(data: dict, radius: float, where) -> tuple[float, float, float]:
    """(a_k, b_k, t) of a kneser spec, checked by kneser_triple; defaults radius / 2, radius and 1.5."""
    defaults = {"a_k": radius / 2.0, "b_k": radius, "t": 1.5}
    triple = tuple(json_real(data.get(key, value), f"{where}: {key}") for key, value in defaults.items())
    with reading(where):
        kneser_triple(*triple)
    return triple


def shell_params(data: dict, where) -> tuple[float | None, float]:
    """(delta, sigma) of a shell spec; delta None (r / 1000 at use) if absent or null, sigma 1."""
    delta = data.get("delta")
    with reading(where):
        return (None if delta is None else positive_real(json_real(delta, f"{where}: delta"), "delta"),
                positive_real(json_real(data.get("sigma", 1.0), f"{where}: sigma"), "sigma"))


def load_points_json(path) -> PointSet:
    return points_from_json(read_json(path), path)


def load_points(path) -> PointSet:
    p = Path(path)
    if p.suffix.lower() == ".json":
        return load_points_json(p)
    return load_points_csv(p)


_GROUP_TOL = 1e-12
_BLOCK_PAIRS = 1 << 16  # (row, other row) pairs in one block of a pairwise temporary


def row_blocks(n: int) -> list[slice]:
    """Slices of rows 0..n-1, each of at most _BLOCK_PAIRS // n rows (one at least)."""
    step = max(1, _BLOCK_PAIRS // max(n, 1))
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


def group_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy grouping of rows in input order: a row joins the first earlier
    kept row within _GROUP_TOL (Chebyshev), or is kept itself.

    Returns (indices of the kept rows, ascending; each row's group, an index
    into them).  The pairwise comparisons run in the blocks of row_blocks.
    When no two first coordinates lie within _GROUP_TOL, every row is kept:
    a rounded difference is monotone in its operands, so two sorted
    neighbours that far apart leave every pair that far apart.
    """
    n = len(points)
    rep = np.arange(n)  # the kept row each row joins; itself when kept
    if n < 2 or np.diff(np.sort(points[:, 0])).min() > _GROUP_TOL:
        return rep, rep.copy()
    for blk in row_blocks(n):
        start, stop = blk.start, blk.stop
        # Chebyshev distance as a running maximum over the coordinate columns
        first, *rest = points[:stop].T
        dist = np.abs(first - first[blk, None])
        for col in rest:
            np.maximum(dist, np.abs(col - col[blk, None]), out=dist)
        close = dist <= _GROUP_TOL
        close &= np.arange(stop) < np.arange(start, stop)[:, None]  # earlier rows only
        for k in np.flatnonzero(close.any(axis=1)):
            earlier_kept = np.flatnonzero(close[k] & (rep[:stop] == np.arange(stop)))
            if len(earlier_kept):
                rep[start + k] = earlier_kept[0]
    kept = np.flatnonzero(rep == np.arange(n))
    return kept, np.searchsorted(kept, rep)
