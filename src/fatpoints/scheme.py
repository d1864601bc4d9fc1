"""Fat point schemes in projective space.

A scheme is a list of distinct projective points with positive integer
multiplicities.  This module covers construction and validation, the
coordinate-padding embedding into a larger projective space, multiplicity
truncation (with the convention that a power of a point ideal with
non-positive exponent is the whole coordinate ring), generators for test
configurations, and an exact JSON serialization.

Coordinates are rational.  Every invariant computed downstream is the rank
of a matrix whose entries are polynomial in the coordinates, and rank does
not change under field extension, so rational points fully exercise the
identities this package checks.  Points with irrational coordinates are
out of scope.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionMismatch,
    DuplicateParameter,
    DuplicatePoint,
    NonpositiveMultiplicity,
    SchemeFormatError,
    TargetTooSmall,
    ZeroParameter,
    ZeroPoint,
    _brief,
    _text,
)
from .exactlinalg import binomial

__all__ = [
    "ProjectivePoint",
    "FatPointScheme",
    "UnitIdeal",
    "TruncatedScheme",
    "make_scheme",
    "multiplicity",
    "embed",
    "truncate",
    "rnc_points",
    "gen_random",
    "scheme_to_json",
    "scheme_from_json",
    "scheme_to_json_dict",
    "scheme_from_json_dict",
    "scheme_fingerprint",
]

_RATIONAL_STRING = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_ZERO = Fraction(0)


def _to_fraction(value) -> Fraction:
    if type(value) is Fraction:  # immutable, so shared rather than copied
        return value
    if isinstance(value, str):
        if not _RATIONAL_STRING.match(value):
            raise SchemeFormatError(f"coordinate of {len(value)} characters is not a fraction")
        try:
            return Fraction(value)
        except ValueError as exc:  # over the interpreter's integer-string limit
            raise SchemeFormatError(f"coordinate of {len(value)} characters: {exc}") from None
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise SchemeFormatError(f"coordinates must be exact rationals, got a {type(value).__name__}")


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^n as a normalized homogeneous coordinate vector.

    The constructor rescales so that the first nonzero coordinate is 1;
    two inputs describe the same point exactly when the normalized tuples
    compare equal.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(_to_fraction(c) for c in self.coords)
        lead = next((c for c in coords if c != 0), None)
        if lead is None:
            raise ZeroPoint("all homogeneous coordinates are zero")
        if lead != 1:
            coords = tuple(c / lead for c in coords)
        object.__setattr__(self, "coords", coords)

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    # The hash and the integer representative are computed once per point,
    # on first use, for the row builder's hot path, and kept out of the
    # dataclass fields: equality, repr and JSON never see them.

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.coords)

    @cached_property
    def _integral(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """``(lead, support, values)``: the least common denominator of the
        coordinates, the positions of the nonzero coordinates, and the
        integer representative (the point times lead) at those positions."""
        lead = math.lcm(*(c.denominator for c in self.coords))
        support = tuple(j for j, c in enumerate(self.coords) if c)
        values = tuple(
            self.coords[j].numerator * (lead // self.coords[j].denominator) for j in support
        )
        return lead, support, values


@dataclass(frozen=True)
class FatPointScheme:
    """Distinct points with positive multiplicities: m1*P1 + ... + ms*Ps."""

    ambient_dim: int
    components: tuple[tuple[ProjectivePoint, int], ...]

    # the hash and the fingerprint are kept out of the fields like the
    # points' cached values; memo lookups hash a scheme many times

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.ambient_dim, self.components))

    @cached_property
    def _fingerprint(self) -> str:
        canonical = json.dumps(scheme_to_json_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def num_points(self) -> int:
        return len(self.components)

    @property
    def points(self) -> tuple[ProjectivePoint, ...]:
        return tuple(p for p, _ in self.components)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.components)

    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class UnitIdeal:
    """Marker for the scheme whose defining ideal is the whole ring.

    Produced by :func:`truncate` when every multiplicity drops to zero or
    below; every Hilbert value of this object is 0.
    """

    ambient_dim: int


TruncatedScheme = Union[FatPointScheme, UnitIdeal]


def make_scheme(ambient_dim: int, raw_components: Iterable[tuple[Sequence, int]]) -> FatPointScheme:
    """Validate and normalize components into a scheme.

    Component order is preserved.  Raises ZeroPoint, DuplicatePoint,
    NonpositiveMultiplicity, DimensionMismatch or SchemeFormatError (no
    components, ambient dimension below 1) on bad input.
    """
    if ambient_dim < 1:
        raise SchemeFormatError("ambient dimension must be at least 1")
    # points are named by their position, never by their coordinates,
    # which may be too many or too long to print
    components = []
    seen: dict[ProjectivePoint, int] = {}
    for k, (coords, mult) in enumerate(raw_components):
        coords = tuple(coords)
        if len(coords) != ambient_dim + 1:
            raise DimensionMismatch(
                f"points[{k}] has {len(coords)} coordinates, expected {_brief(ambient_dim + 1)}"
            )
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise NonpositiveMultiplicity(
                f"points[{k}] has a multiplicity of type {type(mult).__name__} "
                "that is not a positive integer"
            )
        point = ProjectivePoint(coords)
        if point in seen:
            raise DuplicatePoint(f"points[{k}] equals points[{seen[point]}] after normalization")
        seen[point] = k
        components.append((point, mult))
    if not components:
        raise SchemeFormatError("a scheme needs at least one component")
    return FatPointScheme(ambient_dim, tuple(components))


def _image_dim(scheme: TruncatedScheme, target_dim: int | None) -> int:
    """The ambient dimension of ``embed(scheme, target_dim)``, the scheme's
    own for None.  A target that is not an int, or is below the scheme's,
    is refused."""
    n = scheme.ambient_dim
    if target_dim is None:
        return n
    if not isinstance(target_dim, int) or isinstance(target_dim, bool):
        raise TypeError(f"target dimension must be an int, got {type(target_dim).__name__}")
    if target_dim < n:
        raise TargetTooSmall(target_dim, n)
    return target_dim


def multiplicity(scheme: FatPointScheme, target_dim: int | None = None) -> int:
    """Multiplicity e of the coordinate ring: sum of C(m_i + n - 1, n), for
    the scheme or, with n = target_dim, its image ``embed(scheme, target_dim)``."""
    n = _image_dim(scheme, target_dim)
    return sum(binomial(m + n - 1, n) for m in scheme.multiplicities)


def embed(scheme: FatPointScheme, target_dim: int) -> FatPointScheme:
    """Pad every point with target_dim - n trailing zero coordinates.

    Multiplicities are unchanged and the identity embedding returns the
    scheme itself.  Padding never touches the leading coordinate, so the
    points stay normalized and pairwise distinct.
    """
    n = scheme.ambient_dim
    if _image_dim(scheme, target_dim) == n:
        return scheme
    pad = (_ZERO,) * (target_dim - n)
    comps = tuple((ProjectivePoint(p.coords + pad), m) for p, m in scheme.components)
    return FatPointScheme(target_dim, comps)


def truncate(scheme: TruncatedScheme, k: int) -> TruncatedScheme:
    """Lower every multiplicity by k, dropping components that reach 0.

    If nothing survives the result is the UnitIdeal marker (the defining
    ideal is the whole ring).  Negative k raises multiplicities.
    """
    if isinstance(scheme, UnitIdeal):
        return scheme
    comps = tuple((p, m - k) for p, m in scheme.components if m - k >= 1)
    if not comps:
        return UnitIdeal(scheme.ambient_dim)
    return FatPointScheme(scheme.ambient_dim, comps)


def rnc_points(n: int, params: Sequence[tuple]) -> list[ProjectivePoint]:
    """Points (s^n, s^(n-1) t, ..., t^n) on the rational normal curve of P^n.

    Each parameter pair is a point of the projective line; pairs must be
    nonzero and pairwise distinct there, which makes the images distinct.
    """
    if n < 1:
        raise SchemeFormatError("ambient dimension must be at least 1")
    pairs = []
    for s, t in params:
        s, t = _to_fraction(s), _to_fraction(t)
        if s == 0 and t == 0:
            raise ZeroParameter("parameter pair (0, 0) does not describe a point")
        for s2, t2 in pairs:
            if s * t2 - t * s2 == 0:
                raise DuplicateParameter(
                    f"parameters ({s}, {t}) and ({s2}, {t2}) coincide on the line"
                )
        pairs.append((s, t))
    return [
        ProjectivePoint(tuple(s ** (n - j) * t**j for j in range(n + 1))) for s, t in pairs
    ]


_COORDINATE_BOX = 5
_MAX_DRAWS = 2000


def _draw_distinct(rng: random.Random, count: int, make) -> list:
    seen = set()
    out = []
    for _ in range(_MAX_DRAWS):
        candidate = make()
        if candidate is None or candidate in seen:
            continue
        seen.add(candidate)
        out.append(candidate)
        if len(out) == count:
            return out
    raise DuplicatePoint(f"could not draw {count} distinct points in {_MAX_DRAWS} attempts")


def gen_random(
    n: int, s: int, mults: Sequence[int], config: str = "generic", seed: int = 0
) -> FatPointScheme:
    """Deterministic random scheme with the given multiplicities.

    config selects the support: ``generic`` draws coordinates from the
    integer box [-5, 5], ``collinear`` puts all points on the line spanned
    by the first two coordinate points, ``rnc`` puts them on the rational
    normal curve.
    """
    if s != len(mults):
        raise SchemeFormatError(f"s = {s} but {len(mults)} multiplicities were given")
    if not mults:
        raise SchemeFormatError("a scheme needs at least one component")
    if config not in ("generic", "collinear", "rnc"):
        raise SchemeFormatError(f"unknown configuration {config!r}")
    if n < 1:
        raise SchemeFormatError("ambient dimension must be at least 1")
    rng = random.Random(seed)

    def draw_box(k: int):
        return tuple(rng.randint(-_COORDINATE_BOX, _COORDINATE_BOX) for _ in range(k))

    if config == "generic":

        def make():
            coords = draw_box(n + 1)
            return ProjectivePoint(coords) if any(coords) else None

        points = _draw_distinct(rng, s, make)
    else:
        # both remaining configs are parametrized by points of the line
        def make():
            pair = draw_box(2)
            return ProjectivePoint(pair) if any(pair) else None

        line = _draw_distinct(rng, s, make)
        if config == "collinear":
            zeros = (Fraction(0),) * (n - 1)
            points = [ProjectivePoint(p.coords + zeros) for p in line]
        else:
            points = rnc_points(n, [p.coords for p in line])
    return make_scheme(n, [(p.coords, m) for p, m in zip(points, mults)])


def scheme_to_json_dict(scheme: FatPointScheme) -> dict:
    return {
        "ambient_dim": scheme.ambient_dim,
        "points": [
            {"coords": [_text(c, "coordinate") for c in p.coords], "multiplicity": m}
            for p, m in scheme.components
        ],
    }


def scheme_to_json(scheme: FatPointScheme, indent: int | None = 2) -> str:
    return json.dumps(scheme_to_json_dict(scheme), indent=indent, sort_keys=True)


def scheme_from_json_dict(doc: dict) -> FatPointScheme:
    if not isinstance(doc, dict):
        raise SchemeFormatError("scheme document must be a JSON object")
    try:
        ambient = doc["ambient_dim"]
        points = doc["points"]
    except KeyError as missing:
        raise SchemeFormatError(f"missing key {missing}") from None
    if not isinstance(ambient, int) or isinstance(ambient, bool):
        raise SchemeFormatError("ambient_dim must be an integer")
    if not isinstance(points, list):
        raise SchemeFormatError("points must be a list")
    raw = []
    for k, entry in enumerate(points):
        if not isinstance(entry, dict) or set(entry) != {"coords", "multiplicity"}:
            raise SchemeFormatError(f"points[{k}] needs exactly the keys coords and multiplicity")
        mult = entry["multiplicity"]
        if not isinstance(mult, int) or isinstance(mult, bool):
            raise SchemeFormatError(f"points[{k}] has a multiplicity of type {type(mult).__name__}")
        coords = entry["coords"]
        if not isinstance(coords, list):
            raise SchemeFormatError(f"points[{k}] coords must be a list of rational strings")
        try:
            raw.append((tuple(map(_to_fraction, coords)), mult))
        except SchemeFormatError as exc:
            raise SchemeFormatError(f"points[{k}]: {exc}") from None
    return make_scheme(ambient, raw)


def scheme_from_json(text: str) -> FatPointScheme:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, over-long integer, deep nesting
        raise SchemeFormatError(f"invalid JSON: {exc}") from None
    return scheme_from_json_dict(doc)


def scheme_fingerprint(scheme: FatPointScheme) -> str:
    """Short hash of the canonical JSON form, used to tag reports; computed
    once per scheme."""
    return scheme._fingerprint
