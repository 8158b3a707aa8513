"""Dyadic grid machinery on the reference box [-1, 1]^d.

Grid points are stored as exact dyadic rationals so that set membership,
refinement bookkeeping and cache keys never rely on floating-point
comparisons, and a subinterval's midpoint is the same point from either
end.  Physical coordinates are derived views obtained through the affine
map of the parameter box and are excluded from equality and hashing.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Box = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class DyadicCoord:
    """A dyadic rational num / 2**log2_den in [-1, 1], kept in lowest terms.

    Canonical form: ``num`` is odd, or ``num`` is 0/+-1 with ``log2_den`` 0.
    Equal values therefore always have equal representations.
    """

    num: int
    log2_den: int = 0

    def __post_init__(self):
        if self.log2_den < 0:
            raise ValueError("log2_den must be nonnegative")
        if self.num != 0 and self.num % 2 == 0:
            raise ValueError(f"{self.num}/2^{self.log2_den} is not in lowest terms")
        if self.num == 0 and self.log2_den != 0:
            raise ValueError("zero must be stored as 0/2^0")
        if abs(self.num) > (1 << self.log2_den):
            raise ValueError(f"{self.num}/2^{self.log2_den} lies outside [-1, 1]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2_den)

    @property
    def level(self) -> int:
        """Smallest m with this coordinate in gamma_set(m): 0 for 0, 1 for +-1,
        otherwise one more than the lowest-terms exponent."""
        if self.num == 0:
            return 0
        return self.log2_den + 1

    def shifted(self, direction: int, log2_step: int) -> "DyadicCoord | None":
        """This coordinate +- 2**-log2_step, or None if it leaves [-1, 1]."""
        k = max(self.log2_den, log2_step)
        num = self.num * (1 << (k - self.log2_den)) + direction * (1 << (k - log2_step))
        if abs(num) > (1 << k):
            return None
        return dyadic(num, k)


def dyadic(num: int, log2_den: int = 0) -> DyadicCoord:
    """Build a DyadicCoord from any integer pair, reducing to lowest terms."""
    while num != 0 and num % 2 == 0 and log2_den > 0:
        num //= 2
        log2_den -= 1
    if num == 0:
        log2_den = 0
    return DyadicCoord(num, log2_den)


def dyadic_from_fraction(x: Fraction) -> DyadicCoord:
    den = x.denominator
    log2_den = den.bit_length() - 1
    if den != (1 << log2_den):
        raise ValueError(f"{x} is not dyadic")
    return dyadic(x.numerator, log2_den)


@dataclass(frozen=True)
class ParamPoint:
    """A parameter sample: exact reference coordinates plus derived physical ones.

    Equality, hashing and ordering use only the reference coordinates, so two
    points are the same grid point iff their canonical representations match.
    ``exact`` holds their values, each a float where that is exact
    (``log2_den <= 53``) and a Fraction otherwise: a sort by it, or by ``<``,
    compares tuples of numbers in C.
    """

    ref: tuple[DyadicCoord, ...]
    phys: tuple[float, ...] = field(compare=False)

    def __post_init__(self):
        # computed once: the value the generated __hash__ would give, so set
        # and dict orders are those of a plain frozen dataclass
        object.__setattr__(self, "_hash", hash((self.ref,)))
        exact = (c.num / (1 << c.log2_den) if c.log2_den <= 53 else c.fraction for c in self.ref)
        object.__setattr__(self, "exact", tuple(exact))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exact == other.exact

    @classmethod
    def from_ref(cls, ref: Sequence[DyadicCoord], box: Box) -> "ParamPoint":
        if len(ref) != len(box):
            raise ValueError("dimension mismatch between point and box")
        phys = tuple(
            a + (b - a) * (c.num + (1 << c.log2_den)) / (2 << c.log2_den)
            for c, (a, b) in zip(ref, box)
        )
        return cls(ref=tuple(ref), phys=phys)

    @property
    def dim(self) -> int:
        return len(self.ref)

    def __lt__(self, other: "ParamPoint") -> bool:
        return self.exact < other.exact

    def __str__(self) -> str:
        return "(" + ", ".join(f"{x:g}" for x in self.phys) + ")"

    def key(self) -> str:
        """Filesystem-safe identifier derived from the exact coordinates."""
        return "_".join(f"{c.num}d{c.log2_den}" for c in self.ref)


def ref_of_phys(x: float | str | Fraction, axis_box: tuple[float, float]) -> DyadicCoord:
    """Exact inverse of the box map for one axis.

    Accepts a decimal string (preferred: exact) or a float/Fraction.  Raises
    if the resulting reference coordinate is not a dyadic rational.
    """
    a, b = Fraction(str(axis_box[0])), Fraction(str(axis_box[1]))
    xf = Fraction(x) if isinstance(x, (str, Fraction)) else Fraction(str(x))
    rel = (xf - a) / (b - a)
    return dyadic_from_fraction(2 * rel - 1)


def point_of_phys(coords: Sequence[float | str], box: Box) -> ParamPoint:
    ref = tuple(ref_of_phys(c, ab) for c, ab in zip(coords, box))
    return ParamPoint.from_ref(ref, box)


def gamma_set(m: int) -> list[DyadicCoord]:
    """The nested dyadic point set on [-1, 1]: {0} at m = 0, otherwise the
    2**m + 1 multiples of 2**(1-m), in ascending order."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return [dyadic(0)]
    return [dyadic(j, m - 1) for j in range(-(1 << (m - 1)), (1 << (m - 1)) + 1)]


def tensor_grid(m: int, box: Box) -> list[ParamPoint]:
    """Full tensor lattice gamma_set(m)^d mapped onto the box, sorted."""
    axes = [gamma_set(m)] * len(box)
    return sorted(ParamPoint.from_ref(ref, box) for ref in itertools.product(*axes))


def axis_moves(point: ParamPoint, box: Box, log2_steps: Iterable[int]) -> set[ParamPoint]:
    """Per-axis steps of +-2**-log2_steps[axis], intersected with the box."""
    out = set()
    for axis, log2_step in enumerate(log2_steps):
        for direction in (-1, 1):
            c = point.ref[axis].shifted(direction, log2_step)
            if c is None:
                continue
            ref = point.ref[:axis] + (c,) + point.ref[axis + 1 :]
            out.add(ParamPoint.from_ref(ref, box))
    return out


def forward_points(point: ParamPoint, box: Box) -> set[ParamPoint]:
    """Per-axis steps of +-2**-level, intersected with the box."""
    return axis_moves(point, box, (c.level for c in point.ref))


def neighbours(point: ParamPoint, box: Box) -> set[ParamPoint]:
    """Per-axis steps of +-2**-(level-1), intersected with the box.

    A level-0 coordinate has step 2, which always leaves [-1, 1], so such
    axes contribute no neighbours.
    """
    return axis_moves(point, box, (c.level - 1 for c in point.ref))


def midpoint(a: ParamPoint, b: ParamPoint, box: Box) -> ParamPoint:
    """The exact dyadic midpoint of two points that differ on exactly one axis.

    Symmetric in ``a`` and ``b``.  For a point and one of its neighbours it
    is the point's forward point on the axis toward that neighbour.
    """
    diff_axes = [k for k in range(a.dim) if a.ref[k] != b.ref[k]]
    if len(diff_axes) != 1:
        raise ValueError(f"{a} and {b} do not differ on exactly one axis")
    axis = diff_axes[0]
    c = dyadic_from_fraction((a.ref[axis].fraction + b.ref[axis].fraction) / 2)
    return ParamPoint.from_ref(a.ref[:axis] + (c,) + a.ref[axis + 1 :], box)
