"""Polytope machinery: H-representations, homothets, virtual batteries.

Everything here is stated over facet (H-)representations {x : A x <= c}.
Fourier-Motzkin elimination is kept as a low-dimensional oracle against
which the LP-based routes are tested.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Hashable, Optional, Sequence

import numpy as np

from . import lp
from .errors import DimensionMismatch, MixedBases

_ZERO_COEF = 1e-12


def fields_equal(self, other) -> bool:
    """`__eq__` for dataclasses with numpy fields: arrays compare by
    `np.array_equal`, every other field by `==`."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


@dataclass(frozen=True)
class HPolytope:
    """Solution set of finitely many inequalities A x <= c.

    Coordinates may carry global slot labels through `coords` so a polytope
    over a load's availability window remembers which hours it talks about.
    """

    a: np.ndarray
    c: np.ndarray
    coords: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        c = np.asarray(self.c, dtype=float).ravel()
        if a.shape[0] != c.size:
            raise DimensionMismatch(f"{a.shape[0]} rows vs {c.size} right-hand sides")
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise ValueError("polytope data must be finite")
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        if self.coords is not None and len(self.coords) != a.shape[1]:
            raise DimensionMismatch("coordinate labels disagree with ambient dimension")

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class Homothet:
    """Scaled-and-translated copy lambda * B + mu of some base polytope."""

    lam: float
    mu: np.ndarray

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"homothet scale must be positive, got {self.lam}")
        mu = np.asarray(self.mu, dtype=float).ravel()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    def inverse(self) -> "Homothet":
        return Homothet(1.0 / self.lam, -self.mu / self.lam)


@dataclass(frozen=True)
class VirtualBattery:
    """Per-slot power bounds plus a total-energy interval.

    Membership (at slot length delta): p_low <= u <= p_high and
    e_low <= delta * sum(u) <= e_high. The battery does not know its slot
    length, so whether the power bounds can reach the energy interval is
    checked by its users (`FlexUnit`, `arbitrage`, `dispatch`) at theirs.
    """

    p_low: np.ndarray
    p_high: np.ndarray
    e_low: float
    e_high: float

    __eq__ = fields_equal

    def __post_init__(self):
        lo = np.asarray(self.p_low, dtype=float).ravel()
        hi = np.asarray(self.p_high, dtype=float).ravel()
        if lo.size != hi.size:
            raise DimensionMismatch("p_low and p_high lengths differ")
        tol = 1e-9 * max(1.0, float(np.abs(hi).max(initial=0.0)))
        if np.any(lo > hi + tol):
            raise ValueError("p_low exceeds p_high")
        if not self.e_low <= self.e_high + tol:
            raise ValueError("e_low exceeds e_high")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "p_low", lo)
        object.__setattr__(self, "p_high", hi)
        object.__setattr__(self, "e_low", float(self.e_low))
        object.__setattr__(self, "e_high", float(self.e_high))

    @property
    def m(self) -> int:
        return self.p_low.size

    def contains(self, u: np.ndarray, delta: float = 1.0, tol: float = 1e-7) -> bool:
        u = np.asarray(u, dtype=float).ravel()
        if u.size != self.m:
            raise DimensionMismatch(f"profile length {u.size} vs horizon {self.m}")
        energy = delta * u.sum()
        return bool(
            np.all(u >= self.p_low - tol) and np.all(u <= self.p_high + tol)
            and self.e_low - tol <= energy <= self.e_high + tol
        )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "p_low": [float(v) for v in self.p_low],
            "p_high": [float(v) for v in self.p_high],
            "e_low_kwh": self.e_low,
            "e_high_kwh": self.e_high,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VirtualBattery":
        """A wrong value raises ValueError, which `read_json` reports as a
        parse error naming the file."""
        b = cls(np.asarray(d["p_low"], float), np.asarray(d["p_high"], float),
                float(d["e_low_kwh"]), float(d["e_high_kwh"]))
        if b.m != int(d["m"]):
            raise ValueError("battery 'm' disagrees with bound vectors")
        return b


def battery_to_hpolytope(b: VirtualBattery, delta: float = 1.0,
                         coords: Optional[tuple[int, ...]] = None) -> HPolytope:
    """Facet form [I; -I; delta*1; -delta*1] x <= (p_high, -p_low, e_high, -e_low)."""
    m = b.m
    eye = np.eye(m)
    ones = np.full((1, m), delta)
    a = np.vstack([eye, -eye, ones, -ones])
    c = np.concatenate([b.p_high, -b.p_low, [b.e_high], [-b.e_low]])
    return HPolytope(a, c, coords=coords)


def contains_point(p: HPolytope, x: np.ndarray, tol: float = lp.TOL_FEAS) -> bool:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.dim:
        raise DimensionMismatch(f"point dim {x.size} vs polytope dim {p.dim}")
    return bool(np.all(p.a @ x <= p.c + tol))


def homothet_apply(h: Homothet, b: HPolytope) -> HPolytope:
    """Image {A x <= lam*c + A mu}: x in result iff (x - mu)/lam in b."""
    if h.mu.size != b.dim:
        raise DimensionMismatch("translate length vs polytope dimension")
    return HPolytope(b.a, h.lam * b.c + b.a @ h.mu, coords=b.coords)


def homothet_apply_battery(h: Homothet, b: VirtualBattery,
                           delta: float = 1.0) -> VirtualBattery:
    """Battery image under u -> lam*u + mu at slot length `delta` (bounds
    map facet-wise; the energy interval moves by delta * sum(mu))."""
    if h.mu.size != b.m:
        raise DimensionMismatch("translate length vs battery horizon")
    shift = delta * float(h.mu.sum())
    return VirtualBattery(
        p_low=h.lam * b.p_low + h.mu,
        p_high=h.lam * b.p_high + h.mu,
        e_low=h.lam * b.e_low + shift,
        e_high=h.lam * b.e_high + shift,
    )


def lemma1_sum(homothets: Sequence[Homothet],
               base_keys: Optional[Sequence[Hashable]] = None) -> Homothet:
    """Minkowski sum of homothets of one shared base: (sum lam_k, sum mu_k).

    Valid only when every input scales the same base polytope; pass
    `base_keys` to have that checked.
    """
    hs = list(homothets)
    if not hs:
        raise ValueError("need at least one homothet")
    if base_keys is not None:
        keys = set(base_keys)
        if len(keys) > 1:
            raise MixedBases(f"distinct bases {sorted(map(str, keys))}; "
                             "aggregate through the pipeline instead")
    lam = sum(h.lam for h in hs)
    mu = np.sum([h.mu for h in hs], axis=0)
    return Homothet(lam, mu)


def fm_eliminate_one(p: HPolytope, coord_index: int) -> HPolytope:
    """Exact projection dropping one coordinate (classical elimination).

    Pairs each positive-coefficient row with each negative one; redundant
    output rows are left in place.
    """
    if p.dim < 2:
        raise DimensionMismatch("need at least two coordinates to eliminate one")
    if not 0 <= coord_index < p.dim:
        raise DimensionMismatch(f"coordinate {coord_index} out of range")
    col = p.a[:, coord_index]
    rest = np.delete(p.a, coord_index, axis=1)
    pos = np.where(col > _ZERO_COEF)[0]
    neg = np.where(col < -_ZERO_COEF)[0]
    zero = np.where(np.abs(col) <= _ZERO_COEF)[0]
    rows = [rest[zero]]
    rhs = [p.c[zero]]
    for i in pos:
        for j in neg:
            rows.append((-col[j]) * rest[i:i + 1] + col[i] * rest[j:j + 1])
            rhs.append(np.array([(-col[j]) * p.c[i] + col[i] * p.c[j]]))
    coords = None
    if p.coords is not None:
        coords = tuple(v for k, v in enumerate(p.coords) if k != coord_index)
    return HPolytope(np.vstack(rows), np.concatenate(rhs), coords=coords)
