"""Virtual batteries and the homothets that scale and translate them.

A battery is a box of per-slot power bounds cut by a total-energy
interval; aggregation approximates a fleet by a homothet of one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch


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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()
                and np.isfinite([self.e_low, self.e_high]).all()):
            raise ValueError("battery bounds and energies must be finite")
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
