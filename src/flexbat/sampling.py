"""Random and extreme profiles inside virtual batteries.

Hit-and-run over inequalities A x <= c; battery-specific wrappers strip
pinned coordinates (p_low == p_high) and optionally fix the total energy,
walking on the corresponding slice instead.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, TargetOutOfRange
from .geometry import VirtualBattery

_PIN_TOL = 1e-9


def hit_and_run(a: np.ndarray, c: np.ndarray, x0: np.ndarray, n_samples: int, seed: int,
                burn_in: int = 200, thin: int = 3,
                direction_filter: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                ) -> np.ndarray:
    """Walk uniformly inside the bounded polytope {x : a x <= c} starting
    from an interior x0."""
    x = np.asarray(x0, dtype=float).copy()
    dim = a.shape[1]
    if x.size != dim:
        raise DimensionMismatch("start point dimension vs polytope")
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, dim))
    taken = 0
    step = 0
    total = burn_in + n_samples * thin
    while taken < n_samples:
        d = rng.normal(size=dim)
        if direction_filter is not None:
            d = direction_filter(d)
        norm = np.linalg.norm(d)
        if norm < 1e-12:
            continue
        d /= norm
        ad = a @ d
        slack = c - a @ x
        with np.errstate(divide="ignore"):
            ratios = slack / ad
        fwd = ratios[ad > 1e-12]
        bwd = ratios[ad < -1e-12]
        t_hi = fwd.min() if fwd.size else np.inf
        t_lo = bwd.max() if bwd.size else -np.inf
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
            raise ValueError("polytope unbounded along a sampled direction")
        if t_hi < t_lo:
            t_lo = t_hi = 0.0  # numerically at a face; stay put this step
        x = x + rng.uniform(t_lo, t_hi) * d
        step += 1
        if step > burn_in and (step - burn_in) % thin == 0:
            out[taken] = x
            taken += 1
        if step > total + 10 * n_samples:
            raise RuntimeError("hit-and-run failed to collect samples")
    return out


def _free_split(b: VirtualBattery):
    free = (b.p_high - b.p_low) > _PIN_TOL
    return free, b.p_low[~free]


def battery_interior_point(b: VirtualBattery, delta: float = 1.0,
                           total_energy: Optional[float] = None) -> np.ndarray:
    """A point of the battery, strictly inside every non-degenerate facet."""
    free, pinned = _free_split(b)
    u = b.p_low.copy()
    width = b.p_high[free] - b.p_low[free]
    if not free.any():
        return u
    lo_sum = float(b.p_low[free].sum())
    span = float(width.sum())
    s_lo = max(b.e_low / delta - pinned.sum(), lo_sum)
    s_hi = min(b.e_high / delta - pinned.sum(), lo_sum + span)
    if total_energy is None:
        target = 0.5 * (s_lo + s_hi)
    else:
        target = total_energy / delta - pinned.sum()
        if not s_lo - 1e-6 <= target <= s_hi + 1e-6:
            raise TargetOutOfRange(f"total energy {total_energy} outside battery interval")
        target = min(max(target, s_lo), s_hi)
    theta = 0.0 if span == 0 else (target - lo_sum) / span
    u[free] = b.p_low[free] + theta * width
    return u


def sample_battery(b: VirtualBattery, n_samples: int, seed: int,
                   delta: float = 1.0, total_energy: Optional[float] = None,
                   burn_in: int = 200, thin: int = 3) -> np.ndarray:
    """Hit-and-run samples of a battery, as an (n_samples, m) array.

    With `total_energy` set (or a degenerate energy interval) the walk stays
    on the fixed-sum slice, using sum-preserving directions.
    """
    free, _ = _free_split(b)
    x_full = battery_interior_point(b, delta, total_energy)
    if not free.any():
        return np.tile(x_full, (n_samples, 1))
    nf = int(free.sum())
    pinned_sum = float(x_full[~free].sum())
    eye = np.eye(nf)
    ones = np.full((1, nf), delta)
    on_slice = total_energy is not None or (b.e_high - b.e_low) <= 1e-9
    if on_slice:
        a = np.vstack([eye, -eye])
        c = np.concatenate([b.p_high[free], -b.p_low[free]])
        direction_filter = lambda d: d - d.mean()
    else:
        a = np.vstack([eye, -eye, ones, -ones])
        c = np.concatenate([
            b.p_high[free], -b.p_low[free],
            [b.e_high - delta * pinned_sum], [-(b.e_low - delta * pinned_sum)],
        ])
        direction_filter = None
    walk = hit_and_run(a, c, x_full[free], n_samples, seed,
                       burn_in=burn_in, thin=thin, direction_filter=direction_filter)
    out = np.tile(x_full, (n_samples, 1))
    out[:, free] = walk
    return out


def greedy_profile(b: VirtualBattery, target_energy: float, delta: float = 1.0,
                   order: str = "early") -> np.ndarray:
    """Boundary profile filling slots at max width from one end of the horizon.

    `order="early"` pushes extra power into the earliest slots first,
    `order="late"` into the latest; both start from p_low.
    """
    if not b.e_low - 1e-9 <= target_energy <= b.e_high + 1e-9:
        raise TargetOutOfRange(f"target {target_energy} outside energy interval")
    u = b.p_low.copy()
    rem = target_energy / delta - u.sum()
    slots = range(b.m) if order == "early" else range(b.m - 1, -1, -1)
    for t in slots:
        if rem <= 0:
            break
        add = min(b.p_high[t] - b.p_low[t], rem)
        u[t] += add
        rem -= add
    return u
