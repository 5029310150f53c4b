"""Deferrable-load tasks, fleets, randomized generation, and file I/O.

Units are kW, kWh, and hours throughout; the slot length `delta` defaults
to one hour. Slots are 1-based: a task with window (a, d) may draw power
during slots a..d inclusive and must end with total energy inside
[e_low, e_high].

File I/O: one JSON reader/writer (fleet, tree, battery, report files),
one slot-CSV pair (profile, bounds, price files) and the schedule CSV.
JSON keys are sorted and CSV values have six decimals: reruns diff cleanly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .errors import (BadProfile, DimensionMismatch, EmptyUnit, LengthMismatch,
                     ParseError, ValidationError)


@dataclass(frozen=True)
class ChargingTask:
    """One deferrable load: availability window, rate cap, energy interval."""

    id: str
    a: int
    d: int
    p: float
    e_low: float
    e_high: float

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError(f"task id must be a string, got {self.id!r}")
        if not all(map(math.isfinite, (self.p, self.e_low, self.e_high))):
            raise ValueError(f"task {self.id}: rate and energies must be finite")
        if not 1 <= self.a < self.d:
            raise ValidationError(f"task {self.id}: need 1 <= a < d, got a={self.a} d={self.d}")
        if not self.p > 0:
            raise ValidationError(f"task {self.id}: rate must be positive")
        if not 0 <= self.e_low <= self.e_high:
            raise ValidationError(f"task {self.id}: need 0 <= e_low <= e_high")

    @property
    def window(self) -> range:
        """Available slots a..d inclusive."""
        return range(self.a, self.d + 1)

    @property
    def window_length(self) -> int:
        return self.d - self.a + 1

    def capacity(self, delta: float = 1.0) -> float:
        """Maximum deliverable energy within the window."""
        return self.window_length * self.p * delta


@dataclass(frozen=True)
class Fleet:
    m: int
    tasks: tuple[ChargingTask, ...]
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if self.m < 1:
            raise ValidationError("horizon must have at least one slot")
        if not math.isfinite(self.delta):
            raise ValueError("slot length must be finite")
        if self.delta <= 0:
            raise ValidationError("slot length must be positive")
        seen = set()
        for t in self.tasks:
            if t.id in seen:
                raise ValidationError(f"duplicate task id {t.id!r}")
            seen.add(t.id)
            if t.d > self.m:
                raise ValidationError(f"task {t.id}: departure {t.d} past horizon {self.m}")
            if t.e_low > t.capacity(self.delta) + 1e-9:
                raise ValidationError(
                    f"task {t.id}: cannot reach e_low={t.e_low} within its window")

    @property
    def n(self) -> int:
        return len(self.tasks)

    def total_energy_interval(self) -> tuple[float, float]:
        return (sum(t.e_low for t in self.tasks), sum(t.e_high for t in self.tasks))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "delta_h": self.delta,
            "tasks": [
                {"id": t.id, "a": t.a, "d": t.d, "p_kw": t.p,
                 "e_low_kwh": t.e_low, "e_high_kwh": t.e_high}
                for t in self.tasks
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Fleet":
        tasks = tuple(
            ChargingTask(id=rec["id"], a=int(rec["a"]), d=int(rec["d"]),
                         p=float(rec["p_kw"]), e_low=float(rec["e_low_kwh"]),
                         e_high=float(rec["e_high_kwh"]))
            for rec in d["tasks"])
        return cls(m=int(d["m"]), tasks=tasks, delta=float(d["delta_h"]))


@dataclass(frozen=True)
class GenProfile:
    """Distribution knobs for randomized fleet generation.

    Defaults target a noon-anchored day: arrivals peak in the early evening
    (slot 7 of 24), stays last 6-12 hours, rates follow a three-type mix,
    and the required energy gets a +-5% interval around its nominal draw.
    """

    arrival_mean: float = 7.0
    arrival_sigma: float = 3.0
    stay_min: int = 6
    stay_max: int = 12
    rates: tuple[float, ...] = (3.3, 6.6, 7.2)
    rate_weights: tuple[float, ...] = (0.4, 0.4, 0.2)
    energy_min: float = 8.0
    energy_max: float = 24.0
    energy_flex: float = 0.05

    def validate(self) -> None:
        if len(self.rates) != len(self.rate_weights):
            raise BadProfile("rates and rate_weights lengths differ")
        if abs(sum(self.rate_weights) - 1.0) > 1e-9:
            raise BadProfile("rate_weights must sum to 1")
        if min(self.rates) <= 0:
            raise BadProfile("rates must be positive")
        if not 1 <= self.stay_min <= self.stay_max:
            raise BadProfile("need 1 <= stay_min <= stay_max")
        if not 0 < self.energy_min <= self.energy_max:
            raise BadProfile("need 0 < energy_min <= energy_max")
        if not 0 <= self.energy_flex < 1:
            raise BadProfile("energy_flex must be in [0, 1)")
        if self.arrival_sigma <= 0:
            raise BadProfile("arrival_sigma must be positive")


def generate_fleet(n: int, m: int, seed: int,
                   profile: Optional[GenProfile] = None,
                   delta: float = 1.0) -> Fleet:
    """Draw n tasks reproducibly; invalid draws are rejection-resampled."""
    if n < 1:
        raise BadProfile("need at least one task")
    if m < 2:
        raise BadProfile("need at least two slots")
    prof = profile or GenProfile()
    prof.validate()
    if prof.stay_min >= m:
        raise BadProfile("minimum stay does not fit the horizon")
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        for _ in range(1000):
            a = int(np.clip(round(rng.normal(prof.arrival_mean, prof.arrival_sigma)),
                            1, m - 1))
            stay = int(rng.integers(prof.stay_min, prof.stay_max + 1))
            d = min(a + stay, m)
            p = float(rng.choice(np.asarray(prof.rates), p=prof.rate_weights))
            e_nom = float(rng.uniform(prof.energy_min, prof.energy_max))
            cap = (d - a + 1) * p * delta
            e_nom = min(e_nom, cap / (1.0 + prof.energy_flex))
            task = ChargingTask(
                id=f"ev{i:04d}", a=a, d=d, p=p,
                e_low=(1.0 - prof.energy_flex) * e_nom,
                e_high=(1.0 + prof.energy_flex) * e_nom)
            if task.e_low <= task.capacity(delta) + 1e-9:
                tasks.append(task)
                break
        else:
            raise BadProfile("rejection sampling failed; profile too restrictive")
    return Fleet(m=m, tasks=tuple(tasks), delta=delta)


T = TypeVar("T")


def write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str, build: Callable[[dict], T]) -> T:
    """`build` applied to a JSON file's content. Malformed JSON, and content
    `build` cannot use (a missing field, a wrong type or value, vectors of
    unequal lengths, a unit with an empty admissible set), raise ParseError
    naming the file."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except (AttributeError, DimensionMismatch, EmptyUnit, IndexError, OverflowError,
            TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_slots(path: str, columns: dict[str, np.ndarray]) -> None:
    """Slot CSV: header `slot,<column names>`, one row per 1-based slot, exact cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", *columns])
        for t, row in enumerate(zip(*columns.values()), start=1):
            writer.writerow([t, *(repr(float(v)) for v in row)])


def read_slots(path: str, m: Optional[int] = None,
               column: Optional[str] = None) -> np.ndarray:
    """Second column of a slot CSV. With `column` the header must name it;
    with `m` the file must hold m rows, else LengthMismatch."""
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader, [])]
        if header[:1] != ["slot"] or (column is not None and header[1:2] != [column]):
            raise ParseError(f"{path}: expected header 'slot,{column or '...'}'")
        for line_no, rec in enumerate(reader, start=2):
            try:
                values.append(float(rec[1]))
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}: line {line_no}: expected slot,value ({exc})") from exc
            if not np.isfinite(values[-1]):
                raise ParseError(f"{path}: line {line_no}: value must be finite, not {rec[1]!r}")
    if m is not None and len(values) != m:
        raise LengthMismatch(f"{path}: {len(values)} rows for horizon {m}")
    return np.asarray(values)


def save_fleet(fleet: Fleet, path: str) -> None:
    write_json(path, fleet.to_dict())


def load_fleet(path: str) -> Fleet:
    return read_json(path, Fleet.from_dict)


def save_schedule(task_ids: Sequence[str], schedule: np.ndarray, path: str) -> None:
    """N x m kW matrix as CSV, header task_id,t1..tm, at round-trip precision."""
    schedule = np.atleast_2d(np.asarray(schedule, dtype=float))
    m = schedule.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task_id"] + [f"t{t}" for t in range(1, m + 1)])
        for tid, row in zip(task_ids, schedule):
            writer.writerow([tid] + [repr(float(v)) for v in row])


def load_schedule(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty schedule file") from None
        if not header or header[0] != "task_id":
            raise ParseError(f"{path}: expected header starting with 'task_id'")
        ids, rows = [], []
        for line_no, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ParseError(f"{path}: line {line_no}: expected {len(header)} fields")
            ids.append(rec[0])
            try:
                rows.append([float(v) for v in rec[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}: line {line_no}: {exc}") from exc
            if not np.isfinite(rows[-1]).all():
                raise ParseError(f"{path}: line {line_no}: values must be finite")
    return ids, np.asarray(rows, dtype=float)
