"""Logarithmic timestep grid used to discretize the solving horizon."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_COUNT = 500
DEFAULT_HORIZON = 3600.0
DEFAULT_T_MIN = 0.01


@dataclass(frozen=True)
class TimestepGrid:
    count: int
    horizon: float
    t_min: float
    points: tuple[float, ...]

    def floor_index(self, seconds: float) -> int | None:
        """Largest index j with points[j] <= seconds, or None if below t_min."""
        j = bisect_right(self.points, seconds) - 1
        return j if j >= 0 else None

    def params(self) -> dict:
        return {"count": self.count, "horizon": self.horizon, "t_min": self.t_min}


@lru_cache(maxsize=16, typed=True)  # immutable; a model's grid is built on load and again to predict
def make_grid(
    count: int = DEFAULT_COUNT,
    horizon: float = DEFAULT_HORIZON,
    t_min: float = DEFAULT_T_MIN,
) -> TimestepGrid:
    """Geometric grid t_j = t_min * (horizon/t_min)^(j/(count-1)).

    Consecutive points keep a constant ratio; the endpoints are pinned to
    t_min and horizon exactly.
    """
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    if not (0 < t_min < horizon < math.inf):
        raise ValueError(f"need 0 < t_min < horizon < inf, not t_min={t_min}, horizon={horizon}")
    ratio = horizon / t_min
    points = [t_min * ratio ** (j / (count - 1)) for j in range(count)]
    points[0] = t_min
    points[-1] = horizon
    return TimestepGrid(count=count, horizon=float(horizon), t_min=float(t_min), points=tuple(points))
