import math

import pytest

from pbselect.grid import make_grid


def test_default_grid_shape():
    grid = make_grid(500, 3600.0, 0.01)
    assert grid.count == 500
    assert len(grid.points) == 500
    assert grid.points[0] == 0.01
    assert grid.points[-1] == 3600.0


def test_small_geometric_grids():
    assert make_grid(4, 1000.0, 1.0).points == pytest.approx((1.0, 10.0, 100.0, 1000.0))
    assert make_grid(2, 10.0, 1.0).points == (1.0, 10.0)


def test_strictly_increasing_with_constant_ratio():
    grid = make_grid(100, 3600.0, 0.01)
    pts = grid.points
    assert all(a < b for a, b in zip(pts, pts[1:]))
    ratios = [b / a for a, b in zip(pts, pts[1:])]
    assert all(math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios)


@pytest.mark.parametrize(
    "count,horizon,t_min",
    [(1, 10.0, 1.0), (5, 10.0, 0.0), (5, 10.0, 10.0), (5, 1.0, 2.0), (3, math.inf, 1.0), (3, math.nan, 1.0)],
)
def test_invalid_parameters(count, horizon, t_min):
    with pytest.raises(ValueError):
        make_grid(count, horizon, t_min)


def test_floor_index():
    grid = make_grid(4, 1000.0, 1.0)
    assert grid.floor_index(0.5) is None
    assert grid.floor_index(1.0) == 0
    assert grid.floor_index(9.99) == 0
    assert grid.floor_index(10.0) == 1
    assert grid.floor_index(999.0) == 2
    assert grid.floor_index(1000.0) == 3
    assert grid.floor_index(5000.0) == 3
