import numpy as np
import pytest

from rstokes import TimeGrid


def test_uniform_nodes():
    grid = TimeGrid.uniform(2.0, 8)
    assert grid.n_steps == 8
    assert grid.horizon == 2.0
    np.testing.assert_allclose(grid.nodes, np.linspace(0.0, 2.0, 9), atol=0.0)
    assert grid.dt == 0.25


def test_dt_rejected_on_nonuniform():
    # uneven nodes used to pass as uniform, with dt = nodes[1] for every
    # solver: a relaxation profile on [0, 0.1, 0.5, 1] went negative
    off_by_one_ulp = np.linspace(0.0, 1.0, 9)
    off_by_one_ulp[4] = np.nextafter(off_by_one_ulp[4], 1.0)
    for nodes in ([0.0, 0.1, 0.5, 1.0], (np.arange(9) / 8.0) ** 2, off_by_one_ulp):
        with pytest.raises(ValueError, match="uniform"):
            TimeGrid(np.array(nodes))


@pytest.mark.parametrize("bad", [1, 0, -4])
def test_step_count_needs_at_least_two(bad):
    with pytest.raises(ValueError):
        TimeGrid.uniform(1.0, bad)


def test_horizon_must_be_positive():
    with pytest.raises(ValueError):
        TimeGrid.uniform(0.0, 4)


def test_nodes_must_start_at_zero_and_increase():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.4]))
