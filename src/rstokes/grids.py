"""Uniform time grids on [0, T] for the Volterra solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform node sequence nodes[i] = T * i / N with nodes[0] = 0 and
    nodes[-1] = T.

    The nodes must equal ``np.linspace(0, T, N + 1)`` exactly, which every
    ``TimeGrid.uniform`` grid does; the lag convolutions and Toeplitz
    solves of ``volterra`` rest on that.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("time grid needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise ValueError("time grid must start at t = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("time grid nodes must be strictly increasing")
        if not np.array_equal(nodes, np.linspace(0.0, nodes[-1], nodes.size)):
            raise ValueError("time grid nodes must be uniform: linspace(0, T, N + 1)")

    @classmethod
    def uniform(cls, horizon: float, n_steps: int) -> "TimeGrid":
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if n_steps < 2:
            raise ValueError("need at least 2 steps")
        return cls(np.linspace(0.0, horizon, n_steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1

    @property
    def dt(self) -> float:
        """Step size."""
        return float(self.nodes[1] - self.nodes[0])
