"""Sampled phase-plane trajectories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteError


@dataclass(frozen=True)
class Trajectory:
    """Samples (t, x, y) of a planar curve on a strictly increasing time grid."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("t", "x", "y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.t.size
        if n == 0:
            raise ValueError("trajectory needs at least one sample")
        if self.x.shape != (n,) or self.y.shape != (n,):
            raise ValueError("t, x and y must be 1-d arrays of equal length")
        if n > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        for name in ("t", "x", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteError(f"trajectory {name} values must be finite")

    @classmethod
    def _checked(cls, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> Trajectory:
        """A trajectory of float arrays already checked as ``__post_init__`` would check them.

        The samplers validate their grid and test every value for finiteness
        themselves, so their trajectories skip the second check.
        """
        traj = object.__new__(cls)
        traj.__dict__.update(t=t, x=x, y=y)
        return traj

    def __len__(self) -> int:
        return int(self.t.size)
