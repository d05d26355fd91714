"""Tick traces: ordered sequences of absolute tick times."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TickTrace:
    """Strictly increasing absolute tick times of one clock or protocol run.

    ``truncated`` is set when the producing run hit its time horizon before
    emitting the requested number of ticks.  ``n_ignored_inputs`` counts
    input ticks that arrived while the consumer could not act on them.
    """

    times: np.ndarray
    truncated: bool = False
    n_ignored_inputs: int = 0

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        if t.ndim != 1:
            raise ValueError("tick times must be one-dimensional")
        if t.size:
            check_rows(t[np.newaxis])
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i):
        return self.times[i]

    @property
    def gaps(self) -> np.ndarray:
        """Inter-tick durations."""
        return np.diff(self.times)


def check_rows(times: np.ndarray):
    """The ``TickTrace`` invariant for a block of nonempty tick traces,
    one per row: raise ``ValueError`` unless every row is nonnegative and
    strictly increasing."""
    if (times[:, 0] < 0).any() or (np.diff(times, axis=1) <= 0).any():
        raise ValueError(
            "tick times must be nonnegative and strictly increasing")
