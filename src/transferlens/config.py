"""Tuning dataclasses of the trainer and the evidence search.

``TrainConfig`` (used by :mod:`.harness`), ``SearchConfig`` (used by
:mod:`.contexts`) and ``check_thresholds`` (used by :mod:`.evidence`) live
here, apart from the numpy code that computes with them, so that the CLI
can build and check every stage's config without loading numpy.  Each
module that uses one still exports it.  ``MiningParams`` stays in
:mod:`.mining`, which loads no numpy either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DataError


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 16
    epochs: int = 200
    lr: float = 0.05
    batch_size: int = 16
    ensemble: int = 10
    train_frac: float = 0.8
    seed: int = 0

    def __post_init__(self):
        # the stack shapes come from these, so a float or a bool must not
        # get as far as numpy
        for key in ("hidden", "epochs", "batch_size", "ensemble", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DataError(f"{key} must be an integer, got {value!r}")
        if self.hidden < 1 or self.epochs < 1 or self.batch_size < 1:
            raise DataError("hidden, epochs and batch_size must be positive")
        if not 0.0 < self.lr < math.inf:  # NaN fails this test too
            raise DataError(f"learning rate must be positive and finite, got {self.lr}")
        if self.ensemble < 1:
            raise DataError(f"ensemble must be positive, got {self.ensemble}")
        if not 0.0 < self.train_frac < 1.0:  # NaN fails this test too
            raise DataError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


def check_thresholds(epsilon: float, alpha: float) -> None:
    """Validity thresholds: epsilon in [0, 1], alpha in (0, 1); NaN fails both."""
    if not 0.0 <= epsilon <= 1.0:
        raise DataError(f"epsilon must be in [0, 1], got {epsilon}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class SearchConfig:
    max_dim: int = 4
    epsilon: float = 0.1
    alpha: float = 0.05
    n_min: int = 3
    early_stop: bool = True

    def __post_init__(self):
        if self.max_dim < 2:
            raise DataError(f"max_dim must be at least 2, got {self.max_dim}")
        check_thresholds(self.epsilon, self.alpha)
