"""Every tuning value of the pipeline and the ranges it must lie in.

``MiningParams`` (used by :mod:`.mining`), ``TrainConfig`` and
``check_weights`` (used by :mod:`.harness`), ``check_train_frac`` (used by
:mod:`.domain`), ``SearchConfig`` (used by :mod:`.contexts`) and
``check_thresholds`` (used by :mod:`.evidence`) live here, apart from the
code that computes with them; each module that used one before it moved
here still exports it.  ``PipelineConfig`` is the CLI's flat view: one
field per tuning key, with the three sections built from it and the index
weights checked as it is made, so every stage refuses every bad value
before it reads the corpus, and without loading numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, make_dataclass

from .errors import DataError


@dataclass(frozen=True)
class MiningParams:
    sigma: float = 0.99
    kappa: int = 2
    tau: float = 0.49
    kappa_cap: int = 2

    def __post_init__(self):
        _check_integers(self, "kappa", "kappa_cap")
        if not 0.0 < self.sigma <= 1.0:
            raise DataError(f"sigma must be in (0, 1], got {self.sigma}")
        if not 0.0 <= self.tau <= 2.0:
            raise DataError(f"tau must be in [0, 2], got {self.tau}")
        if self.kappa < 1:
            raise DataError(f"kappa must be at least 1, got {self.kappa}")
        if self.kappa > self.kappa_cap:
            raise DataError(
                f"kappa={self.kappa} exceeds the configured cap {self.kappa_cap}; "
                f"raise kappa_cap deliberately if the blow-up is intended"
            )


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
        _check_integers(self, "hidden", "epochs", "batch_size", "ensemble", "seed")
        if self.hidden < 1 or self.epochs < 1 or self.batch_size < 1:
            raise DataError("hidden, epochs and batch_size must be positive")
        if not 0.0 < self.lr < math.inf:  # NaN fails this test too
            raise DataError(f"learning rate must be positive and finite, got {self.lr}")
        if self.ensemble < 1:
            raise DataError(f"ensemble must be positive, got {self.ensemble}")
        check_train_frac(self.train_frac)
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


def _check_integer(key: str, value) -> None:
    """An integer, a numpy one included; a float or a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{key} must be an integer, got {value!r}")


def _check_integers(cfg, *keys: str) -> None:
    for key in keys:
        _check_integer(key, getattr(cfg, key))


def check_train_frac(train_frac: float) -> None:
    if not 0.0 < train_frac < 1.0:  # NaN fails this test too
        raise DataError(f"train_frac must be in (0, 1), got {train_frac}")


def check_thresholds(epsilon: float, alpha: float, n_min: int) -> None:
    """Validity thresholds: epsilon in [0, 1], alpha in (0, 1), NaN failing
    both, and an integer n_min of at least 3, the fewest samples a p-value
    takes."""
    if not 0.0 <= epsilon <= 1.0:
        raise DataError(f"epsilon must be in [0, 1], got {epsilon}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")
    _check_integer("n_min", n_min)
    if n_min < 3:
        raise DataError(f"n_min must be at least 3, got {n_min}")


@dataclass(frozen=True)
class SearchConfig:
    max_dim: int = 4
    epsilon: float = 0.1
    alpha: float = 0.05
    n_min: int = 3
    early_stop: bool = True

    def __post_init__(self):
        _check_integers(self, "max_dim")
        if self.max_dim < 2:
            raise DataError(f"max_dim must be at least 2, got {self.max_dim}")
        check_thresholds(self.epsilon, self.alpha, self.n_min)


def check_weights(omega1: float, omega2: float) -> None:
    """Index weights: each in [0, 1], not both zero; NaN fails."""
    if not (0.0 <= omega1 <= 1.0 and 0.0 <= omega2 <= 1.0):
        raise DataError(f"weights must lie in [0, 1], got {omega1}, {omega2}")
    if omega1 + omega2 == 0.0:
        raise DataError("weights must not both be zero")


_SECTIONS = (("mining", MiningParams), ("train", TrainConfig), ("search", SearchConfig))


def _tuning_fields(cls):
    # early_stop picks the walk, not the result: with it, every set of one or two
    # clusters is scanned and a larger one only when it or an extension of it is
    # valid, so both walks find the same valid sets; it stays a library-only switch
    return [f for f in fields(cls) if f.name != "early_stop"]


def _post_init(cfg: "PipelineConfig") -> None:
    for name, cls in _SECTIONS:
        section = cls(**{f.name: getattr(cfg, f.name) for f in _tuning_fields(cls)})
        object.__setattr__(cfg, name, section)
    check_weights(cfg.omega1, cfg.omega2)


# one field per tuning key; making one builds and checks the sections
# ``mining``, ``train`` and ``search`` and checks the index weights
PipelineConfig = make_dataclass(
    "PipelineConfig",
    [(f.name, f.type, f.default) for _, cls in _SECTIONS for f in _tuning_fields(cls)]
    + [("omega1", float, 1.0), ("omega2", float, 1.0)],
    namespace={"__post_init__": _post_init, "__module__": __name__},
    frozen=True,
)
