"""Transfer experiments between learning domains.

For an ordered pair of domains (source, destination) three classifiers are
trained on the destination's training split: ``base`` from scratch,
``hard`` reusing the source model's feature block frozen with a fresh head,
and ``soft`` starting from the full source model with everything trainable.
Each AUC is the mean over an ensemble of seeds ``cfg.seed + k``, and the
seed-k source model starts the seed-k hard and soft fits.  The test AUCs
yield the transfer indices:

    fsi = auc_base - auc_hard     feature-shift index
    fgi = auc_soft - auc_base     fine-tuning gain index
    fti = (w1 * fgi - w2 * fsi) / (w1 + w2)

Positive fti means the source helps the destination; negative means it
hurts.  The matrix over all ordered pairs feeds the evidence engine, either
computed here or ingested from a CSV of previously measured AUCs.

``_fit`` is the one trainer.  It steps a stack of S sources by E seeds in
place, with one batched product per layer per minibatch, and each slot of
the stack is bit-identical to the network fit alone.  ``fti_matrix`` fits
each domain's ensemble as one ``train_within`` stack (S = 1) and each
destination's hard or soft transfers as one ``transfer`` stack over all
other domains' ensembles; ``evaluate_pair`` fits every model as its own
one-model stack and is the reference the matrix must match.
"""

from __future__ import annotations

import csv
import logging
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .domain import (
    LearningDomain,
    build_vocabulary,
    encode_dataset,
    split_indices,
    value_properties,
)
from .errors import DataError

log = logging.getLogger(__name__)


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
        if not 0.0 < self.lr < np.inf:  # NaN fails this test too
            raise DataError(f"learning rate must be positive and finite, got {self.lr}")
        if self.ensemble < 1:
            raise DataError(f"ensemble must be positive, got {self.ensemble}")
        if not 0.0 < self.train_frac < 1.0:  # NaN fails this test too
            raise DataError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


@dataclass
class Model:
    """One-hidden-layer network with the input standardization it was fit under.

    One network has ``w1`` (d, h), ``b1`` and ``w2`` (h,) and a float
    ``b2``.  A stack of S sources by E seeds, all fit on one split and so
    sharing ``mu`` and ``sigma``, puts those two axes first: ``w1`` is
    (S, E, d, h), ``b1`` and ``w2`` are (S, E, h) and ``b2`` is (S, E).
    """

    mu: np.ndarray
    sigma: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float | np.ndarray

    def at(self, s: int, k: int) -> Model:
        """Slot ``(s, k)`` of a stack as one network (views of its weights)."""
        return Model(
            self.mu, self.sigma, self.w1[s, k], self.b1[s, k], self.w2[s, k], float(self.b2[s, k])
        )


def _check_classes(y: np.ndarray, what: str) -> None:
    if y.size == 0 or y.min() == y.max():
        raise DataError(f"{what} needs both classes present")


def predict_proba(model: Model, x: np.ndarray) -> np.ndarray:
    """Class-1 probabilities of one network on the rows of ``x``."""
    xs = (np.asarray(x, dtype=np.float64) - model.mu) / model.sigma
    a1 = np.maximum(xs @ model.w1 + model.b1, 0.0)
    return expit(a1 @ model.w2 + model.b2)


def _fit(
    stack: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    rngs: list[np.random.Generator],
    train_features: bool,
) -> Model:
    """Minibatch SGD on a (S, E) stack, in place.

    Seed k's generator draws the permutation of every epoch for slot
    ``(s, k)`` of all S sources, so each minibatch is one ``(E, b, d)``
    gather the sources share by broadcasting.  Every product is a batch of
    the 2-D products one network alone would make, and every other step is
    elementwise or a reduction along the same axis, so each slot is
    bit-identical to fitting its network alone.
    """
    n = len(y)
    xs = (x - stack.mu) / stack.sigma
    w1, b1, w2, b2 = stack.w1, stack.b1, stack.w2, stack.b2
    gw1 = np.empty_like(w1) if train_features else None
    for _ in range(cfg.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for lo in range(0, n, cfg.batch_size):
            idx = order[:, lo : lo + cfg.batch_size]
            xb = xs[idx]
            z1 = xb @ w1 + b1[..., None, :]
            a1 = np.maximum(z1, 0.0)
            p = expit((a1 @ w2[..., None])[..., 0] + b2[..., None])
            dz2 = (p - y[idx]) / idx.shape[1]
            gw2 = (a1.swapaxes(-1, -2) @ dz2[..., None])[..., 0]
            gb2 = dz2.sum(axis=-1)
            if train_features:
                dz1 = dz2[..., None] * w2[..., None, :] * (z1 > 0)
                np.matmul(xb.swapaxes(-1, -2), dz1, out=gw1)
                gw1 *= cfg.lr
                w1 -= gw1
                b1 -= cfg.lr * dz1.sum(axis=-2)
            w2 -= cfg.lr * gw2
            b2 -= cfg.lr * gb2
    return stack


def _standardize_params(x: np.ndarray):
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    return mu, sigma


def _fresh_head(d_hidden: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(1.0 / d_hidden), size=d_hidden)


def _seeds(seed: int | Sequence[int]) -> tuple[list[int], bool]:
    """The seeds of a fit, and whether ``seed`` asked for one network."""
    if isinstance(seed, numbers.Integral):
        return [seed], True
    seeds = list(seed)
    if not seeds:
        raise DataError("a model stack needs at least one seed")
    return seeds, False


def _checked_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_classes(y, "training split")
    return x, y


def train_within(
    x: np.ndarray, y: np.ndarray, cfg: TrainConfig, seed: int | Sequence[int]
) -> Model:
    """Fit fresh models on one training split.

    An int ``seed`` gives one model.  A sequence of E seeds gives a (1, E)
    stack whose slot ``(0, k)`` is the model of ``seed[k]`` alone.
    """
    x, y = _checked_xy(x, y)
    seeds, one = _seeds(seed)
    rngs = [np.random.default_rng(s) for s in seeds]
    d = x.shape[1]
    heads = [_fresh_head(cfg.hidden, rng) for rng in rngs]
    w1 = [rng.normal(0.0, np.sqrt(2.0 / max(d, 1)), size=(d, cfg.hidden)) for rng in rngs]
    mu, sigma = _standardize_params(x)
    stack = Model(
        mu=mu,
        sigma=sigma,
        w1=np.stack(w1)[None],
        b1=np.zeros((1, len(seeds), cfg.hidden)),
        w2=np.stack(heads)[None],
        b2=np.zeros((1, len(seeds))),
    )
    _fit(stack, x, y, cfg, rngs, train_features=True)
    return stack.at(0, 0) if one else stack


def transfer(
    source: Model | Sequence[Model],
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seed: int | Sequence[int],
    mode: str,
) -> Model:
    """Adapt source models to a new training split.

    ``hard`` keeps the source feature block frozen and fits only a fresh
    head; ``soft`` starts from the whole source model and fits everything.
    Input standardization is preprocessing, not weights: both modes refit
    it on the new split, otherwise features constant within the source
    domain turn into huge offsets here and saturate the network.

    One ``source`` model with an int ``seed`` gives one model.  A list of S
    stacks of E models with a sequence of E seeds gives a (S, E) stack
    whose slot ``(s, k)`` is model k of ``source[s]`` adapted alone at
    ``seed[k]``.
    """
    if mode not in ("hard", "soft"):
        raise DataError(f"unknown transfer mode {mode!r} (expected hard or soft)")
    x, y = _checked_xy(x, y)
    seeds, one = _seeds(seed)
    sources = [source] if one else list(source)
    if not sources:
        raise DataError("transfer needs at least one source")
    for src in sources:
        if src.w1.ndim != (2 if one else 4) or (not one and src.w1.shape[1] != len(seeds)):
            raise DataError(
                "transfer takes one source model with one seed, or source stacks "
                "of one model per seed with a sequence of seeds"
            )
        if x.shape[1] != src.w1.shape[-2]:
            raise DataError(
                f"feature width {x.shape[1]} does not match the source model "
                f"({src.w1.shape[-2]}); encode both domains over one vocabulary"
            )

    def stacked(field: str, tail: tuple[int, ...]) -> np.ndarray:
        return np.concatenate(
            [np.reshape(getattr(src, field), (-1, len(seeds)) + tail) for src in sources]
        )

    rngs = [np.random.default_rng(s) for s in seeds]
    w1 = stacked("w1", sources[0].w1.shape[-2:])
    b1 = stacked("b1", (w1.shape[-1],))
    if mode == "hard":
        heads = np.stack([_fresh_head(cfg.hidden, rng) for rng in rngs])
        w2 = np.repeat(heads[None], len(w1), axis=0)
        b2 = np.zeros(w1.shape[:2])
    else:
        w2 = stacked("w2", (w1.shape[-1],))
        b2 = stacked("b2", ())
    mu, sigma = _standardize_params(x)
    stack = _fit(Model(mu, sigma, w1, b1, w2, b2), x, y, cfg, rngs, mode == "soft")
    return stack.at(0, 0) if one else stack


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via average ranks (ties handled)."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise DataError("labels and scores must have the same length")
    _check_classes(labels, "evaluation split")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite; a diverged model gives NaN, try a smaller lr")
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float(
        (ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0)
        / (n_pos * n_neg)
    )


@dataclass(frozen=True)
class TransferRecord:
    source: str
    target: str
    auc_base: float
    auc_hard: float
    auc_soft: float

    @property
    def fsi(self) -> float:
        return self.auc_base - self.auc_hard

    @property
    def fgi(self) -> float:
        return self.auc_soft - self.auc_base

    def fti(self, omega1: float = 1.0, omega2: float = 1.0) -> float:
        check_weights(omega1, omega2)
        return (omega1 * self.fgi - omega2 * self.fsi) / (omega1 + omega2)


def check_weights(omega1: float, omega2: float) -> None:
    if not (0.0 <= omega1 <= 1.0 and 0.0 <= omega2 <= 1.0):
        raise DataError(f"weights must lie in [0, 1], got {omega1}, {omega2}")
    if omega1 + omega2 == 0.0:
        raise DataError("weights must not both be zero")


@dataclass
class DomainDataset:
    id: str
    x: np.ndarray
    y: np.ndarray
    train: np.ndarray
    test: np.ndarray


def prepare_datasets(
    domains: list[LearningDomain], cfg: TrainConfig
) -> list[DomainDataset]:
    """Encode every domain over the shared vocabulary and split it.

    Domains that cannot be encoded or whose training split collapses to a
    single class are skipped with a warning so one bad domain does not sink
    the whole matrix.
    """
    vocab = build_vocabulary(domains)
    props = value_properties(domains)
    out = []
    for d in domains:
        try:
            x, y = encode_dataset(d, vocab, props)
            train, test = split_indices(d, cfg.train_frac, cfg.seed)
            _check_classes(y[train], f"training split of {d.id}")
            _check_classes(y[test], f"test split of {d.id}")
        except DataError as exc:
            log.warning("skipping domain %s: %s", d.id, exc)
            continue
        out.append(DomainDataset(d.id, x, y, train, test))
    if len(out) < 2:
        raise DataError("need at least two usable domains for a transfer matrix")
    return out


def _seed_list(cfg: TrainConfig) -> list[int]:
    return [cfg.seed + k for k in range(cfg.ensemble)]


def _train_split(ds: DomainDataset) -> tuple[np.ndarray, np.ndarray]:
    return ds.x[ds.train], ds.y[ds.train]


def _mean_auc(models: list[Model], ds: DomainDataset) -> float:
    """Mean test-split AUC of ``models`` on ``ds``."""
    xt, yt = ds.x[ds.test], ds.y[ds.test]
    return float(np.mean([auc(yt, predict_proba(m, xt)) for m in models]))


def _row(stack: Model, s: int) -> list[Model]:
    """The E seed models of source ``s`` in a stack."""
    return [stack.at(s, k) for k in range(stack.w1.shape[1])]


def evaluate_pair(
    src: DomainDataset, dst: DomainDataset, cfg: TrainConfig
) -> TransferRecord:
    """Ensemble-averaged AUCs for one ordered pair, every model fit alone.

    This is the reference ``fti_matrix`` must match: each model is its own
    one-model ``train_within`` or ``transfer`` call, and the seed-k source
    model is adapted to ``dst`` at seed ``cfg.seed + k`` in each mode.
    """
    seeds = _seed_list(cfg)
    xd, yd = _train_split(dst)
    xs, ys = _train_split(src)
    base = [train_within(xd, yd, cfg, seed) for seed in seeds]
    sources = [train_within(xs, ys, cfg, seed) for seed in seeds]
    hard, soft = (
        [transfer(m, xd, yd, cfg, seed, mode) for m, seed in zip(sources, seeds)]
        for mode in ("hard", "soft")
    )
    return TransferRecord(
        src.id, dst.id, _mean_auc(base, dst), _mean_auc(hard, dst), _mean_auc(soft, dst)
    )


def fti_matrix(
    domains: list[LearningDomain],
    cfg: TrainConfig = TrainConfig(),
    omega1: float = 1.0,
    omega2: float = 1.0,
) -> tuple[list[TransferRecord], dict[tuple[str, str], float]]:
    """Transfer records and the fti cache over all usable ordered pairs.

    Each domain's ensemble is one ``train_within`` stack over the seeds
    ``cfg.seed + k``: the baseline of every pair into the domain and the
    source of every pair out of it.  Each destination and mode is one
    ``transfer`` stack over the ensembles of all other domains, slot
    ``(s, k)`` starting from source s's seed-k model.  Every slot is
    bit-identical to the model ``evaluate_pair`` fits alone, so the records,
    written in ``(source, target)`` order, match it on every pair.
    """
    check_weights(omega1, omega2)
    datasets = prepare_datasets(domains, cfg)
    seeds = _seed_list(cfg)
    ensembles = [train_within(*_train_split(d), cfg, seeds) for d in datasets]
    bases = [_mean_auc(_row(stack, 0), d) for stack, d in zip(ensembles, datasets)]
    transferred: dict[tuple[int, int, str], float] = {}
    for j, dst in enumerate(datasets):
        others = [i for i in range(len(datasets)) if i != j]
        for mode in ("hard", "soft"):
            # one stack alive at a time: it is dropped before the next is fit
            stack = transfer(
                [ensembles[i] for i in others], *_train_split(dst), cfg, seeds, mode
            )
            for s, i in enumerate(others):
                transferred[i, j, mode] = _mean_auc(_row(stack, s), dst)
            del stack
    records = [
        TransferRecord(
            src.id, dst.id, bases[j], transferred[i, j, "hard"], transferred[i, j, "soft"]
        )
        for i, src in enumerate(datasets)
        for j, dst in enumerate(datasets)
        if i != j
    ]
    return records, fti_from_records(records, omega1, omega2)


def fti_from_records(
    records: list[TransferRecord], omega1: float = 1.0, omega2: float = 1.0
) -> dict[tuple[str, str], float]:
    check_weights(omega1, omega2)
    return {(r.source, r.target): r.fti(omega1, omega2) for r in records}


_CSV_FIELDS = ("source", "target", "auc_base", "auc_hard", "auc_soft")


def records_to_csv(records: list[TransferRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for r in records:
            writer.writerow(
                [r.source, r.target]
                + ["%.17g" % v for v in (r.auc_base, r.auc_hard, r.auc_soft)]
            )


def records_from_csv(path) -> list[TransferRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != _CSV_FIELDS:
            raise DataError(
                f"expected header {','.join(_CSV_FIELDS)} in {path}"
            )
        records = []
        first_line: dict[tuple[str, str], int] = {}
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataError(f"{path}:{i}: expected 5 fields, got {len(row)}")
            try:
                aucs = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataError(f"{path}:{i}: {exc}") from None
            # written this way round so that NaN fails the test too
            if not all(0.0 <= v <= 1.0 for v in aucs):
                raise DataError(f"{path}:{i}: AUCs must lie in [0, 1], got {row[2:]}")
            pair = (row[0], row[1])
            if pair[0] == pair[1]:
                raise DataError(f"{path}:{i}: self-pair {pair[0]},{pair[1]}")
            if pair in first_line:
                raise DataError(
                    f"{path}:{i}: duplicate pair {pair[0]},{pair[1]} "
                    f"(first on line {first_line[pair]})"
                )
            first_line[pair] = i
            records.append(TransferRecord(*pair, *aucs))
    return records
