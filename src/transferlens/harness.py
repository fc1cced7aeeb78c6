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

``_ensemble`` trains a domain's models, and ``_record`` builds every
record from a source ensemble and a destination baseline: ``fti_matrix``
trains each domain's ensemble once for all its pairs, ``evaluate_pair``
trains both afresh as the reference.
"""

from __future__ import annotations

import csv
import logging
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
        if self.hidden < 1 or self.epochs < 1 or self.batch_size < 1:
            raise DataError("hidden, epochs and batch_size must be positive")
        if not 0.0 < self.lr < np.inf:  # NaN fails this test too
            raise DataError(f"learning rate must be positive and finite, got {self.lr}")
        if self.ensemble < 1:
            raise DataError(f"ensemble must be positive, got {self.ensemble}")


@dataclass
class Model:
    """One-hidden-layer network with the input standardization it was fit under."""

    mu: np.ndarray
    sigma: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


def _check_classes(y: np.ndarray, what: str) -> None:
    if y.size == 0 or y.min() == y.max():
        raise DataError(f"{what} needs both classes present")


def _forward(model: Model, x: np.ndarray):
    xs = (x - model.mu) / model.sigma
    z1 = xs @ model.w1 + model.b1
    a1 = np.maximum(z1, 0.0)
    return xs, z1, a1, expit(a1 @ model.w2 + model.b2)


def predict_proba(model: Model, x: np.ndarray) -> np.ndarray:
    return _forward(model, np.asarray(x, dtype=np.float64))[3]


def _fit(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    train_features: bool,
) -> Model:
    n = len(y)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xs, z1, a1, p = _forward(model, x[idx])
            dz2 = (p - y[idx]) / len(idx)
            gw2 = a1.T @ dz2
            gb2 = dz2.sum()
            if train_features:
                dz1 = np.outer(dz2, model.w2) * (z1 > 0)
                model.w1 -= cfg.lr * (xs.T @ dz1)
                model.b1 -= cfg.lr * dz1.sum(axis=0)
            model.w2 -= cfg.lr * gw2
            model.b2 -= cfg.lr * gb2
    return model


def _standardize_params(x: np.ndarray):
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    return mu, sigma


def _fresh_head(d_hidden: int, rng: np.random.Generator):
    return rng.normal(0.0, np.sqrt(1.0 / d_hidden), size=d_hidden), 0.0


def train_within(
    x: np.ndarray, y: np.ndarray, cfg: TrainConfig, seed: int
) -> Model:
    """Fit a fresh model on one training split."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_classes(y, "training split")
    rng = np.random.default_rng(seed)
    d = x.shape[1]
    mu, sigma = _standardize_params(x)
    w2, b2 = _fresh_head(cfg.hidden, rng)
    model = Model(
        mu=mu,
        sigma=sigma,
        w1=rng.normal(0.0, np.sqrt(2.0 / max(d, 1)), size=(d, cfg.hidden)),
        b1=np.zeros(cfg.hidden),
        w2=w2,
        b2=b2,
    )
    return _fit(model, x, y, cfg, rng, train_features=True)


def transfer(
    source: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seed: int,
    mode: str,
) -> Model:
    """Adapt a source model to a new training split.

    ``hard`` keeps the source feature block frozen and fits only a fresh
    head; ``soft`` starts from the whole source model and fits everything.
    Input standardization is preprocessing, not weights: both modes refit
    it on the new split, otherwise features constant within the source
    domain turn into huge offsets here and saturate the network.
    """
    if mode not in ("hard", "soft"):
        raise DataError(f"unknown transfer mode {mode!r} (expected hard or soft)")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_classes(y, "training split")
    if x.shape[1] != source.w1.shape[0]:
        raise DataError(
            f"feature width {x.shape[1]} does not match the source model "
            f"({source.w1.shape[0]}); encode both domains over one vocabulary"
        )
    rng = np.random.default_rng(seed)
    if mode == "hard":
        w2, b2 = _fresh_head(cfg.hidden, rng)
    else:
        w2, b2 = source.w2.copy(), float(source.b2)
    mu, sigma = _standardize_params(x)
    model = Model(mu, sigma, source.w1.copy(), source.b1.copy(), w2, b2)
    return _fit(model, x, y, cfg, rng, train_features=mode == "soft")


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


def _ensemble(ds: DomainDataset, cfg: TrainConfig) -> list[Model]:
    """One model per ensemble seed ``cfg.seed + k``, fit on the training split."""
    x, y = ds.x[ds.train], ds.y[ds.train]
    return [train_within(x, y, cfg, cfg.seed + k) for k in range(cfg.ensemble)]


def _mean_auc(models: list[Model], ds: DomainDataset) -> float:
    """Mean test-split AUC of ``models`` on ``ds``."""
    xt, yt = ds.x[ds.test], ds.y[ds.test]
    return float(np.mean([auc(yt, predict_proba(m, xt)) for m in models]))


def _record(
    src_id: str,
    src_models: list[Model],
    dst: DomainDataset,
    auc_base: float,
    cfg: TrainConfig,
) -> TransferRecord:
    """The record of one ordered pair: the seed-k source model is adapted to
    ``dst`` at seed ``cfg.seed + k`` in each mode, and each mode averaged."""
    xd, yd = dst.x[dst.train], dst.y[dst.train]
    hard, soft = (
        [transfer(m, xd, yd, cfg, cfg.seed + k, mode) for k, m in enumerate(src_models)]
        for mode in ("hard", "soft")
    )
    return TransferRecord(src_id, dst.id, auc_base, _mean_auc(hard, dst), _mean_auc(soft, dst))


def evaluate_pair(
    src: DomainDataset, dst: DomainDataset, cfg: TrainConfig
) -> TransferRecord:
    """Ensemble-averaged AUCs for one ordered pair, every model trained afresh."""
    auc_base = _mean_auc(_ensemble(dst, cfg), dst)
    return _record(src.id, _ensemble(src, cfg), dst, auc_base, cfg)


def fti_matrix(
    domains: list[LearningDomain],
    cfg: TrainConfig = TrainConfig(),
    omega1: float = 1.0,
    omega2: float = 1.0,
) -> tuple[list[TransferRecord], dict[tuple[str, str], float]]:
    """Transfer records and the fti cache over all usable ordered pairs.

    A domain's ensemble depends only on the domain and the seeds, so it is
    trained once and serves both as the source models of every pair out of
    the domain and as the baseline of every pair into it; the result
    matches ``evaluate_pair`` on every pair.
    """
    check_weights(omega1, omega2)
    datasets = prepare_datasets(domains, cfg)
    ensembles = [_ensemble(d, cfg) for d in datasets]
    bases = [_mean_auc(models, d) for models, d in zip(ensembles, datasets)]
    records = [
        _record(src.id, src_models, dst, auc_base, cfg)
        for src, src_models in zip(datasets, ensembles)
        for dst, auc_base in zip(datasets, bases)
        if dst.id != src.id
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
