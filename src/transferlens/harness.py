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

Every model is a stack of S sources by E seeds, and every fit, transfer
and prediction takes and gives one.  ``_fit`` is the one trainer: it steps
a stack in place with one batched product per layer per minibatch, and
``predict_proba`` scores a stack in one batched forward pass; each slot is
bit-identical to its network fit and scored alone.  ``fti_matrix`` fits
each domain's ensemble as one ``train_within`` stack (S = 1) and each
destination's hard or soft transfers as one ``transfer`` stack over all
other domains' ensembles; ``evaluate_pair`` fits every model as its own
1 x 1 stack and is the reference the matrix must match.

``fti_matrix`` splits the seeds into one contiguous chunk per process:
``min(usable CPUs, ensemble)`` processes, the calling one and workers
forked from it, each fitting every stack over its own chunk.  The per-seed
AUCs are joined in seed order before the mean is taken, so the records do
not depend on the number of processes.  Where the affinity mask allows one
CPU (``taskset -c 0``), or the platform cannot fork, it runs serially.

numpy is imported inside the functions that compute with it, so the
record type and its CSV reader and writer (``records_from_csv``,
``fti_from_records``, ``records_to_csv``) load no numpy: ``fti --auc-csv``,
``report`` and ``explain`` ingest measured AUCs without it.
"""

from __future__ import annotations

import csv
import logging
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import PipelineConfig, TrainConfig, check_weights
from .domain import LearningDomain, encode_dataset, feature_space, split_indices
from .errors import DataError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)


@dataclass
class Model:
    """A stack of one-hidden-layer networks, S sources by E seeds.

    All its networks were fit on one split and share the input
    standardization ``mu`` and ``sigma`` (d,).  The stack axes come first:
    ``w1`` is (S, E, d, h), ``b1`` and ``w2`` are (S, E, h) and ``b2`` is
    (S, E).
    """

    mu: np.ndarray
    sigma: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _check_labels(y: np.ndarray, what: str) -> None:
    bad = y[(y != 0.0) & (y != 1.0)]
    if bad.size:
        raise DataError(f"{what} labels must be 0 or 1, got {bad[0]:g}")
    if y.size == 0 or y.min() == y.max():
        raise DataError(f"{what} needs both classes present")


def predict_proba(stack: Model, x: np.ndarray) -> np.ndarray:
    """Class-1 probabilities of every network of a stack on the rows of
    ``x``, as an (S, E, n) array, in one batched forward pass."""
    import numpy as np
    from scipy.special import expit

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(stack.mu):
        raise DataError(
            f"expected rows of {len(stack.mu)} features for this model, got shape {x.shape}"
        )
    xs = (x - stack.mu) / stack.sigma
    a1 = np.maximum(xs @ stack.w1 + stack.b1[..., None, :], 0.0)
    return expit((a1 @ stack.w2[..., None])[..., 0] + stack.b2[..., None])


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
    import numpy as np
    from scipy.special import expit

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
    import numpy as np

    return rng.normal(0.0, np.sqrt(1.0 / d_hidden), size=d_hidden)


def _rngs(seeds: Sequence[int]) -> list[np.random.Generator]:
    """One generator per seed of a stack."""
    import numpy as np

    if not len(seeds):
        raise DataError("a model stack needs at least one seed")
    return [np.random.default_rng(s) for s in seeds]


def _checked_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (len(x),):
        raise DataError(
            f"training data needs a 2-D x with one label per row, got x of shape "
            f"{x.shape} and y of shape {y.shape}"
        )
    _check_labels(y, "training split")
    return x, y


def train_within(
    x: np.ndarray, y: np.ndarray, cfg: TrainConfig, seeds: Sequence[int]
) -> Model:
    """Fit fresh networks on one training split, one per seed.

    Gives a (1, E) stack whose slot ``(0, k)`` is the network of
    ``seeds[k]`` fit alone.
    """
    import numpy as np

    x, y = _checked_xy(x, y)
    rngs = _rngs(seeds)
    d = x.shape[1]
    heads = [_fresh_head(cfg.hidden, rng) for rng in rngs]
    w1 = [rng.normal(0.0, np.sqrt(2.0 / max(d, 1)), size=(d, cfg.hidden)) for rng in rngs]
    mu, sigma = _standardize_params(x)
    stack = Model(
        mu=mu,
        sigma=sigma,
        w1=np.stack(w1)[None],
        b1=np.zeros((1, len(rngs), cfg.hidden)),
        w2=np.stack(heads)[None],
        b2=np.zeros((1, len(rngs))),
    )
    return _fit(stack, x, y, cfg, rngs, train_features=True)


def transfer(
    sources: Sequence[Model],
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seeds: Sequence[int],
    mode: str,
) -> Model:
    """Adapt source stacks to a new training split.

    ``hard`` keeps the source feature block frozen and fits only a fresh
    head; ``soft`` starts from the whole source model and fits everything.
    Input standardization is preprocessing, not weights: both modes refit
    it on the new split, otherwise features constant within the source
    domain turn into huge offsets here and saturate the network.

    ``sources`` are stacks of one network per seed.  The result stacks
    their sources in order, and its slot ``(s, k)`` is network k of the
    source in row s adapted alone at ``seeds[k]``; the sources are not
    changed.
    """
    import numpy as np

    if mode not in ("hard", "soft"):
        raise DataError(f"unknown transfer mode {mode!r} (expected hard or soft)")
    x, y = _checked_xy(x, y)
    rngs = _rngs(seeds)
    if not sources:
        raise DataError("transfer needs at least one source")
    for src in sources:
        if src.w1.shape[1] != len(rngs):
            raise DataError("transfer takes source stacks of one model per seed")
        if x.shape[1] != src.w1.shape[2]:
            raise DataError(
                f"feature width {x.shape[1]} does not match the source model "
                f"({src.w1.shape[2]}); encode both domains over one vocabulary"
            )
    w1 = np.concatenate([src.w1 for src in sources])
    b1 = np.concatenate([src.b1 for src in sources])
    if mode == "hard":
        heads = np.stack([_fresh_head(cfg.hidden, rng) for rng in rngs])
        w2 = np.repeat(heads[None], len(w1), axis=0)
        b2 = np.zeros(w1.shape[:2])
    else:
        w2 = np.concatenate([src.w2 for src in sources])
        b2 = np.concatenate([src.b2 for src in sources])
    mu, sigma = _standardize_params(x)
    return _fit(Model(mu, sigma, w1, b1, w2, b2), x, y, cfg, rngs, mode == "soft")


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via average ranks (ties handled).

    Labels must be 0 or 1 with both present.  Tied scores share the mean of
    the ranks they span, the half-integers ``scipy.stats.rankdata`` gives,
    computed here in numpy so that scoring loads no scipy.
    """
    import numpy as np

    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.ndim != 1 or labels.shape != scores.shape:
        raise DataError("labels and scores must be 1-D and of the same length")
    _check_labels(labels, "evaluation split")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite; a diverged model gives NaN, try a smaller lr")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # a tie group spans sorted positions [start, end): 1-based ranks start+1..end
    new_group = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], len(scores))
    ranks = np.empty(len(scores))
    ranks[order] = ((starts + ends + 1) / 2.0)[np.cumsum(new_group) - 1]
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

    def fti(
        self, omega1: float = PipelineConfig.omega1, omega2: float = PipelineConfig.omega2
    ) -> float:
        check_weights(omega1, omega2)
        return (omega1 * self.fgi - omega2 * self.fsi) / (omega1 + omega2)


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
    """Encode the usable domains over their shared feature space and split them.

    A domain is usable when every LSO is consistent and both its training
    and test splits hold both classes.  Any other domain is skipped with a
    warning, so one bad domain does not sink the whole matrix.  The
    vocabulary and value properties come from the usable domains alone, so
    a skipped domain changes no other domain's features.
    """
    usable = []
    for d in domains:
        try:
            d.consistent_closures()
            y = d.labels()
            train, test = split_indices(d, cfg.train_frac, cfg.seed)
            _check_labels(y[train], f"training split of {d.id}")
            _check_labels(y[test], f"test split of {d.id}")
        except DataError as exc:
            log.warning("skipping domain %s: %s", d.id, exc)
            continue
        usable.append((d, train, test))
    if len(usable) < 2:
        raise DataError("need at least two usable domains for a transfer matrix")
    vocab, props = feature_space([d for d, _, _ in usable])
    return [
        DomainDataset(d.id, *encode_dataset(d, vocab, props), train, test)
        for d, train, test in usable
    ]


def _seed_list(cfg: TrainConfig) -> list[int]:
    return [cfg.seed + k for k in range(cfg.ensemble)]


def _train_split(ds: DomainDataset) -> tuple[np.ndarray, np.ndarray]:
    return ds.x[ds.train], ds.y[ds.train]


def _seed_aucs(stack: Model, ds: DomainDataset) -> list[list[float]]:
    """Test-split AUCs on ``ds`` of every network of a stack, one list of
    per-seed AUCs per source."""
    xt, yt = ds.x[ds.test], ds.y[ds.test]
    return [[auc(yt, p) for p in row] for row in predict_proba(stack, xt)]


def evaluate_pair(
    src: DomainDataset, dst: DomainDataset, cfg: TrainConfig
) -> TransferRecord:
    """Ensemble-averaged AUCs for one ordered pair, every model fit alone.

    This is the reference ``fti_matrix`` must match: each model is its own
    1 x 1 ``train_within`` or ``transfer`` stack, and the seed-k source
    model is adapted to ``dst`` at seed ``cfg.seed + k`` in each mode.
    """
    import numpy as np

    seeds = _seed_list(cfg)
    xd, yd = _train_split(dst)
    xs, ys = _train_split(src)
    base = [train_within(xd, yd, cfg, [seed]) for seed in seeds]
    sources = [train_within(xs, ys, cfg, [seed]) for seed in seeds]
    hard, soft = (
        [transfer([m], xd, yd, cfg, [seed], mode) for m, seed in zip(sources, seeds)]
        for mode in ("hard", "soft")
    )
    base_auc, hard_auc, soft_auc = (
        float(np.mean([_seed_aucs(m, dst)[0][0] for m in models]))
        for models in (base, hard, soft)
    )
    return TransferRecord(src.id, dst.id, base_auc, hard_auc, soft_auc)


def _matrix_aucs(
    datasets: list[DomainDataset], cfg: TrainConfig, seeds: Sequence[int]
) -> dict[tuple[int, int, str], list[float]]:
    """Per-seed test AUCs of every model the matrix needs, over ``seeds``.

    Key ``(i, j, mode)`` holds the AUCs on dataset j of dataset i's
    ensemble adapted to j in ``hard`` or ``soft`` mode, and ``(j, j,
    "base")`` those of j's own ensemble, one per seed in order.
    """
    ensembles = [train_within(*_train_split(d), cfg, seeds) for d in datasets]
    aucs = {
        (j, j, "base"): _seed_aucs(stack, d)[0]
        for j, (stack, d) in enumerate(zip(ensembles, datasets))
    }
    for j, dst in enumerate(datasets):
        others = [i for i in range(len(datasets)) if i != j]
        for mode in ("hard", "soft"):
            # one stack alive at a time: it is dropped before the next is fit
            stack = transfer(
                [ensembles[i] for i in others], *_train_split(dst), cfg, seeds, mode
            )
            for i, row in zip(others, _seed_aucs(stack, dst)):
                aucs[i, j, mode] = row
            del stack
    return aucs


def _workers(n_seeds: int) -> int:
    """Processes to share an ensemble of ``n_seeds``: one per usable CPU,
    at most one per seed, and one where affinity or fork is unavailable."""
    import multiprocessing  # here, not at the top: `report` and `explain` never fork

    forks = "fork" in multiprocessing.get_all_start_methods()
    if not forks or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_seeds)


def _chunks(seeds: list[int], n: int) -> list[list[int]]:
    """``seeds`` cut into ``n`` contiguous chunks, the larger ones first."""
    q, r = divmod(len(seeds), n)
    cuts = [k * q + min(k, r) for k in range(n + 1)]
    return [seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _chunk_aucs(
    datasets: list[DomainDataset], cfg: TrainConfig, chunks: list[list[int]]
) -> list[dict[tuple[int, int, str], list[float]]]:
    """``_matrix_aucs`` of each chunk, in order.  This process computes the
    first chunk while forked workers compute the others."""
    if len(chunks) == 1:
        return [_matrix_aucs(datasets, cfg, chunks[0])]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import scipy.special  # noqa: F401  (loaded before the fork, not once per worker)

    # fork, not spawn: a spawned worker would import numpy and this package
    # again.  A fork-context pool forks all its workers before it starts
    # its own thread.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(chunks) - 1, mp_context=fork) as pool:
        futures = [pool.submit(_matrix_aucs, datasets, cfg, c) for c in chunks[1:]]
        first = _matrix_aucs(datasets, cfg, chunks[0])
        return [first] + [f.result() for f in futures]


def fti_matrix(
    domains: list[LearningDomain],
    cfg: TrainConfig = TrainConfig(),
    omega1: float = PipelineConfig.omega1,
    omega2: float = PipelineConfig.omega2,
) -> tuple[list[TransferRecord], dict[tuple[str, str], float]]:
    """Transfer records and the fti cache over all usable ordered pairs.

    Each domain's ensemble is one ``train_within`` stack over the seeds
    ``cfg.seed + k``: the baseline of every pair into the domain and the
    source of every pair out of it.  Each destination and mode is one
    ``transfer`` stack over the ensembles of all other domains, slot
    ``(s, k)`` starting from source s's seed-k model.  Every slot is
    bit-identical to the model ``evaluate_pair`` fits alone, so the records,
    written in ``(source, target)`` order, match it on every pair.

    The seeds are cut into one contiguous chunk per process (``_workers``),
    and each chunk fits all those stacks over its own seeds.  Each AUC is
    the mean of the per-seed AUCs of all chunks joined in seed order: the
    same list, in the same order, whatever the number of chunks.
    """
    import numpy as np

    check_weights(omega1, omega2)
    datasets = prepare_datasets(domains, cfg)
    seeds = _seed_list(cfg)
    parts = _chunk_aucs(datasets, cfg, _chunks(seeds, _workers(len(seeds))))

    def mean(i: int, j: int, mode: str) -> float:
        return float(np.mean([a for part in parts for a in part[i, j, mode]]))

    records = [
        TransferRecord(
            src.id, dst.id, mean(j, j, "base"), mean(i, j, "hard"), mean(i, j, "soft")
        )
        for i, src in enumerate(datasets)
        for j, dst in enumerate(datasets)
        if i != j
    ]
    return records, fti_from_records(records, omega1, omega2)


def fti_from_records(
    records: list[TransferRecord],
    omega1: float = PipelineConfig.omega1,
    omega2: float = PipelineConfig.omega2,
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
