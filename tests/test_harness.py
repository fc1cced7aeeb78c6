from __future__ import annotations

import logging
import multiprocessing
import os
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import oracles
from domfix import make_domain
from oracles import auc_by_pairs
from transferlens import harness
from transferlens.errors import DataError
from transferlens.harness import (
    DomainDataset,
    TrainConfig,
    TransferRecord,
    auc,
    check_weights,
    evaluate_pair,
    fti_from_records,
    fti_matrix,
    predict_proba,
    prepare_datasets,
    records_from_csv,
    records_to_csv,
    train_within,
    transfer,
)

FAST = TrainConfig(hidden=4, epochs=20, lr=0.1, batch_size=8, ensemble=2)


def _signal_domain(domain_id, labels, marker="K", flip=()):
    """One LSO per label; P(d) drives the target through the TBox."""
    tbox = "SubClassOf(P Y)\n"
    docs, anns = [], []
    for i, y in enumerate(labels):
        lines = [f"ClassAssert({marker} d)", "RoleAssert(dist d %d)" % (100 + 7 * i)]
        bit = 1 - y if i in flip else y
        if bit:
            lines.append("ClassAssert(P d)")
        docs.append("\n".join(lines))
        anns.append([("dat", f"2026-01-{i + 1:02d}")])
    return make_domain(domain_id, "Y(d)", docs, tbox=tbox, annotations=anns)


LABELS = [1, 0, 1, 0, 1, 1, 0, 0, 1, 0]


def _domains():
    return [
        _signal_domain("da", LABELS, marker="Ka"),
        _signal_domain("db", LABELS[::-1], marker="Kb"),
        _signal_domain("dc", LABELS, marker="Kc", flip=(3,)),
    ]


# -- auc ----------------------------------------------------------------------


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(1)
    for trial in range(80):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force ties
        scores = np.round(rng.normal(size=n), 1)
        assert auc(labels, scores) == pytest.approx(
            auc_by_pairs(list(scores), list(labels)), abs=1e-12
        ), f"trial {trial}"


def test_auc_extremes():
    assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0
    assert auc([0, 1], [0.5, 0.5]) == 0.5
    with pytest.raises(DataError, match="both classes"):
        auc([1, 1], [0.1, 0.2])
    with pytest.raises(DataError, match="same length"):
        auc([0, 1], [0.1, 0.2, 0.3])
    with pytest.raises(DataError, match="1-D"):
        auc([[0, 1], [1, 0]], [[0.1, 0.2], [0.3, 0.4]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="scores must be finite"):
            auc([0, 1, 1], [0.1, bad, 0.9])
    for labels, scores in (
        ([0, 2, 2, 0], [0.1, 0.9, 0.8, 0.2]),
        ([0, 0.5, 1], [0.1, 0.5, 0.9]),
        ([0, 1, -1], [0.1, 0.5, 0.9]),
        ([0, 1, np.nan], [0.1, 0.5, 0.9]),
    ):
        with pytest.raises(DataError, match="labels must be 0 or 1, got (2|0.5|-1|nan)$"):
            auc(labels, scores)


def _rank_cases():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        labels = (rng.random(n) < 0.5).astype(np.float64)
        labels[:2] = rng.permutation([0.0, 1.0])
        yield labels, np.round(rng.random(n), 1)  # heavy ties
        yield labels, rng.normal(size=n)
        yield labels, np.sort(rng.normal(size=n))
        yield labels, np.sort(rng.normal(size=n))[::-1]
        yield labels, np.full(n, 0.25)
        yield labels, rng.choice([0.0, -0.0, 0.5, -0.5], size=n)
    for scores in ([0.2, 0.7], [0.7, 0.2], [0.5, 0.5], [-0.0, 0.0], [0.0, -0.0]):
        yield np.array([0.0, 1.0]), np.array(scores)
        yield np.array([1.0, 0.0]), np.array(scores)


def test_auc_ranks_equal_the_rankdata_oracle():
    for labels, scores in _rank_cases():
        assert auc(labels, scores) == oracles.auc_by_rankdata(labels, scores), (labels, scores)


# -- indices --------------------------------------------------------------------


def test_record_indices_arithmetic():
    r = TransferRecord("s", "t", auc_base=0.80, auc_hard=0.70, auc_soft=0.86)
    assert r.fsi == pytest.approx(0.10)
    assert r.fgi == pytest.approx(0.06)
    assert r.fti(1.0, 1.0) == pytest.approx((0.06 - 0.10) / 2.0)
    assert r.fti(1.0, 0.0) == pytest.approx(0.06)
    assert r.fti(0.0, 1.0) == pytest.approx(-0.10)


def test_fti_monotone_in_gain_and_antitone_in_shift():
    # finite differences over a 20x20 grid keep one sign per axis
    fgis = np.linspace(-1.0, 1.0, 20)
    fsis = np.linspace(-1.0, 1.0, 20)
    for w1, w2 in ((1.0, 1.0), (0.7, 0.3)):
        grid = np.array(
            [
                [
                    TransferRecord("s", "t", 0.5, 0.5 - fsi, 0.5 + fgi).fti(w1, w2)
                    for fsi in fsis
                ]
                for fgi in fgis
            ]
        )
        assert np.all(np.diff(grid, axis=0) > 0), "not increasing in fgi"
        assert np.all(np.diff(grid, axis=1) < 0), "not decreasing in fsi"


def test_weight_validation():
    with pytest.raises(DataError, match="both be zero"):
        check_weights(0.0, 0.0)
    with pytest.raises(DataError, match="in \\[0, 1\\]"):
        check_weights(1.5, 0.5)
    with pytest.raises(DataError, match="in \\[0, 1\\]"):
        check_weights(0.5, -0.1)
    check_weights(1.0, 0.0)


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(epochs=0)
    for lr in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(DataError, match="learning rate"):
            TrainConfig(lr=lr)
    with pytest.raises(DataError):
        TrainConfig(ensemble=0)
    for train_frac in (0.0, 1.0, 1.5, -0.2, np.nan):
        with pytest.raises(DataError, match=r"train_frac must be in \(0, 1\)"):
            TrainConfig(train_frac=train_frac)
    with pytest.raises(DataError, match="seed must be non-negative"):
        TrainConfig(seed=-1)
    for key, bad in [
        ("ensemble", 1.5),
        ("hidden", 2.0),
        ("batch_size", np.nan),
        ("epochs", True),
        ("seed", False),
        ("ensemble", "3"),
    ]:
        with pytest.raises(DataError, match=f"{key} must be an integer"):
            TrainConfig(**{key: bad})
    TrainConfig(seed=0, train_frac=0.5)
    TrainConfig(hidden=np.int64(3), seed=np.int32(2))


# -- training --------------------------------------------------------------------


def _toy_xy(n=24, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([i % 2 for i in range(n)], dtype=np.float64)
    x = np.column_stack([y * 2.0 - 1.0, rng.normal(size=n)])
    return x, y


def test_label_revealing_feature_reaches_perfect_auc():
    x, y = _toy_xy()
    stack = train_within(x, y, TrainConfig(hidden=4, epochs=60, lr=0.1, batch_size=8), [0])
    assert auc(y, predict_proba(stack, x)[0, 0]) == 1.0


def test_training_is_deterministic_per_seed():
    x, y = _toy_xy()
    m1 = train_within(x, y, FAST, [3])
    m2 = train_within(x, y, FAST, [3])
    assert np.array_equal(m1.w1, m2.w1) and np.array_equal(m1.w2, m2.w2)
    assert np.array_equal(m1.b2, m2.b2)
    m3 = train_within(x, y, FAST, [4])
    assert not np.array_equal(m1.w1, m3.w1)


_WEIGHTS = ("w1", "b1", "w2", "b2")


def _slot(stack, s, k):
    """Slot ``(s, k)`` of a stack as a 1 x 1 stack."""
    return harness.Model(
        stack.mu, stack.sigma, *(getattr(stack, f)[s : s + 1, k : k + 1] for f in _WEIGHTS)
    )


def _same_model(stack, s, k, want):
    """Slot ``(s, k)`` of ``stack`` is the oracle's network ``want``."""
    for field in ("mu", "sigma"):
        assert np.array_equal(getattr(stack, field), getattr(want, field)), field
    for field in _WEIGHTS:
        assert np.array_equal(getattr(stack, field)[s, k], getattr(want, field)), field


def _xy(rng, n, d):
    """Rows of mixed real, binary and constant features, both classes present."""
    x = rng.normal(size=(n, d))
    x[:, ::3] = rng.integers(0, 2, size=x[:, ::3].shape)
    if d > 1:
        x[:, -1] = 1.0
    y = (rng.random(n) < 0.5).astype(np.float64)
    y[:2] = (0.0, 1.0)
    return x, y


_SHAPES = [
    (23, 5, 4, 7, 3, 3),  # n not a multiple of b
    (9, 3, 4, 16, 1, 1),  # b > n
    (20, 4, 1, 8, 3, 1),  # hidden 1
    (17, 1, 5, 4, 1, 3),  # d = 1, and a last batch of one row
    (52, 121, 16, 16, 3, 3),  # the mini_flights shape
    (31, 99, 8, 16, 10, 7),  # the default ensemble over seven sources
]


def _oracle_case(n, d, hidden, batch_size, ensemble, n_sources, epochs=4):
    """Config, seeds, source splits, destination split and test rows."""
    cfg = TrainConfig(hidden=hidden, epochs=epochs, lr=0.1, batch_size=batch_size, ensemble=ensemble, seed=2)
    seeds = [cfg.seed + k for k in range(ensemble)]
    rng = np.random.default_rng(n * d)
    splits = [_xy(rng, n + s, d) for s in range(n_sources)]
    xd, yd = _xy(rng, n, d)
    return cfg, seeds, splits, xd, yd, rng.normal(size=(7, d))


def _equals_the_oracle(cfg, seeds, splits, xd, yd, xt):
    """Every slot of the ensembles of ``splits`` and of their hard and soft
    transfers to ``(xd, yd)`` is the oracle's network, stacked or alone."""
    n_sources, ensemble, (d,) = len(splits), len(seeds), xt.shape[1:]
    stacks, refs = [], []
    for x, y in splits:
        stack = train_within(x, y, cfg, seeds)
        ref = [oracles.train_within(x, y, cfg, seed) for seed in seeds]
        for k, seed in enumerate(seeds):
            _same_model(stack, 0, k, ref[k])
            _same_model(train_within(x, y, cfg, [seed]), 0, 0, ref[k])
        stacks.append(stack)
        refs.append(ref)
    for mode in ("hard", "soft"):
        stack = transfer(stacks, xd, yd, cfg, seeds, mode)
        assert stack.w1.shape == (n_sources, ensemble, d, cfg.hidden)
        proba = predict_proba(stack, xt)
        assert proba.shape == (n_sources, ensemble, len(xt))
        for s in range(n_sources):
            for k, seed in enumerate(seeds):
                want = oracles.transfer(refs[s][k], xd, yd, cfg, seed, mode)
                _same_model(stack, s, k, want)
                alone = transfer([_slot(stacks[s], 0, k)], xd, yd, cfg, [seed], mode)
                _same_model(alone, 0, 0, want)
                assert np.array_equal(proba[s, k], oracles.predict_proba(want, xt))


@pytest.mark.parametrize("n, d, hidden, batch_size, ensemble, n_sources", _SHAPES)
def test_stacked_trainer_equals_the_per_model_oracle(n, d, hidden, batch_size, ensemble, n_sources):
    _equals_the_oracle(*_oracle_case(n, d, hidden, batch_size, ensemble, n_sources))


@pytest.mark.parametrize("case", ["batch-of-one", "one-active-destination-column"])
def test_stacked_trainer_equals_the_per_model_oracle_on_degenerate_products(case):
    """Shapes where numpy hands a product to gemv or a loop, not gemm: every
    minibatch one row, or a destination whose only active column makes
    each first-layer product take one input (two with the bias)."""
    if case == "batch-of-one":
        cfg, seeds, splits, xd, yd, xt = _oracle_case(13, 6, 4, 1, 2, 2)
    else:
        cfg, seeds, splits, xd, yd, xt = _oracle_case(21, 7, 5, 4, 3, 3)
        xd[:, 1:] = xd[0, 1:]
        assert np.ptp(xd[:, 0]) > 0.0
    _equals_the_oracle(cfg, seeds, splits, xd, yd, xt)


# The dense reference runs every column through every product and adds
# b1 apart.  Skipping the columns that add exact zeros, adding b1 inside
# the first-layer products, and computing a frozen layer once, changes
# only the order in which BLAS adds, which moves a weight or a probability
# by a few ulp: 1.1e-15 on weights and 3.3e-16 on probabilities at worst
# over these cases.
_DENSE_TOL = 1e-12


def _near_model(stack, s, k, want):
    for field in ("mu", "sigma"):
        assert np.array_equal(getattr(stack, field), getattr(want, field)), field
    for field in _WEIGHTS:
        got, ref = getattr(stack, field)[s, k], getattr(want, field)
        assert np.allclose(got, ref, rtol=0.0, atol=_DENSE_TOL), field


@pytest.mark.parametrize("epochs", [4, 200])
@pytest.mark.parametrize("n, d, hidden, batch_size, ensemble, n_sources", _SHAPES)
def test_stacked_trainer_stays_within_tolerance_of_the_dense_reference(
    n, d, hidden, batch_size, ensemble, n_sources, epochs
):
    cfg, seeds, splits, xd, yd, xt = _oracle_case(n, d, hidden, batch_size, ensemble, n_sources, epochs)
    stacks, refs = [], []
    for x, y in splits:
        stack = train_within(x, y, cfg, seeds)
        ref = [oracles.train_within(x, y, cfg, seed, dense=True) for seed in seeds]
        proba = predict_proba(stack, xt)
        for k in range(ensemble):
            _near_model(stack, 0, k, ref[k])
            assert np.allclose(proba[0, k], oracles.predict_proba(ref[k], xt), rtol=0.0, atol=_DENSE_TOL)
        stacks.append(stack)
        refs.append(ref)
    for mode in ("hard", "soft"):
        stack = transfer(stacks, xd, yd, cfg, seeds, mode)
        proba = predict_proba(stack, xt)
        for s in range(n_sources):
            for k, seed in enumerate(seeds):
                want = oracles.transfer(refs[s][k], xd, yd, cfg, seed, mode, dense=True)
                _near_model(stack, s, k, want)
                assert np.allclose(proba[s, k], oracles.predict_proba(want, xt), rtol=0.0, atol=_DENSE_TOL)


def _copy(stack):
    return harness.Model(*(np.copy(getattr(stack, f)) for f in ("mu", "sigma") + _WEIGHTS))


def test_inactive_columns_keep_their_weights():
    """A column whose standardized training values are all 0.0 does not
    train, and ``predict_proba`` still reads its row of ``w1``."""
    cfg = TrainConfig(hidden=4, epochs=30, lr=0.1, batch_size=8, ensemble=2, seed=5)
    seeds = [5, 6]
    rng = np.random.default_rng(11)
    x, y = _xy(rng, 24, 6)
    x[:, 2] = 0.0  # with the constant column 5, inactive in the source
    xd, yd = _xy(rng, 20, 6)
    xd[:, 1] = 3.0  # with column 5, inactive in the destination
    stack = train_within(x, y, cfg, seeds)
    for k, seed in enumerate(seeds):
        draw = np.random.default_rng(seed)
        draw.normal(0.0, np.sqrt(1.0 / cfg.hidden), size=cfg.hidden)  # the head
        w1 = draw.normal(0.0, np.sqrt(2.0 / 6), size=(6, cfg.hidden))
        assert np.array_equal(stack.w1[0, k, [2, 5]], w1[[2, 5]])
        assert not np.any(stack.w1[0, k, [0, 1, 3, 4]] == w1[[0, 1, 3, 4]])
    kept = _copy(stack)
    hard = transfer([stack], xd, yd, cfg, seeds, "hard")
    soft = transfer([stack], xd, yd, cfg, seeds, "soft")
    for field in ("mu", "sigma") + _WEIGHTS:
        assert np.array_equal(getattr(stack, field), getattr(kept, field)), field
    assert np.array_equal(hard.w1, stack.w1)
    assert np.array_equal(soft.w1[:, :, [1, 5]], stack.w1[:, :, [1, 5]])
    assert not np.any(soft.w1[:, :, [0, 2, 3, 4]] == stack.w1[:, :, [0, 2, 3, 4]])
    # rows that are nonzero after standardization in one inactive column only
    for model, col, mode in ((stack, 2, None), (soft, 1, "soft"), (hard, 1, "hard")):
        rows = np.tile(model.mu, (2, 1))
        rows[1, col] += 2.0 * model.sigma[col]
        proba = predict_proba(model, rows)
        assert not np.array_equal(proba[..., 0], proba[..., 1])
        for k, seed in enumerate(seeds):
            ref = oracles.train_within(x, y, cfg, seed, dense=True)
            if mode:
                ref = oracles.transfer(ref, xd, yd, cfg, seed, mode, dense=True)
            assert np.allclose(proba[0, k], oracles.predict_proba(ref, rows), rtol=0.0, atol=_DENSE_TOL)


def test_a_split_with_no_active_column_trains_and_matches_the_oracle():
    cfg = TrainConfig(hidden=3, epochs=5, lr=0.1, batch_size=4, ensemble=2, seed=1)
    seeds = [1, 2]
    rng = np.random.default_rng(4)
    flat = np.tile([0.0, 1.0, 3.0], (10, 1)), np.resize([0.0, 1.0], 10)
    live = _xy(rng, 12, 3)
    xt = rng.normal(size=(5, 3))
    splits = (flat, live)
    stacks = [train_within(x, y, cfg, seeds) for x, y in splits]
    refs = [[oracles.train_within(x, y, cfg, seed) for seed in seeds] for x, y in splits]
    for stack, ref in zip(stacks, refs):
        for k in range(len(seeds)):
            _same_model(stack, 0, k, ref[k])
    for xd, yd in splits:
        for mode in ("hard", "soft"):
            stack = transfer(stacks, xd, yd, cfg, seeds, mode)
            proba = predict_proba(stack, xt)
            assert np.isfinite(proba).all()
            for s in range(len(splits)):
                for k, seed in enumerate(seeds):
                    want = oracles.transfer(refs[s][k], xd, yd, cfg, seed, mode)
                    _same_model(stack, s, k, want)
                    assert np.array_equal(proba[s, k], oracles.predict_proba(want, xt))


def test_stacks_reject_mismatched_seeds():
    x, y = _toy_xy()
    stack = train_within(x, y, FAST, [0, 1])
    with pytest.raises(DataError, match="one model per seed"):
        transfer([stack], x, y, FAST, [0, 1, 2], "soft")
    with pytest.raises(DataError, match="one model per seed"):
        transfer([stack], x, y, FAST, [0], "soft")
    with pytest.raises(DataError, match="at least one seed"):
        train_within(x, y, FAST, [])
    with pytest.raises(DataError, match="at least one source"):
        transfer([], x, y, FAST, [0], "soft")


def test_single_class_split_rejected():
    x, _ = _toy_xy()
    with pytest.raises(DataError, match="both classes"):
        train_within(x, np.ones(len(x)), FAST, [0])
    for bad in (2.0, np.nan):
        y = np.resize([0.0, 1.0], len(x))
        y[3] = bad
        with pytest.raises(DataError, match="training split labels must be 0 or 1"):
            train_within(x, y, FAST, [0])


def test_hard_transfer_freezes_the_feature_block():
    x, y = _toy_xy()
    src = train_within(x, y, FAST, [0])
    x2, y2 = _toy_xy(seed=9)
    x2 = x2 + 5.0  # shifted inputs: standardization must adapt, weights must not
    hard = transfer([src], x2, y2, FAST, [1], mode="hard")
    assert np.array_equal(hard.w1, src.w1)
    assert np.array_equal(hard.b1, src.b1)
    assert not np.array_equal(hard.w2, src.w2)
    assert np.allclose(hard.mu, x2.mean(axis=0))
    assert not np.allclose(hard.mu, src.mu)


def test_soft_transfer_fits_everything():
    x, y = _toy_xy()
    src = train_within(x, y, FAST, [0])
    x2, y2 = _toy_xy(seed=9)
    soft = transfer([src], x2, y2, FAST, [1], mode="soft")
    assert not np.array_equal(soft.w1, src.w1)
    assert np.allclose(soft.mu, x2.mean(axis=0))
    # source weights are untouched by either mode
    ref = train_within(x, y, FAST, [0])
    assert np.array_equal(src.w1, ref.w1) and np.array_equal(src.w2, ref.w2)


def test_transfer_rejects_bad_mode_and_width():
    x, y = _toy_xy()
    src = train_within(x, y, FAST, [0])
    with pytest.raises(DataError, match="unknown transfer mode"):
        transfer([src], x, y, FAST, [0], mode="warm")
    with pytest.raises(DataError, match="feature width"):
        transfer([src], x[:, :1], y, FAST, [0], mode="hard")


def test_harness_rejects_mismatched_shapes():
    x, y = _toy_xy()
    with pytest.raises(DataError, match=r"x of shape \(24, 2\) and y of shape \(23,\)"):
        train_within(x, y[:23], FAST, [0])
    with pytest.raises(DataError, match=r"x of shape \(24,\)"):
        train_within(x[:, 0], y, FAST, [0])
    src = train_within(x, y, FAST, [0])
    with pytest.raises(DataError, match=r"y of shape \(25,\)"):
        transfer([src], x, np.append(y, 1.0), FAST, [0], mode="soft")
    with pytest.raises(DataError, match=r"rows of 2 features .* shape \(24, 3\)"):
        predict_proba(src, np.column_stack([x, x[:, 0]]))
    with pytest.raises(DataError, match=r"rows of 2 features .* shape \(2,\)"):
        predict_proba(src, x[0])


# -- dataset preparation and the matrix ----------------------------------------------


def test_prepare_datasets_shapes_and_split():
    ds = prepare_datasets(_domains(), FAST)
    assert [d.id for d in ds] == ["da", "db", "dc"]
    for d in ds:
        assert len(d.train) == 8 and len(d.test) == 2
        assert set(d.y[d.train]) == {0, 1} and set(d.y[d.test]) == {0, 1}


def test_prepare_datasets_skips_hopeless_domains(caplog):
    bad = _signal_domain("bad", [1] * 10)
    with caplog.at_level(logging.WARNING, logger="transferlens.harness"):
        ds = prepare_datasets(_domains() + [bad], FAST)
    assert [d.id for d in ds] == ["da", "db", "dc"]
    assert any("skipping domain bad" in r.message for r in caplog.records)
    with pytest.raises(DataError, match="at least two usable"):
        prepare_datasets([bad, _signal_domain("bad2", [0] * 10)], FAST)


def _skipped_domain(why):
    """A domain ``prepare_datasets`` skips, with atoms no usable domain has."""
    if why == "one-class":
        return _signal_domain("zz", [1] * 10, marker="Kz")
    docs = [
        "ClassAssert(Kz d)\nRoleAssert(hasZ d z%d)" % i + ("\nClassAssert(P d)" if y else "")
        for i, y in enumerate(LABELS)
    ]
    docs[0] += "\nSameInd(a b)\nDiffInd(a b)"
    return make_domain("zz", "Y(d)", docs, tbox="SubClassOf(P Y)\n")


@pytest.mark.parametrize("why", ["inconsistent", "one-class"])
def test_a_skipped_domain_leaves_the_usable_domains_unchanged(why, caplog):
    # the features, and so every transfer, come from the usable domains only
    alone = prepare_datasets(_domains(), FAST)
    with caplog.at_level(logging.WARNING, logger="transferlens.harness"):
        joined = prepare_datasets(_domains() + [_skipped_domain(why)], FAST)
    assert any("skipping domain zz" in r.message for r in caplog.records)
    assert [d.id for d in joined] == [d.id for d in alone]
    for a, b in zip(alone, joined):
        assert a.x.shape == b.x.shape and (a.x == b.x).all(), a.id
        assert (a.y == b.y).all() and list(a.train) == list(b.train)
        assert list(a.test) == list(b.test)
    assert fti_matrix(_domains() + [_skipped_domain(why)], FAST) == fti_matrix(
        _domains(), FAST
    )


def test_matrix_matches_independent_pair_evaluation():
    domains = _domains()
    records, fti = fti_matrix(domains, FAST)
    assert len(records) == 6
    ds = {d.id: d for d in prepare_datasets(domains, FAST)}
    for r in records:
        ref = evaluate_pair(ds[r.source], ds[r.target], FAST)
        assert (r.auc_base, r.auc_hard, r.auc_soft) == (
            ref.auc_base,
            ref.auc_hard,
            ref.auc_soft,
        ), (r.source, r.target)
        assert fti[(r.source, r.target)] == r.fti(1.0, 1.0)


def _one_worker(n_stacks):
    return 1


def test_matrix_trains_each_ensemble_once_and_transfers_it_per_seed(monkeypatch):
    trained, transfers = [], []
    real_train, real_transfer = harness.train_within, harness.transfer

    def train_spy(x, y, cfg, seeds):
        stack = real_train(x, y, cfg, seeds)
        trained.append((x, list(seeds), stack))
        return stack

    def transfer_spy(sources, x, y, cfg, seeds, mode):
        stack = real_transfer(sources, x, y, cfg, seeds, mode)
        transfers.append((list(sources), x, y, list(seeds), mode, stack))
        return stack

    monkeypatch.setattr(harness, "train_within", train_spy)
    monkeypatch.setattr(harness, "transfer", transfer_spy)
    # the spies see this process only; the forked path is tested below
    monkeypatch.setattr(harness, "_workers", _one_worker)
    domains = _domains()
    fti_matrix(domains, FAST)
    seeds = [FAST.seed + k for k in range(FAST.ensemble)]

    # one train_within stack per domain, over the seeds cfg.seed + k
    datasets = prepare_datasets(domains, FAST)
    assert len(trained) == len(datasets) == 3
    for ds, (x, got_seeds, stack) in zip(datasets, trained):
        assert np.array_equal(x, ds.x[ds.train]) and got_seeds == seeds
        assert stack.w1.shape[:2] == (1, FAST.ensemble)
    ensembles = [stack for _, _, stack in trained]

    # one transfer stack per (dst, mode), over every other domain's ensemble
    seen = set()
    for sources, x, y, got_seeds, mode, stack in transfers:
        (dst,) = [j for j, e in enumerate(ensembles) if not any(e is s for s in sources)]
        assert [id(s) for s in sources] == [id(e) for j, e in enumerate(ensembles) if j != dst]
        assert np.array_equal(x, datasets[dst].x[datasets[dst].train])
        assert got_seeds == seeds and (dst, mode) not in seen
        seen.add((dst, mode))
        # slot (s, k) starts from source s's seed-k model
        for s, source in enumerate(sources):
            for k, seed in enumerate(seeds):
                alone = real_transfer([_slot(source, 0, k)], x, y, FAST, [seed], mode)
                for field in _WEIGHTS:
                    assert np.array_equal(getattr(stack, field)[s, k], getattr(alone, field)[0, 0])
    assert seen == {(j, mode) for j in range(3) for mode in ("hard", "soft")}


def test_matrix_does_not_depend_on_the_worker_count(monkeypatch):
    cfg = TrainConfig(hidden=4, epochs=20, lr=0.1, batch_size=8, ensemble=3)
    results = {}
    for n in (1, 2, 3):
        monkeypatch.setattr(harness, "_workers", lambda n_stacks, n=n: n)
        results[n] = fti_matrix(_domains(), cfg)
        assert multiprocessing.active_children() == []
    assert results[2] == results[1] and results[3] == results[1]


def test_workers_cap_at_the_domain_count_and_split_the_stacks(monkeypatch, tmp_path):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [harness._workers(n) for n in (1, 2, 3, 7)] == [1, 2, 3, 3]
    # longest first to the share with the fewest rows, the first on a tie:
    # mini_flights' training rows, A1..A4 then B1..B4, deal 196 and 196
    assert harness._deal([51, 52, 40, 53, 52, 46, 42, 56], 2) == [[4, 5, 6, 7], [0, 1, 2, 3]]
    assert harness._deal([3, 1, 1, 1], 2) == [[0], [1, 2, 3]]
    assert harness._deal([8, 8, 8], 3) == [[0], [1], [2]]
    domains, log = _domains(), tmp_path / "fits.log"
    datasets = prepare_datasets(domains, FAST)
    real_train, real_transfer = harness.train_within, harness.transfer

    def record(kind, x, seeds, mode="base"):
        (j,) = [j for j, d in enumerate(datasets) if np.array_equal(x, d.x[d.train])]
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {kind} {j} {mode} {list(seeds)}\n")

    def train_spy(x, y, cfg, seeds):
        record("train_within", x, seeds)
        return real_train(x, y, cfg, seeds)

    def transfer_spy(sources, x, y, cfg, seeds, mode):
        record("transfer", x, seeds, mode)
        return real_transfer(sources, x, y, cfg, seeds, mode)

    monkeypatch.setattr(harness, "train_within", train_spy)
    monkeypatch.setattr(harness, "transfer", transfer_spy)
    got = fti_matrix(domains, FAST)
    assert multiprocessing.active_children() == []
    # three domains on three CPUs: one share each, the first one here
    seeds = [FAST.seed + k for k in range(FAST.ensemble)]
    calls = [line.split(" ", 4) for line in log.read_text().splitlines()]
    assert Counter((kind, int(j), mode) for _, kind, j, mode, _ in calls) == Counter(
        [("train_within", j, "base") for j in range(3)]
        + [("transfer", j, mode) for j in range(3) for mode in ("hard", "soft")]
    )
    assert all(fit_seeds == str(seeds) for *_, fit_seeds in calls)
    # in each phase, one process per share: a destination's hard and soft
    # fits share one, and this one fits the first domain's
    for phase in ("train_within", "transfer"):
        owner = {}
        for pid, kind, j, _, _ in calls:
            if kind == phase:
                assert owner.setdefault(int(j), pid) == pid, (phase, j)
        assert owner[0] == str(os.getpid()) and len(set(owner.values())) == 3, phase
    monkeypatch.setattr(harness, "_workers", _one_worker)
    monkeypatch.setattr(harness, "train_within", real_train)
    monkeypatch.setattr(harness, "transfer", real_transfer)
    assert got == fti_matrix(domains, FAST)


def _failing_in_a_worker(monkeypatch, fail, phase):
    """``fail()`` in any ``phase`` fit ("train_within" or "transfer") run
    outside this process, with the matrix on two processes."""
    caller, real = os.getpid(), getattr(harness, phase)

    def spy(*args):
        if os.getpid() != caller:
            fail()
        return real(*args)

    monkeypatch.setattr(harness, phase, spy)
    monkeypatch.setattr(harness, "_workers", lambda n_stacks: 2)


def test_a_data_error_in_a_worker_reaches_the_caller(monkeypatch):
    def fail():
        raise DataError("scores must be finite in a worker")

    for phase in ("train_within", "transfer"):
        with monkeypatch.context() as m:
            _failing_in_a_worker(m, fail, phase)
            with pytest.raises(DataError, match="^scores must be finite in a worker$"):
                fti_matrix(_domains(), FAST)
        assert multiprocessing.active_children() == []


def test_a_worker_that_dies_fails_the_matrix(monkeypatch):
    for phase in ("train_within", "transfer"):
        with monkeypatch.context() as m:
            _failing_in_a_worker(m, lambda: os._exit(1), phase)
            with pytest.raises(BrokenProcessPool):
                fti_matrix(_domains(), FAST)
        assert multiprocessing.active_children() == []


def test_fti_from_records_applies_weights():
    records = [TransferRecord("a", "b", 0.8, 0.7, 0.9)]
    assert fti_from_records(records, 1.0, 0.0) == {("a", "b"): pytest.approx(0.1)}
    assert fti_from_records(records, 0.0, 1.0) == {("a", "b"): pytest.approx(-0.1)}


# -- CSV round trip ---------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    records = [
        TransferRecord(f"s{i}", f"t{i}", *(float(v) for v in rng.uniform(0, 1, 3)))
        for i in range(20)
    ]
    path = tmp_path / "auc.csv"
    records_to_csv(records, path)
    back = records_from_csv(path)
    assert back == records  # %.17g preserves doubles bit for bit
    header = path.read_text().splitlines()[0]
    assert header == "source,target,auc_base,auc_hard,auc_soft"


def test_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("src,tgt\n")
    with pytest.raises(DataError, match="expected header"):
        records_from_csv(path)

    path.write_text("source,target,auc_base,auc_hard,auc_soft\na,b,0.5\n")
    with pytest.raises(DataError, match=":2"):
        records_from_csv(path)

    path.write_text("source,target,auc_base,auc_hard,auc_soft\na,b,x,0.5,0.5\n")
    with pytest.raises(DataError, match=":2"):
        records_from_csv(path)

    # values outside [0, 1], self-pairs and repeated pairs, one bad row each
    head = "source,target,auc_base,auc_hard,auc_soft\nz,y,0.5,0.5,0.5\n"
    for row, pattern in [
        ("a,b,nan,0.5,0.5", ":3: AUCs must lie in"),
        ("a,b,0.5,inf,0.5", ":3: AUCs must lie in"),
        ("a,b,0.5,0.5,-inf", ":3: AUCs must lie in"),
        ("a,b,0.5,1.5,0.5", ":3: AUCs must lie in"),
        ("a,b,-0.1,0.5,0.5", ":3: AUCs must lie in"),
        ("a,a,0.5,0.5,0.5", ":3: self-pair a,a"),
        ("z,y,0.6,0.5,0.5", r":3: duplicate pair z,y \(first on line 2\)"),
        ("a,,0.5,0.5,0.5", r":3: empty or padded domain id in 'a',''"),
        ("a, b,0.5,0.5,0.5", r":3: empty or padded domain id in 'a',' b'"),
    ]:
        path.write_text(head + row + "\n")
        with pytest.raises(DataError, match=pattern):
            records_from_csv(path)


def test_csv_ingestion_feeds_the_fti_cache(tmp_path):
    path = tmp_path / "auc.csv"
    records_to_csv([TransferRecord("a", "b", 0.8, 0.75, 0.82)], path)
    fti = fti_from_records(records_from_csv(path))
    assert fti[("a", "b")] == pytest.approx((0.02 - 0.05) / 2.0)
