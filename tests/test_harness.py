from __future__ import annotations

import logging

import numpy as np
import pytest

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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="scores must be finite"):
            auc([0, 1, 1], [0.1, bad, 0.9])


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


# -- training --------------------------------------------------------------------


def _toy_xy(n=24, seed=0):
    rng = np.random.default_rng(seed)
    y = np.array([i % 2 for i in range(n)], dtype=np.float64)
    x = np.column_stack([y * 2.0 - 1.0, rng.normal(size=n)])
    return x, y


def test_label_revealing_feature_reaches_perfect_auc():
    x, y = _toy_xy()
    model = train_within(x, y, TrainConfig(hidden=4, epochs=60, lr=0.1, batch_size=8), seed=0)
    assert auc(y, predict_proba(model, x)) == 1.0


def test_training_is_deterministic_per_seed():
    x, y = _toy_xy()
    m1 = train_within(x, y, FAST, seed=3)
    m2 = train_within(x, y, FAST, seed=3)
    assert np.array_equal(m1.w1, m2.w1) and np.array_equal(m1.w2, m2.w2)
    assert m1.b2 == m2.b2
    m3 = train_within(x, y, FAST, seed=4)
    assert not np.array_equal(m1.w1, m3.w1)


def test_single_class_split_rejected():
    x, _ = _toy_xy()
    with pytest.raises(DataError, match="both classes"):
        train_within(x, np.ones(len(x)), FAST, seed=0)


def test_hard_transfer_freezes_the_feature_block():
    x, y = _toy_xy()
    src = train_within(x, y, FAST, seed=0)
    x2, y2 = _toy_xy(seed=9)
    x2 = x2 + 5.0  # shifted inputs: standardization must adapt, weights must not
    hard = transfer(src, x2, y2, FAST, seed=1, mode="hard")
    assert np.array_equal(hard.w1, src.w1)
    assert np.array_equal(hard.b1, src.b1)
    assert not np.array_equal(hard.w2, src.w2)
    assert np.allclose(hard.mu, x2.mean(axis=0))
    assert not np.allclose(hard.mu, src.mu)


def test_soft_transfer_fits_everything():
    x, y = _toy_xy()
    src = train_within(x, y, FAST, seed=0)
    x2, y2 = _toy_xy(seed=9)
    soft = transfer(src, x2, y2, FAST, seed=1, mode="soft")
    assert not np.array_equal(soft.w1, src.w1)
    assert np.allclose(soft.mu, x2.mean(axis=0))
    # source weights are untouched by either mode
    ref = train_within(x, y, FAST, seed=0)
    assert np.array_equal(src.w1, ref.w1) and np.array_equal(src.w2, ref.w2)


def test_transfer_rejects_bad_mode_and_width():
    x, y = _toy_xy()
    src = train_within(x, y, FAST, seed=0)
    with pytest.raises(DataError, match="unknown transfer mode"):
        transfer(src, x, y, FAST, seed=0, mode="warm")
    with pytest.raises(DataError, match="feature width"):
        transfer(src, x[:, :1], y, FAST, seed=0, mode="hard")


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


def test_matrix_trains_each_ensemble_once_and_transfers_it_per_seed(monkeypatch):
    trained, transfers = [], []
    real_train, real_transfer = harness.train_within, harness.transfer

    def train_spy(x, y, cfg, seed):
        model = real_train(x, y, cfg, seed)
        trained.append((model, seed))  # holding the model keeps its id unique
        return model

    def transfer_spy(source, x, y, cfg, seed, mode):
        transfers.append((id(source), seed, mode))
        return real_transfer(source, x, y, cfg, seed, mode)

    monkeypatch.setattr(harness, "train_within", train_spy)
    monkeypatch.setattr(harness, "transfer", transfer_spy)
    fti_matrix(_domains(), FAST)
    n_domains, n_seeds = 3, FAST.ensemble
    assert len(trained) == n_domains * n_seeds == 6
    assert len(transfers) == 2 * n_domains * (n_domains - 1) * n_seeds == 24
    seed_of = {id(model): seed for model, seed in trained}
    assert sorted(seed_of.values()) == [0, 0, 0, 1, 1, 1]
    for source, seed, _ in transfers:
        assert seed_of[source] == seed


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
    ]:
        path.write_text(head + row + "\n")
        with pytest.raises(DataError, match=pattern):
            records_from_csv(path)


def test_csv_ingestion_feeds_the_fti_cache(tmp_path):
    path = tmp_path / "auc.csv"
    records_to_csv([TransferRecord("a", "b", 0.8, 0.75, 0.82)], path)
    fti = fti_from_records(records_from_csv(path))
    assert fti[("a", "b")] == pytest.approx((0.02 - 0.05) / 2.0)
