from __future__ import annotations

import inspect
import itertools

import numpy as np
import pytest

from domfix import atom_domain
from oracles import effective_brute, frequent_brute
from transferlens.errors import DataError
from transferlens.mining import (
    MiningParams,
    effective_subsets,
    frequent_entailments,
    mine_roots,
    root_individuals,
)
from transferlens.reasoner import Entailment


def _random_domain(seed, n_lsos=12, n_atoms=7):
    rng = np.random.default_rng(seed)
    names = [f"A{i}" for i in range(n_atoms)] + ["Tgt"]
    lists = []
    for _ in range(n_lsos):
        lists.append([nm for nm in names if rng.random() < 0.5] or ["A0"])
    return atom_domain(f"rand{seed}", "Tgt(d)", lists)


def _closure_sets(domain):
    return [c.atoms() for c in domain.lso_closures()]


def test_frequent_matches_brute_force():
    for seed in range(30):
        d = _random_domain(seed)
        closures = _closure_sets(d)
        for sigma in (0.2, 0.5, 0.8, 1.0):
            got = frequent_entailments(d, MiningParams(sigma=sigma))
            want = frequent_brute(closures, d.target, sigma)
            assert got == want, f"seed {seed} sigma {sigma}"


def test_effective_matches_brute_force():
    for seed in range(30):
        d = _random_domain(seed)
        closures = _closure_sets(d)
        for kappa, tau in ((1, 0.4), (1, 0.8), (2, 0.5), (2, 0.9)):
            got = effective_subsets(d, MiningParams(kappa=kappa, tau=tau))
            want = effective_brute(closures, d.target, kappa, tau)
            assert set(got) == set(want), f"seed {seed} kappa {kappa} tau {tau}"
            for subset, scores in got.items():
                assert scores == pytest.approx(want[subset], abs=1e-12)


def test_r_e_is_zero_when_no_lso_entails_the_target():
    d = atom_domain("untargeted", "Tgt(d)", [["A", "B"], ["A"], ["B", "C"]])
    closures = _closure_sets(d)
    for kappa in (1, 2):
        got = effective_subsets(d, MiningParams(kappa=kappa, tau=0.0))
        assert got == effective_brute(closures, d.target, kappa, 0.0)
        assert got and all(r_e == 0.0 for r_e, _ in got.values())


def test_mining_steps_take_a_domain_and_its_params():
    # so no step scores a sigma, kappa or tau that MiningParams refuses
    for step in (frequent_entailments, effective_subsets, mine_roots):
        params = list(inspect.signature(step).parameters.values())
        assert [(p.name, p.annotation, p.default) for p in params] == [
            ("domain", "LearningDomain", inspect.Parameter.empty),
            ("params", "MiningParams", inspect.Parameter.empty),
        ], step.__name__


def test_scores_are_anti_monotone_in_subset_growth():
    d = _random_domain(99)
    closures = _closure_sets(d)
    pairs = effective_brute(closures, d.target, 2, 0.0)
    singles = effective_brute(closures, d.target, 1, 0.0)
    for pair, (r_e, r_i) in pairs.items():
        for g in pair:
            se, si = singles[frozenset((g,))]
            assert r_e <= se and r_i <= si


def test_roots_shrink_as_parameters_tighten():
    d = _random_domain(5)
    ladder = [
        MiningParams(sigma=0.3, kappa=1, tau=0.3),
        MiningParams(sigma=0.5, kappa=1, tau=0.5),
        MiningParams(sigma=0.7, kappa=1, tau=0.7),
    ]
    counts = [len(mine_roots(d, p).root_entailments) for p in ladder]
    assert counts == sorted(counts, reverse=True)
    # with kappa fixed the root sets are nested, not merely smaller
    roots = [mine_roots(d, p).root_entailments for p in ladder]
    assert roots[2] <= roots[1] <= roots[0]


def test_mine_roots_bundles_both_routes():
    lists = [["Hot", "Dry", "Tgt"], ["Hot", "Dry", "Tgt"], ["Hot"], ["Hot"]]
    d = atom_domain("tiny", "Tgt(d)", lists)
    rs = mine_roots(d, MiningParams(sigma=1.0, kappa=1, tau=1.0))
    hot, dry = Entailment.parse("Hot(d)"), Entailment.parse("Dry(d)")
    assert rs.frequent == {hot}
    # Dry co-occurs with the target exactly (r_e 0.5, r_i 0.5)
    assert rs.effective == {frozenset({dry}): (0.5, 0.5)}
    assert rs.root_entailments == {hot, dry}
    assert rs.root_individuals == ("d",)


def test_mine_roots_builds_one_mask_table(monkeypatch):
    from transferlens import mining

    calls = []
    real = mining._lso_masks
    monkeypatch.setattr(mining, "_lso_masks", lambda d: calls.append(d.id) or real(d))
    d = _random_domain(7)
    params = MiningParams(sigma=0.5, kappa=2, tau=0.5)
    rs = mine_roots(d, params)
    assert calls == [d.id]
    # the same routes as the public functions, which build a table each
    assert rs.frequent == frequent_entailments(d, params)
    assert rs.effective == effective_subsets(d, params)
    assert len(calls) == 3


def test_root_individuals_are_every_argument_in_order():
    # generated names are concepts outside the name grammar, so an individual
    # spelled like one is an ordinary individual
    atoms = {Entailment.parse("r(a,b)"), Entailment.parse("C(_N0)")}
    assert root_individuals(atoms) == ("_N0", "a", "b")


def test_params_validated():
    with pytest.raises(DataError, match="sigma"):
        MiningParams(sigma=0.0)
    with pytest.raises(DataError, match="sigma"):
        MiningParams(sigma=1.1)
    with pytest.raises(DataError, match="tau"):
        MiningParams(tau=2.5)
    with pytest.raises(DataError, match="kappa"):
        MiningParams(kappa=0)
    # a fractional or boolean size would mine subsets of another size
    for key, bad in (("kappa", 1.5), ("kappa", 2.0), ("kappa", True), ("kappa_cap", 2.5)):
        with pytest.raises(DataError, match=f"{key} must be an integer"):
            MiningParams(**{key: bad})
    MiningParams(kappa=np.int64(1), kappa_cap=np.int32(2))
    with pytest.raises(DataError, match="cap"):
        MiningParams(kappa=3)
    # raising the cap deliberately is allowed
    MiningParams(kappa=3, kappa_cap=3)


def test_mining_refuses_inconsistent_lsos():
    from domfix import make_domain

    d = make_domain(
        "bad", "Tgt(d)", ["ClassAssert(Tgt d)\nSameInd(a b)\nDiffInd(a b)"]
    )
    params = MiningParams(sigma=0.5, kappa=1, tau=0.0)
    for step in (mine_roots, frequent_entailments, effective_subsets):
        with pytest.raises(DataError, match="inconsistent"):
            step(d, params)


def test_apriori_join_is_lossless_at_kappa_three():
    # every surviving pair must extend from surviving singletons, and the
    # exhaustive reference must agree even when the cap is lifted
    d = _random_domain(41, n_lsos=10, n_atoms=6)
    closures = _closure_sets(d)
    got = effective_subsets(d, MiningParams(kappa=3, tau=0.55, kappa_cap=3))
    want = effective_brute(closures, d.target, 3, 0.55)
    assert set(got) == set(want)
