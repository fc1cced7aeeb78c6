from __future__ import annotations

import math

import numpy as np
import pytest

from domfix import atom_domain
from oracles import p_value_quadrature, pearson_exact
from transferlens.errors import DataError
from transferlens.evidence import (
    CoreContext,
    EvidenceSpace,
    FactorKind,
    GeneralFactor,
    ParticularNarrator,
    _betainc,
    change_rates,
    change_rates_from_counts,
    correlative_reason,
    dec,
    p_value,
    pearson,
)
from transferlens.reasoner import Entailment


def _atoms(*names):
    return frozenset(Entailment.parse(f"{n}(d)") for n in names)


# -- change rates -----------------------------------------------------------


def test_change_rates_definition():
    ga = _atoms("A", "B", "C")
    gb = _atoms("B", "C", "D", "E")
    r = change_rates(ga, gb)
    assert r.new == pytest.approx(2 / 4)
    assert r.obsolete == pytest.approx(1 / 3)
    assert r.invariant == pytest.approx(2 / 5)


def test_change_rates_worked_example_from_counts():
    # |source| 25180, |target| 13412, new 11419, obsolete 23187, invariant 1193
    r = change_rates_from_counts(25180, 13412, 11419, 23187, 1193)
    assert r.new == pytest.approx(11419 / 13412, abs=1e-9)
    assert r.obsolete == pytest.approx(23187 / 25180, abs=1e-9)
    assert r.invariant == pytest.approx(1193 / 38592, abs=1e-9)
    # frozen decimals of those fractions
    assert r.new == pytest.approx(0.8514017297942141, abs=1e-9)
    assert r.obsolete == pytest.approx(0.9208498808578237, abs=1e-9)
    assert r.invariant == pytest.approx(0.030913142620232172, abs=1e-9)


def test_change_rates_bounds_and_identity_cases():
    ga = _atoms("A", "B")
    same = change_rates(ga, ga)
    assert (same.new, same.obsolete, same.invariant) == (0.0, 0.0, 1.0)
    disjoint = change_rates(ga, _atoms("C"))
    assert (disjoint.new, disjoint.obsolete, disjoint.invariant) == (1.0, 1.0, 0.0)
    rng = np.random.default_rng(0)
    pool = [f"X{i}" for i in range(8)]
    for _ in range(50):
        a = _atoms(*(p for p in pool if rng.random() < 0.6), "A")
        b = _atoms(*(p for p in pool if rng.random() < 0.6), "B")
        r = change_rates(a, b)
        for v in (r.new, r.obsolete, r.invariant):
            assert 0.0 <= v <= 1.0
        assert (r.invariant == 1.0) == (a == b)
        assert (r.new == 0.0 and r.obsolete == 0.0) == (a == b)


def test_change_rates_name_the_empty_side():
    with pytest.raises(DataError, match="source"):
        change_rates(frozenset(), _atoms("A"))
    with pytest.raises(DataError, match="target"):
        change_rates(_atoms("A"), frozenset())
    with pytest.raises(DataError, match="source"):
        change_rates_from_counts(0, 5, 1, 1, 1)
    with pytest.raises(DataError, match="target"):
        change_rates_from_counts(5, 0, 1, 1, 1)


def test_dec_is_containment_in_target():
    both = _atoms("A", "B")
    assert dec(both, _atoms("A", "B", "C")) == 1
    assert dec(both, _atoms("A", "C")) == 0
    assert dec(frozenset(), _atoms("A")) == 1


# -- pearson ------------------------------------------------------------------


def test_pearson_worked_example():
    # frozen from the exact-fraction oracle: 12 / sqrt(10 * 21.2)
    r = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 7])
    assert r == pytest.approx(0.824163383692134, abs=1e-12)
    assert r == pytest.approx(pearson_exact([1, 2, 3, 4, 5], [2, 1, 4, 3, 7]), abs=1e-12)


def test_pearson_extremes_and_oracle_equivalence():
    assert pearson([1, 2, 4], [1, 2, 4]) == pytest.approx(1.0)
    assert pearson([1, 2, 4], [-1, -2, -4]) == pytest.approx(-1.0)
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(3, 51))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        assert pearson(x, y) == pytest.approx(
            pearson_exact(list(x), list(y)), rel=1e-12
        ), f"trial {trial}"


def _numpy_pearson(x, y) -> float:
    """The numpy kernel pearson replaced: centered by the mean, summed by dot."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))


def test_pearson_agrees_with_the_numpy_kernel():
    # the stated tolerance of gamma's exactly rounded sums against numpy's
    # pairwise ones: a relative 1e-13 up to the 8,372 pairs of a 92-domain
    # matrix, for 0/1 co-existence embeddings and real change rates alike
    rng = np.random.default_rng(20)
    for trial in range(160):
        n = int(rng.integers(3, 8373))
        if trial % 2:
            x = rng.normal(size=n)
        else:
            x = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.float64)
            x[:2] = (0.0, 1.0)
        y = rng.normal(size=n) + rng.uniform(-1.0, 1.0) * x
        assert pearson(x, y) == pytest.approx(_numpy_pearson(x, y), rel=1e-13), (trial, n)


def test_pearson_ignores_the_order_of_the_samples():
    rng = np.random.default_rng(4)
    for n in (3, 17, 500, 8372):
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.3 * x
        r = pearson(x, y)
        for _ in range(5):
            p = rng.permutation(n)
            assert pearson(x[p], y[p]) == r
            assert pearson(list(y[p]), list(x[p])) == r


def test_pearson_affine_invariance():
    rng = np.random.default_rng(9)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    r = pearson(x, y)
    assert pearson(3.7 * x + 11.0, y) == pytest.approx(r, abs=1e-12)
    assert pearson(x, 0.002 * y - 5.0) == pytest.approx(r, abs=1e-12)
    assert pearson(-x, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(DataError, match="equal-length"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(DataError, match="at least 2"):
        pearson([1.0], [2.0])
    with pytest.raises(DataError, match="zero variance"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DataError, match="zero variance"):
        pearson([1, 2, 3], [4, 4, 4])
    with pytest.raises(DataError, match=r"equal-length vectors, got \(3, 2\) and \(3, 2\)"):
        pearson(np.ones((3, 2)), np.arange(6.0).reshape(3, 2))
    with pytest.raises(DataError, match="equal-length"):
        pearson([[1, 2], [3, 4], [5, 7]], [1, 2, 3])
    with pytest.raises(DataError, match="equal-length"):
        pearson(np.float64(1.0), [1, 2, 3])


# -- p_value ------------------------------------------------------------------


def test_p_value_worked_example():
    p = p_value(0.444, 20)
    assert p == pytest.approx(0.0498, abs=5e-4)
    assert p == pytest.approx(0.04986349331103491, abs=1e-10)


def test_p_value_edges():
    for n in (3, 10, 40):
        assert p_value(0.0, n) == pytest.approx(1.0, abs=1e-12)
    assert p_value(1.0, 5) == 0.0
    assert p_value(-1.0, 5) == 0.0
    with pytest.raises(DataError, match="at least 3"):
        p_value(0.5, 2)
    with pytest.raises(DataError, match="out of range"):
        p_value(1.5, 10)


def test_p_value_matches_quadrature_oracle():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(3, 51))
        r = float(rng.uniform(-0.999, 0.999))
        assert p_value(r, n) == pytest.approx(
            p_value_quadrature(r, n), abs=5e-4
        ), f"trial {trial}: r={r} n={n}"


def test_p_value_agrees_with_scipy_betainc_at_the_same_x():
    # n runs up to criterion 9's 92 x 91 ordered pairs; where the tail
    # underflows, both give exactly 0.0
    from scipy.special import betainc

    ns = sorted({3, 4, 5, 7, 10, 20, 50, 100} | {k * (k - 1) for k in range(3, 93, 7)} | {8372})
    rs = [float(r) for r in np.geomspace(1e-7, 0.9999, 60)]
    sides = set()
    for n in ns:
        df = n - 2
        for r in rs:
            x = df / (df + r * r * df / (1.0 - r * r))
            sides.add(x > (df / 2 + 1) / (df / 2 + 2.5))
            want = float(betainc(df / 2, 0.5, x))
            got = p_value(r, n)
            assert p_value(-r, n) == got
            assert got == pytest.approx(want, rel=1e-10, abs=0), (n, r)
        assert p_value(0.0, n) == 1.0
        assert p_value(1.0, n) == 0.0 and p_value(-1.0, n) == 0.0
    assert sides == {True, False}  # both sides of the continued fraction's switch


def test_incomplete_beta_raises_rather_than_return_an_unconverged_value():
    with pytest.raises(DataError, match="did not converge"):
        _betainc(1e6, 1e6, 0.5)


def test_p_value_monotone_in_strength_and_samples():
    rs = np.linspace(0.05, 0.95, 10)
    ps = [p_value(float(r), 12) for r in rs]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    ns = [3, 5, 8, 13, 21, 34]
    ps = [p_value(0.6, n) for n in ns]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    # sign of r is irrelevant
    assert p_value(0.6, 10) == pytest.approx(p_value(-0.6, 10), abs=1e-15)


# -- evidence scoring ---------------------------------------------------------


def _space(epsilon=0.1, alpha=0.05, n_min=3):
    # four domains; K* markers control co-existence patterns
    domains = [
        atom_domain("d1", "Tgt(d)", [["K1", "Shared", "Tgt"], ["K1", "Shared"]]),
        atom_domain("d2", "Tgt(d)", [["K2", "Shared", "Tgt"], ["K2"]]),
        atom_domain("d3", "Tgt(d)", [["K1", "K2", "Shared", "Tgt"]]),
        atom_domain("d4", "Tgt(d)", [["K3", "Shared", "Tgt"]]),
    ]
    rng = np.random.default_rng(5)
    fti = {
        (a.id, b.id): float(rng.normal())
        for a in domains
        for b in domains
        if a.id != b.id
    }
    return domains, fti, EvidenceSpace.build(
        domains, fti, epsilon=epsilon, alpha=alpha, n_min=n_min
    )


def test_space_pairs_cover_all_ordered_pairs():
    domains, fti, space = _space()
    assert len(space.pair_src) == 12
    assert space.ids == ("d1", "d2", "d3", "d4")


def test_membership_vector():
    domains, fti, space = _space()
    k1 = Entailment.parse("K1(d)")
    # bit i is domain i: K1 holds in d1 and d3, K1 and K2 together only in d3
    assert space.membership([k1]) == 0b0101
    assert space.membership([k1, Entailment.parse("K2(d)")]) == 0b0100


def test_narrator_scoring_matches_hand_computation():
    domains, fti, space = _space()
    res = space.score(ParticularNarrator(Entailment.parse("K1(d)")))
    # source domains carrying K1: d1 and d3 -> 6 ordered pairs
    assert res.n == 6
    member = {"d1": 1.0, "d2": 0.0, "d3": 1.0, "d4": 0.0}
    v_e, v_f = [], []
    for (s, t), v in sorted(fti.items()):
        if member[s] == 1.0:
            v_e.append(member[t])
            v_f.append(v)
    want = pearson_exact(v_e, v_f)
    assert res.gamma == pytest.approx(want, abs=1e-12)
    assert res.rho == pytest.approx(p_value_quadrature(res.gamma, 6), abs=5e-4)


def test_general_factor_scoring_matches_hand_computation():
    domains, fti, space = _space()
    res = space.score(GeneralFactor(FactorKind.OBS))
    assert res.n == 12
    closures = {d.id: d.entailment_closure() for d in domains}
    v_e, v_f = [], []
    for i in range(len(space.pair_src)):
        s = space.ids[space.pair_src[i]]
        t = space.ids[space.pair_dst[i]]
        v_e.append(change_rates(closures[s], closures[t]).obsolete)
        v_f.append(float(space.fti_vec[i]))
    assert res.gamma == pytest.approx(pearson_exact(v_e, v_f), abs=1e-12)


def test_no_evidence_domains_reason():
    domains, fti, space = _space()
    res = space.score(ParticularNarrator(Entailment.parse("Absent(d)")))
    assert not res.valid and res.reason == "no-evidence-domains"
    assert res.n == 0 and res.gamma is None and res.rho is None


def test_zero_variance_reason():
    domains, fti, space = _space()
    # Shared(d) holds in every domain: embedding is constant 1
    res = space.score(ParticularNarrator(Entailment.parse("Shared(d)")))
    assert not res.valid and res.reason == "zero-variance"
    assert res.n == 12


def test_insufficient_samples_reason():
    domains, fti, space = _space(n_min=3)
    # only d4 carries K3: 3 ordered pairs, meets n_min=3; raise n_min
    res = space.score(ParticularNarrator(Entailment.parse("K3(d)")))
    assert res.n == 3
    _, _, strict = _space(n_min=4)
    res = strict.score(ParticularNarrator(Entailment.parse("K3(d)")))
    assert not res.valid and res.reason == "insufficient-samples"


def test_validity_thresholds():
    domains, fti, _ = _space()
    # force a perfectly correlated embedding: fti 1.0 where K1 held, else 0
    member = {"d1": 1.0, "d2": 0.0, "d3": 1.0, "d4": 0.0}
    rigged = {(s, t): member[t] for (s, t) in fti}
    res = correlative_reason(
        domains, ParticularNarrator(Entailment.parse("K1(d)")), rigged
    )
    assert res.gamma == pytest.approx(1.0)
    assert res.rho == 0.0
    assert res.valid

    # a nudged, still significant signal with epsilon above |gamma| fails the
    # strength gate; an epsilon above 1 is rejected as no threshold at all
    nudged = {(s, t): v + (0.1 if s == "d1" else 0.0) for (s, t), v in rigged.items()}
    res2 = correlative_reason(
        domains,
        ParticularNarrator(Entailment.parse("K1(d)")),
        nudged,
        epsilon=1.0,
    )
    assert 0.99 < res2.gamma < 1.0 and res2.rho <= 0.05
    assert not res2.valid and res2.reason is None
    with pytest.raises(DataError, match=r"epsilon must be in \[0, 1\]"):
        correlative_reason(
            domains, ParticularNarrator(Entailment.parse("K1(d)")), rigged, epsilon=1.01
        )


def test_scores_ignore_the_order_of_the_pairs():
    domains, fti, space = _space()
    evidence = [GeneralFactor(k) for k in FactorKind] + [
        ParticularNarrator(Entailment.parse(f"{name}(d)")) for name in ("K1", "K2", "K3")
    ]
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = rng.permutation(len(space.pair_src))
        shuffled = EvidenceSpace(
            ids=space.ids,
            closures=space.closures,
            pair_src=np.asarray(space.pair_src)[p],
            pair_dst=np.asarray(space.pair_dst)[p],
            fti_vec=np.asarray(space.fti_vec)[p],
            epsilon=space.epsilon,
            alpha=space.alpha,
            n_min=space.n_min,
        )
        assert type(shuffled.pair_src[0]) is int and type(shuffled.fti_vec[0]) is float
        for e in evidence:
            assert shuffled.score(e) == space.score(e), e


def test_context_evidence_uses_joint_membership():
    domains, fti, space = _space()
    ctx = CoreContext(_atoms("K1", "K2"))
    res = space.score(ctx)
    # only d3 entails both
    assert res.n == 3
    assert str(ctx) == "K1(d) + K2(d)"


def test_space_build_validation():
    domains, fti, _ = _space()
    with pytest.raises(DataError, match="at least two"):
        EvidenceSpace.build(domains[:1], fti)
    with pytest.raises(DataError, match="duplicate"):
        EvidenceSpace.build([domains[0], domains[0]], fti)
    with pytest.raises(DataError, match="no ordered pair"):
        EvidenceSpace.build(domains, {("x", "y"): 0.1})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DataError, match="transfer index of d2->d3 is not finite"):
            EvidenceSpace.build(domains, {**fti, ("d2", "d3"): bad})
    for bad in (float("nan"), -1.0, 7.0):
        with pytest.raises(DataError, match=r"epsilon must be in \[0, 1\]"):
            EvidenceSpace.build(domains, fti, epsilon=bad)
        with pytest.raises(DataError, match=r"alpha must be in \(0, 1\)"):
            EvidenceSpace.build(domains, fti, alpha=bad)
        with pytest.raises(DataError, match="epsilon"):
            correlative_reason(domains, GeneralFactor.parse("d_obs"), fti, epsilon=bad)
        with pytest.raises(DataError, match="alpha"):
            correlative_reason(domains, GeneralFactor.parse("d_obs"), fti, alpha=bad)
    # a count must be a whole number, a numpy one included; a bool is not
    for bad in (2.5, True, "3"):
        with pytest.raises(DataError, match=f"n_min must be an integer, got {bad!r}"):
            EvidenceSpace.build(domains, fti, n_min=bad)
        with pytest.raises(DataError, match="n_min must be an integer"):
            correlative_reason(domains, GeneralFactor.parse("d_obs"), fti, n_min=bad)
    EvidenceSpace.build(domains, fti, n_min=np.int64(3))
    # p_value needs 3 samples, so n_min is at least 3
    for bad in (2, 0, -5):
        with pytest.raises(DataError, match=f"n_min must be at least 3, got {bad}"):
            EvidenceSpace.build(domains, fti, n_min=bad)
        with pytest.raises(DataError, match=f"n_min must be at least 3, got {bad}"):
            correlative_reason(domains, GeneralFactor.parse("d_obs"), fti, n_min=bad)
    # partial coverage shrinks the pair list instead of failing
    partial = {("d1", "d2"): 0.1, ("d2", "d1"): -0.1, ("d1", "d3"): 0.2}
    space = EvidenceSpace.build(domains, partial)
    assert len(space.pair_src) == 3


def test_general_factor_parse_and_strings():
    assert GeneralFactor.parse("d_new").kind is FactorKind.NEW
    assert GeneralFactor.parse(" d_obs ").kind is FactorKind.OBS
    assert str(GeneralFactor.parse("d_inv")) == "d_inv"
    with pytest.raises(DataError, match="unknown general factor"):
        GeneralFactor.parse("d_bogus")
    assert str(ParticularNarrator(Entailment.parse("C(a)"))) == "C(a)"
