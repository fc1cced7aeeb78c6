from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np
import pytest

from domfix import atom_domain
from transferlens import contexts
from transferlens.contexts import (
    CoreContextScan,
    SearchConfig,
    _cluster_closures,
    _count_expansions,
    core_context_search,
    early_stop,
    fast_extend,
    sync_clusters,
)
from transferlens.errors import DataError
from transferlens.evidence import (
    CoreContext,
    EvidenceResult,
    EvidenceSpace,
    ParticularNarrator,
)
from transferlens.reasoner import Entailment


def _g(name):
    return Entailment.parse(f"{name}(d)")


def synth_space(seed, n_domains=5, n_atoms=8, p=0.6, **kw):
    """Random closures over named atoms plus a random transfer vector."""
    rng = np.random.default_rng(seed)
    atoms = [_g(f"A{i}") for i in range(n_atoms)]
    closures = []
    for _ in range(n_domains):
        closures.append(frozenset(g for g in atoms if rng.random() < p))
    ids = tuple(f"D{k}" for k in range(n_domains))
    src, dst, vals = [], [], []
    for i in range(n_domains):
        for j in range(n_domains):
            if i != j:
                src.append(i)
                dst.append(j)
                vals.append(float(rng.normal()))
    space = EvidenceSpace(
        ids=ids,
        closures=tuple(closures),
        pair_src=np.array(src, dtype=np.intp),
        pair_dst=np.array(dst, dtype=np.intp),
        fti_vec=np.array(vals, dtype=np.float64),
        epsilon=kw.get("epsilon", 0.1),
        alpha=kw.get("alpha", 0.05),
        n_min=kw.get("n_min", 3),
    )
    clusters = _cluster_closures(list(closures), set())
    return space, clusters


def direct_membership(space, atoms):
    """Which domains' closures hold every atom, computed without masks."""
    return np.array([atoms <= c for c in space.closures], dtype=bool)


def exhaustive_contexts(space, clusters, max_dim):
    """Reference enumeration: score every subset directly, no pruning."""
    out = {}
    for k in range(2, max_dim + 1):
        for combo in itertools.combinations(clusters.universe, k):
            atoms = frozenset(combo)
            out[atoms] = space.score_membership(
                CoreContext(atoms), direct_membership(space, atoms)
            )
    return out


def _result_key(res: EvidenceResult):
    return (res.gamma, res.rho, res.n, res.valid, res.reason)


# -- clustering ---------------------------------------------------------------


def test_clusters_group_identical_signatures():
    closures = [
        frozenset({_g("A"), _g("B"), _g("C")}),
        frozenset({_g("A"), _g("B")}),
        frozenset({_g("C"), _g("D")}),
    ]
    cl = _cluster_closures(closures, set())
    groups = {frozenset(c) for c in cl.clusters}
    assert groups == {
        frozenset({_g("A"), _g("B")}),
        frozenset({_g("C")}),
        frozenset({_g("D")}),
    }
    assert cl.universe == tuple(sorted([_g("A"), _g("B"), _g("C"), _g("D")]))
    # representative is the least member of each cluster
    assert cl.reps == (_g("A"), _g("C"), _g("D"))


def test_clusters_refine_under_domain_growth():
    base = [
        frozenset({_g("A"), _g("B")}),
        frozenset({_g("A"), _g("B")}),
    ]
    merged = _cluster_closures(base, set())
    assert len(merged.clusters) == 1
    # a third domain that separates A from B can only split, never merge
    split = _cluster_closures(base + [frozenset({_g("A")})], set())
    assert len(split.clusters) == 2
    for cluster in split.clusters:
        assert any(
            set(cluster) <= set(old) for old in merged.clusters
        ), "refinement violated"


def test_sync_clusters_excludes_targets():
    domains = [
        atom_domain("d1", "Tgt(d)", [["A", "Tgt"]]),
        atom_domain("d2", "Tgt(d)", [["A", "B"]]),
    ]
    cl = sync_clusters(domains)
    assert _g("Tgt") not in cl.universe
    assert set(cl.universe) == {_g("A"), _g("B")}


def test_single_domain_forms_one_cluster():
    cl = _cluster_closures([frozenset({_g("A"), _g("B"), _g("C")})], set())
    assert len(cl.clusters) == 1
    assert len(cl.clusters[0]) == 3


# -- pruning primitives ---------------------------------------------------------


def test_early_stop_rule():
    ctx = CoreContext(frozenset({_g("A")}))
    assert early_stop(EvidenceResult(ctx, 0.5, 0.2, 10, False), 0.05)
    assert not early_stop(EvidenceResult(ctx, 0.5, 0.01, 10, True), 0.05)
    # undefined significance can only get worse under extension
    assert early_stop(
        EvidenceResult(ctx, None, None, 2, False, "insufficient-samples"), 0.05
    )
    assert early_stop(
        EvidenceResult(ctx, None, None, 8, False, "zero-variance"), 0.05
    )


def test_fast_extend_is_cluster_membership():
    closures = [
        frozenset({_g("A"), _g("B"), _g("C")}),
        frozenset({_g("A"), _g("B")}),
    ]
    cl = _cluster_closures(closures, set())
    assert fast_extend([_g("A")], _g("B"), cl)
    assert not fast_extend([_g("A")], _g("C"), cl)
    assert not fast_extend([], _g("C"), cl)
    with pytest.raises(DataError, match="not in the search universe"):
        fast_extend([_g("A")], _g("Zed"), cl)


def test_synchronized_extension_inherits_result_exactly():
    # few domains, many atoms: signature collisions guarantee real clusters
    space, clusters = synth_space(2, n_domains=3, n_atoms=9)
    assert any(len(c) >= 2 for c in clusters.clusters)
    scan = CoreContextScan(space, clusters, SearchConfig(max_dim=3, early_stop=False)).run()
    hits = 0
    for cluster in clusters.clusters:
        if len(cluster) < 2:
            continue
        g0, g1 = cluster[0], cluster[1]
        other = next(c[0] for c in clusters.clusters if c[0] not in (g0, g1))
        base = scan.lookup({g0, other})
        extended = scan.lookup({g0, g1, other})
        assert _result_key(extended) == _result_key(base)
        hits += 1
    assert hits > 0, "fixture lost its multi-member clusters"


# -- search vs exhaustive enumeration -------------------------------------------


def test_pruned_search_equals_exhaustive_enumeration():
    for seed in range(12):
        space, clusters = synth_space(seed)
        cfg = SearchConfig(max_dim=4, early_stop=False)
        scan = CoreContextScan(space, clusters, cfg).run()
        got = {}
        for res in scan.iter_contexts():
            key = res.evidence.entailments
            assert key not in got, f"seed {seed}: duplicate context {key}"
            got[key] = _result_key(res)
        want = exhaustive_contexts(space, clusters, cfg.max_dim)
        assert got.keys() == want.keys(), f"seed {seed}"
        for key in want:
            assert got[key] == _result_key(want[key]), f"seed {seed}: {key}"


def test_stats_account_for_every_context():
    space, clusters = synth_space(3)
    cfg = SearchConfig(max_dim=4, early_stop=False)
    scan = CoreContextScan(space, clusters, cfg).run()
    u = len(clusters.universe)
    n = len(clusters.clusters)
    assert scan.stats.enumerable == sum(math.comb(u, k) for k in range(2, 5))
    # disabling early stop the walk evaluates every cluster subset once
    assert scan.stats.evaluated == sum(math.comb(n, k) for k in range(1, 5))
    assert scan.stats.evaluated == len(scan.results)
    assert scan.stats.covered == scan.stats.enumerable
    assert sum(1 for r in scan.iter_contexts()) == scan.stats.covered
    assert scan.stats.valid == sum(1 for r in scan.iter_contexts() if r.valid)
    assert 0.0 <= scan.stats.prune_rate <= 1.0


def test_early_stop_prunes_but_never_lies():
    lost_valid = 0
    total_valid = 0
    pruned_something = False
    for seed in range(12):
        space, clusters = synth_space(seed, alpha=0.4)
        cfg_off = SearchConfig(max_dim=4, alpha=0.4, early_stop=False)
        cfg_on = SearchConfig(max_dim=4, alpha=0.4, early_stop=True)
        full = CoreContextScan(space, clusters, cfg_off).run()
        fast = CoreContextScan(space, clusters, cfg_on).run()
        pruned_something |= fast.stats.early_stopped > 0

        # whatever the pruned search reports is exactly what the full search has
        for key, res in fast.results.items():
            assert _result_key(res) == _result_key(full.results[key])

        # a context is never skipped while its whole ancestor chain stays
        # significant: walking prefixes in canonical order, extension is only
        # cut after an insignificant step
        for key, res in full.results.items():
            idxs = tuple(sorted(key))
            if len(idxs) < 2:
                continue
            chain_ok = all(
                not early_stop(full.results[frozenset(idxs[:j])], cfg_on.alpha)
                for j in range(2, len(idxs))
            )
            if chain_ok:
                assert key in fast.results, f"seed {seed}: skipped {sorted(key)}"
            if res.valid:
                total_valid += 1
                if key not in fast.results:
                    lost_valid += 1
    assert pruned_something, "fixtures never triggered the early stop"
    # heuristic pruning may lose valid contexts; report the rate, assert nothing
    print(
        f"\nearly-stop loss: {lost_valid}/{total_valid} valid contexts pruned"
    )


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_each_domain_mask_is_scored_once(seed):
    space, clusters = synth_space(seed)
    calls = []
    kernel = space.score_membership

    def counting(evidence, member):
        calls.append(member.tobytes())
        return kernel(evidence, member)

    space.score_membership = counting
    cfg = SearchConfig(max_dim=3, early_stop=False)
    scan = CoreContextScan(space, clusters, cfg).run()
    distinct = {
        tuple(frozenset(combo) <= c for c in space.closures)
        for k in range(1, cfg.max_dim + 1)
        for combo in itertools.combinations(clusters.reps, k)
    }
    assert scan.stats.evaluated > len(distinct)
    assert len(calls) == len(set(calls)) == len(distinct)
    # narrators and lookups after the scan reuse the stored masks
    for g in clusters.universe:
        space.score(ParticularNarrator(g))
    rng = np.random.default_rng(seed)
    universe = list(clusters.universe)
    for _ in range(50):
        k = int(rng.integers(2, cfg.max_dim + 1))
        scan.lookup(universe[i] for i in rng.choice(len(universe), size=k, replace=False))
    assert len(calls) == len(distinct)


# -- expansion counting ----------------------------------------------------------


def test_count_expansions_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(60):
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
        lo = int(rng.integers(1, 5))
        hi = int(rng.integers(lo, 7))
        brute = 0
        pools = [range(s) for s in sizes]
        for picks in itertools.product(
            *(
                [c for k in range(1, s + 1) for c in itertools.combinations(p, k)]
                for p, s in zip(pools, sizes)
            )
        ):
            if lo <= sum(len(p) for p in picks) <= hi:
                brute += 1
        assert _count_expansions(sizes, lo, hi) == brute, (sizes, lo, hi)


def test_rep_results_cover_counts_sum_to_covered():
    space, clusters = synth_space(7)
    scan = CoreContextScan(space, clusters, SearchConfig(max_dim=3, early_stop=False)).run()
    assert sum(c for _, _, c in scan.rep_results()) == scan.stats.covered
    # each yielded result carries its own representative context
    rep_sets = {frozenset(clusters.reps[i] for i in key) for key in scan.results}
    yielded = []
    for context, res, _ in scan.rep_results():
        assert res.evidence is context
        assert context.entailments in rep_sets
        yielded.append(context.entailments)
    assert len(yielded) == len(set(yielded)) == len(rep_sets)


def test_scan_stores_one_shared_result_per_domain_mask():
    space, clusters = synth_space(3)
    scan = CoreContextScan(space, clusters, SearchConfig(max_dim=4, early_stop=False)).run()
    masks = {
        functools.reduce(operator.and_, (clusters.masks[i] for i in key))
        for key in scan.results
    }
    assert len(masks) < len(scan.results)
    assert len({id(res) for res in scan.results.values()}) == len(masks)
    assert all(res.evidence is None for res in scan.results.values())


def test_cover_is_counted_once_per_cluster_size_profile(monkeypatch):
    calls = []
    kernel = contexts._count_expansions

    def counting(sizes, lo, hi):
        calls.append(tuple(sizes))
        return kernel(sizes, lo, hi)

    monkeypatch.setattr(contexts, "_count_expansions", counting)
    # few domains, many atoms: clusters of several sizes
    space, clusters = synth_space(2, n_domains=3, n_atoms=9)
    scan = CoreContextScan(space, clusters, SearchConfig(max_dim=4, early_stop=False)).run()
    covers = [c for _, _, c in scan.rep_results()]
    profiles = {tuple(sorted(len(clusters.clusters[i]) for i in key)) for key in scan.results}
    assert len(profiles) < len(scan.results)
    assert sorted(calls) == sorted(profiles)
    assert sum(covers) == scan.stats.covered == scan.stats.enumerable


# -- lookup -----------------------------------------------------------------------


def test_lookup_matches_direct_scoring_even_when_pruned():
    space, clusters = synth_space(4, alpha=0.01)
    scan = CoreContextScan(space, clusters, SearchConfig(max_dim=4, alpha=0.01)).run()
    rng = np.random.default_rng(0)
    universe = list(clusters.universe)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        atoms = frozenset(rng.choice(len(universe), size=k, replace=False))
        atoms = frozenset(universe[i] for i in atoms)
        got = scan.lookup(atoms)
        want = space.score_membership(CoreContext(atoms), direct_membership(space, atoms))
        assert _result_key(got) == _result_key(want)
        assert got.evidence.entailments == atoms


def test_lookup_rejects_unknown_atoms_and_empty_contexts():
    space, clusters = synth_space(4)
    scan = CoreContextScan(space, clusters, SearchConfig()).run()
    with pytest.raises(DataError, match="empty context"):
        scan.lookup([])
    with pytest.raises(DataError, match="not in the search universe"):
        scan.lookup([_g("Nope")])


# -- configuration and end-to-end ---------------------------------------------------


def test_search_config_validation():
    with pytest.raises(DataError, match="max_dim"):
        SearchConfig(max_dim=1)
    with pytest.raises(DataError, match="alpha"):
        SearchConfig(alpha=0.0)
    with pytest.raises(DataError, match="alpha"):
        SearchConfig(alpha=1.0)
    for epsilon in (-0.1, 1.5, float("nan")):
        with pytest.raises(DataError, match=r"epsilon must be in \[0, 1\]"):
            SearchConfig(epsilon=epsilon)
    SearchConfig(epsilon=0.0)
    SearchConfig(epsilon=1.0)


def test_core_context_search_on_real_domains():
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
    scan = core_context_search(domains, fti, SearchConfig(max_dim=3, early_stop=False))
    assert scan.stats.universe == 4  # K1 K2 K3 Shared
    # the target never shows up inside any emitted context
    tgt = _g("Tgt")
    for res in scan.iter_contexts():
        assert tgt not in res.evidence.entailments
