from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from domfix import atom_domain
from transferlens.contexts import (
    CoreContextScan,
    SearchConfig,
    _cluster_closures,
    core_context_search,
    fast_extend,
    sync_clusters,
)
from transferlens.domain import membership_masks
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
    clusters = _cluster_closures(space.masks, set())
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


def store_contexts(scan):
    """The exhaustive walk's store expanded to concrete contexts: each
    context of 2..max_dim entailments with its cluster set's stored result."""
    of = scan.clusters.of_entailment
    for k in range(2, scan.cfg.max_dim + 1):
        for atoms in itertools.combinations(scan.clusters.universe, k):
            res = scan.results[tuple(sorted({of[g] for g in atoms}))]
            yield replace(res, evidence=CoreContext(frozenset(atoms)))


def _result_key(res: EvidenceResult):
    return (res.gamma, res.rho, res.n, res.valid, res.reason)


def exhaustive_count(clusters, max_dim):
    """Cluster sets the exhaustive walk scores: every set of 1..max_dim clusters."""
    return sum(math.comb(len(clusters.clusters), k) for k in range(1, max_dim + 1))


def set_mask(clusters, key):
    """The domain mask of a cluster set: the AND of its clusters' masks."""
    return functools.reduce(operator.and_, (clusters.masks[i] for i in key))


def expansions(sizes, max_dim):
    """Contexts of 2..max_dim entailments taking at least one from each of
    clusters of these sizes: the coefficients of x^2..x^max_dim in the
    product of the clusters' (1 + x)^size - 1."""
    poly = [1]
    for size in sizes:
        term = [0] + [math.comb(size, j) for j in range(1, size + 1)]
        poly = [
            sum(poly[i] * term[t - i] for i in range(len(poly)) if 0 <= t - i <= size)
            for t in range(min(len(poly) + size, max_dim + 1))
        ]
    return sum(poly[2:])


def all_fixtures():
    """Every synth_space fixture of this file and of acceptance criterion 5."""
    fixtures = [synth_space(seed, alpha=0.4) for seed in range(12)]
    fixtures += [synth_space(seed) for seed in range(12)]
    fixtures += [synth_space(seed, n_domains=4, n_atoms=10, alpha=0.4) for seed in range(6)]
    fixtures += [synth_space(2, n_domains=3, n_atoms=9), synth_space(4, alpha=0.01)]
    fixtures += [synth_space(seed, n_domains=6, n_atoms=10) for seed in range(8)]
    fixtures += [synth_space(seed, n_domains=4, n_atoms=8) for seed in range(4)]
    return fixtures


# -- clustering ---------------------------------------------------------------


def test_clusters_group_identical_signatures():
    closures = [
        frozenset({_g("A"), _g("B"), _g("C")}),
        frozenset({_g("A"), _g("B")}),
        frozenset({_g("C"), _g("D")}),
    ]
    cl = _cluster_closures(membership_masks(closures), set())
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
    merged = _cluster_closures(membership_masks(base), set())
    assert len(merged.clusters) == 1
    # a third domain that separates A from B can only split, never merge
    split = _cluster_closures(membership_masks(base + [frozenset({_g("A")})]), set())
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
    cl = _cluster_closures(membership_masks([frozenset({_g("A"), _g("B"), _g("C")})]), set())
    assert len(cl.clusters) == 1
    assert len(cl.clusters[0]) == 3


# -- pruning primitives ---------------------------------------------------------


def test_fast_extend_is_cluster_membership():
    closures = [
        frozenset({_g("A"), _g("B"), _g("C")}),
        frozenset({_g("A"), _g("B")}),
    ]
    cl = _cluster_closures(membership_masks(closures), set())
    assert fast_extend([_g("A")], _g("B"), cl)
    assert not fast_extend([_g("A")], _g("C"), cl)
    assert not fast_extend([], _g("C"), cl)
    with pytest.raises(DataError, match="not in the search universe"):
        fast_extend([_g("A")], _g("Zed"), cl)
    # a context atom outside the universe is named, as lookup names it
    with pytest.raises(DataError, match=r"not in the search universe: \['Q\(q\)', 'Z\(q\)'\]"):
        fast_extend([_g("A"), Entailment.parse("Z(q)"), Entailment.parse("Q(q)")], _g("B"), cl)


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
        fast = CoreContextScan(space, clusters, SearchConfig(max_dim=4)).run()
        want = exhaustive_contexts(space, clusters, cfg.max_dim)
        cases = {
            "store": store_contexts(scan),
            "exhaustive scan": scan.iter_contexts(),
            "default scan": fast.iter_contexts(),
        }
        for how, rows in cases.items():
            got = {}
            for res in rows:
                key = res.evidence.entailments
                assert key not in got, f"seed {seed}, {how}: duplicate context {key}"
                got[key] = _result_key(res)
            assert got.keys() == want.keys(), f"seed {seed}, {how}"
            for key in want:
                assert got[key] == _result_key(want[key]), f"seed {seed}, {how}: {key}"


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
    assert sum(1 for r in store_contexts(scan)) == scan.stats.covered
    assert scan.stats.valid == sum(1 for r in store_contexts(scan) if r.valid)


@pytest.mark.parametrize("stop", [False, True])
def test_store_is_keyed_by_index_tuple_in_walk_order(stop):
    # the store's order is the row order of scan.tsv
    for seed in range(6):
        space, clusters = synth_space(seed, alpha=0.4)
        cfg = SearchConfig(max_dim=4, alpha=0.4, early_stop=stop)
        scan = CoreContextScan(space, clusters, cfg).run()
        keys = list(scan.results)
        if stop:  # no store; each concept keeps its generator, keyed alike
            assert keys == [], f"seed {seed}"
            keys = sorted(gen for gen, _ in scan.concepts.values())
        else:
            assert len(keys) == exhaustive_count(clusters, cfg.max_dim)
        for key in keys:
            assert type(key) is tuple, f"seed {seed}: {key!r}"
            assert all(type(i) is int for i in key)
            assert all(a < b for a, b in zip(key, key[1:])), f"seed {seed}: {key}"
        assert keys == sorted(keys), f"seed {seed}"


@pytest.mark.parametrize("stop", [False, True])
def test_stats_rebuild_from_the_store(stop):
    smaller = False
    for seed in range(6):
        space, clusters = synth_space(seed, n_domains=4, n_atoms=10, alpha=0.4)
        cfg = SearchConfig(max_dim=4, alpha=0.4, early_stop=stop)
        scan = CoreContextScan(space, clusters, cfg).run()
        smaller |= scan.stats.evaluated < exhaustive_count(clusters, cfg.max_dim)
        covered = valid = 0
        if stop:  # a concept's cover, valid when its mask's result is
            for mask, (_, cover) in scan.concepts.items():
                covered += cover
                valid += cover if space.score_mask(mask).valid else 0
            stored = len(scan.concepts)
        else:  # each cluster set's concrete contexts
            for key, res in scan.results.items():
                cover = expansions([len(clusters.clusters[i]) for i in key], cfg.max_dim)
                covered += cover
                valid += cover if res.valid else 0
            stored = len(scan.results)
        st = scan.stats
        assert (covered, valid, stored) == (st.covered, st.valid, st.evaluated), seed
        assert st.covered == st.enumerable, seed
    assert smaller == stop, "fixtures must store fewer keys exactly when early stop is on"


def sized_space(seed, sizes, n_domains=6, alpha=0.4):
    """A space whose clusters have the given sizes: cluster c's atoms hold in
    the domains of a random mask of its own."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(np.arange(1, 2**n_domains), size=len(sizes), replace=False)
    closures = [set() for _ in range(n_domains)]
    for c, (size, mask) in enumerate(zip(sizes, picks)):
        for i in range(n_domains):
            if int(mask) >> i & 1:
                closures[i].update(_g(f"C{c}x{k}") for k in range(size))
    pairs = [(i, j) for i in range(n_domains) for j in range(n_domains) if i != j]
    space = EvidenceSpace(
        ids=tuple(f"D{i}" for i in range(n_domains)),
        closures=tuple(frozenset(c) for c in closures),
        pair_src=[i for i, _ in pairs],
        pair_dst=[j for _, j in pairs],
        fti_vec=rng.normal(size=len(pairs)),
        epsilon=0.1,
        alpha=alpha,
        n_min=3,
    )
    return space, _cluster_closures(space.masks, set())


def test_covers_on_large_clusters_match_per_set_expansion():
    # clusters of 30 and more entailments sit beside small ones; the per-set
    # expansions of the exhaustive store, grouped by mask, are each concept's
    # cover, and every enumerable context is covered once
    sizes = [2] * 7 + [1, 3, 30, 31, 45]
    for max_dim in range(2, 7):
        space, clusters = sized_space(max_dim, sizes)
        assert sorted(len(c) for c in clusters.clusters) == sorted(sizes)
        cfg = SearchConfig(max_dim=max_dim, alpha=0.4, early_stop=False)
        scan = CoreContextScan(space, clusters, cfg).run()
        want, valid = Counter(), 0
        for key, res in scan.results.items():
            count = expansions([len(clusters.clusters[i]) for i in key], max_dim)
            want[set_mask(clusters, key)] += count
            valid += count if res.valid else 0
        got = {m: g for m, (_, g) in scan.concepts.items()}
        assert got == {m: want[m] for m in got}, max_dim
        assert got.keys() == want.keys(), max_dim
        assert scan.stats.covered == scan.stats.enumerable == sum(want.values()), max_dim
        assert scan.stats.valid == valid, max_dim


def test_lattice_equals_exhaustive_grouping_by_mask():
    # the exhaustive store's concrete contexts, grouped by domain mask, give
    # every concept, its least generator and its cover
    total_valid = 0
    for k, (space, clusters) in enumerate(all_fixtures()):
        for max_dim in (2, 3, 4):
            full = CoreContextScan(
                space, clusters, SearchConfig(max_dim=max_dim, alpha=space.alpha, early_stop=False)
            ).run()
            lattice = CoreContextScan(
                space, clusters, SearchConfig(max_dim=max_dim, alpha=space.alpha)
            ).run()
            counts = Counter(space.membership(r.evidence.entailments) for r in store_contexts(full))
            first: dict[int, tuple[int, ...]] = {}
            for key in full.results:  # sorted key order
                mask = set_mask(clusters, key)
                if mask not in first or len(key) < len(first[mask]):
                    first[mask] = key
            where = f"fixture {k}, max_dim {max_dim}"
            assert {m: gen for m, (gen, _) in lattice.concepts.items()} == first, where
            assert {m: g for m, (_, g) in lattice.concepts.items() if g} == counts, where
            assert full.concepts == lattice.concepts, where
            brute = exhaustive_contexts(space, clusters, max_dim)
            valid = sum(1 for res in brute.values() if res.valid)
            assert lattice.stats.valid == full.stats.valid == valid, where
            assert lattice.stats.covered == lattice.stats.enumerable == len(brute), where
            total_valid += valid
    assert total_valid > 0, "fixtures hold no valid context"


def test_early_stop_prunes_but_never_lies():
    smaller = False
    total_valid = 0
    for k, (space, clusters) in enumerate(all_fixtures()):
        cfg_off = SearchConfig(max_dim=4, alpha=space.alpha, early_stop=False)
        cfg_on = SearchConfig(max_dim=4, alpha=space.alpha, early_stop=True)
        full = CoreContextScan(space, clusters, cfg_off).run()
        fast = CoreContextScan(space, clusters, cfg_on).run()
        assert full.stats.evaluated == exhaustive_count(clusters, cfg_off.max_dim)
        assert fast.stats.evaluated == len(fast.concepts)
        smaller |= fast.stats.evaluated < full.stats.evaluated

        # each concept's result is exactly what the full scan has for its generator
        assert fast.results == {}
        for mask, (gen, _) in fast.concepts.items():
            assert _result_key(space.score_mask(mask)) == _result_key(full.results[gen])
        # and each valid cluster set's mask is a valid concept of the same result
        valid = {
            set_mask(clusters, key): _result_key(res)
            for key, res in full.results.items()
            if res.valid
        }
        held = {
            mask: _result_key(space.score_mask(mask))
            for mask in fast.concepts
            if space.score_mask(mask).valid
        }
        assert held == valid, f"fixture {k}"
        assert fast.stats.valid == full.stats.valid, f"fixture {k}"
        total_valid += len(valid)
    assert smaller, "no fixture has fewer concepts than cluster sets"
    assert total_valid > 0, "fixtures hold no valid cluster set"


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


def test_scan_refuses_thresholds_its_space_does_not_use():
    space, clusters = synth_space(0, alpha=0.4)
    msg = r"config's epsilon 0\.9 differs from the evidence space's 0\.1"
    with pytest.raises(DataError, match=msg):
        CoreContextScan(space, clusters, SearchConfig(alpha=0.01, epsilon=0.9, n_min=50))
    for key, bad in (("alpha", 0.01), ("n_min", 50)):
        with pytest.raises(DataError, match=f"config's {key} {bad} differs"):
            CoreContextScan(space, clusters, SearchConfig(**{"alpha": 0.4, key: bad}))
    # numpy thresholds that equal the space's are the same thresholds
    CoreContextScan(space, clusters, SearchConfig(alpha=np.float64(0.4), n_min=np.int64(3)))


def test_search_config_validation():
    with pytest.raises(DataError, match="max_dim"):
        SearchConfig(max_dim=1)
    # a float depth would reach the walk as a bare TypeError
    for key, bad in (("max_dim", 4.0), ("max_dim", True), ("n_min", 3.5), ("n_min", "3")):
        with pytest.raises(DataError, match=f"{key} must be an integer"):
            SearchConfig(**{key: bad})
    SearchConfig(max_dim=np.int64(3), n_min=np.int32(3))
    for bad in (2, 0, -5):
        with pytest.raises(DataError, match=f"n_min must be at least 3, got {bad}"):
            SearchConfig(n_min=bad)
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
