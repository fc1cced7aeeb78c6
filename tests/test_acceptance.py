"""End-to-end acceptance checks, one test per numbered criterion.

Every tolerance and time budget is pinned inline.  The terminal-summary
hook in conftest.py prints one PASS/FAIL line per criterion after a run.
Expected values come from independent routes (fraction arithmetic,
hand-derived closures, brute-force enumeration, numerical quadrature),
never from the implementation under test.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import numpy as np
import pytest

from conftest import MINI_FLIGHTS
from genont import random_instance
from oracles import naive_closure, p_value_quadrature, pearson_exact
from test_contexts import _result_key, exhaustive_contexts, set_mask, synth_space
from test_reasoner import FLIGHT_ATOMS, FLIGHT_DOC
from transferlens.cli import main
from transferlens.contexts import (
    CoreContextScan,
    SearchConfig,
    core_context_search,
    fast_extend,
    sync_clusters,
)
from transferlens.corpus import load_corpus
from transferlens.evidence import (
    CoreContext,
    EvidenceSpace,
    GeneralFactor,
    change_rates_from_counts,
    correlative_reason,
    p_value,
    pearson,
)
from transferlens.harness import TrainConfig, TransferRecord, fti_matrix
from transferlens.kb import FileKbAdapter, VocabularyMapping, import_external
from transferlens.mining import MiningParams, mine_roots
from transferlens.ontology import normalize_tbox, parse_ontology
from transferlens.reasoner import Entailment, materialize


@pytest.fixture(scope="module")
def flights():
    return load_corpus(MINI_FLIGHTS)


@pytest.fixture(scope="module")
def flights_fti(flights):
    cfg = TrainConfig(epochs=60, ensemble=10, seed=0)
    return fti_matrix(flights.domains, cfg)


@pytest.fixture(scope="module")
def flights_scan(flights, flights_fti):
    _, fti = flights_fti
    return core_context_search(flights.domains, fti, SearchConfig())


@pytest.fixture(scope="module")
def flights_full(flights_scan):
    """The exhaustive scan of the report scan's space: every cluster set."""
    cfg = SearchConfig(early_stop=False)
    return CoreContextScan(flights_scan.space, flights_scan.clusters, cfg).run()


# -- criterion 1: change-rate worked example ---------------------------------------


def test_c1_change_rate_worked_example():
    counts = dict(
        n_source=25180, n_target=13412, n_new=11419, n_obsolete=23187,
        n_invariant=1193,
    )
    best = min(
        _timed(lambda: change_rates_from_counts(**counts)) for _ in range(5)
    )
    cr = change_rates_from_counts(**counts)
    # fraction arithmetic is the reference; decimals frozen from it
    assert cr.new == pytest.approx(11419 / 13412, abs=1e-9)
    assert cr.obsolete == pytest.approx(23187 / 25180, abs=1e-9)
    assert cr.invariant == pytest.approx(1193 / (25180 + 13412), abs=1e-9)
    assert cr.new == pytest.approx(0.8514017297942141, abs=1e-9)
    assert cr.obsolete == pytest.approx(0.9208498808578237, abs=1e-9)
    assert cr.invariant == pytest.approx(0.030913142620232172, abs=1e-9)
    assert best < 1e-3, f"single call took {best * 1e6:.0f}us"


def _timed(fn):
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


# -- criterion 2: reasoner fixture and oracle equivalence ------------------------------


def test_c2_flight_closure_and_naive_oracle_equivalence():
    t0 = perf_counter()

    ont = parse_ontology(FLIGHT_DOC)
    closure = materialize(normalize_tbox(ont.tbox), ont.abox)
    assert not closure.inconsistent
    # DelayedDep(d) is derived, not asserted: the fixture ABox omits it
    assert closure.entails(Entailment.parse("DelayedDep(d)"))
    assert {str(g) for g in closure.atoms()} == FLIGHT_ATOMS

    with_hub = parse_ontology(FLIGHT_DOC + "RoleAssert(hasCarHub DL ATL)\n")
    closure2 = materialize(normalize_tbox(with_hub.tbox), with_hub.abox)
    assert {str(g) for g in closure2.atoms()} == FLIGHT_ATOMS | {
        "hasCarHub(DL,ATL)",
        "hasDepHub(d,ATL)",  # carrier-of composed with hub-of
    }

    for seed in range(200):
        tbox, abox = random_instance(seed)
        nt = normalize_tbox(tbox)
        got = materialize(nt, abox)
        want = naive_closure(nt, abox)
        assert got.inconsistent == want.inconsistent, f"seed {seed}"
        if want.inconsistent:
            continue
        got_public = {
            (a.pred, a.args[0]) if a.is_class_atom else (a.pred, *a.args)
            for a in got.atoms()
        }
        assert got_public == want.public_atoms(nt.fresh), f"seed {seed}"

    elapsed = perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# -- criterion 3: statistics against independent oracles -------------------------------


def test_c3_statistics_oracle():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(3, 51))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        r = pearson(x, y)
        r0 = pearson_exact(x.tolist(), y.tolist())
        assert abs(r - r0) <= 1e-6, f"trial {trial}"
        assert abs(p_value(r, n) - p_value_quadrature(r, n)) <= 5e-4, f"trial {trial}"

    got = pearson(
        np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([2.0, 1.0, 4.0, 3.0, 7.0])
    )
    want = pearson_exact([1, 2, 3, 4, 5], [2, 1, 4, 3, 7])
    assert got == pytest.approx(want, abs=1e-4)
    # frozen from the exact-fraction route: 12 / sqrt(212)
    assert got == pytest.approx(0.824163383692134, abs=1e-12)

    rho = p_value(0.444, 20)
    assert rho == pytest.approx(0.0498, abs=5e-4)
    assert rho == pytest.approx(p_value_quadrature(0.444, 20), abs=1e-10)

    cr = change_rates_from_counts(
        n_source=25180, n_target=13412, n_new=11419, n_obsolete=23187,
        n_invariant=1193,
    )
    assert (cr.new, cr.obsolete, cr.invariant) == pytest.approx(
        (11419 / 13412, 23187 / 25180, 1193 / 38592), abs=1e-12
    )


# -- criterion 4: synchronized extensions are exact ------------------------------------


def test_c4_synchronized_extensions_bit_identical(flights, flights_fti, flights_scan):
    _, fti = flights_fti
    domains = flights.domains
    space = EvidenceSpace.build(domains, fti)
    clusters = sync_clusters(domains)
    multi = [c for c in clusters.clusters if len(c) >= 2]
    assert multi, "corpus must contain synchronized entailments"

    rng = np.random.default_rng(4)
    for trial in range(1000):
        cluster = multi[rng.integers(len(multi))]
        i, j = rng.choice(len(cluster), size=2, replace=False)
        g1, g2 = cluster[i], cluster[j]
        base: set = set()
        want_extra = int(rng.integers(1, 4))
        while len(base) < want_extra:
            g = clusters.universe[rng.integers(len(clusters.universe))]
            if clusters.of_entailment[g] != clusters.of_entailment[g1]:
                base.add(g)
        a = frozenset(base | {g1})
        b = frozenset(base | {g2})
        assert fast_extend(a, g2, clusters), f"trial {trial}"

        r1 = space.score(CoreContext(a))
        r2 = space.score(CoreContext(b))
        # zero tolerance: the swapped atom has the same membership signature
        assert (r1.gamma, r1.rho, r1.n, r1.valid, r1.reason) == (
            r2.gamma, r2.rho, r2.n, r2.valid, r2.reason,
        ), f"trial {trial}"

        inherited = flights_scan.lookup(a)
        assert (inherited.gamma, inherited.rho, inherited.n) == (
            r1.gamma, r1.rho, r1.n,
        ), f"trial {trial}"


# -- criterion 5: the cluster-set scan is lossless, and the concepts hold every valid set ------


def _valid_masks(full, fast):
    """The masks of the exhaustive scan's valid cluster sets and of the
    concept scan's valid concepts, each with its full result tuple."""
    clusters = full.clusters
    sets = {
        set_mask(clusters, key): _result_key(res) for key, res in full.results.items() if res.valid
    }
    concepts = {
        mask: _result_key(fast.results[gen])
        for mask, (gen, _) in fast.concepts.items()
        if fast.results[gen].valid
    }
    return sets, concepts


def test_c5_pruned_search_equals_exhaustive():
    t0 = perf_counter()
    cases = [(seed, 10, 6) for seed in range(8)] + [(seed, 8, 4) for seed in range(4)]
    for seed, n_atoms, n_domains in cases:
        space, clusters = synth_space(seed, n_domains=n_domains, n_atoms=n_atoms)
        cfg = SearchConfig(max_dim=4, early_stop=False)
        scan = CoreContextScan(space, clusters, cfg).run()
        got, expanded = {}, Counter()
        for res in scan.iter_contexts():
            key = res.evidence.entailments
            assert key not in got, f"seed {seed}: duplicate {key}"
            got[key] = _result_key(res)
            expanded[space.membership(key)] += 1
        want = exhaustive_contexts(space, clusters, cfg.max_dim)
        assert got.keys() == want.keys(), f"seed {seed}"
        for key in want:  # zero tolerance, full result tuple
            assert got[key] == _result_key(want[key]), f"seed {seed}: {key}"
        # each valid set's mask is a valid concept whose cover is the number
        # of expanded contexts with that mask, and no other concept is valid
        fast = CoreContextScan(space, clusters, SearchConfig(max_dim=4)).run()
        sets, concepts = _valid_masks(scan, fast)
        assert sets == concepts, f"seed {seed}"
        for mask in concepts:
            assert fast.concepts[mask][1] == expanded[mask], f"seed {seed}: {mask:b}"
        assert fast.stats.valid == scan.stats.valid, f"seed {seed}"
    elapsed = perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


# -- criterion 6: property suites ----------------------------------------------


def test_c6_property_suites(flights, flights_full):
    # transfer-index sign and monotonicity on a 20x20 gain/shift grid
    grid = np.linspace(-0.5, 0.5, 20)
    for w1, w2 in [(1.0, 1.0), (0.7, 0.3), (0.2, 0.9)]:
        vals = np.empty((20, 20))
        for i, fgi in enumerate(grid):
            for j, fsi in enumerate(grid):
                rec = TransferRecord("s", "t", 0.5, 0.5 - fsi, 0.5 + fgi)
                assert rec.fgi == pytest.approx(fgi, abs=1e-12)
                assert rec.fsi == pytest.approx(fsi, abs=1e-12)
                vals[i, j] = rec.fti(w1, w2)
                expected = w1 * fgi - w2 * fsi
                if abs(expected) > 1e-9:
                    assert np.sign(vals[i, j]) == np.sign(expected)
        assert np.all(np.diff(vals, axis=0) >= -1e-12), "not monotone in gain"
        assert np.all(np.diff(vals, axis=1) <= 1e-12), "not antitone in shift"

    # evidence-domain shrinkage is asserted inside every step of the
    # exhaustive walk; that assert must be live, and the stored results of
    # every cluster set must agree with it
    assert __debug__
    results = flights_full.results
    assert results
    for key, res in results.items():
        if len(key) < 2:
            continue
        parent = key[:-1]
        assert parent in results, f"walk skipped the prefix of {sorted(key)}"
        assert res.n <= results[parent].n

    # mining tightens monotonically across the five published regimes
    regimes = [
        (0.90, 1, 0.40),
        (0.93, 1, 0.43),
        (0.96, 1, 0.46),
        (0.99, 1, 0.49),
        (0.99, 2, 0.49),
    ]
    for d in flights.domains:
        ents, inds = [], []
        for sigma, kappa, tau in regimes:
            rs = mine_roots(d, MiningParams(sigma=sigma, kappa=kappa, tau=tau))
            ents.append(len(rs.root_entailments))
            inds.append(len(rs.root_individuals))
        assert all(a >= b for a, b in zip(ents, ents[1:])), (d.id, ents)
        assert all(a >= b for a, b in zip(inds, inds[1:])), (d.id, inds)


# -- criterion 7: the corpus signal is recovered end to end ------------------------------


def test_c7_end_to_end_discrimination(flights, flights_fti, flights_scan, flights_full):
    t0 = perf_counter()
    domains = flights.domains
    _, fti = flights_fti

    obs = GeneralFactor.parse("d_obs")
    ens = correlative_reason(domains, obs, fti)
    assert ens.valid and ens.rho <= 0.05
    assert ens.gamma < -0.1

    gammas = []
    for seed in range(10):
        _, f = fti_matrix(domains, TrainConfig(epochs=60, ensemble=1, seed=seed))
        r = correlative_reason(domains, obs, f)
        assert r.gamma is not None, f"seed {seed}"
        gammas.append(r.gamma)
    assert float(np.mean(gammas)) < -0.1, gammas

    # the construction pairs east-coast origins with the big-carrier fleet;
    # their joint context must come back as valid evidence
    plant = frozenset(
        {Entailment.parse("EastOriDep(d)"), Entailment.parse("BigCarDep(d)")}
    )
    look = flights_scan.lookup(plant)
    assert look.valid and look.gamma > 0

    # its mask is a valid concept row of the report, with the same numbers
    space = flights_scan.space
    rows = {space.membership(res.evidence.entailments): (res, cover)
            for res, cover in flights_scan.concept_rows()}
    res, cover = rows[space.membership(plant)]
    assert res.valid and cover >= 1
    assert (res.gamma, res.rho) == (look.gamma, look.rho)

    # the report's concept scan holds the mask of every valid set the
    # exhaustive one finds, and no other valid mask
    sets, concepts = _valid_masks(flights_full, flights_scan)
    assert sets == concepts
    assert flights_scan.stats.valid == flights_full.stats.valid

    elapsed = perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


# -- criterion 8: imports are gated by consistency -------------------------------------


def test_c8_consistency_gated_import():
    corpus = load_corpus(MINI_FLIGHTS)  # private copy: imports mutate domains
    adapter = FileKbAdapter(corpus.kb_path)
    mapping = VocabularyMapping.load(corpus.kb_map_path)
    p5 = MiningParams(sigma=0.99, kappa=2, tau=0.49)

    saw_song = saw_person = False
    for d in corpus.domains:
        roots = mine_roots(d, p5).root_individuals
        axioms, audit = import_external(
            d, roots, adapter, mapping, constraints=corpus.constraints
        )
        status = {(a.individual, a.entity_id): a.status for a in audit}
        if "LAX" in roots:
            assert status[("LAX", "SONG_LAX")] == "rejected", d.id
            assert status[("LAX", "APT_LAX")] == "accepted", d.id
            saw_song = True
        if "JFK" in roots:
            assert status[("JFK", "PER_JFK")] == "rejected", d.id
            assert status[("JFK", "APT_JFK")] == "accepted", d.id
            saw_person = True
        accepted = {a.entity_id for a in audit if a.status == "accepted"}
        assert not accepted & {"SONG_LAX", "PER_JFK"}, d.id

        d.set_external_axioms(axioms)
        assert all(not c.inconsistent for c in d.lso_closures()), d.id
    assert saw_song and saw_person


# -- criterion 9: desk-scale stand-in for the full matrix ------------------------------


def test_c9_large_auc_matrix_ingestion(tmp_path):
    root = tmp_path / "wide"
    (root / "domains").mkdir(parents=True)
    (root / "tbox.ont").write_text("SubClassOf(Busy Loaded)\n")
    rng = np.random.default_rng(9)
    ids = [f"g{k:02d}" for k in range(92)]
    for k, did in enumerate(ids):
        dom = root / "domains" / did
        (dom / "lsos").mkdir(parents=True)
        (dom / "manifest.txt").write_text(f"id = {did}\ntarget = Tgt(d)\n")
        atoms = ["ClassAssert(Dep d)"]
        atoms += [f"ClassAssert(K{i} d)" for i in range(6) if rng.random() < 0.5]
        if k % 2:
            atoms.append("ClassAssert(Tgt d)")
        (dom / "lsos" / "lso-000.ont").write_text("\n".join(atoms) + "\n")

    rows = ["source,target,auc_base,auc_hard,auc_soft"]
    for s in ids:
        for t in ids:
            if s != t:
                base, hard, soft = rng.uniform(0.3, 0.9, size=3)
                rows.append(f"{s},{t},{base:.6f},{hard:.6f},{soft:.6f}")
    assert len(rows) == 1 + 92 * 91  # 8372 transfers
    csv = tmp_path / "measured.csv"
    csv.write_text("\n".join(rows) + "\n")

    out = tmp_path / "out"
    base_args = ["--corpus", str(root), "--outdir", str(out)]
    assert main(["fti", *base_args, "--auc-csv", str(csv)]) == 0
    assert main(["report", *base_args]) == 0

    data = json.loads((out / "report.json").read_text())
    assert data["pairs"] == 8372
    assert len(data["fti"]) == 8372
    assert len(data["general"]) == 3
    for name in ("general.tsv", "narrators.tsv", "contexts.tsv"):
        table = (out / "evidence" / name).read_text().splitlines()
        assert table[0].startswith("evidence\t")
        assert len(table) > 1, name
