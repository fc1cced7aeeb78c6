"""Embedded correctness checks for the selftest subcommand.

Each check recomputes its expectation on the spot with independent means
(hand-derived closures, fraction arithmetic, brute-force enumeration), so a
passing run vouches for the installed package rather than for cached test
artifacts.  No corpus or network is needed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .contexts import SearchConfig, core_context_search
from .domain import LearningDomain, Lso
from .evidence import change_rates, change_rates_from_counts, p_value, pearson
from .mining import MiningParams, mine_roots
from .ontology import axioms_to_text, normalize_tbox, parse_abox, parse_ontology, parse_tbox
from .reasoner import Entailment, materialize


def _check(ok: bool, message: str) -> None:
    # an explicit raise, so that the checks still run under ``python -O``
    if not ok:
        raise AssertionError(message)


def _check_parser_roundtrip():
    doc = """
SubClassOf(And(Dep Some(hasWea HeavySnow)) DelayedDep)
SubRole(hasOri hasApt)
RoleChain(hasCarrier carHub hasDepHub)
ClassAssert(Dep d)
RoleAssert(hasWea d w)
SameInd(a b)
DiffInd(a c)
"""
    ont = parse_ontology(doc)
    again = parse_ontology(axioms_to_text(ont.tbox | ont.abox))
    _check(again.tbox == ont.tbox and again.abox == ont.abox, "round-trip changed axioms")


def _check_closure_fixture():
    tbox = parse_tbox(
        """
SubClassOf(And(Dep Some(hasWea Snow)) DelayedDep)
SubClassOf(HeavySnow Snow)
"""
    )
    abox = parse_abox(
        """
ClassAssert(Dep d)
ClassAssert(HeavySnow w)
RoleAssert(hasWea d w)
"""
    )
    closure = materialize(tbox, abox)
    got = {str(g) for g in closure.atoms()}
    want = {
        "Dep(d)", "HeavySnow(w)", "Snow(w)", "DelayedDep(d)", "hasWea(d,w)",
    }
    _check(got == want, f"closure mismatch: {sorted(got ^ want)}")
    _check(not closure.inconsistent, "consistent fixture closed inconsistent")
    # a nominal on an individual that nothing else mentions merges the two
    closure = materialize(frozenset(), parse_abox("ClassAssert(And(A Nom(b)) x)"))
    got = {str(g) for g in closure.atoms()}
    _check(got == {"A(b)"}, f"nominal assertion closed to {sorted(got)}")
    _check(closure.merged == (frozenset({"b", "x"}),), f"merged {closure.merged}")


def _check_merge_inconsistency():
    tbox = parse_tbox("SubClassOf(A A)")
    abox = parse_abox("ClassAssert(A x)\nSameInd(x y)\nDiffInd(x y)")
    closure = materialize(tbox, abox)
    _check(closure.inconsistent, "distinct individuals merged without contradiction")
    _check(
        closure.entails(Entailment.parse("B(z)")),
        "inconsistent closure must entail everything",
    )


def _check_change_rates():
    cr = change_rates_from_counts(
        n_source=10, n_target=16, n_new=10, n_obsolete=4, n_invariant=6
    )
    _check(abs(cr.new - 10 / 16) < 1e-15, f"new rate {cr.new}")
    _check(abs(cr.obsolete - 4 / 10) < 1e-15, f"obsolete rate {cr.obsolete}")
    _check(abs(cr.invariant - 6 / 26) < 1e-15, f"invariant rate {cr.invariant}")
    # the set form, which report scores general factors with: the invariant
    # rate divides by the union, {A..E}
    cr = change_rates(frozenset("ABCD"), frozenset("CDE"))
    _check(cr.new == 1 / 3, f"set new rate {cr.new}")
    _check(cr.obsolete == 2 / 4, f"set obsolete rate {cr.obsolete}")
    _check(cr.invariant == 2 / 5, f"set invariant rate {cr.invariant}")


def _pearson_fraction(xs, ys):
    n = len(xs)
    xs = [Fraction(v) for v in xs]
    ys = [Fraction(v) for v in ys]
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    return sxy, sxx, syy


def _check_pearson():
    xs = [1.0, 2.0, 4.0, 5.0, 8.0]
    ys = [2.0, 3.0, 3.0, 6.0, 7.0]
    sxy, sxx, syy = _pearson_fraction(xs, ys)
    want = float(sxy) / float(sxx * syy) ** 0.5
    got = pearson(xs, ys)
    _check(abs(got - want) < 1e-12, f"pearson {got} != {want}")
    rho = p_value(got, len(xs))
    _check(0.0 < rho < 0.1, f"p-value {rho}")
    _check(p_value(1.0, 5) == 0.0, "perfect correlation has nonzero p-value")
    rho = p_value(0.444, 20)
    _check(abs(rho - 0.04986349331103491) < 1e-10, f"p-value of r = 0.444, n = 20 is {rho}")


def _toy_domain():
    tbox = normalize_tbox(parse_tbox("SubClassOf(HeavySnow Snow)"))
    lsos = []
    for i, (wea, delayed) in enumerate(
        [("HeavySnow", 1), ("HeavySnow", 1), ("Clear", 0), ("Clear", 1), ("HeavySnow", 0)]
    ):
        abox = parse_abox(
            f"ClassAssert(Dep d)\nClassAssert({wea} w)\nRoleAssert(hasWea d w)\n"
            + ("ClassAssert(DelayedDep d)\n" if delayed else "")
        )
        lsos.append(Lso(f"o{i}", frozenset(), abox))
    return LearningDomain(
        id="toy", tbox=tbox, lsos=tuple(lsos), target=Entailment.parse("DelayedDep(d)")
    )


def _check_mining_brute():
    domain = _toy_domain()
    params = MiningParams(sigma=0.6, kappa=2, tau=0.5)
    rs = mine_roots(domain, params)
    atom_sets = [c.atoms() for c in domain.lso_closures()]
    n = len(atom_sets)
    universe = sorted(set().union(*atom_sets) - {domain.target})
    t_in = [domain.target in s for s in atom_sets]
    freq = {g for g in universe if sum(g in s for s in atom_sets) / n >= params.sigma}
    _check(freq == set(rs.frequent), "frequent sets disagree with brute force")
    eff = {}
    for combo in itertools.combinations(sorted(freq, key=str), params.kappa):
        r_e = sum(all(g in s for g in combo) and t for s, t in zip(atom_sets, t_in)) / n
        r_i = sum(all(g not in s for g in combo) and not t for s, t in zip(atom_sets, t_in)) / n
        if r_e + r_i >= params.tau:
            eff[frozenset(combo)] = (r_e, r_i)
    _check(eff == rs.effective, "effective subsets disagree with brute force")


def _check_search_cover():
    domain_a = _toy_domain()
    tbox = domain_a.tbox
    domains = []
    specs = [
        ("d1", ["HeavySnow", "HeavySnow", "Clear"]),
        ("d2", ["HeavySnow", "Clear", "Clear"]),
        ("d3", ["Clear", "Clear", "Clear"]),
        ("d4", ["HeavySnow", "HeavySnow", "HeavySnow"]),
    ]
    for did, weas in specs:
        lsos = tuple(
            Lso(
                f"{did}-{i}",
                frozenset(),
                parse_abox(
                    f"ClassAssert(Dep d)\nClassAssert({w} w)\nRoleAssert(hasWea d w)\n"
                    + ("ClassAssert(DelayedDep d)\n" if w == "HeavySnow" else "")
                ),
            )
            for i, w in enumerate(weas)
        )
        domains.append(
            LearningDomain(
                id=did, tbox=tbox, lsos=lsos, target=Entailment.parse("DelayedDep(d)")
            )
        )
    rng = random.Random(3)
    fti = {
        (a.id, b.id): rng.gauss(0.0, 1.0)
        for a in domains
        for b in domains
        if a.id != b.id
    }
    scan = core_context_search(
        domains, fti, SearchConfig(max_dim=3, early_stop=False)
    )
    expanded = list(scan.iter_contexts())
    _check(len(expanded) == scan.stats.covered, "cover count disagrees with expansion")
    u = len(scan.clusters.universe)
    want = sum(
        1
        for k in (2, 3)
        for _ in itertools.combinations(range(u), k)
    )
    _check(len(expanded) == want, f"{len(expanded)} contexts expanded, {want} expected")
    one = expanded[0]
    again = scan.lookup(one.evidence.entailments)
    _check(
        (again.gamma, again.rho, again.n) == (one.gamma, one.rho, one.n),
        "lookup disagrees with the scan",
    )


CHECKS = [
    ("parser-roundtrip", _check_parser_roundtrip),
    ("closure-fixture", _check_closure_fixture),
    ("merge-inconsistency", _check_merge_inconsistency),
    ("change-rates", _check_change_rates),
    ("pearson-and-p-value", _check_pearson),
    ("mining-vs-brute-force", _check_mining_brute),
    ("search-cover-and-lookup", _check_search_cover),
]


def run(emit=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures += 1
            emit(f"FAIL {name}: {exc}")
        else:
            emit(f"PASS {name}")
    emit(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
