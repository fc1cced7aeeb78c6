from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import MINI_FLIGHTS
from genont import INDS, random_concept, random_instance
from oracles import naive_closure, structural_closure
from transferlens.corpus import load_corpus
from transferlens.ontology import (
    NAME_RE,
    Atomic,
    ClassAssertion,
    Gci,
    normalize_tbox,
    parse_ontology,
)
from transferlens.reasoner import (
    Entailment,
    UnionFind,
    entails,
    is_consistent,
    materialize,
)

FLIGHT_DOC = """
SubClassOf(And(Dep Some(hasDelMin Nom(Pos))) DelayedDep)
SubClassOf(And(Dep Some(hasDelMin Nom(Neg))) OnTimeDep)
RoleChain(hasCarrier hasCarHub hasDepHub)
SubClassOf(And(Dep Some(hasOri Nom(CA)) Some(hasDes Nom(CA))) Some(withIn Nom(CA)))
SubClassOf(Some(withIn Top) InStateDep)
SubClassOf(Departure Dep)

ClassAssert(Departure d)
RoleAssert(hasCarrier d car)
SameInd(car DL)
ClassAssert(Carrier DL)
RoleAssert(hasOri d ori)
SameInd(ori LAX)
ClassAssert(Airport LAX)
RoleAssert(locatedIn LAX CA)
RoleAssert(hasDes d JFK)
ClassAssert(Airport JFK)
RoleAssert(hasWea d wea)
ClassAssert(HeavySnow wea)
RoleAssert(hasDelMin d Pos)
RoleAssert(hasRecDep d d_1)
RoleAssert(hasCarrier d_1 MU)
RoleAssert(hasRecDep d d_2)
RoleAssert(hasCarrier d_2 AA)
"""

# worked out by hand from the axioms above, before the reasoner existed
FLIGHT_ATOMS = {
    "Airport(JFK)",
    "Airport(LAX)",
    "Carrier(DL)",
    "DelayedDep(d)",
    "Dep(d)",
    "Departure(d)",
    "HeavySnow(wea)",
    "hasCarrier(d,DL)",
    "hasCarrier(d_1,MU)",
    "hasCarrier(d_2,AA)",
    "hasDelMin(d,Pos)",
    "hasDes(d,JFK)",
    "hasOri(d,LAX)",
    "hasRecDep(d,d_1)",
    "hasRecDep(d,d_2)",
    "hasWea(d,wea)",
    "locatedIn(LAX,CA)",
}


def _closure(doc: str):
    ont = parse_ontology(doc)
    return materialize(normalize_tbox(ont.tbox), ont.abox)


def test_flight_closure_exact():
    clo = _closure(FLIGHT_DOC)
    assert not clo.inconsistent
    assert set(clo.to_lines()) == FLIGHT_ATOMS
    assert {frozenset(g) for g in clo.merged} == {
        frozenset({"car", "DL"}),
        frozenset({"ori", "LAX"}),
    }
    # canonical representative is the lexicographically least member
    assert clo.canonical("car") == "DL"
    assert clo.canonical("ori") == "LAX"


def test_flight_closure_negatives():
    clo = _closure(FLIGHT_DOC)
    for absent in ("OnTimeDep(d)", "InStateDep(d)", "DelayedDep(d_1)", "Dep(wea)"):
        assert not clo.entails(Entailment.parse(absent)), absent


def test_role_chain_fires_through_merge():
    clo = _closure(FLIGHT_DOC + "\nRoleAssert(hasCarHub DL ATL)\n")
    assert clo.entails(Entailment.parse("hasDepHub(d,ATL)"))
    # the chain premise went through the merged alias "car"
    assert clo.entails(Entailment.parse("hasCarrier(d,car)"))


def test_nominal_pair_derivation():
    clo = _closure(FLIGHT_DOC + "\nRoleAssert(hasOri d CA)\nRoleAssert(hasDes d CA)\n")
    assert clo.entails(Entailment.parse("InStateDep(d)"))
    assert clo.entails(Entailment.parse("withIn(d,CA)"))


def test_top_entailment_for_mentioned_individuals():
    clo = _closure(FLIGHT_DOC)
    assert clo.entails(Entailment.parse("Top(car)"))
    assert clo.entails(Entailment.parse("Top(d_2)"))
    assert not clo.entails(Entailment.parse("Top(nowhere)"))


def test_inconsistency_bottom_and_inequality():
    doc = FLIGHT_DOC + "\nSubClassOf(And(HeavySnow Carrier) Bottom)\nClassAssert(Carrier wea)\n"
    clo = _closure(doc)
    assert clo.inconsistent
    assert clo.entails(Entailment.parse("Anything(atall)"))

    clo2 = _closure(FLIGHT_DOC + "\nDiffInd(car DL)\n")
    assert clo2.inconsistent

    ont = parse_ontology(FLIGHT_DOC)
    assert is_consistent(normalize_tbox(ont.tbox), ont.abox)
    constraints = parse_ontology("SubClassOf(And(Carrier HeavySnow) Bottom)").tbox
    assert is_consistent(normalize_tbox(ont.tbox), ont.abox, constraints)


@pytest.mark.parametrize(
    "doc, witness",
    [
        (
            "SubClassOf(A Bottom)\nClassAssert(A y)\nClassAssert(A x)\nClassAssert(A z)",
            "Bottom derived for x",
        ),
        (
            "SameInd(c d)\nDiffInd(c d)\nSameInd(a b)\nDiffInd(a b)\nDiffInd(a e)",
            "a and b asserted distinct but derived equal",
        ),
        # Bottom needs A and B together, which z only meets once C(z) merges
        # it into a, the kept (least) name
        (
            "SubClassOf(C Nom(a))\nSubClassOf(And(A B) Bottom)\n"
            "ClassAssert(A a)\nClassAssert(And(B C) z)",
            "Bottom derived for a",
        ),
        ("ClassAssert(A x)\nClassAssert(Bottom x)", "Bottom derived for x"),
    ],
    ids=["least-bottom", "least-clash", "bottom-after-merge", "asserted-bottom"],
)
def test_witness_is_read_off_the_fixpoint(doc, witness):
    clo = _closure(doc)
    assert clo.inconsistent
    assert clo.inconsistency_witness == witness
    assert clo.entails(Entailment.parse("Anything(atall)"))
    assert clo.entails(Entailment.parse("r(x,nowhere)"))


_CLOSURE_DUMP = """\
import json
from genont import random_instance
from transferlens.ontology import normalize_tbox
from transferlens.reasoner import materialize
for named_rhs in (False, True):
    for seed in range(4000):
        tbox, abox = random_instance(seed, named_rhs=named_rhs)
        clo = materialize(normalize_tbox(tbox), abox)
        print(json.dumps([
            named_rhs, seed, clo.inconsistent, clo.inconsistency_witness,
            sorted(sorted(g) for g in clo.merged), clo.to_lines(),
            sorted(clo.class_atoms), sorted(clo.role_atoms), clo.insertions,
        ]))
"""


def test_closures_ignore_the_hash_seed():
    # set iteration order follows PYTHONHASHSEED; a closure must not, nor
    # its insertion count, which counts the re-adds after merges and so
    # follows derivation order
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CLOSURE_DUMP],
            env={**env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "1")
    ]
    outs = [proc.communicate() for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    first, second = (out.splitlines() for out, _ in outs)
    assert len(first) == len(second) == 8000
    differ = [a for a, b in zip(first, second) if a != b]
    assert not differ, f"{len(differ)} closures differ; first: {differ[0][:300]}"


def test_merge_cascade():
    doc = """
    SubClassOf(A Nom(b))
    ClassAssert(A x)
    SameInd(b c)
    RoleAssert(r x y)
    """
    clo = _closure(doc)
    assert {frozenset(g) for g in clo.merged} == {frozenset({"x", "b", "c"})}
    assert clo.canonical("x") == "b"
    assert clo.entails(Entailment.parse("r(c,y)"))
    assert clo.entails(Entailment.parse("A(b)"))


def test_composite_abox_assertion():
    doc = """
    SubClassOf(Some(r B) C)
    ClassAssert(And(A Some(r B)) x)
    """
    clo = _closure(doc)
    # the asserted complex concept is named internally; its consequences hold
    assert clo.entails(Entailment.parse("C(x)"))
    assert clo.entails(Entailment.parse("A(x)"))
    # the internal name is dropped: every line of the dump is a public atom
    assert clo.to_lines() == ["A(x)", "C(x)"]


def test_generated_names_are_outside_the_name_grammar():
    ont = parse_ontology(FLIGHT_DOC + "\nClassAssert(And(Dep Some(hasWea Some(r A))) z)\n")
    nt = normalize_tbox(ont.tbox)
    assert nt.fresh and not any(NAME_RE.fullmatch(name) for name in nt.fresh)
    clo = materialize(nt, ont.abox)
    generated = {key for key, _ in clo.class_atoms if key.startswith("(")}
    assert "(a0)" in generated and any(key.startswith("(n") for key in generated)
    # no line of the closure dump holds a generated name
    assert not any(Entailment.parse(line).pred in generated for line in clo.to_lines())


def test_a_user_concept_spelled_like_a_generated_name_is_ordinary():
    clo = _closure(
        "SubClassOf(And(Dep Some(hasWea Snow)) SnowyDep)\n"
        "ClassAssert(_N0 d)\nClassAssert(Dep d)\n"
    )
    assert set(clo.to_lines()) == {"Dep(d)", "_N0(d)"}


def test_renormalized_names_stay_apart_from_assertion_names():
    # the assertion's concept is named, then the extended TBox is normalized
    # again; a name shared by both passes would turn Q's premise into A ⊓ B
    clo = _closure("SubClassOf(Some(r A) Q)\nClassAssert(Some(r And(A B)) x)\n")
    assert clo.to_lines() == ["Q(x)"]
    assert not clo.entails(Entailment.parse("A(x)"))
    assert not clo.entails(Entailment.parse("B(x)"))


@pytest.mark.parametrize("concept", ["Nom(b)", "And(A Nom(b))"])
def test_nominal_assertion_on_an_unmentioned_individual(concept):
    clo = _closure(f"ClassAssert({concept} x)\n")
    assert not clo.inconsistent
    assert clo.merged == (frozenset({"b", "x"}),)
    assert clo.canonical("x") == "b"
    assert clo.entails(Entailment.parse("Top(x)"))
    assert clo.entails(Entailment.parse("A(b)")) == ("A" in concept)


# one closure per assertion shape, each over a small TBox: public atoms,
# merged groups, individuals and witness
_SHAPES = {
    "top": (
        "SubClassOf(Top T)\nClassAssert(Top x)",
        ["T(x)"], [], {"x"}, None,
    ),
    "bottom": (
        "SubClassOf(A B)\nClassAssert(A y)\nClassAssert(Bottom x)",
        ["A(y)", "B(y)"], [], {"x", "y"}, "Bottom derived for x",
    ),
    "atomic": (
        "SubClassOf(A B)\nClassAssert(A x)",
        ["A(x)", "B(x)"], [], {"x"}, None,
    ),
    "nominal": (
        "SubClassOf(Nom(b) B)\nClassAssert(Nom(b) x)",
        ["B(b)"], [{"b", "x"}], {"b"}, None,
    ),
    "some-nominal": (
        "SubClassOf(Some(r Top) Q)\nClassAssert(Some(r Nom(b)) x)",
        ["Q(x)", "r(x,b)"], [], {"b", "x"}, None,
    ),
    "some-name": (
        "SubClassOf(Some(r A) Q)\nClassAssert(Some(r A) x)",
        ["Q(x)"], [], {"x"}, None,
    ),
    "and-nominal": (
        "SubClassOf(And(A B) C)\nClassAssert(B b)\nClassAssert(And(A Nom(b)) x)",
        ["A(b)", "B(b)", "C(b)"], [{"b", "x"}], {"b"}, None,
    ),
    "and-some-nominal": (
        "SubClassOf(And(A Some(r Nom(b))) C)\nSubClassOf(Some(r B) D)\n"
        "ClassAssert(B b)\nClassAssert(And(A Some(r Nom(b))) x)",
        ["A(x)", "B(b)", "C(x)", "D(x)", "r(x,b)"], [], {"b", "x"}, None,
    ),
    "nested": (
        "SubClassOf(And(A Some(s Some(r Nom(b)))) C)\nSubClassOf(Some(r Top) R)\n"
        "ClassAssert(And(A And(Some(r Nom(b)) Some(s Some(r Nom(b))) Nom(y))) x)",
        ["A(x)", "C(x)", "R(x)", "r(x,b)"], [{"x", "y"}], {"b", "x"}, None,
    ),
    # the two axioms that decide the witness of genont seed 3674 (named_rhs)
    # with this assertion added: ⊥ reaches i1 through its asserted existential,
    # since (a0) ⊑ ∃r1.{i2} classifies under ⊥, so the witness names i1, the
    # least individual with ⊥
    "seed-3674": (
        "SubClassOf(Nom(i2) Bottom)\nClassAssert(Some(r1 Nom(i2)) i1)",
        ["r1(i1,i2)"], [], {"i1", "i2"}, "Bottom derived for i1",
    ),
}


@pytest.mark.parametrize("shape", list(_SHAPES))
def test_every_assertion_shape_closes_as_pinned(shape):
    doc, lines, merged, individuals, witness = _SHAPES[shape]
    clo = _closure(doc)
    assert clo.to_lines() == lines
    assert [set(g) for g in clo.merged] == merged
    assert clo.individuals == individuals
    assert clo.inconsistent == (witness is not None)
    assert clo.inconsistency_witness == witness
    assert not any(g.pred.startswith("(") for g in clo.atoms())


def test_only_composite_assertions_extend_the_tbox():
    # an assertion of a name closes under the corpus TBox itself; a composite
    # one is named into one extension, which later closures reuse
    corpus = load_corpus(MINI_FLIGHTS)
    for dom in corpus.domains:
        assert dom.tbox is corpus.tbox
        dom.lso_closures()
    assert corpus.tbox._extensions == {}
    abox = corpus.domains[0].lsos[0].abox
    abox |= parse_ontology("ClassAssert(And(Dep Some(hasOri Nom(LAX))) z)").abox
    first = materialize(corpus.tbox, abox)
    (extended,) = corpus.tbox._extensions.values()
    second = materialize(corpus.tbox, abox)
    (again,) = corpus.tbox._extensions.values()
    assert again is extended
    assert first.atoms() == second.atoms()


def test_materialize_leaves_no_cyclic_garbage():
    # garbage that only the cycle collector frees costs every stage that
    # closes many LSOs; plain reference counting must free all of it
    ont = parse_ontology("SubClassOf(A B)\nClassAssert(And(A Some(r Nom(c))) x)\n")
    tbox = normalize_tbox(ont.tbox)
    materialize(tbox, ont.abox)  # fill the compiled-rule cache first
    gc.collect()
    gc.disable()
    try:
        clo = materialize(tbox, ont.abox)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert clo.entails(Entailment.parse("B(x)"))
    assert clo.entails(Entailment.parse("r(x,c)"))


def test_saturation_through_filler_subsumption():
    doc = """
    SubClassOf(A Some(r B))
    SubClassOf(B Bprime)
    SubClassOf(Some(r Bprime) C)
    SubClassOf(C Some(s Nom(n)))
    ClassAssert(A x)
    """
    clo = _closure(doc)
    assert clo.entails(Entailment.parse("C(x)"))
    assert clo.entails(Entailment.parse("s(x,n)"))


@pytest.mark.parametrize(
    "route",
    [
        "SubClassOf(A B)\nClassAssert(A x)",
        "SubClassOf(A Some(s C))\nSubClassOf(Some(s C) B)\nClassAssert(A x)",
        # y sorts after x, so the merge moves y's nominal marker onto x
        "SubClassOf(Nom(y) B)\nSameInd(x y)",
    ],
    ids=["subclass", "classified-existential", "nominal-after-merge"],
)
def test_nominal_witness_rule_fires_through_derived_subsumers(route):
    # B ⊑ ∃r.{c} is only ever triggered by B(x), which each route derives
    clo = _closure("SubClassOf(B Some(r Nom(c)))\n" + route)
    assert not clo.inconsistent
    assert clo.canonical("x") == "x"
    assert clo.entails(Entailment.parse("B(x)"))
    assert clo.entails(Entailment.parse("r(x,c)"))


def test_bottom_propagates_through_tbox_successors():
    doc = """
    SubClassOf(A Some(r B))
    SubClassOf(B Bottom)
    ClassAssert(A x)
    """
    clo = _closure(doc)
    assert clo.inconsistent


def test_equivalence_with_naive_oracle():
    """Semi-naive worklist closure equals from-scratch naive fixpoint on 200
    random instances, and finishes well under the time budget."""
    t0 = time.perf_counter()
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
        assert set(got.merged) == want.groups, f"seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def _composite_instance(seed: int, named_rhs: bool):
    """A genont instance plus 1-3 composite class assertions."""
    tbox, abox = random_instance(seed, named_rhs=named_rhs)
    rng = random.Random(f"composite {seed} {named_rhs}")
    asserted = [
        ClassAssertion(random_concept(rng, 3, False), rng.choice(INDS))
        for _ in range(rng.randint(1, 3))
    ]
    return tbox, abox, asserted


def test_composite_assertions_match_the_naive_oracle():
    """C_i(x_i) asserted directly closes like Z_i(x_i) under Z_i ⊑ C_i, with
    each Z_i a new user name that the comparison drops."""
    for named_rhs in (False, True):
        for seed in range(1500):
            tbox, abox, asserted = _composite_instance(seed, named_rhs)
            got = materialize(normalize_tbox(tbox), abox | set(asserted))
            named = [(Atomic(f"Z{i}"), ax) for i, ax in enumerate(asserted)]
            nt = normalize_tbox(tbox | {Gci(z, ax.concept) for z, ax in named})
            want = naive_closure(nt, abox | {ClassAssertion(z, ax.individual) for z, ax in named})
            case = f"seed {seed}, named_rhs {named_rhs}"
            assert got.inconsistent == want.inconsistent, case
            if want.inconsistent:
                continue
            got_public = {
                (a.pred, a.args[0]) if a.is_class_atom else (a.pred, *a.args)
                for a in got.atoms()
            }
            assert got_public == want.public_atoms(nt.fresh | {z.name for z, _ in named}), case
            assert set(got.merged) == want.groups, case


def test_equivalence_with_structural_oracle_on_named_fragment():
    for seed in range(400, 480):
        tbox, abox = random_instance(seed, named_rhs=True)
        want = structural_closure(tbox, abox)
        got = materialize(normalize_tbox(tbox), abox)
        assert got.inconsistent == want.inconsistent, f"seed {seed}"


def test_union_find_canonicals():
    uf = UnionFind()
    for x in ("zeta", "alpha", "mid"):
        uf.add(x)
    uf.union("zeta", "mid")
    assert uf.find("zeta") == "mid"
    uf.union("mid", "alpha")
    assert uf.find("zeta") == "alpha"
    # the same chain closed by materialize: one group, under its least name
    clo = _closure("SameInd(zeta mid)\nSameInd(mid alpha)\n")
    assert clo.merged == (frozenset({"alpha", "mid", "zeta"}),)
    assert clo.canonical("zeta") == clo.canonical("mid") == "alpha"


def test_entailment_atom_parsing():
    g = Entailment.parse("hasOri(d,LAX)")
    assert g.pred == "hasOri" and g.args == ("d", "LAX")
    assert str(g) == "hasOri(d,LAX)"
    c = Entailment.parse("Airport(LAX)")
    assert c.is_class_atom
    with pytest.raises(ValueError):
        Entailment.parse("not an atom")


def test_entails_free_function():
    clo = _closure(FLIGHT_DOC)
    assert entails(clo, Entailment.parse("DelayedDep(d)"))


def test_insertion_bound_holds():
    """Every atom at the fixpoint was inserted, and no (key, name) or
    (role, a, b) is inserted twice.  A key or role once inserted survives
    under canonical names, so the closure's own keys and roles over the n
    names of the ABox and the TBox's nominals bound the insertions."""
    for named_rhs in (False, True):
        for seed in range(200):
            tbox, abox = random_instance(seed, named_rhs=named_rhs)
            clo = materialize(normalize_tbox(tbox), abox)
            text = "\n".join(sorted(map(str, tbox | abox)))
            n = len(parse_ontology(text).signature.individuals)
            keys = {k for k, _ in clo.class_atoms}
            roles = {r for r, _, _ in clo.role_atoms}
            case = f"seed {seed}, named_rhs {named_rhs}"
            assert len(clo.class_atoms) + len(clo.role_atoms) <= clo.insertions, case
            assert clo.insertions <= len(keys) * n + len(roles) * n * n, case
