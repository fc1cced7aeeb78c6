from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genont import random_document, random_instance
from oracles import structural_closure
from transferlens.ontology import (
    NAME_RE,
    Atomic,
    Bottom,
    ClassAssertion,
    Conjunction,
    Equality,
    Existential,
    Gci,
    Inequality,
    Nominal,
    OntologyError,
    ParseError,
    RConj,
    RExistLhs,
    RExistRhs,
    RoleAssertion,
    RoleChain,
    RSub,
    SignatureError,
    SubRole,
    Top,
    _parse_plain,
    _parse_tokens,
    axioms_to_text,
    conjunction,
    is_basic,
    normalize_tbox,
    parse_ontology,
)
from transferlens.reasoner import Entailment, materialize


def test_parse_round_trip():
    doc = """
    # a comment line
    SubClassOf(And(Dep Some(hasDelMin Nom(Pos))) DelayedDep)  # trailing comment
    SubRole(hasOri hasEndpoint)
    RoleChain(hasCarrier hasCarHub hasDepHub)
    ClassAssert(Airport LAX)
    ClassAssert(And(Dep Some(hasOri Nom(LAX))) d)
    RoleAssert(hasWea d wea)
    SameInd(car DL)
    DiffInd(LAX JFK)
    """
    ont = parse_ontology(doc)
    assert len(ont.tbox) == 3
    assert len(ont.abox) == 5
    text = axioms_to_text(ont.tbox | ont.abox)
    again = parse_ontology(text)
    assert again.tbox == ont.tbox
    assert again.abox == ont.abox
    assert again.signature == ont.signature


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_ontology("SubClassOf(A B\nClassAssert(C x)")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="axiom keyword"):
        parse_ontology("Frob(A B)")
    with pytest.raises(ParseError, match="at least two"):
        parse_ontology("SubClassOf(And(A) B)")
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ontology("SubClassOf(A, B)")


def test_self_inequality_rejected():
    with pytest.raises(ParseError, match="self-contradictory"):
        parse_ontology("DiffInd(a a)")
    with pytest.raises(OntologyError):
        Inequality("a", "a")


def test_signature_kinds_conflict():
    with pytest.raises(SignatureError, match="used as"):
        parse_ontology("ClassAssert(A x)\nRoleAssert(A x y)")
    with pytest.raises(SignatureError):
        parse_ontology("SubClassOf(A Some(x B))\nClassAssert(C x)")


def test_signature_partition():
    ont = parse_ontology("SubClassOf(A Some(r Nom(i)))\nClassAssert(B j)")
    assert ont.signature.concepts == {"A", "B"}
    assert ont.signature.roles == {"r"}
    assert ont.signature.individuals == {"i", "j"}


# per keyword: a well-formed argument list, its axiom and (concepts, roles,
# individuals); one argument too few, a "(" where an argument belongs, and no
# closing ")", each with its (message, line, col); and a document where the
# keyword's line 2 clashes with line 1's individual b (or concept C), with the
# line the clash is reported at: the keyword's for a concept argument, the
# name's own for a role or individual
_KEYWORD_CASES = [
    ("SubClassOf", "A B", Gci(Atomic("A"), Atomic("B")), ("AB", "", ""),
     [("A)", "expected concept expression, got ')'", 1, 13),
      ("( B)", "expected concept expression, got '('", 1, 12),
      ("A B", "expected ')', got end of input", 1, 14)],
     "(\nA\nb)", "name 'b' used as concept at line 2 but as individual at line 1"),
    ("SubRole", "r s", SubRole("r", "s"), ("", "rs", ""),
     [("r)", "expected role name, got ')'", 1, 10),
      ("( s)", "expected role name, got '('", 1, 9),
      ("r s", "expected ')', got end of input", 1, 11)],
     "(\nr\nb)", "name 'b' used as role at line 4 but as individual at line 1"),
    ("RoleChain", "r s t", RoleChain("r", "s", "t"), ("", "rst", ""),
     [("r s)", "expected role name, got ')'", 1, 14),
      ("r ( t)", "expected role name, got '('", 1, 13),
      ("r s t", "expected ')', got end of input", 1, 15)],
     "(\nr s\nb)", "name 'b' used as role at line 4 but as individual at line 1"),
    ("ClassAssert", "C a", ClassAssertion(Atomic("C"), "a"), ("C", "", "a"),
     [("C)", "expected individual name, got ')'", 1, 14),
      ("C ()", "expected individual name, got '('", 1, 15),
      ("C a", "expected ')', got end of input", 1, 15)],
     "(\nb\na)", "name 'b' used as concept at line 2 but as individual at line 1"),
    ("RoleAssert", "r a b", RoleAssertion("r", "a", "b"), ("", "r", "ab"),
     [("r a)", "expected individual name, got ')'", 1, 15),
      ("r ( b)", "expected individual name, got '('", 1, 14),
      ("r a b", "expected ')', got end of input", 1, 16)],
     "(\nb\na c)", "name 'b' used as role at line 3 but as individual at line 1"),
    ("SameInd", "a b", Equality("a", "b"), ("", "", "ab"),
     [("a)", "expected individual name, got ')'", 1, 10),
      ("a ()", "expected individual name, got '('", 1, 11),
      ("a b", "expected ')', got end of input", 1, 11)],
     "(\nC\na)", "name 'C' used as individual at line 3 but as concept at line 1"),
    ("DiffInd", "a b", Inequality("a", "b"), ("", "", "ab"),
     [("a)", "expected individual name, got ')'", 1, 10),
      ("a ()", "expected individual name, got '('", 1, 11),
      ("a b", "expected ')', got end of input", 1, 11)],
     "(\nC\na)", "name 'C' used as individual at line 3 but as concept at line 1"),
]


@pytest.mark.parametrize(
    "keyword, args, axiom, names, malformed, clash, clash_message",
    _KEYWORD_CASES,
    ids=[case[0] for case in _KEYWORD_CASES],
)
def test_each_keyword_parse_is_pinned(keyword, args, axiom, names, malformed, clash, clash_message):
    ont = _parse_tokens(f"{keyword}({args})")
    assert ont.tbox | ont.abox == {axiom}
    assert (ont.tbox if isinstance(axiom, (Gci, SubRole, RoleChain)) else ont.abox) == {axiom}
    sig = ont.signature
    assert (sig.concepts, sig.roles, sig.individuals) == tuple(set(n) for n in names)
    for tail, message, line, col in malformed:
        with pytest.raises(ParseError) as err:
            _parse_tokens(f"{keyword}({tail}")
        assert (str(err.value), err.value.line, err.value.col) == (
            f"line {line}, col {col}: {message}", line, col
        )
    with pytest.raises(SignatureError) as err:
        _parse_tokens(f"ClassAssert(C b)\n{keyword}{clash}")
    assert str(err.value) == clash_message


def test_plain_documents_take_the_plain_path():
    doc = (
        "# header\n\n\tClassAssert (A x) # trailing\r\n"
        "RoleAssert( Top Some  And )\xa0\x0cSameInd(a a)\rDiffInd(x a)\n"
    )
    ont = _parse_plain(doc)
    assert ont is not None and ont == _parse_tokens(doc) == parse_ontology(doc)
    assert ont.signature.roles == {"Top"}
    assert ont.signature.individuals == {"x", "a", "Some", "And"}
    assert _parse_plain("") == _parse_tokens("")


@pytest.mark.parametrize(
    "doc",
    [
        "ClassAssert(Top x)",  # a keyword in concept position
        "ClassAssert(Some x)",
        "ClassAssert(A x)\nRoleAssert(A x y)",  # a name used as two kinds
        "DiffInd(a a)",
        "ClassAssert(A x) ClassAssert(B y)",  # two axioms on one line
        "ClassAssert(A\nx)",  # one axiom on two lines
        "ClassAssert(A x y)",
        "RoleAssert(r a)",
        "ClassAssert(Some(r A) x)",
        "SubClassOf(A B)",
        "ClassAssert(A, x)",
    ],
)
def test_the_token_parser_decides_other_documents(doc):
    assert _parse_plain(doc) is None


def test_plain_path_agrees_with_the_token_parser():
    plain = 0
    rng = random.Random(19)
    for _ in range(3000):
        doc = random_document(rng)
        try:
            want = _parse_tokens(doc)
        except OntologyError:
            want = None
        got = _parse_plain(doc)
        if got is not None:
            assert got == want, repr(doc)
            plain += 1
    # a fifth or more of the documents take the plain path
    assert plain > 600


def test_conjunction_canonicalization():
    a, b = Atomic("A"), Atomic("B")
    assert conjunction([a, a]) == a
    assert conjunction([a, Top()]) == a
    assert conjunction([a, Bottom(), b]) == Bottom()
    c1 = conjunction([a, conjunction([b, Atomic("C")])])
    c2 = conjunction([Atomic("C"), b, a])
    assert c1 == c2
    assert isinstance(c1, Conjunction) and len(c1.parts) == 3


def test_normalize_shapes_and_fresh_names():
    ont = parse_ontology(
        "SubClassOf(And(A B C Some(r And(D E))) And(F Some(s Nom(i))))"
    )
    nt = normalize_tbox(ont.tbox)
    for rule in nt.rules:
        if isinstance(rule, RSub):
            assert is_basic(rule.lhs) and is_basic(rule.rhs)
        elif isinstance(rule, RConj):
            assert is_basic(rule.lhs1) and is_basic(rule.lhs2) and is_basic(rule.rhs)
        elif isinstance(rule, RExistLhs):
            assert is_basic(rule.filler) and is_basic(rule.rhs)
        elif isinstance(rule, RExistRhs):
            assert is_basic(rule.lhs) and is_basic(rule.filler)
    # no document can spell a generated name
    assert not any(NAME_RE.fullmatch(n) for n in nt.fresh)
    assert len(nt.fresh) > 0


def test_fresh_names_cannot_collide_with_user_names():
    ont = parse_ontology(
        "ClassAssert(_N0 x)\nSubClassOf(And(A Some(r Some(s B))) C)"
    )
    nt = normalize_tbox(ont.tbox)
    assert "_N0" not in nt.fresh
    assert nt.fresh == {"(n0)", "(n1)"}


def test_normalize_conservative_on_random_instances():
    """Normalization plus the reasoner agrees with direct evaluation of the
    original axioms, over the original signature, on the named-witness
    fragment."""
    for seed in range(120):
        tbox, abox = random_instance(seed, named_rhs=True)
        want = structural_closure(tbox, abox)
        nt = normalize_tbox(tbox)
        got = materialize(nt, abox)
        assert got.inconsistent == want.inconsistent, f"seed {seed}"
        if want.inconsistent:
            continue
        got_public = {
            (a.pred, *a.args) if len(a.args) == 2 else (a.pred, a.args[0])
            for a in got.atoms()
        }
        want_public = {
            (k, x) for k, x in want.class_atoms if not k.startswith(("{", "("))
        } | want.role_atoms
        assert got_public == want_public, f"seed {seed}"
        assert set(got.merged) == want.groups, f"seed {seed}"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_normalized_rules_always_flat(seed):
    tbox, _ = random_instance(seed)
    nt = normalize_tbox(tbox)
    for rule in nt.rules:
        parts = {
            RSub: lambda r: [r.lhs, r.rhs],
            RConj: lambda r: [r.lhs1, r.lhs2, r.rhs],
            RExistLhs: lambda r: [r.filler, r.rhs],
            RExistRhs: lambda r: [r.lhs, r.filler],
        }[type(rule)](rule)
        assert all(is_basic(p) for p in parts)


def test_extended_covers_both_axiom_sets():
    ont = parse_ontology(
        "SubClassOf(And(A Some(r Some(s B))) C)\n"
        "ClassAssert(A x)\nRoleAssert(r x y)\nRoleAssert(s y z)\nClassAssert(B z)"
    )
    nt = normalize_tbox(ont.tbox)
    extra = parse_ontology("SubClassOf(C F)").tbox
    nt2 = nt.extended(extra)
    assert nt2.fresh.isdisjoint({"A", "B", "C", "F", "r", "s"})
    clo = materialize(nt2, ont.abox)
    assert clo.entails(Entailment.parse("C(x)"))
    assert clo.entails(Entailment.parse("F(x)"))
    # one result per distinct extra axiom set, and none for no extra axioms
    assert nt.extended(set(extra)) is nt2
    assert nt.extended(frozenset()) is nt


def test_tbox_abox_separation_helpers():
    from transferlens.ontology import parse_abox, parse_tbox

    with pytest.raises(OntologyError, match="TBox-only"):
        parse_tbox("SubClassOf(A B)\nClassAssert(A x)")
    with pytest.raises(OntologyError, match="ABox-only"):
        parse_abox("SubClassOf(A B)\nClassAssert(A x)")
    assert len(parse_tbox("SubClassOf(A B)")) == 1
    assert len(parse_abox("ClassAssert(A x)")) == 1
