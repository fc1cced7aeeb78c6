from __future__ import annotations

import numpy as np
import pytest

from domfix import make_domain
from transferlens.domain import (
    boe_encode,
    build_vocabulary,
    domain_annotation,
    encode_dataset,
    split_indices,
    value_properties,
)
from transferlens.errors import DataError
from transferlens.reasoner import Entailment

TBOX = """
SubClassOf(Rainy Wet)
SubClassOf(And(Dep Some(hasWea Wet)) Delayed)
"""

LSOS = [
    # positive: the weather chain fires
    "ClassAssert(Dep d)\nRoleAssert(hasWea d w)\nClassAssert(Rainy w)\nRoleAssert(dist d 120)",
    # negative: no weather
    "ClassAssert(Dep d)\nRoleAssert(dist d 80)",
    # positive, different surface form
    "ClassAssert(Dep d)\nRoleAssert(hasWea d w)\nClassAssert(Wet w)\nRoleAssert(dist d 200)\nRoleAssert(dist d 100)",
]


def _dom(**kw):
    return make_domain("toy", "Delayed(d)", LSOS, tbox=TBOX, **kw)


def test_labels_follow_target_entailment():
    d = _dom()
    assert d.labels().tolist() == [1, 0, 1]


def test_domain_closure_is_union_of_lso_closures():
    d = _dom()
    union = frozenset().union(*(c.atoms() for c in d.lso_closures()))
    assert d.entailment_closure() == union
    assert Entailment.parse("Wet(w)") in d.entailment_closure()


def test_inconsistent_lsos_are_excluded_from_domain_closure():
    docs = LSOS + ["ClassAssert(A x)\nDiffInd(x y)\nSameInd(x y)"]
    d = make_domain("bad", "Delayed(d)", docs, tbox=TBOX)
    assert d.lso_closures()[3].inconsistent
    # the poisoned LSO contributes nothing
    assert d.entailment_closure() == _dom().entailment_closure()


def test_vocabulary_excludes_targets_and_is_sorted():
    d = _dom()
    vocab = build_vocabulary(d)
    assert Entailment.parse("Delayed(d)") not in vocab
    assert list(vocab) == sorted(vocab)
    # shared vocabulary across a comparison set drops every domain's target
    other = make_domain("o", "Wet(w)", LSOS, tbox=TBOX)
    shared = build_vocabulary([d, other])
    assert Entailment.parse("Wet(w)") not in shared
    assert Entailment.parse("Delayed(d)") not in shared


def test_value_properties_require_numeric_everywhere():
    d = _dom()
    assert value_properties(d) == ("dist",)
    tainted = make_domain(
        "t", "Delayed(d)", LSOS + ["RoleAssert(dist d far)"], tbox=TBOX
    )
    assert value_properties(tainted) == ()


def test_boe_encode_bits_and_value_means():
    d = _dom()
    vocab = build_vocabulary(d)
    props = value_properties(d)
    fv = boe_encode(d, 2, vocab, props)
    atoms = d.lso_closures()[2].atoms()
    assert fv.bits.tolist() == [1.0 if g in atoms else 0.0 for g in vocab]
    # two dist assertions average
    assert fv.values.tolist() == [150.0]
    assert fv.label == 1
    assert fv.x.shape == (len(vocab) + 1,)


def test_boe_encode_refuses_inconsistent_lso():
    docs = ["ClassAssert(A d)\nSameInd(a b)\nDiffInd(a b)"]
    d = make_domain("bad", "A(d)", docs)
    with pytest.raises(DataError, match="inconsistent"):
        boe_encode(d, 0, build_vocabulary(_dom()))


def test_encode_dataset_shapes():
    d = _dom()
    vocab = build_vocabulary(d)
    X, y = encode_dataset(d, vocab, value_properties(d))
    assert X.shape == (3, len(vocab) + 1)
    assert y.tolist() == [1, 0, 1]


def test_set_external_axioms_invalidates_closures():
    d = _dom()
    before = d.entailment_closure()
    d.set_external_axioms(frozenset())
    assert d.entailment_closure() == before
    from transferlens.ontology import parse_abox

    d.set_external_axioms(parse_abox("ClassAssert(Hub ATL)"))
    after = d.entailment_closure()
    assert Entailment.parse("Hub(ATL)") in after
    assert before < after


def test_domain_annotation_shared_pairs_plus_target():
    anns = [
        [("fam", "A"), ("car", "DL")],
        [("fam", "A"), ("car", "AA")],
        [("fam", "A")],
    ]
    d = make_domain("a", "Delayed(d)", LSOS, tbox=TBOX, annotations=anns)
    assert domain_annotation(d) == frozenset(
        {("fam", "A"), ("t_e", "Delayed(d)")}
    )


def test_split_chronological_when_all_dated():
    anns = [[("dat", "2026-03-01")], [("dat", "2026-01-01")], [("dat", "2026-02-01")]]
    d = make_domain("a", "Delayed(d)", LSOS, tbox=TBOX, annotations=anns)
    train, test = split_indices(d, train_frac=0.67)
    assert train == [1, 2] and test == [0]

    # dates, not strings: the basic-format 20260101 is the earliest
    anns = [[("dat", "2026-12-01")], [("dat", "20260101")], [("dat", "2026-06-01")]]
    d = make_domain("a", "Delayed(d)", LSOS, tbox=TBOX, annotations=anns)
    train, test = split_indices(d, train_frac=0.67)
    assert train == [1, 2] and test == [0]


def test_split_seeded_shuffle_otherwise():
    d = _dom()
    t1 = split_indices(d, train_frac=0.67, seed=7)
    t2 = split_indices(d, train_frac=0.67, seed=7)
    assert t1 == t2
    assert sorted(t1[0] + t1[1]) == [0, 1, 2]
    # ceil(0.67 * 3) = 3, clamped to leave one test sample
    assert len(t1[0]) == 2


def test_split_rejects_degenerate_fraction():
    d = _dom()
    with pytest.raises(DataError):
        split_indices(d, train_frac=0.0)
    with pytest.raises(DataError):
        split_indices(d, train_frac=1.0)


def test_empty_domain_rejected():
    with pytest.raises(DataError, match="no LSOs"):
        make_domain("empty", "A(d)", [])
