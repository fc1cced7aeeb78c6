from __future__ import annotations

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from domfix import make_domain
from transferlens import domain
from transferlens.config import MiningParams
from transferlens.domain import domain_annotation, encode_dataset, feature_space, split_indices
from transferlens.errors import DataError
from transferlens.mining import mine_roots
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


@pytest.mark.parametrize("enabled", [True, False])
def test_closing_lsos_pauses_the_cycle_collector(enabled, monkeypatch):
    # closures leave no cyclic garbage, so collections while closing free
    # nothing; the collector's prior state is back afterwards
    seen = []
    real = domain.materialize

    def recording(tbox, abox):
        seen.append(gc.isenabled())
        return real(tbox, abox)

    monkeypatch.setattr(domain, "materialize", recording)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        _dom().lso_closures()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * len(LSOS)


def test_vocabulary_excludes_targets_and_is_sorted():
    d = _dom()
    vocab, _ = feature_space([d])
    assert Entailment.parse("Delayed(d)") not in vocab
    assert list(vocab) == sorted(vocab)
    assert set(vocab) == d.entailment_closure() - {d.target}
    # shared vocabulary across a comparison set drops every domain's target
    other = make_domain("o", "Wet(w)", LSOS, tbox=TBOX)
    shared, _ = feature_space([d, other])
    assert Entailment.parse("Wet(w)") not in shared
    assert Entailment.parse("Delayed(d)") not in shared


def test_value_properties_require_numeric_everywhere():
    d = _dom()
    assert feature_space([d])[1] == ("dist",)
    tainted = make_domain(
        "t", "Delayed(d)", LSOS + ["RoleAssert(dist d far)"], tbox=TBOX
    )
    assert feature_space([tainted])[1] == ()
    # one domain's non-numeric object taints the role for the whole set
    assert feature_space([d, tainted])[1] == ()
    # a non-finite value would give a NaN feature, or stop the mean's fsum
    for doc in ("RoleAssert(dist d nan)", "RoleAssert(dist d inf)\nRoleAssert(dist d -inf)"):
        d = make_domain("t", "Delayed(d)", LSOS + [doc], tbox=TBOX)
        assert feature_space([d])[1] == (), doc
        X, _ = encode_dataset(d, (), ("dist",))
        assert X.tolist() == [[120.0], [80.0], [150.0], [0.0]], doc


def test_encode_dataset_bits_and_value_means():
    d = _dom()
    vocab, props = feature_space([d])
    X, y = encode_dataset(d, vocab, props)
    assert X.dtype == np.float64
    for row, closure in zip(X.tolist(), d.lso_closures()):
        atoms = closure.atoms()
        assert row[:-1] == [1.0 if g in atoms else 0.0 for g in vocab]
    # the third LSO's two dist assertions average
    assert X[:, -1].tolist() == [120.0, 80.0, 150.0]
    assert y.dtype == np.int64 and y.tolist() == [1, 0, 1]


_ENCODE_VALUES = """\
from domfix import make_domain
from transferlens.domain import encode_dataset, feature_space
values = ["1e16", "1", "-1e16", "3", "0.1", "7", "2.5"]
doc = "\\n".join(["ClassAssert(K d)"] + [f"RoleAssert(hasX d {v})" for v in values])
d = make_domain("v", "Y(d)", [doc, "ClassAssert(Y d)"])
print(repr(encode_dataset(d, (), feature_space([d])[1])[0][0].tolist()))
"""


def test_encode_dataset_value_mean_ignores_the_hash_seed():
    # the LSO's atoms are a set whose order follows PYTHONHASHSEED; with
    # these magnitudes a float sum in that order changes with the seed
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    encoded = set()
    for hash_seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-c", _ENCODE_VALUES],
            env={**env, "PYTHONHASHSEED": str(hash_seed)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        encoded.add(proc.stdout)
    assert encoded == {"[%r]\n" % ((1.0 + 3.0 + 0.1 + 7.0 + 2.5) / 7)}


def test_encode_dataset_refuses_inconsistent_lso():
    docs = ["ClassAssert(A d)\nSameInd(a b)\nDiffInd(a b)"]
    d = make_domain("bad", "A(d)", docs)
    with pytest.raises(DataError, match="inconsistent"):
        encode_dataset(d, feature_space([_dom()])[0])


def test_mining_and_encoding_refuse_an_inconsistent_lso_alike():
    docs = LSOS + ["ClassAssert(Dep d)\nSameInd(a b)\nDiffInd(a b)"]
    d = make_domain("bad", "Delayed(d)", docs, tbox=TBOX)
    witness = d.lso_closures()[3].inconsistency_witness
    assert witness
    messages = []
    for refuse in (
        lambda: mine_roots(d, MiningParams(sigma=0.5, kappa=1, tau=0.5)),
        lambda: encode_dataset(d, ()),
        d.consistent_closures,
    ):
        with pytest.raises(DataError) as err:
            refuse()
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert messages[0].startswith(
        f"LSO 'lso-003' of domain bad is inconsistent ({witness})"
    )


def test_encode_dataset_shapes():
    d = _dom()
    vocab, props = feature_space([d])
    X, y = encode_dataset(d, vocab, props)
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


def test_a_merge_that_renames_the_target_is_refused():
    # SameInd(c d) moves the LSO's atoms onto c: the label reads Delayed(d)
    # through the merge, while the vocabulary would hold Delayed(c)
    docs = LSOS + ["ClassAssert(Dep d)\nRoleAssert(hasWea d w)\nClassAssert(Rainy w)\nSameInd(c d)"]
    d = make_domain("renamed", "Delayed(d)", docs, tbox=TBOX)
    assert d.labels().tolist() == [1, 0, 1, 1]
    assert Entailment.parse("Delayed(c)") in d.entailment_closure()
    message = "^LSO 'lso-003' of domain renamed merges target individual d into c$"
    for refuse in (
        d.consistent_closures,
        lambda: mine_roots(d, MiningParams(sigma=0.5, kappa=1, tau=0.5)),
        lambda: encode_dataset(d, ()),
    ):
        with pytest.raises(DataError, match=message):
            refuse()
    # without the target the merge still splits a fact over two columns:
    # the vocabulary would hold Dep(c) for this LSO and Dep(d) for the rest
    docs = ["ClassAssert(Dep d)\nClassAssert(Tgt d)", "ClassAssert(Dep d)",
            "ClassAssert(Dep d)\nSameInd(c d)"]
    d = make_domain("split", "Tgt(d)", docs)
    assert feature_space([d])[0] == tuple(map(Entailment.parse, ("Dep(c)", "Dep(d)")))
    message = "^LSO 'lso-002' of domain split merges target individual d into c$"
    with pytest.raises(DataError, match=message):
        d.consistent_closures()
    # a merge that keeps the target's name changes no feature
    docs = LSOS + ["ClassAssert(Dep d)\nRoleAssert(hasWea d w)\nClassAssert(Rainy w)\nSameInd(d e)"]
    make_domain("kept", "Delayed(d)", docs, tbox=TBOX).consistent_closures()
