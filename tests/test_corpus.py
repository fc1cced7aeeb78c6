from __future__ import annotations

import gc
import re
import shutil

import pytest

from conftest import MINI_FLIGHTS
from transferlens import ontology
from transferlens.corpus import load_corpus
from transferlens.errors import DataError
from transferlens.reasoner import Entailment


def _write_corpus(root, tbox="SubClassOf(A B)\n", domains=None, extra=None):
    root.mkdir(parents=True, exist_ok=True)
    (root / "tbox.ont").write_text(tbox)
    domains = domains if domains is not None else {
        "d1": ("A(x)", ["ClassAssert(A x)"]),
    }
    for did, (target, lso_docs) in domains.items():
        dom = root / "domains" / did
        (dom / "lsos").mkdir(parents=True)
        (dom / "manifest.txt").write_text(f"id = {did}\ntarget = {target}\n")
        for i, doc in enumerate(lso_docs):
            (dom / "lsos" / f"lso-{i:03d}.ont").write_text(doc + "\n")
    for name, text in (extra or {}).items():
        (root / name).write_text(text)
    return root


def test_minimal_corpus_loads(tmp_path):
    corpus = load_corpus(_write_corpus(tmp_path / "c"))
    assert [d.id for d in corpus.domains] == ["d1"]
    d = corpus.domains[0]
    assert str(d.target) == "A(x)"
    assert d.labels().tolist() == [1]
    assert corpus.kb_path is None and corpus.kb_map_path is None
    with pytest.raises(DataError, match="no domain"):
        corpus.domain("nope")


def test_annotations_and_comments_parse(tmp_path):
    root = _write_corpus(
        tmp_path / "c",
        domains={
            "d1": (
                "A(x)",
                ["@ann dat 2026-01-01\n@ann fam left\n# comment\nClassAssert(A x)"],
            )
        },
    )
    d = load_corpus(root).domains[0]
    assert d.lsos[0].annotations == frozenset(
        {("dat", "2026-01-01"), ("fam", "left")}
    )


def test_constraints_must_be_bottom_headed(tmp_path):
    root = _write_corpus(
        tmp_path / "c", extra={"constraints.ont": "SubClassOf(And(A B) Bottom)\n"}
    )
    assert len(load_corpus(root).constraints) == 1

    bad = _write_corpus(
        tmp_path / "bad", extra={"constraints.ont": "SubClassOf(A B)\n"}
    )
    with pytest.raises(DataError, match="Bottom-headed"):
        load_corpus(bad)


def test_missing_pieces_are_named(tmp_path):
    with pytest.raises(DataError, match="not a directory"):
        load_corpus(tmp_path / "absent")

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DataError, match="tbox.ont"):
        load_corpus(empty)

    (empty / "tbox.ont").write_text("SubClassOf(A B)\n")
    with pytest.raises(DataError, match="domains"):
        load_corpus(empty)


def test_abox_rejected_in_tbox_file(tmp_path):
    root = _write_corpus(tmp_path / "c", tbox="SubClassOf(A B)\nClassAssert(A x)\n")
    tbox = re.escape(str(root / "tbox.ont"))
    with pytest.raises(
        DataError, match=f"^{tbox}: expected TBox-only document, found ClassAssert\\(A x\\)$"
    ):
        load_corpus(root)


def test_tbox_rejected_in_lso_file(tmp_path):
    root = _write_corpus(
        tmp_path / "c", domains={"d1": ("A(x)", ["SubClassOf(A B)"])}
    )
    with pytest.raises(
        DataError,
        match=r"lsos/lso-000\.ont: expected ABox-only document, found SubClassOf\(A B\)$",
    ):
        load_corpus(root)


def test_unknown_directive_rejected(tmp_path):
    root = _write_corpus(
        tmp_path / "c", domains={"d1": ("A(x)", ["@note hello\nClassAssert(A x)"])}
    )
    with pytest.raises(DataError, match="@note"):
        load_corpus(root)
    # a directive that merely starts with "@ann" is not an annotation
    for line in ("@annotate dat 2020-01-01", "@ann2 k v"):
        root = _write_corpus(
            tmp_path / line.split()[0], domains={"d1": ("A(x)", [f"{line}\nClassAssert(A x)"])}
        )
        with pytest.raises(DataError, match=f"unknown directive '{line.split()[0]}'"):
            load_corpus(root)


def test_manifest_errors(tmp_path):
    root = _write_corpus(tmp_path / "c")
    mf = root / "domains" / "d1" / "manifest.txt"

    mf.write_text("id = d1\n")
    with pytest.raises(DataError, match="target"):
        load_corpus(root)

    mf.write_text("id = other\ntarget = A(x)\n")
    with pytest.raises(DataError, match="does not match"):
        load_corpus(root)

    mf.write_text("id = d1\ntarget = A(x)\ncolor = red\n")
    with pytest.raises(DataError, match="unknown keys"):
        load_corpus(root)

    mf.write_text("id = d1\nid = d1\ntarget = A(x)\n")
    with pytest.raises(DataError, match="duplicate"):
        load_corpus(root)

    mf.write_text("id = d1\ntarget = not an atom\n")
    with pytest.raises(DataError, match="bad target"):
        load_corpus(root)


def test_layout_refusals_name_the_file_and_line(tmp_path):
    # each refusal names the file or directory at fault, and the line when
    # there is one
    def refused(edit, pattern):
        root = _write_corpus(tmp_path / f"c{len(list(tmp_path.iterdir()))}")
        edit(root, root / "domains" / "d1")
        with pytest.raises(DataError, match=pattern.format(root=re.escape(str(root)))):
            load_corpus(root)

    refused(
        lambda root, dom: (dom / "manifest.txt").write_text("id = d1\n# note\ntarget A(x)\n"),
        r"^{root}/domains/d1/manifest\.txt:3: expected 'key = value', got 'target A\(x\)'$",
    )
    refused(
        lambda root, dom: (dom / "lsos" / "lso-000.ont").write_text(
            "@ann fam left\n@ann dat\nClassAssert(A x)\n"
        ),
        r"^{root}/domains/d1/lsos/lso-000\.ont:2: expected '@ann key value'$",
    )
    refused(
        lambda root, dom: (root / "constraints.ont").write_text("ClassAssert(A x)\n"),
        r"^{root}/constraints\.ont: expected TBox-only document, found ClassAssert\(A x\)$",
    )
    refused(
        lambda root, dom: (dom / "manifest.txt").unlink(),
        r"^cannot read {root}/domains/d1/manifest\.txt: No such file or directory$",
    )
    refused(
        lambda root, dom: shutil.rmtree(dom / "lsos"),
        r"^{root}/domains/d1 has no lsos/ directory$",
    )
    refused(
        lambda root, dom: (dom / "lsos" / "lso-000.ont").rename(dom / "lsos" / "lso-000.txt"),
        r"^{root}/domains/d1/lsos holds no \.ont files$",
    )
    refused(
        lambda root, dom: shutil.rmtree(dom),
        r"^{root}/domains holds no domains$",
    )


def test_non_iso_dat_names_file_and_line(tmp_path):
    root = _write_corpus(
        tmp_path / "c",
        domains={"d1": ("A(x)", ["@ann fam left\n@ann dat 2026-2-9\nClassAssert(A x)"])},
    )
    with pytest.raises(DataError, match=r"lso-000\.ont:2: dat '2026-2-9' is not an ISO date"):
        load_corpus(root)


def test_parse_errors_carry_file_positions(tmp_path):
    root = _write_corpus(
        tmp_path / "c", domains={"d1": ("A(x)", ["ClassAssert(A"])}
    )
    with pytest.raises(DataError, match="lso-000.ont"):
        load_corpus(root)


def test_mini_flights_corpus_is_clean():
    corpus = load_corpus(MINI_FLIGHTS)
    assert len(corpus.domains) == 8
    assert corpus.kb_path is not None and corpus.kb_map_path is not None
    assert corpus.constraints
    for d in corpus.domains:
        assert str(d.target) == "DelayedDep(d)"
        labels = d.labels()
        assert not any(c.inconsistent for c in d.lso_closures())
        assert 0 < labels.sum() < len(labels)


def test_a_user_concept_spelled_like_a_generated_name_is_kept(tmp_path):
    # A1's first LSO has Dep(d) but no snow; the TBox's
    # Dep ⊓ ∃hasWea.Snow ⊑ SnowyDep must not fire on a user's _N0(d)
    root = tmp_path / "c"
    shutil.copytree(MINI_FLIGHTS, root)
    lso = root / "domains" / "A1" / "lsos" / "lso-000.ont"
    before = load_corpus(root).domain("A1").lso_closures()[0].atoms()
    lso.write_text(lso.read_text() + "ClassAssert(_N0 d)\n")
    after = load_corpus(root).domain("A1").lso_closures()[0].atoms()
    assert Entailment.parse("Dep(d)") in before
    assert after == before | {Entailment.parse("_N0(d)")}
    assert Entailment.parse("SnowyDep(d)") not in after


def test_mini_flights_lsos_take_the_plain_path(monkeypatch):
    # only the TBox and the constraints need the token parser
    parsed = []
    tokens = ontology._parse_tokens
    monkeypatch.setattr(
        ontology, "_parse_tokens", lambda text: parsed.append(text) or tokens(text)
    )
    corpus = load_corpus(MINI_FLIGHTS)
    assert sum(len(d.lsos) for d in corpus.domains) == 486
    assert parsed == [(MINI_FLIGHTS / f).read_text() for f in ("tbox.ont", "constraints.ont")]


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(enabled, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(MINI_FLIGHTS, broken)
    (broken / "domains" / "B2" / "lsos" / "lso-003.ont").write_text("ClassAssert(A\n")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_corpus(MINI_FLIGHTS)
        assert gc.isenabled() is enabled
        with pytest.raises(DataError, match=r"lso-003\.ont: line 1"):
            load_corpus(broken)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_load_leaves_no_cyclic_garbage():
    # so pausing the collector for the load leaves it no garbage to find later
    gc.collect()
    corpus = load_corpus(MINI_FLIGHTS)
    assert gc.collect() == 0
    assert corpus.domains
