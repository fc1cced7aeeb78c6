"""The golden outdir: the knowledge stages and ``report --auc-csv`` on
mini_flights at default config reproduce ``tests/golden/mini_flights/``
byte for byte.  ``tools/regen_golden.py`` runs the same stages; ``fti/``
stays out, since its bits depend on the BLAS build."""

from __future__ import annotations

import importlib.util
import shutil

from conftest import MINI_FLIGHTS, REPO_ROOT, TESTS_DIR
from transferlens.cli import main

GOLDEN = TESTS_DIR / "golden" / "mini_flights"

_spec = importlib.util.spec_from_file_location(
    "regen_golden", REPO_ROOT / "tools" / "regen_golden.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _tree(root) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_golden_outdir_is_reproduced(tmp_path):
    regen.run_stages(MINI_FLIGHTS, GOLDEN / "auc.csv", tmp_path)
    want = _tree(GOLDEN)
    assert want.pop("auc.csv")
    got = _tree(tmp_path)
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        assert got[name] == data, name


def test_relabeled_domains_give_the_same_evidence_tables(tmp_path):
    # reversing the domain names reverses their sorted order (A1<->B4,
    # A2<->B3, ...) and so the order of the pairs; the evidence tables name
    # no domain, so not one byte of them may move
    ids = sorted(p.name for p in (MINI_FLIGHTS / "domains").iterdir())
    rename = dict(zip(ids, reversed(ids)))
    corpus = tmp_path / "corpus"
    shutil.copytree(MINI_FLIGHTS, corpus, ignore=shutil.ignore_patterns("domains"))
    for old, new in rename.items():
        shutil.copytree(MINI_FLIGHTS / "domains" / old, corpus / "domains" / new)
        manifest = corpus / "domains" / new / "manifest.txt"
        text = manifest.read_text()
        assert text.count(f"id = {old}\n") == 1
        manifest.write_text(text.replace(f"id = {old}\n", f"id = {new}\n"))
    header, *rows = (GOLDEN / "auc.csv").read_text().splitlines()
    lines = [header]
    for row in rows:
        src, dst, rest = row.split(",", 2)
        lines.append(f"{rename[src]},{rename[dst]},{rest}")
    auc = tmp_path / "auc.csv"
    auc.write_text("\n".join(lines) + "\n")

    # the golden report ran after import-external, so its axioms come along
    out = tmp_path / "out"
    (out / "external").mkdir(parents=True)
    for old, new in rename.items():
        shutil.copy(GOLDEN / "out" / "external" / f"{old}.axioms", out / "external" / f"{new}.axioms")
    assert main(["report", "--corpus", str(corpus), "--outdir", str(out), "--auc-csv", str(auc)]) == 0
    got, want = _tree(out / "evidence"), _tree(GOLDEN / "out" / "evidence")
    assert sorted(got) == sorted(want) == ["contexts.tsv", "general.tsv", "narrators.tsv"]
    for name, data in want.items():
        assert got[name] == data, name
