"""Corpus directory loading.

Layout::

    <root>/
      tbox.ont              shared TBox (required)
      constraints.ont       Bottom-headed axioms for import checks (optional)
      kb.txt                file-backed knowledge-base snapshot (optional)
      kb_map.txt            vocabulary mapping for imports (optional)
      domains/<id>/
        manifest.txt        "key = value" lines: id, target
        lsos/<name>.ont     one LSO per file

LSO files hold ``@ann key value`` annotation lines followed by ABox axioms;
parse errors cite lines of the file, annotation lines included.

``load_corpus`` pauses the cycle collector while it reads: a load allocates
many objects (about 10^5 for ``mini_flights``) and none in reference cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .domain import LearningDomain, Lso, collector_paused
from .errors import DataError
from .ontology import (
    Gci,
    NormalizedTBox,
    Ontology,
    OntologyError,
    TBoxAxiom,
    normalize_tbox,
    parse_ontology,
)
from .reasoner import Entailment


@dataclass
class Corpus:
    root: Path
    tbox: NormalizedTBox
    constraints: frozenset[TBoxAxiom]
    domains: list[LearningDomain]

    @property
    def kb_path(self) -> Path | None:
        p = self.root / "kb.txt"
        return p if p.exists() else None

    @property
    def kb_map_path(self) -> Path | None:
        p = self.root / "kb_map.txt"
        return p if p.exists() else None

    def domain(self, domain_id: str) -> LearningDomain:
        for d in self.domains:
            if d.id == domain_id:
                return d
        raise DataError(f"no domain {domain_id!r} in corpus {self.root}")


def _read_manifest(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse(path: Path, text: str) -> Ontology:
    try:
        return parse_ontology(text)
    except OntologyError as err:
        raise DataError(f"{path}: {err}") from err


def _parse_lso_file(path: Path) -> Lso:
    ann: set[tuple[str, str]] = set()
    lines = path.read_text().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        if "@" not in raw:
            continue
        parts = raw.split()
        if not parts[0].startswith("@"):
            continue
        if parts[0] != "@ann":
            raise DataError(f"{path}:{lineno}: unknown directive {parts[0]!r}")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected '@ann key value'")
        if parts[1] == "dat":
            try:
                date.fromisoformat(parts[2])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: dat {parts[2]!r} is not an ISO date"
                ) from None
        ann.add((parts[1], parts[2]))
        lines[lineno - 1] = ""  # blanked, not dropped, so parse errors cite file lines
    ont = _parse(path, "\n".join(lines))
    if ont.tbox:
        raise DataError(f"{path}: TBox axioms are not allowed in LSO files")
    return Lso(name=path.stem, annotations=frozenset(ann), abox=ont.abox)


def load_corpus(root: str | Path) -> Corpus:
    with collector_paused():
        return _load(Path(root))


def _load(root: Path) -> Corpus:
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    tbox_file = root / "tbox.ont"
    if not tbox_file.exists():
        raise DataError(f"{root} has no tbox.ont")
    tbox_ont = _parse(tbox_file, tbox_file.read_text())
    if tbox_ont.abox:
        raise DataError(f"{tbox_file}: ABox axioms do not belong in the shared TBox")

    constraints: frozenset[TBoxAxiom] = frozenset()
    cfile = root / "constraints.ont"
    if cfile.exists():
        cont = _parse(cfile, cfile.read_text())
        if cont.abox:
            raise DataError(f"{cfile}: constraints must be TBox axioms")
        for ax in cont.tbox:
            if not isinstance(ax, Gci) or str(ax.rhs) != "Bottom":
                raise DataError(
                    f"{cfile}: constraint axioms must be Bottom-headed inclusions, got {ax}"
                )
        constraints = cont.tbox

    ntbox = normalize_tbox(tbox_ont.tbox)

    domains_dir = root / "domains"
    if not domains_dir.is_dir():
        raise DataError(f"{root} has no domains/ directory")
    domains: list[LearningDomain] = []
    for dom_dir in sorted(p for p in domains_dir.iterdir() if p.is_dir()):
        manifest_file = dom_dir / "manifest.txt"
        if not manifest_file.exists():
            raise DataError(f"{dom_dir} has no manifest.txt")
        manifest = _read_manifest(manifest_file)
        unknown = set(manifest) - {"id", "target", "notes"}
        if unknown:
            raise DataError(f"{manifest_file}: unknown keys {sorted(unknown)}")
        for required in ("id", "target"):
            if required not in manifest:
                raise DataError(f"{manifest_file}: missing {required!r}")
        if manifest["id"] != dom_dir.name:
            raise DataError(
                f"{manifest_file}: id {manifest['id']!r} does not match "
                f"directory name {dom_dir.name!r}"
            )
        try:
            target = Entailment.parse(manifest["target"])
        except ValueError as err:
            raise DataError(f"{manifest_file}: bad target: {err}") from err
        lso_dir = dom_dir / "lsos"
        if not lso_dir.is_dir():
            raise DataError(f"{dom_dir} has no lsos/ directory")
        lso_files = sorted(lso_dir.glob("*.ont"))
        if not lso_files:
            raise DataError(f"{lso_dir} holds no .ont files")
        lsos = tuple(_parse_lso_file(f) for f in lso_files)
        domains.append(
            LearningDomain(id=manifest["id"], tbox=ntbox, lsos=lsos, target=target)
        )
    if not domains:
        raise DataError(f"{domains_dir} holds no domains")
    return Corpus(
        root=root,
        tbox=ntbox,
        constraints=constraints,
        domains=domains,
    )
