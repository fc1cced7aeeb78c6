"""External knowledge import gated by consistency.

Root individuals are looked up in a knowledge base; candidate entities are
translated to ABox axioms through a vocabulary mapping and accepted only
when the new axioms keep every observation of the domain consistent with
the TBox and its integrity constraints.  Candidates are tried in adapter
order and the first consistent one wins, so a well-known but wrong homonym
(a song titled like an airport, say) is rejected by the constraints while
the right entity further down the list is kept.

Two adapters ship here: a tab-separated local file and an HTTP endpoint
speaking the same tabular shape.  Anything with ``lookup``/``describe``
works.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from .domain import LearningDomain
from .errors import DataError
from .ontology import ABoxAxiom, Atomic, ClassAssertion, Gci, NAME_CHARS, NAME_RE, RoleAssertion
from .reasoner import is_consistent


def normalize_label(text: str) -> str:
    return text.strip().replace("_", " ").replace("-", " ").casefold()


_BAD_CHARS = re.compile(f"[^{NAME_CHARS}]+")


def sanitize_name(text: str) -> str | None:
    """Coerce KB text into a legal ontology name, or None if nothing is left."""
    if NAME_RE.fullmatch(text):
        return text
    cleaned = _BAD_CHARS.sub("_", text.strip()).strip("_")
    return cleaned or None


@dataclass(frozen=True)
class KbEntity:
    entity_id: str
    labels: tuple[str, ...]
    types: tuple[str, ...]
    props: tuple[tuple[str, str], ...]


class KbAdapter(Protocol):
    def lookup(self, term: str) -> list[str]: ...

    def describe(self, entity_id: str) -> KbEntity: ...


class FileKbAdapter:
    """Knowledge base in one tab-separated file.

    Each line: entity id, ``|``-separated labels, ``|``-separated types,
    ``;``-separated ``key=value`` properties.  ``#`` starts a comment.
    File order is candidate order.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entities: list[KbEntity] = []
        self._by_id: dict[str, KbEntity] = {}
        for lineno, raw in enumerate(
            self.path.read_text().splitlines(), start=1
        ):
            # strip spaces only: a trailing tab is an empty (legal) props field
            line = raw.split("#", 1)[0].rstrip(" \r")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(
                    f"{self.path}:{lineno}: expected 4 tab-separated fields "
                    f"(id, labels, types, props), got {len(parts)}"
                )
            eid, labels, types, props = (p.strip() for p in parts)
            if not eid:
                raise DataError(f"{self.path}:{lineno}: empty entity id")
            if eid in self._by_id:
                raise DataError(f"{self.path}:{lineno}: duplicate entity id {eid!r}")
            pairs = []
            for item in filter(None, (s.strip() for s in props.split(";"))):
                if "=" not in item:
                    raise DataError(
                        f"{self.path}:{lineno}: property {item!r} is not key=value"
                    )
                k, v = item.split("=", 1)
                pairs.append((k.strip(), v.strip()))
            entity = KbEntity(
                entity_id=eid,
                labels=tuple(filter(None, (s.strip() for s in labels.split("|")))),
                types=tuple(filter(None, (s.strip() for s in types.split("|")))),
                props=tuple(pairs),
            )
            self._entities.append(entity)
            self._by_id[eid] = entity

    def lookup(self, term: str) -> list[str]:
        wanted = normalize_label(term)
        return [
            e.entity_id
            for e in self._entities
            if any(normalize_label(lb) == wanted for lb in e.labels)
        ]

    def describe(self, entity_id: str) -> KbEntity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise DataError(f"unknown entity id {entity_id!r} in {self.path}") from None


class HttpKbAdapter:
    """Knowledge base behind two GET endpoints returning TSV.

    ``lookup_url`` and ``describe_url`` are templates with ``{term}`` and
    ``{entity}`` placeholders (values are URL-quoted).  The lookup response
    is a TSV with header ``entity<TAB>label``; rows whose label matches the
    term are kept in response order.  The describe response has header
    ``field<TAB>value`` with repeatable fields ``label``, ``type`` and
    anything else as a property name.
    """

    def __init__(self, lookup_url: str, describe_url: str, timeout: float = 10.0):
        self.lookup_url = lookup_url
        self.describe_url = describe_url
        self.timeout = timeout

    def _get(self, url: str) -> list[list[str]]:
        import requests

        try:
            resp = requests.get(url, timeout=self.timeout)
        except requests.RequestException as exc:
            raise DataError(f"knowledge-base request failed: {exc}") from None
        if resp.status_code != 200:
            raise DataError(
                f"knowledge-base request returned {resp.status_code} for {url}"
            )
        return [line.split("\t") for line in resp.text.splitlines() if line.strip()]

    def lookup(self, term: str) -> list[str]:
        from urllib.parse import quote

        rows = self._get(self.lookup_url.format(term=quote(term, safe="")))
        if not rows or [c.strip() for c in rows[0]] != ["entity", "label"]:
            raise DataError("lookup response must start with header entity<TAB>label")
        wanted = normalize_label(term)
        out, seen = [], set()
        for row in rows[1:]:
            if len(row) != 2:
                raise DataError(f"malformed lookup row: {row!r}")
            eid, label = row[0].strip(), row[1]
            if normalize_label(label) == wanted and eid not in seen:
                seen.add(eid)
                out.append(eid)
        return out

    def describe(self, entity_id: str) -> KbEntity:
        from urllib.parse import quote

        rows = self._get(self.describe_url.format(entity=quote(entity_id, safe="")))
        if not rows or [c.strip() for c in rows[0]] != ["field", "value"]:
            raise DataError("describe response must start with header field<TAB>value")
        labels, types, props = [], [], []
        for row in rows[1:]:
            if len(row) != 2:
                raise DataError(f"malformed describe row: {row!r}")
            fld, val = row[0].strip(), row[1].strip()
            if fld == "label":
                labels.append(val)
            elif fld == "type":
                types.append(val)
            else:
                props.append((fld, val))
        return KbEntity(entity_id, tuple(labels), tuple(types), tuple(props))


@dataclass(frozen=True)
class VocabularyMapping:
    """Translation of KB types and property keys into ontology names."""

    types: dict[str, str]
    props: dict[str, str]
    drop_unmapped: bool = True

    @staticmethod
    def parse(text: str, origin: str = "<mapping>") -> "VocabularyMapping":
        types: dict[str, str] = {}
        props: dict[str, str] = {}
        drop = True
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line and line.split("=", 1)[0].strip() == "drop-unmapped":
                value = line.split("=", 1)[1].strip().lower()
                if value not in ("true", "false"):
                    raise DataError(
                        f"{origin}:{lineno}: drop-unmapped must be true or false"
                    )
                drop = value == "true"
                continue
            m = re.match(r"\A(type|prop)\s+(\S+)\s*->\s*(\S+)\Z", line)
            if not m:
                raise DataError(
                    f"{origin}:{lineno}: expected 'type X -> Y', 'prop X -> Z' "
                    f"or 'drop-unmapped = ...', got {line!r}"
                )
            kind, src, dst = m.groups()
            if not NAME_RE.fullmatch(dst):
                raise DataError(f"{origin}:{lineno}: {dst!r} is not a legal name")
            table = types if kind == "type" else props
            if src in table:
                raise DataError(f"{origin}:{lineno}: duplicate mapping for {src!r}")
            table[src] = dst
        return VocabularyMapping(types=types, props=props, drop_unmapped=drop)

    @staticmethod
    def load(path: str | Path) -> "VocabularyMapping":
        path = Path(path)
        return VocabularyMapping.parse(path.read_text(), origin=str(path))


def extract_axioms(
    individual: str, entity: KbEntity, mapping: VocabularyMapping
) -> frozenset[ABoxAxiom]:
    """ABox axioms an entity contributes about one individual.

    Unmapped types and properties are dropped or passed through sanitized,
    per the mapping's drop-unmapped switch.  Property values that cannot be
    coerced to a legal name are skipped.
    """
    out: set[ABoxAxiom] = set()
    for t in entity.types:
        name = mapping.types.get(t)
        if name is None:
            if mapping.drop_unmapped:
                continue
            name = sanitize_name(t)
            if name is None:
                continue
        out.add(ClassAssertion(Atomic(name), individual))
    for key, value in entity.props:
        role = mapping.props.get(key)
        if role is None:
            if mapping.drop_unmapped:
                continue
            role = sanitize_name(key)
            if role is None:
                continue
        obj = sanitize_name(value)
        if obj is None:
            continue
        out.add(RoleAssertion(role, individual, obj))
    return frozenset(out)


@dataclass(frozen=True)
class AuditRecord:
    domain_id: str
    individual: str
    entity_id: str | None
    status: str  # accepted | rejected | no-match
    witness: str | None = None

    def to_line(self) -> str:
        return "\t".join(
            [
                self.domain_id,
                self.individual,
                self.entity_id or "-",
                self.status,
                self.witness or "-",
            ]
        )


def _keeps_consistent(
    domain: LearningDomain,
    extra: frozenset[ABoxAxiom],
    constraints: frozenset[Gci],
) -> str | None:
    """None when every LSO stays consistent, else the first witness's name."""
    for lso in domain.lsos:
        if not is_consistent(domain.tbox, lso.abox | extra, constraints):
            return lso.name
    return None


def import_external(
    domain: LearningDomain,
    roots,
    adapter: KbAdapter,
    mapping: VocabularyMapping,
    constraints: frozenset[Gci] = frozenset(),
) -> tuple[frozenset[ABoxAxiom], list[AuditRecord]]:
    """Import external axioms for a domain's root individuals.

    Individuals are processed in sorted order; for each, candidate entities
    are tried in adapter order and the first whose axioms keep every LSO
    consistent (together with axioms already accepted) is taken.  Returns
    the accepted axioms and a full audit trail of accept/reject/no-match
    decisions.

    The returned axioms are not attached to the domain; callers decide via
    ``domain.set_external_axioms``.
    """
    accepted: set[ABoxAxiom] = set()
    audit: list[AuditRecord] = []
    for individual in sorted(set(roots)):
        candidates = adapter.lookup(individual)
        if not candidates:
            audit.append(AuditRecord(domain.id, individual, None, "no-match"))
            continue
        for entity_id in candidates:
            axioms = extract_axioms(individual, adapter.describe(entity_id), mapping)
            witness = _keeps_consistent(domain, frozenset(accepted | axioms), constraints)
            if witness is None:
                accepted |= axioms
                audit.append(AuditRecord(domain.id, individual, entity_id, "accepted"))
                break
            audit.append(
                AuditRecord(domain.id, individual, entity_id, "rejected", witness)
            )
    return frozenset(accepted), audit
