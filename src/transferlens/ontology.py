"""Ontology documents: concept expressions, axioms, parsing, normalization.

The dialect is a small existential description logic: atomic concepts, Top,
Bottom, conjunction, existential restriction, and nominals, with role
inclusions, role chains, and ABox assertions (class, role, equality,
inequality).  Documents are plain text, one axiom per line, ``#`` comments.

``normalize_tbox`` rewrites arbitrary general class inclusions into the flat
rule forms the reasoner consumes, introducing fresh concept names where
needed.  Fresh names start with ``_N`` and are tracked so downstream layers
can keep them out of anything user-facing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

NAME_RE = re.compile(r"[A-Za-z0-9_./:\-]+")

KEYWORDS = {
    "Top", "Bottom", "And", "Some", "Nom",
    "SubClassOf", "SubRole", "RoleChain",
    "ClassAssert", "RoleAssert", "SameInd", "DiffInd",
}


class OntologyError(Exception):
    """Base class for ontology-layer failures."""


class ParseError(OntologyError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SignatureError(OntologyError):
    """A name is used as more than one of concept/role/individual."""


# ---------------------------------------------------------------------------
# concept expressions


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "Top"


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return "Bottom"


@dataclass(frozen=True)
class Atomic:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Nominal:
    individual: str

    def __str__(self) -> str:
        return f"Nom({self.individual})"


@dataclass(frozen=True)
class Existential:
    role: str
    filler: "ConceptExpr"

    def __str__(self) -> str:
        return f"Some({self.role} {self.filler})"


@dataclass(frozen=True)
class Conjunction:
    parts: tuple["ConceptExpr", ...]

    def __str__(self) -> str:
        return "And(" + " ".join(str(p) for p in self.parts) + ")"


ConceptExpr = Top | Bottom | Atomic | Nominal | Existential | Conjunction

TOP = Top()
BOTTOM = Bottom()


def conjunction(parts) -> ConceptExpr:
    """Canonical conjunction: flatten, drop Top, dedupe, sort; absorb Bottom."""
    flat: list[ConceptExpr] = []
    for p in parts:
        if isinstance(p, Conjunction):
            flat.extend(p.parts)
        elif isinstance(p, Top):
            continue
        else:
            flat.append(p)
    if any(isinstance(p, Bottom) for p in flat):
        return BOTTOM
    uniq = sorted(set(flat), key=str)
    if not uniq:
        return TOP
    if len(uniq) == 1:
        return uniq[0]
    return Conjunction(tuple(uniq))


def is_basic(c: ConceptExpr) -> bool:
    """Basic concepts are the ones allowed in normalized rule positions."""
    return isinstance(c, (Top, Bottom, Atomic, Nominal))


# ---------------------------------------------------------------------------
# axioms


@dataclass(frozen=True)
class Gci:
    lhs: ConceptExpr
    rhs: ConceptExpr

    def __str__(self) -> str:
        return f"SubClassOf({self.lhs} {self.rhs})"


@dataclass(frozen=True)
class SubRole:
    sub: str
    sup: str

    def __str__(self) -> str:
        return f"SubRole({self.sub} {self.sup})"


@dataclass(frozen=True)
class RoleChain:
    first: str
    second: str
    sup: str

    def __str__(self) -> str:
        return f"RoleChain({self.first} {self.second} {self.sup})"


TBoxAxiom = Gci | SubRole | RoleChain


@dataclass(frozen=True)
class ClassAssertion:
    concept: ConceptExpr
    individual: str

    def __str__(self) -> str:
        return f"ClassAssert({self.concept} {self.individual})"


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    object: str

    def __str__(self) -> str:
        return f"RoleAssert({self.role} {self.subject} {self.object})"


@dataclass(frozen=True)
class Equality:
    a: str
    b: str

    def __str__(self) -> str:
        return f"SameInd({self.a} {self.b})"


@dataclass(frozen=True)
class Inequality:
    a: str
    b: str

    def __post_init__(self):
        if self.a == self.b:
            raise OntologyError(f"DiffInd({self.a} {self.b}) is self-contradictory")

    def __str__(self) -> str:
        return f"DiffInd({self.a} {self.b})"


ABoxAxiom = ClassAssertion | RoleAssertion | Equality | Inequality
Axiom = TBoxAxiom | ABoxAxiom


@dataclass(frozen=True)
class Signature:
    concepts: frozenset[str]
    roles: frozenset[str]
    individuals: frozenset[str]

    @property
    def names(self) -> frozenset[str]:
        return self.concepts | self.roles | self.individuals


@dataclass(frozen=True)
class Ontology:
    tbox: frozenset[TBoxAxiom]
    abox: frozenset[ABoxAxiom]
    signature: Signature


# ---------------------------------------------------------------------------
# parsing

# a name or a parenthesis, whitespace, or any other (unexpected) character
_TOKEN_RE = re.compile(r"([A-Za-z0-9_./:\-]+|[()])|\s+|(.)", re.DOTALL)


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            for m in _TOKEN_RE.finditer(raw.split("#", 1)[0]):
                tok, bad = m.groups()
                if bad is not None:
                    raise ParseError(f"unexpected character {bad!r}", lineno, m.start() + 1)
                if tok is not None:
                    self.tokens.append((tok, lineno, m.start() + 1))
        self.i = 0

    def peek(self) -> tuple[str, int, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, what: str) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise ParseError(f"expected {what}, got end of input", last[1], last[2])
        self.i += 1
        return tok

    def expect(self, literal: str) -> None:
        tok, line, col = self.next(repr(literal))
        if tok != literal:
            raise ParseError(f"expected {literal!r}, got {tok!r}", line, col)

    def name(self, what: str) -> tuple[str, int, int]:
        tok, line, col = self.next(what)
        if tok in ("(", ")"):
            raise ParseError(f"expected {what}, got {tok!r}", line, col)
        return tok, line, col

    def concept(self) -> ConceptExpr:
        tok, line, col = self.next("concept expression")
        if tok == "Top":
            return TOP
        if tok == "Bottom":
            return BOTTOM
        if tok == "And":
            self.expect("(")
            parts = [self.concept()]
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("unterminated And(...)", line, col)
                if nxt[0] == ")":
                    self.i += 1
                    break
                parts.append(self.concept())
            if len(parts) < 2:
                raise ParseError("And(...) needs at least two conjuncts", line, col)
            return conjunction(parts)
        if tok == "Some":
            self.expect("(")
            role, _, _ = self.name("role name")
            filler = self.concept()
            self.expect(")")
            return Existential(role, filler)
        if tok == "Nom":
            self.expect("(")
            ind, _, _ = self.name("individual name")
            self.expect(")")
            return Nominal(ind)
        if tok in ("(", ")") or tok in KEYWORDS:
            raise ParseError(f"expected concept expression, got {tok!r}", line, col)
        return Atomic(tok)


def _concept_names(c: ConceptExpr):
    """Yield ``(name, kind)`` for every name in c, depth-first."""
    if isinstance(c, Atomic):
        yield c.name, "concept"
    elif isinstance(c, Nominal):
        yield c.individual, "individual"
    elif isinstance(c, Existential):
        yield c.role, "role"
        yield from _concept_names(c.filler)
    elif isinstance(c, Conjunction):
        for p in c.parts:
            yield from _concept_names(p)


class _SignatureBuilder:
    """Tracks each name's kind and the place it was first used that way."""

    def __init__(self):
        self.kinds: dict[str, tuple[str, int, int]] = {}

    def use(self, name: str, kind: str, line: int, col: int) -> None:
        seen = self.kinds.get(name)
        if seen is None:
            self.kinds[name] = (kind, line, col)
        elif seen[0] != kind:
            raise SignatureError(
                f"name {name!r} used as {kind} at line {line} "
                f"but as {seen[0]} at line {seen[1]}"
            )

    def walk_concept(self, c: ConceptExpr, line: int, col: int) -> None:
        for name, kind in _concept_names(c):
            self.use(name, kind, line, col)

    def signature(self) -> Signature:
        buckets: dict[str, set[str]] = {"concept": set(), "role": set(), "individual": set()}
        for name, (kind, _, _) in self.kinds.items():
            buckets[kind].add(name)
        return Signature(
            concepts=frozenset(buckets["concept"]),
            roles=frozenset(buckets["role"]),
            individuals=frozenset(buckets["individual"]),
        )


def parse_ontology(text: str) -> Ontology:
    """Parse an ontology document into axioms plus an inferred signature.

    Raises ParseError with line/column on malformed input, SignatureError if
    a name is used as more than one of concept/role/individual, and
    OntologyError for DiffInd of an individual with itself.
    """
    p = _Parser(text)
    sig = _SignatureBuilder()
    tbox: set[TBoxAxiom] = set()
    abox: set[ABoxAxiom] = set()

    while p.peek() is not None:
        head, line, col = p.next("axiom")
        if head == "SubClassOf":
            p.expect("(")
            lhs = p.concept()
            rhs = p.concept()
            p.expect(")")
            sig.walk_concept(lhs, line, col)
            sig.walk_concept(rhs, line, col)
            tbox.add(Gci(lhs, rhs))
        elif head == "SubRole":
            p.expect("(")
            sub, l2, c2 = p.name("role name")
            sup, l3, c3 = p.name("role name")
            p.expect(")")
            sig.use(sub, "role", l2, c2)
            sig.use(sup, "role", l3, c3)
            tbox.add(SubRole(sub, sup))
        elif head == "RoleChain":
            p.expect("(")
            r1, l1, c1 = p.name("role name")
            r2, l2, c2 = p.name("role name")
            s, l3, c3 = p.name("role name")
            p.expect(")")
            sig.use(r1, "role", l1, c1)
            sig.use(r2, "role", l2, c2)
            sig.use(s, "role", l3, c3)
            tbox.add(RoleChain(r1, r2, s))
        elif head == "ClassAssert":
            p.expect("(")
            c = p.concept()
            ind, l2, c2 = p.name("individual name")
            p.expect(")")
            sig.walk_concept(c, line, col)
            sig.use(ind, "individual", l2, c2)
            abox.add(ClassAssertion(c, ind))
        elif head == "RoleAssert":
            p.expect("(")
            role, l1, c1 = p.name("role name")
            a, l2, c2 = p.name("individual name")
            b, l3, c3 = p.name("individual name")
            p.expect(")")
            sig.use(role, "role", l1, c1)
            sig.use(a, "individual", l2, c2)
            sig.use(b, "individual", l3, c3)
            abox.add(RoleAssertion(role, a, b))
        elif head in ("SameInd", "DiffInd"):
            p.expect("(")
            a, l2, c2 = p.name("individual name")
            b, l3, c3 = p.name("individual name")
            p.expect(")")
            sig.use(a, "individual", l2, c2)
            sig.use(b, "individual", l3, c3)
            if head == "SameInd":
                abox.add(Equality(a, b))
            else:
                if a == b:
                    raise ParseError(f"DiffInd({a} {b}) is self-contradictory", line, col)
                abox.add(Inequality(a, b))
        else:
            raise ParseError(f"expected axiom keyword, got {head!r}", line, col)

    return Ontology(tbox=frozenset(tbox), abox=frozenset(abox), signature=sig.signature())


def parse_tbox(text: str) -> frozenset[TBoxAxiom]:
    ont = parse_ontology(text)
    if ont.abox:
        stray = sorted(str(a) for a in ont.abox)[0]
        raise OntologyError(f"expected TBox-only document, found {stray}")
    return ont.tbox


def parse_abox(text: str) -> frozenset[ABoxAxiom]:
    ont = parse_ontology(text)
    if ont.tbox:
        stray = sorted(str(a) for a in ont.tbox)[0]
        raise OntologyError(f"expected ABox-only document, found {stray}")
    return ont.abox


def axioms_to_text(axioms) -> str:
    """Serialize axioms, sorted, one per line; round-trips through the parser."""
    return "\n".join(sorted(str(a) for a in axioms)) + "\n"


# ---------------------------------------------------------------------------
# normalization

# Normal forms, with A, B basic (Top/Bottom/atomic/nominal):
#   RSub       A ⊑ B
#   RConj      A1 ⊓ A2 ⊑ B
#   RExistLhs  ∃r.A ⊑ B
#   RExistRhs  A ⊑ ∃r.B
# plus role axioms carried through unchanged.


@dataclass(frozen=True)
class RSub:
    lhs: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class RConj:
    lhs1: ConceptExpr
    lhs2: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class RExistLhs:
    role: str
    filler: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class RExistRhs:
    lhs: ConceptExpr
    role: str
    filler: ConceptExpr


NormalRule = RSub | RConj | RExistLhs | RExistRhs


@dataclass(eq=False)
class NormalizedTBox:
    """Flat rule view of a TBox.

    ``fresh`` lists the introduced concept names; they are implementation
    detail and are filtered out of every externally visible atom set.
    ``source`` keeps the original axioms so the rule set can be extended
    (for example with constraint axioms) without re-parsing.
    """

    rules: tuple[NormalRule, ...]
    role_subs: tuple[SubRole, ...]
    role_chains: tuple[RoleChain, ...]
    fresh: frozenset[str]
    source: frozenset[TBoxAxiom]
    next_fresh: int = 0
    _compiled: object = field(default=None, repr=False, compare=False)

    def extended(self, extra: frozenset[TBoxAxiom] | set[TBoxAxiom]) -> "NormalizedTBox":
        """Normalized union of this TBox and ``extra`` axioms."""
        return normalize_tbox(
            self.source | frozenset(extra),
            reserved=self.fresh,
            start_index=self.next_fresh,
        )


class _FreshNames:
    def __init__(self, reserved: set[str], start: int):
        self.reserved = reserved
        self.counter = start
        self.created: list[str] = []

    def new(self) -> Atomic:
        while True:
            name = f"_N{self.counter}"
            self.counter += 1
            if name not in self.reserved:
                self.reserved.add(name)
                self.created.append(name)
                return Atomic(name)


def _signature_names(axioms) -> set[str]:
    names: set[str] = set()
    for ax in axioms:
        if isinstance(ax, Gci):
            names.update(name for c in (ax.lhs, ax.rhs) for name, _ in _concept_names(c))
        elif isinstance(ax, SubRole):
            names.update((ax.sub, ax.sup))
        elif isinstance(ax, RoleChain):
            names.update((ax.first, ax.second, ax.sup))
    return names


def normalize_tbox(
    axioms,
    reserved: frozenset[str] | set[str] = frozenset(),
    start_index: int = 0,
) -> NormalizedTBox:
    """Rewrite general axioms into normal forms, introducing fresh names.

    The rewriting is the usual structural transformation: split conjunctions
    on the right, name complex fillers and complex conjuncts, binarize wide
    conjunctions.  It is conservative over the input signature: the original
    and normalized TBoxes entail the same atoms over original names.
    """
    axioms = frozenset(axioms)
    fresh = _FreshNames(_signature_names(axioms) | set(reserved), start_index)
    rules: list[NormalRule] = []
    role_subs: list[SubRole] = []
    role_chains: list[RoleChain] = []

    def norm(lhs: ConceptExpr, rhs: ConceptExpr) -> None:
        # right side first
        if isinstance(rhs, Conjunction):
            for part in rhs.parts:
                norm(lhs, part)
            return
        if isinstance(rhs, Existential) and not is_basic(rhs.filler):
            x = fresh.new()
            norm(lhs, Existential(rhs.role, x))
            norm(x, rhs.filler)
            return
        if isinstance(rhs, Existential) and not is_basic(lhs):
            x = fresh.new()
            norm(lhs, x)
            rules.append(RExistRhs(x, rhs.role, rhs.filler))
            return
        # vacuous forms
        if isinstance(rhs, Top) or isinstance(lhs, Bottom):
            return
        # left side
        if isinstance(lhs, Conjunction):
            parts = list(lhs.parts)
            for i, part in enumerate(parts):
                if isinstance(part, Existential):
                    x = fresh.new()
                    norm(part, x)
                    parts[i] = x
                    norm(conjunction(parts), rhs)
                    return
            if len(parts) == 2:
                rules.append(RConj(parts[0], parts[1], rhs))
                return
            x = fresh.new()
            rules.append(RConj(parts[0], parts[1], x))
            norm(conjunction([x] + parts[2:]), rhs)
            return
        if isinstance(lhs, Existential):
            if is_basic(lhs.filler):
                rules.append(RExistLhs(lhs.role, lhs.filler, rhs))
            else:
                x = fresh.new()
                norm(lhs.filler, x)
                rules.append(RExistLhs(lhs.role, x, rhs))
            return
        # lhs basic
        if isinstance(rhs, Existential):
            rules.append(RExistRhs(lhs, rhs.role, rhs.filler))
        else:
            rules.append(RSub(lhs, rhs))

    # a fixed order, so fresh names and rule order do not follow the hash seed
    for ax in sorted(axioms, key=str):
        if isinstance(ax, Gci):
            norm(ax.lhs, ax.rhs)
        elif isinstance(ax, SubRole):
            role_subs.append(ax)
        elif isinstance(ax, RoleChain):
            role_chains.append(ax)
        else:
            raise OntologyError(f"not a TBox axiom: {ax}")

    return NormalizedTBox(
        rules=tuple(dict.fromkeys(rules)),
        role_subs=tuple(sorted(set(role_subs), key=str)),
        role_chains=tuple(sorted(set(role_chains), key=str)),
        fresh=frozenset(fresh.created),
        source=axioms,
        next_fresh=fresh.counter,
    )
