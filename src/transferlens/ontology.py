"""Ontology documents: concept expressions, axioms, parsing, normalization.

The dialect is a small existential description logic: atomic concepts, Top,
Bottom, conjunction, existential restriction, and nominals, with role
inclusions, role chains, and ABox assertions (class, role, equality,
inequality).  Documents are plain text, one axiom per line, ``#`` comments.

``parse_ontology`` has two paths.  A document whose every line is blank, a
comment, or one plain assertion (``ClassAssert`` of a concept name,
``RoleAssert``, ``SameInd``, ``DiffInd``) is read by one regular-expression
match per line, built from the tokenizer's own name, whitespace and comment
rules.  Anything else, and every document the plain path cannot accept as
it stands (a keyword in concept position, a name used as two kinds,
``DiffInd(a a)``), goes to the token parser, which therefore owns every
error message; both paths give equal ``Ontology`` values.

``normalize_tbox`` rewrites arbitrary general class inclusions into the flat
rule forms the reasoner consumes, introducing fresh concept names where
needed.  Every name a document can spell matches ``NAME_RE``; fresh names are
written ``(n<k>)``, outside that grammar, so they can never collide with a
user's name and downstream layers drop them by their leading ``(``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# the characters of a concept, role or individual name
NAME_CHARS = r"A-Za-z0-9_./:\-"
NAME_RE = re.compile(f"[{NAME_CHARS}]+")


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


@dataclass(frozen=True)
class Signature:
    concepts: frozenset[str]
    roles: frozenset[str]
    individuals: frozenset[str]


@dataclass(frozen=True)
class Ontology:
    tbox: frozenset[TBoxAxiom]
    abox: frozenset[ABoxAxiom]
    signature: Signature


# ---------------------------------------------------------------------------
# parsing

# each axiom keyword: the kinds of its arguments, in order, and the axiom
# they build; a concept argument is any concept expression
_AXIOMS = {
    "SubClassOf": (("concept", "concept"), Gci),
    "SubRole": (("role", "role"), SubRole),
    "RoleChain": (("role", "role", "role"), RoleChain),
    "ClassAssert": (("concept", "individual"), ClassAssertion),
    "RoleAssert": (("role", "individual", "individual"), RoleAssertion),
    "SameInd": (("individual", "individual"), Equality),
    "DiffInd": (("individual", "individual"), Inequality),
}

KEYWORDS = {"Top", "Bottom", "And", "Some", "Nom", *_AXIOMS}

# whitespace between tokens, and the start of a comment that runs to the end
# of its line; the token parser and the plain-line grammar share both
_SPACE = r"\s"
_COMMENT = "#"

# a name or a parenthesis, whitespace, or any other (unexpected) character
_TOKEN_RE = re.compile(rf"({NAME_RE.pattern}|[()])|{_SPACE}+|(.)", re.DOTALL)


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            for m in _TOKEN_RE.finditer(raw.split(_COMMENT, 1)[0]):
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
    ont = _parse_plain(text)
    return ont if ont is not None else _parse_tokens(text)


# one line of a plain document: blank, a comment, or one plain assertion
# with an optional trailing comment; group 1 is the keyword, 2-4 the names
_PLAIN_LINE_RE = re.compile(
    rf"{_SPACE}*(?:(ClassAssert|RoleAssert|SameInd|DiffInd){_SPACE}*\("
    rf"{_SPACE}*({NAME_RE.pattern}){_SPACE}+({NAME_RE.pattern})"
    rf"(?:{_SPACE}+({NAME_RE.pattern}))?{_SPACE}*\){_SPACE}*)?"
    rf"(?:{_COMMENT}.*)?",
    re.DOTALL,
)


def _parse_plain(text: str) -> Ontology | None:
    """The document's Ontology if it holds only plain assertions, else None.

    None also covers every plain-looking document the token parser would
    refuse or read differently, so that ``_parse_tokens`` alone decides it.
    """
    match = _PLAIN_LINE_RE.fullmatch
    concepts: set[str] = set()
    roles: set[str] = set()
    individuals: set[str] = set()
    abox: set[ABoxAxiom] = set()
    for line in text.splitlines():
        m = match(line)
        if m is None:
            return None
        head, x, y, z = m.groups()
        if head is None:
            continue
        if head == "RoleAssert":
            if z is None:
                return None
            roles.add(x)
            individuals.add(y)
            individuals.add(z)
            abox.add(RoleAssertion(x, y, z))
            continue
        if z is not None:
            return None
        if head == "ClassAssert":
            if x in KEYWORDS:
                return None
            concepts.add(x)
            individuals.add(y)
            abox.add(ClassAssertion(Atomic(x), y))
        else:
            individuals.add(x)
            individuals.add(y)
            if head == "SameInd":
                abox.add(Equality(x, y))
            elif x == y:
                return None
            else:
                abox.add(Inequality(x, y))
    if concepts & roles or concepts & individuals or roles & individuals:
        return None
    return Ontology(
        tbox=frozenset(),
        abox=frozenset(abox),
        signature=Signature(frozenset(concepts), frozenset(roles), frozenset(individuals)),
    )


def _parse_tokens(text: str) -> Ontology:
    """The general parser: any document, and every error message."""
    p = _Parser(text)
    sig = _SignatureBuilder()
    tbox: set[TBoxAxiom] = set()
    abox: set[ABoxAxiom] = set()

    while p.peek() is not None:
        head, line, col = p.next("axiom")
        if head not in _AXIOMS:
            raise ParseError(f"expected axiom keyword, got {head!r}", line, col)
        kinds, make = _AXIOMS[head]
        p.expect("(")
        # a concept is registered at its keyword, a name at its own position
        args = [
            (p.concept(), line, col) if kind == "concept" else p.name(f"{kind} name")
            for kind in kinds
        ]
        p.expect(")")
        for kind, (value, at_line, at_col) in zip(kinds, args):
            if kind == "concept":
                sig.walk_concept(value, at_line, at_col)
            else:
                sig.use(value, kind, at_line, at_col)
        values = [value for value, _, _ in args]
        if head == "DiffInd" and values[0] == values[1]:
            raise ParseError(f"DiffInd({values[0]} {values[1]}) is self-contradictory", line, col)
        axiom = make(*values)
        (tbox if isinstance(axiom, TBoxAxiom) else abox).add(axiom)

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

    ``fresh`` lists the introduced concept names; no document can spell
    them, and every externally visible atom set drops them.  ``source``
    keeps the original axioms so the rule set can be extended (for example
    with constraint axioms) without re-parsing.
    """

    rules: tuple[NormalRule, ...]
    role_subs: tuple[SubRole, ...]
    role_chains: tuple[RoleChain, ...]
    fresh: frozenset[str]
    source: frozenset[TBoxAxiom]
    _compiled: object = field(default=None, repr=False, compare=False)
    _extensions: dict = field(default_factory=dict, repr=False, compare=False)

    def extended(self, extra: frozenset[TBoxAxiom] | set[TBoxAxiom]) -> "NormalizedTBox":
        """Normalized union of this TBox and ``extra`` axioms.

        Memoized per distinct ``extra``, so repeated checks against one
        axiom set reuse one compile; no extra axioms give ``self``.
        """
        extra = frozenset(extra)
        if not extra:
            return self
        got = self._extensions.get(extra)
        if got is None:
            got = self._extensions[extra] = normalize_tbox(self.source | extra)
        return got


class _FreshNames:
    """Generated concept names ``(<tag><k>)``.

    The parentheses put them outside ``NAME_RE``, so they cannot collide
    with any name a document uses, and each tag keeps its own counter.
    """

    def __init__(self, tag: str):
        self.tag = tag
        self.created: list[str] = []

    def new(self) -> Atomic:
        name = f"({self.tag}{len(self.created)})"
        self.created.append(name)
        return Atomic(name)


def _norm(
    lhs: ConceptExpr, rhs: ConceptExpr, fresh: _FreshNames, rules: list[NormalRule]
) -> None:
    """Append the normal forms of ``lhs ⊑ rhs`` to ``rules``."""
    # right side first
    if isinstance(rhs, Conjunction):
        for part in rhs.parts:
            _norm(lhs, part, fresh, rules)
        return
    if isinstance(rhs, Existential) and not is_basic(rhs.filler):
        x = fresh.new()
        _norm(lhs, Existential(rhs.role, x), fresh, rules)
        _norm(x, rhs.filler, fresh, rules)
        return
    if isinstance(rhs, Existential) and not is_basic(lhs):
        x = fresh.new()
        _norm(lhs, x, fresh, rules)
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
                _norm(part, x, fresh, rules)
                parts[i] = x
                _norm(conjunction(parts), rhs, fresh, rules)
                return
        if len(parts) == 2:
            rules.append(RConj(parts[0], parts[1], rhs))
            return
        x = fresh.new()
        rules.append(RConj(parts[0], parts[1], x))
        _norm(conjunction([x] + parts[2:]), rhs, fresh, rules)
        return
    if isinstance(lhs, Existential):
        if is_basic(lhs.filler):
            rules.append(RExistLhs(lhs.role, lhs.filler, rhs))
        else:
            x = fresh.new()
            _norm(lhs.filler, x, fresh, rules)
            rules.append(RExistLhs(lhs.role, x, rhs))
        return
    # lhs basic
    if isinstance(rhs, Existential):
        rules.append(RExistRhs(lhs, rhs.role, rhs.filler))
    else:
        rules.append(RSub(lhs, rhs))


def normalize_tbox(axioms) -> NormalizedTBox:
    """Rewrite general axioms into normal forms, introducing fresh names.

    The rewriting is the usual structural transformation: split conjunctions
    on the right, name complex fillers and complex conjuncts, binarize wide
    conjunctions.  It is conservative over the input signature: the original
    and normalized TBoxes entail the same atoms over original names.  The
    fresh names are ``(n0)``, ``(n1)``, ... in order of introduction.
    """
    axioms = frozenset(axioms)
    fresh = _FreshNames("n")
    rules: list[NormalRule] = []
    role_subs: list[SubRole] = []
    role_chains: list[RoleChain] = []

    # a fixed order, so fresh names and rule order do not follow the hash seed
    for ax in sorted(axioms, key=str):
        if isinstance(ax, Gci):
            _norm(ax.lhs, ax.rhs, fresh, rules)
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
    )
