"""Ground entailment closure for the existential description-logic dialect.

``materialize`` computes every class and role atom over named individuals
that follows from a normalized TBox plus an ABox.  The evaluation is
semi-naive: a worklist carries only newly derived atoms and each atom fires
just the joins it can participate in.  Equalities (asserted or derived
through nominals) merge individuals with a union-find whose canonical
representative is the lexicographically least member; atoms are eagerly
rewritten onto canonical names at every merge.

Class consequences that factor through unnamed role successors are folded in
beforehand at the TBox level: the rule set is classified (subclass,
conjunction, existential and role-composition propagation between concept
names), and the resulting subsumptions join the ground subclass rules.  Role
atoms themselves are only ever derived between named individuals; no
anonymous individuals are introduced.

Every class assertion reaches the worklist as one atom of a concept name:
C(a) is the inclusion {a} ⊑ C, so ``_prepare`` names each composite C into
an extension of the TBox, whose compiled rules give C all its consequences.

Every closure runs to its fixpoint; inconsistency is read once, after the
worklist empties.  It has exactly two sources: Bottom (an ordinary stored
atom) is derived for some individual, or two individuals asserted distinct
end up merged.  The least fixpoint does not depend on derivation order, so
the atoms, merged groups and witness do not depend on ``PYTHONHASHSEED``.  The
derivation order does not either: the ABox and every set a step walks are
read in sorted order, so ``insertions``, which counts the re-adds a merge
makes, is the same in every process.  An
inconsistent closure entails every atom and its atom sets are not meant for
downstream use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ontology import (
    ABoxAxiom,
    Atomic,
    Bottom,
    ClassAssertion,
    ConceptExpr,
    Equality,
    Gci,
    Inequality,
    NAME_RE,
    Nominal,
    NormalizedTBox,
    OntologyError,
    RConj,
    RExistLhs,
    RExistRhs,
    RSub,
    RoleAssertion,
    Top,
    _FreshNames,
    normalize_tbox,
)

_TOP = "(top)"
_BOT = "(bot)"

_NAME = f"({NAME_RE.pattern})"
_ATOM_RE = re.compile(rf"^{_NAME}\({_NAME}(?:,{_NAME})?\)$")


@dataclass(frozen=True, order=True)
class Entailment:
    """A ground atom: ``C(a)`` or ``r(a,b)``."""

    pred: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.pred}({','.join(self.args)})"

    @property
    def is_class_atom(self) -> bool:
        return len(self.args) == 1

    @staticmethod
    def parse(text: str) -> "Entailment":
        m = _ATOM_RE.match(text.strip())
        if not m:
            raise ValueError(f"not an atom: {text!r}")
        pred, a, b = m.groups()
        return Entailment(pred, (a,) if b is None else (a, b))


class UnionFind:
    """Union-find whose canonical element is the lexicographically least."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x: str) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        p = self.parent.get(x)
        if p is None:
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> tuple[str, str] | None:
        """Merge; returns (kept, absorbed) roots, or None if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        kept, absorbed = (ra, rb) if ra < rb else (rb, ra)
        self.parent[absorbed] = kept
        return kept, absorbed

    def groups(self) -> tuple[frozenset[str], ...]:
        """Merged classes of size at least two."""
        buckets: dict[str, set[str]] = {}
        for x in self.parent:
            buckets.setdefault(self.find(x), set()).add(x)
        return tuple(
            frozenset(members)
            for root, members in sorted(buckets.items())
            if len(members) > 1
        )


# ---------------------------------------------------------------------------
# rule compilation and TBox classification


def _basic_key(c: ConceptExpr) -> str:
    if isinstance(c, Top):
        return _TOP
    if isinstance(c, Bottom):
        return _BOT
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, Nominal):
        return "{" + c.individual
    raise OntologyError(f"not a basic concept: {c}")


@dataclass
class _Compiled:
    sub_by_lhs: dict[str, tuple[str, ...]]
    conj_by_part: dict[str, tuple[tuple[str, str], ...]]
    exl_by_role: dict[str, tuple[tuple[str, str], ...]]
    exl_by_filler: dict[str, tuple[tuple[str, str], ...]]
    exr_ground: dict[str, tuple[tuple[str, str], ...]]
    role_sups: dict[str, tuple[str, ...]]
    chain_by_first: dict[str, tuple[tuple[str, str], ...]]
    chain_by_second: dict[str, tuple[tuple[str, str], ...]]
    nominal_inds: frozenset[str]
    concept_keys: frozenset[str]
    roles: frozenset[str]


def _classify(
    subs: list[tuple[str, str]],
    conjs: list[tuple[str, str, str]],
    exls: list[tuple[str, str, str]],
    exrs: list[tuple[str, str, str]],
    role_sups: dict[str, set[str]],
    role_chains,
) -> dict[str, set[str]]:
    """Superclass sets over basic concept keys, saturated until fixpoint.

    Propagation covers subclass and conjunction steps, existential
    introduction/elimination between concept names, Bottom through role
    successors, and role hierarchy/composition, so any subsumption that
    factors through unnamed successors is reduced to a plain pair here.
    """
    keys: set[str] = {_TOP}
    for a, b in subs:
        keys.update((a, b))
    for a1, a2, b in conjs:
        keys.update((a1, a2, b))
    for _, f, b in exls:
        keys.update((f, b))
    for a, _, f in exrs:
        keys.update((a, f))

    sup: dict[str, set[str]] = {k: {k, _TOP} for k in keys}
    edges: dict[str, set[tuple[str, str]]] = {}

    changed = True
    while changed:
        changed = False

        def add_sup(x: str, b: str) -> None:
            nonlocal changed
            if b not in sup[x]:
                sup[x].add(b)
                changed = True

        def add_edge(role: str, x: str, y: str) -> None:
            nonlocal changed
            pairs = edges.setdefault(role, set())
            if (x, y) not in pairs:
                pairs.add((x, y))
                changed = True

        for x in keys:
            sx = sup[x]
            for a, b in subs:
                if a in sx and b not in sx:
                    add_sup(x, b)
            for a1, a2, b in conjs:
                if a1 in sx and a2 in sx and b not in sx:
                    add_sup(x, b)
            for a, role, f in exrs:
                if a in sx:
                    add_edge(role, x, f)
        for role, pairs in list(edges.items()):
            for sup_role in role_sups.get(role, ()):
                for x, y in list(pairs):
                    add_edge(sup_role, x, y)
            for r2, f, b in exls:
                if r2 != role:
                    continue
                for x, y in list(pairs):
                    if f == _TOP or f in sup[y]:
                        if b not in sup[x]:
                            add_sup(x, b)
            for x, y in list(pairs):
                if _BOT in sup[y] and _BOT not in sup[x]:
                    add_sup(x, _BOT)
        for ch in role_chains:
            first = edges.get(ch.first, ())
            second = edges.get(ch.second, ())
            if not first or not second:
                continue
            by_src: dict[str, set[str]] = {}
            for y, z in second:
                by_src.setdefault(y, set()).add(z)
            for x, y in list(first):
                for z in by_src.get(y, ()):
                    add_edge(ch.sup, x, z)
    return sup


def _atom_key(key: str) -> str:
    """Storage key for a membership test position.

    Nominal membership is kept as an ordinary stored atom (marker ``}``) so
    that conjunction and filler joins treat it like any other class atom;
    the ``{`` form is reserved for right-hand sides, where deriving it means
    merging the individual with the nominal.
    """
    return "}" + key[1:] if key.startswith("{") else key


def _compile(ntbox: NormalizedTBox) -> _Compiled:
    subs: list[tuple[str, str]] = []
    conjs: list[tuple[str, str, str]] = []
    exls: list[tuple[str, str, str]] = []
    exrs: list[tuple[str, str, str]] = []
    for r in ntbox.rules:
        if isinstance(r, RSub):
            subs.append((_basic_key(r.lhs), _basic_key(r.rhs)))
        elif isinstance(r, RConj):
            conjs.append((_basic_key(r.lhs1), _basic_key(r.lhs2), _basic_key(r.rhs)))
        elif isinstance(r, RExistLhs):
            exls.append((r.role, _basic_key(r.filler), _basic_key(r.rhs)))
        elif isinstance(r, RExistRhs):
            exrs.append((_basic_key(r.lhs), r.role, _basic_key(r.filler)))
    role_sups: dict[str, set[str]] = {}
    roles: set[str] = set()
    for rs in ntbox.role_subs:
        role_sups.setdefault(rs.sub, set()).add(rs.sup)
        roles.update((rs.sub, rs.sup))
    sup = _classify(subs, conjs, exls, exrs, role_sups, ntbox.role_chains)

    sub_by_lhs: dict[str, set[str]] = {}
    for x, sx in sup.items():
        for b in sx:
            if b != x and b != _TOP:
                sub_by_lhs.setdefault(_atom_key(x), set()).add(b)

    conj_by_part: dict[str, set[tuple[str, str]]] = {}
    exl_by_role: dict[str, set[tuple[str, str]]] = {}
    exl_by_filler: dict[str, set[tuple[str, str]]] = {}
    # A ⊑ ∃r.{b} fires on A itself only: every subsumer of A is derived as an
    # atom through sub_by_lhs, and that atom fires its own ground rule
    exr_ground: dict[str, set[tuple[str, str]]] = {}
    nominal_inds = {key[1:] for key in sup if key.startswith("{")}
    concept_keys = set(sup) | {_atom_key(k) for k in sup}

    for a1, a2, b in conjs:
        a1, a2 = _atom_key(a1), _atom_key(a2)
        conj_by_part.setdefault(a1, set()).add((a2, b))
        conj_by_part.setdefault(a2, set()).add((a1, b))
    for role, f, b in exls:
        roles.add(role)
        f = _atom_key(f)
        exl_by_role.setdefault(role, set()).add((f, b))
        if f != _TOP:
            exl_by_filler.setdefault(f, set()).add((role, b))
    for a, role, f in exrs:
        roles.add(role)
        if f.startswith("{"):
            # the only existential right side with a named witness
            exr_ground.setdefault(_atom_key(a), set()).add((role, f[1:]))

    chain_by_first: dict[str, set[tuple[str, str]]] = {}
    chain_by_second: dict[str, set[tuple[str, str]]] = {}
    for ch in ntbox.role_chains:
        chain_by_first.setdefault(ch.first, set()).add((ch.second, ch.sup))
        chain_by_second.setdefault(ch.second, set()).add((ch.first, ch.sup))
        roles.update((ch.first, ch.second, ch.sup))

    return _Compiled(
        sub_by_lhs={k: tuple(sorted(v)) for k, v in sub_by_lhs.items()},
        conj_by_part={k: tuple(sorted(v)) for k, v in conj_by_part.items()},
        exl_by_role={k: tuple(sorted(v)) for k, v in exl_by_role.items()},
        exl_by_filler={k: tuple(sorted(v)) for k, v in exl_by_filler.items()},
        exr_ground={k: tuple(sorted(v)) for k, v in exr_ground.items()},
        role_sups={k: tuple(sorted(v)) for k, v in role_sups.items()},
        chain_by_first={k: tuple(sorted(v)) for k, v in chain_by_first.items()},
        chain_by_second={k: tuple(sorted(v)) for k, v in chain_by_second.items()},
        nominal_inds=frozenset(nominal_inds),
        concept_keys=frozenset(concept_keys),
        roles=frozenset(roles),
    )


def _compiled(ntbox: NormalizedTBox) -> _Compiled:
    if ntbox._compiled is None:
        ntbox._compiled = _compile(ntbox)
    return ntbox._compiled


# ---------------------------------------------------------------------------
# closure


@dataclass
class EntailmentClosure:
    """Materialized ground atoms over canonical individual names."""

    inconsistent: bool
    class_atoms: frozenset[tuple[str, str]]
    role_atoms: frozenset[tuple[str, str, str]]
    merged: tuple[frozenset[str], ...]
    individuals: frozenset[str]
    insertions: int
    inconsistency_witness: str | None = None
    _canon: dict[str, str] = field(default_factory=dict, repr=False)
    _public: frozenset[Entailment] | None = field(default=None, repr=False)

    def canonical(self, name: str) -> str:
        return self._canon.get(name, name)

    def atoms(self) -> frozenset[Entailment]:
        """Public atoms: no nominal markers and no internal keys.

        Internal keys start with ``(``: the ``(top)`` and ``(bot)`` markers
        and every generated concept name.
        """
        if self._public is None:
            out: set[Entailment] = set()
            for key, ind in self.class_atoms:
                if key.startswith(("{", "}", "(")):
                    continue
                out.add(Entailment(key, (ind,)))
            for role, a, b in self.role_atoms:
                out.add(Entailment(role, (a, b)))
            self._public = frozenset(out)
        return self._public

    def entails(self, g: Entailment) -> bool:
        if self.inconsistent:
            return True
        if g.is_class_atom:
            x = self.canonical(g.args[0])
            if g.pred == "Top":
                return x in self.individuals
            return (g.pred, x) in self.class_atoms
        return (g.pred, self.canonical(g.args[0]), self.canonical(g.args[1])) in self.role_atoms

    def to_lines(self) -> list[str]:
        return sorted(str(a) for a in self.atoms())


def _prepare(ntbox: NormalizedTBox, abox) -> tuple[NormalizedTBox, list[ABoxAxiom]]:
    """Name each class-assertion concept that is not a name: ``(a<k>) ⊑ C``.

    C(a) is {a} ⊑ C, so the rules compiled from the extended TBox give
    ``(a<k>)(a)`` every consequence of C(a), nominal merges and role atoms
    included.  Normalizing that TBox mints its own ``(n<k>)`` names; the tag
    keeps the two apart.
    """
    complex_concepts: dict[ConceptExpr, None] = {}
    for ax in abox:
        if isinstance(ax, ClassAssertion) and not isinstance(ax.concept, Atomic):
            complex_concepts[ax.concept] = None
    if not complex_concepts:
        return ntbox, list(abox)
    fresh = _FreshNames("a")
    names = {c: fresh.new() for c in sorted(complex_concepts, key=str)}
    extra = frozenset(Gci(atom, c) for c, atom in names.items())
    rewritten: list[ABoxAxiom] = []
    for ax in abox:
        if isinstance(ax, ClassAssertion) and ax.concept in names:
            rewritten.append(ClassAssertion(names[ax.concept], ax.individual))
        else:
            rewritten.append(ax)
    return ntbox.extended(extra), rewritten


def materialize(tbox, abox) -> EntailmentClosure:
    """Compute the full entailment closure of (tbox, abox).

    ``tbox`` may be raw TBox axioms or an already-normalized TBox; the
    latter avoids re-normalizing when many ABoxes share one TBox.
    """
    ntbox = tbox if isinstance(tbox, NormalizedTBox) else normalize_tbox(frozenset(tbox))
    ntbox, axioms = _prepare(ntbox, abox)
    rules = _compiled(ntbox)

    uf = UnionFind()
    class_atoms: set[tuple[str, str]] = set()
    role_atoms: set[tuple[str, str, str]] = set()
    by_ind: dict[str, set[str]] = {}
    role_out: dict[tuple[str, str], set[str]] = {}
    role_in: dict[tuple[str, str], set[str]] = {}
    insertions = 0
    work: list[tuple] = []

    def mention(x: str) -> None:
        if x in uf.parent:
            return
        uf.add(x)
        for b in rules.sub_by_lhs.get(_TOP, ()):
            push_class(b, x)
        for role, ind in rules.exr_ground.get(_TOP, ()):
            push_role(role, x, ind)

    def push_class(key: str, x: str) -> None:
        work.append(("c", key, x))

    def push_role(role: str, a: str, b: str) -> None:
        work.append(("r", role, a, b))

    def merge(a: str, b: str) -> None:
        res = uf.union(a, b)
        if res is None:
            return
        kept, absorbed = res
        for k in sorted(by_ind.pop(absorbed, ())):
            class_atoms.discard((k, absorbed))
            push_class(k, kept)
        moved_r = sorted(t for t in role_atoms if t[1] == absorbed or t[2] == absorbed)
        for role, s, o in moved_r:
            role_atoms.discard((role, s, o))
            role_out.get((role, s), set()).discard(o)
            role_in.get((role, o), set()).discard(s)
            push_role(role, s, o)

    def add_class(key: str, x: str) -> None:
        nonlocal insertions
        if key == _TOP:
            return
        if key.startswith("{"):
            merge(x, key[1:])
            return
        atom = (key, x)
        if atom in class_atoms:
            return
        class_atoms.add(atom)
        insertions += 1
        by_ind.setdefault(x, set()).add(key)
        for b in rules.sub_by_lhs.get(key, ()):
            push_class(b, x)
        has = by_ind[x]
        for other, b in rules.conj_by_part.get(key, ()):
            if other == key or other in has:
                push_class(b, x)
        for role, ind in rules.exr_ground.get(key, ()):
            push_role(role, x, ind)
        for role, b in rules.exl_by_filler.get(key, ()):
            for a in sorted(role_in.get((role, x), ())):
                push_class(b, a)

    def add_role(role: str, a: str, b: str) -> None:
        nonlocal insertions
        atom = (role, a, b)
        if atom in role_atoms:
            return
        role_atoms.add(atom)
        insertions += 1
        role_out.setdefault((role, a), set()).add(b)
        role_in.setdefault((role, b), set()).add(a)
        for s in rules.role_sups.get(role, ()):
            push_role(s, a, b)
        fillers = by_ind.get(b, set())
        for f, rhs in rules.exl_by_role.get(role, ()):
            if f == _TOP or f in fillers:
                push_class(rhs, a)
        for second, sup_role in rules.chain_by_first.get(role, ()):
            for z in sorted(role_out.get((second, b), ())):
                push_role(sup_role, a, z)
        for first, sup_role in rules.chain_by_second.get(role, ()):
            for w in sorted(role_in.get((first, a), ())):
                push_role(sup_role, w, b)

    for ind in sorted(rules.nominal_inds):
        mention(ind)
        push_class("}" + ind, ind)

    for ax in sorted(axioms, key=str):
        if isinstance(ax, ClassAssertion):
            mention(ax.individual)
            push_class(ax.concept.name, ax.individual)
        elif isinstance(ax, RoleAssertion):
            mention(ax.subject)
            mention(ax.object)
            push_role(ax.role, ax.subject, ax.object)
        elif isinstance(ax, Equality):
            mention(ax.a)
            mention(ax.b)
            merge(ax.a, ax.b)
        elif isinstance(ax, Inequality):
            mention(ax.a)
            mention(ax.b)
        else:
            raise OntologyError(f"not an ABox axiom: {ax}")

    while work:
        item = work.pop()
        if item[0] == "c":
            _, key, x = item
            add_class(key, uf.find(x))
        else:
            _, role, a, b = item
            add_role(role, uf.find(a), uf.find(b))

    individuals = frozenset(uf.find(x) for x in uf.parent)
    n_names = max(len(uf.parent), 1)
    bound = len(rules.concept_keys | {k for k, _ in class_atoms}) * n_names
    bound += max(len(rules.roles | {r for r, _, _ in role_atoms}), 1) * n_names * n_names
    assert insertions <= max(bound, 1), "closure exceeded its atom universe"

    # the one contradiction check: at the fixpoint atoms sit on canonical
    # names, and the least name makes the witness order-independent
    bottoms = [x for key, x in class_atoms if key == _BOT]
    clashes = [(ax.a, ax.b) for ax in axioms if isinstance(ax, Inequality)]
    clashes = [(p, q) for p, q in clashes if uf.find(p) == uf.find(q)]
    witness = None
    if bottoms:
        witness = f"Bottom derived for {min(bottoms)}"
    elif clashes:
        p, q = min(clashes)
        witness = f"{p} and {q} asserted distinct but derived equal"

    canon = {x: uf.find(x) for x in uf.parent if uf.find(x) != x}
    return EntailmentClosure(
        inconsistent=witness is not None,
        class_atoms=frozenset(class_atoms),
        role_atoms=frozenset(role_atoms),
        merged=uf.groups(),
        individuals=individuals,
        insertions=insertions,
        inconsistency_witness=witness,
        _canon=canon,
    )


def is_consistent(tbox, abox, constraints=frozenset()) -> bool:
    """True iff (tbox ∪ constraints, abox) derives no contradiction."""
    ntbox = tbox if isinstance(tbox, NormalizedTBox) else normalize_tbox(frozenset(tbox))
    return not materialize(ntbox.extended(constraints), abox).inconsistent


def entails(closure: EntailmentClosure, g: Entailment) -> bool:
    return closure.entails(g)
