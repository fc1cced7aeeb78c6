"""Ground entailment closure for the existential description-logic dialect.

``materialize`` computes every class and role atom over named individuals
that follows from a normalized TBox plus an ABox.  The evaluation is
semi-naive: a worklist carries only newly derived atoms and each atom fires
just the joins it can participate in.  Equalities (asserted or derived
through nominals) merge individuals with a union-find whose canonical
representative is the lexicographically least member; atoms are eagerly
rewritten onto canonical names at every merge.  Each fact is stored once: a
class atom in its individual's set of concept keys, a role atom in the set
of objects of its (role, subject) pair, with one index by object for the
joins that meet a role atom at its object.

A nominal {b} is a concept key like any other, spelled ``{b``: each nominal
individual b starts out holding it, and deriving ``{b}(x)`` merges x with b,
then stores ``{b`` on the merged name, where the joins match it.

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


def _classify(
    subs: list[tuple[str, str]],
    conjs: list[tuple[str, str, str]],
    exls: list[tuple[str, str, str]],
    exrs: list[tuple[str, str, str]],
    role_sups: dict[str, tuple[str, ...]],
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


def _group(pairs) -> dict:
    """``key -> tuple(sorted(values))`` over ``(key, value)`` pairs."""
    groups: dict = {}
    for k, v in pairs:
        groups.setdefault(k, set()).add(v)
    return {k: tuple(sorted(vs)) for k, vs in groups.items()}


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
    role_sups = _group((rs.sub, rs.sup) for rs in ntbox.role_subs)
    sup = _classify(subs, conjs, exls, exrs, role_sups, ntbox.role_chains)
    return _Compiled(
        sub_by_lhs=_group((x, b) for x, sx in sup.items() for b in sx if b not in (x, _TOP)),
        conj_by_part=_group(
            pair for a1, a2, b in conjs for pair in ((a1, (a2, b)), (a2, (a1, b)))
        ),
        exl_by_role=_group((role, (f, b)) for role, f, b in exls),
        exl_by_filler=_group((f, (role, b)) for role, f, b in exls if f != _TOP),
        # A ⊑ ∃r.{b}, the only existential right side with a named witness,
        # fires on A itself only: every subsumer of A is derived as an atom
        # through sub_by_lhs, and that atom fires its own ground rule
        exr_ground=_group((a, (role, f[1:])) for a, role, f in exrs if f.startswith("{")),
        role_sups=role_sups,
        chain_by_first=_group((ch.first, (ch.second, ch.sup)) for ch in ntbox.role_chains),
        chain_by_second=_group((ch.second, (ch.first, ch.sup)) for ch in ntbox.role_chains),
        nominal_inds=frozenset(key[1:] for key in sup if key.startswith("{")),
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
    individuals: frozenset[str]
    insertions: int
    inconsistency_witness: str | None = None
    _canon: dict[str, str] = field(default_factory=dict, repr=False)
    _public: frozenset[Entailment] | None = field(default=None, repr=False)

    def canonical(self, name: str) -> str:
        return self._canon.get(name, name)

    @property
    def merged(self) -> tuple[frozenset[str], ...]:
        """Merged classes of size at least two, by canonical name."""
        groups: dict[str, set[str]] = {}
        for name, root in self._canon.items():
            groups.setdefault(root, {root}).add(name)
        return tuple(frozenset(groups[root]) for root in sorted(groups))

    def atoms(self) -> frozenset[Entailment]:
        """Public atoms: no internal keys.

        Internal keys are the ``{b`` nominal keys and those that start with
        ``(``: the ``(top)`` and ``(bot)`` markers and every generated
        concept name.
        """
        if self._public is None:
            out: set[Entailment] = set()
            for key, ind in self.class_atoms:
                if key.startswith(("{", "(")):
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
    # one store per kind of fact: C(x) is C in by_ind[x] and r(a,b) is b in
    # role_out[(r, a)]; role_in indexes role atoms by object for the joins
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
            work.append(("c", b, x))
        for role, ind in rules.exr_ground.get(_TOP, ()):
            work.append(("r", role, x, ind))

    def merge(a: str, b: str) -> None:
        res = uf.union(a, b)
        if res is None:
            return
        kept, absorbed = res
        for k in sorted(by_ind.pop(absorbed, ())):
            work.append(("c", k, kept))
        moved = {(r, s, o) for (r, s), objs in role_out.items() if s == absorbed for o in objs}
        moved |= {(r, s, o) for (r, o), subs in role_in.items() if o == absorbed for s in subs}
        for role, s, o in sorted(moved):
            role_out[(role, s)].discard(o)
            role_in[(role, o)].discard(s)
            work.append(("r", role, s, o))

    def add_class(key: str, x: str) -> None:
        nonlocal insertions
        if key == _TOP:
            return
        if key.startswith("{"):
            merge(x, key[1:])
            x = uf.find(x)
        has = by_ind.setdefault(x, set())
        if key in has:
            return
        has.add(key)
        insertions += 1
        for b in rules.sub_by_lhs.get(key, ()):
            work.append(("c", b, x))
        for other, b in rules.conj_by_part.get(key, ()):
            if other == key or other in has:
                work.append(("c", b, x))
        for role, ind in rules.exr_ground.get(key, ()):
            work.append(("r", role, x, ind))
        for role, b in rules.exl_by_filler.get(key, ()):
            for a in sorted(role_in.get((role, x), ())):
                work.append(("c", b, a))

    def add_role(role: str, a: str, b: str) -> None:
        nonlocal insertions
        objs = role_out.setdefault((role, a), set())
        if b in objs:
            return
        objs.add(b)
        insertions += 1
        role_in.setdefault((role, b), set()).add(a)
        for s in rules.role_sups.get(role, ()):
            work.append(("r", s, a, b))
        fillers = by_ind.get(b, set())
        for f, rhs in rules.exl_by_role.get(role, ()):
            if f == _TOP or f in fillers:
                work.append(("c", rhs, a))
        for second, sup_role in rules.chain_by_first.get(role, ()):
            for z in sorted(role_out.get((second, b), ())):
                work.append(("r", sup_role, a, z))
        for first, sup_role in rules.chain_by_second.get(role, ()):
            for w in sorted(role_in.get((first, a), ())):
                work.append(("r", sup_role, w, b))

    for ind in sorted(rules.nominal_inds):
        mention(ind)
        work.append(("c", "{" + ind, ind))

    for ax in sorted(axioms, key=str):
        if isinstance(ax, ClassAssertion):
            mention(ax.individual)
            work.append(("c", ax.concept.name, ax.individual))
        elif isinstance(ax, RoleAssertion):
            mention(ax.subject)
            mention(ax.object)
            work.append(("r", ax.role, ax.subject, ax.object))
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

    # at the fixpoint every stored atom sits on canonical names
    root = {x: uf.find(x) for x in uf.parent}
    # the one contradiction check; the least name makes the witness
    # order-independent
    bottoms = [x for x, keys in by_ind.items() if _BOT in keys]
    clashes = [(ax.a, ax.b) for ax in axioms if isinstance(ax, Inequality)]
    clashes = [(p, q) for p, q in clashes if root[p] == root[q]]
    witness = None
    if bottoms:
        witness = f"Bottom derived for {min(bottoms)}"
    elif clashes:
        p, q = min(clashes)
        witness = f"{p} and {q} asserted distinct but derived equal"

    return EntailmentClosure(
        inconsistent=witness is not None,
        class_atoms=frozenset((k, x) for x, keys in by_ind.items() for k in keys),
        role_atoms=frozenset((r, a, b) for (r, a), objs in role_out.items() for b in objs),
        individuals=frozenset(root.values()),
        insertions=insertions,
        inconsistency_witness=witness,
        _canon={x: r for x, r in root.items() if r != x},
    )


def is_consistent(tbox, abox, constraints=frozenset()) -> bool:
    """True iff (tbox ∪ constraints, abox) derives no contradiction."""
    ntbox = tbox if isinstance(tbox, NormalizedTBox) else normalize_tbox(frozenset(tbox))
    return not materialize(ntbox.extended(constraints), abox).inconsistent


def entails(closure: EntailmentClosure, g: Entailment) -> bool:
    return closure.entails(g)
