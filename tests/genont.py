"""Random ontology instance generators for differential tests."""

from __future__ import annotations

import random

from transferlens.ontology import (
    Atomic,
    Bottom,
    ClassAssertion,
    Equality,
    Existential,
    Gci,
    Inequality,
    Nominal,
    RoleAssertion,
    RoleChain,
    SubRole,
    Top,
    conjunction,
)

CONCEPTS = [f"A{i}" for i in range(6)]
ROLES = [f"r{i}" for i in range(3)]
INDS = [f"i{i}" for i in range(5)]


def random_concept(rng: random.Random, depth: int, named_rhs: bool) -> object:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return Atomic(rng.choice(CONCEPTS))
    if roll < 0.55:
        return Nominal(rng.choice(INDS))
    if roll < 0.60:
        return Top()
    if roll < 0.63:
        return Bottom()
    if roll < 0.82:
        parts = [random_concept(rng, depth - 1, named_rhs) for _ in range(rng.randint(2, 3))]
        return conjunction(parts)
    role = rng.choice(ROLES)
    if named_rhs:
        return Existential(role, Nominal(rng.choice(INDS)))
    return Existential(role, random_concept(rng, depth - 1, named_rhs))


def random_instance(seed: int, named_rhs: bool = False):
    """A small random (TBox, ABox) pair.

    With ``named_rhs`` every right-side existential filler is a nominal, the
    fragment the structural oracle evaluates exactly.
    """
    rng = random.Random(seed)
    tbox = set()
    for _ in range(rng.randint(3, 8)):
        lhs = random_concept(rng, 2, named_rhs)
        rhs = random_concept(rng, 2, True) if named_rhs else random_concept(rng, 2, False)
        tbox.add(Gci(lhs, rhs))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(ROLES, 2)
        tbox.add(SubRole(a, b))
    for _ in range(rng.randint(0, 2)):
        tbox.add(RoleChain(rng.choice(ROLES), rng.choice(ROLES), rng.choice(ROLES)))

    abox = set()
    for _ in range(rng.randint(2, 6)):
        abox.add(ClassAssertion(Atomic(rng.choice(CONCEPTS)), rng.choice(INDS)))
    for _ in range(rng.randint(2, 7)):
        abox.add(RoleAssertion(rng.choice(ROLES), rng.choice(INDS), rng.choice(INDS)))
    for _ in range(rng.randint(0, 2)):
        abox.add(Equality(rng.choice(INDS), rng.choice(INDS)))
    if rng.random() < 0.4:
        a, b = rng.sample(INDS, 2)
        abox.add(Inequality(a, b))
    return frozenset(tbox), frozenset(abox)


# document text for differential parser tests: few names, so kinds clash
# across lines, and every keyword that may also be used as a name
DOC_NAMES = ["a", "b", "C", "r", "d/1", "x:y", "n-2", "Top", "Bottom", "And", "Some", "Nom"]
DOC_KIND_NAMES = {"c": ["C", "D/1"], "r": ["r", "x:y"], "i": ["a", "b", "n-2", "e.f"]}
# ``\r`` and ``\x0c`` end a line, as ``\n`` does; the others are whitespace
DOC_SPACES = [" "] * 12 + ["  ", "\t", "\xa0", "\x0c", "\r"]
DOC_COMPLEX = [
    "ClassAssert(Some(r C) a)", "ClassAssert(And(C D) a)", "ClassAssert(Nom(b) a)",
    "ClassAssert(Top a)", "ClassAssert(Bottom b)", "SubClassOf(C D)", "SubRole(r s)",
    "RoleChain(r s t)", "SubClassOf(And(C Some(r Nom(a))) D)",
]


def random_document(rng: random.Random) -> str:
    """A short document that mixes plain assertions with comments, odd
    whitespace, keywords as names, complex and TBox lines, and mutated lines."""

    def gap() -> str:
        return rng.choice(DOC_SPACES) if rng.random() < 0.3 else ""

    def plain() -> str:
        head = rng.choice(["ClassAssert", "RoleAssert", "SameInd", "DiffInd"])
        kinds = {"ClassAssert": "ci", "RoleAssert": "rii"}.get(head, "ii")
        if rng.random() < 0.04:  # one name too few or too many
            kinds = rng.choice([kinds[:-1], kinds + "i"])
        names = [
            rng.choice(DOC_NAMES if rng.random() < 0.08 else DOC_KIND_NAMES[k]) for k in kinds
        ]
        seps = [rng.choice(DOC_SPACES) if rng.random() < 0.97 else "" for _ in names]
        args = "".join(sep + n for sep, n in zip(seps, names))[len(seps[0]):]
        return head + gap() + "(" + gap() + args + gap() + ")"

    lines = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.75:
            line = plain()
        elif roll < 0.85:
            line = rng.choice(["", "  ", "# note", "\t# ClassAssert(C a"])
        elif roll < 0.93:
            line = rng.choice(DOC_COMPLEX)
        else:  # drop, double or replace one character
            chars = list(plain())
            i = rng.randrange(len(chars))
            chars[i] = rng.choice(["", chars[i] * 2, ",", "#", "(", ")", "\n"])
            line = "".join(chars)
        if rng.random() < 0.15:
            line += gap() + "# " + rng.choice(["c", "ClassAssert(C a)", ")"])
        lines.append(gap() + line + gap())
    return rng.choice(["\n", "\n", "\r\n"]).join(lines)
