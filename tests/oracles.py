"""Independent oracles the test suite checks the package against.

Everything here is deliberately written the slow, obvious way and shares no
code with the package internals it judges: wholesale recomputation instead
of worklists, exact fractions instead of float accumulation, quadrature
instead of special functions, brute enumeration instead of pruning, one
network at a time instead of model stacks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import expit

from transferlens.errors import DataError
from transferlens.harness import TrainConfig
from transferlens.ontology import (
    Atomic,
    Bottom,
    ClassAssertion,
    Conjunction,
    Equality,
    Existential,
    Gci,
    Inequality,
    Nominal,
    RConj,
    RExistLhs,
    RExistRhs,
    RSub,
    RoleAssertion,
    RoleChain,
    SubRole,
    Top,
)

_TOP = "(top)"
_BOT = "(bot)"


def _key(c):
    if isinstance(c, Top):
        return _TOP
    if isinstance(c, Bottom):
        return _BOT
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, Nominal):
        return "{" + c.individual
    raise AssertionError(f"not basic: {c}")


def naive_classify(ntbox):
    """Superclass sets over basic keys, recomputed from scratch per pass."""
    subs, conjs, exls, exrs = [], [], [], []
    for r in ntbox.rules:
        if isinstance(r, RSub):
            subs.append((_key(r.lhs), _key(r.rhs)))
        elif isinstance(r, RConj):
            conjs.append((_key(r.lhs1), _key(r.lhs2), _key(r.rhs)))
        elif isinstance(r, RExistLhs):
            exls.append((r.role, _key(r.filler), _key(r.rhs)))
        elif isinstance(r, RExistRhs):
            exrs.append((_key(r.lhs), r.role, _key(r.filler)))
    keys = {_TOP}
    for a, b in subs:
        keys.update((a, b))
    for a1, a2, b in conjs:
        keys.update((a1, a2, b))
    for _, f, b in exls:
        keys.update((f, b))
    for a, _, f in exrs:
        keys.update((a, f))

    sup = {k: {k, _TOP} for k in keys}
    edges: dict[str, set[tuple[str, str]]] = {}
    while True:
        before = (
            {k: frozenset(v) for k, v in sup.items()},
            {k: frozenset(v) for k, v in edges.items()},
        )
        for x in keys:
            for a, b in subs:
                if a in sup[x]:
                    sup[x].add(b)
            for a1, a2, b in conjs:
                if a1 in sup[x] and a2 in sup[x]:
                    sup[x].add(b)
            for a, role, f in exrs:
                if a in sup[x]:
                    edges.setdefault(role, set()).add((x, f))
        for rs in ntbox.role_subs:
            for pair in list(edges.get(rs.sub, ())):
                edges.setdefault(rs.sup, set()).add(pair)
        for ch in ntbox.role_chains:
            for x, y in list(edges.get(ch.first, ())):
                for y2, z in list(edges.get(ch.second, ())):
                    if y2 == y:
                        edges.setdefault(ch.sup, set()).add((x, z))
        for role, pairs in edges.items():
            for x, y in list(pairs):
                for r2, f, b in exls:
                    if r2 == role and (f == _TOP or f in sup.get(y, {y})):
                        sup[x].add(b)
                if _BOT in sup.get(y, set()):
                    sup[x].add(_BOT)
        after = (
            {k: frozenset(v) for k, v in sup.items()},
            {k: frozenset(v) for k, v in edges.items()},
        )
        if after == before:
            return sup, edges


class NaiveResult:
    def __init__(self, inconsistent, class_atoms, role_atoms, groups, mentioned):
        self.inconsistent = inconsistent
        self.class_atoms = class_atoms
        self.role_atoms = role_atoms
        self.groups = groups
        self.mentioned = mentioned

    def public_atoms(self, fresh):
        out = set()
        if self.inconsistent:
            return out
        for k, x in self.class_atoms:
            if not k.startswith(("{", "(")) and k not in fresh:
                out.add((k, x))
        return out | self.role_atoms


def naive_closure(ntbox, abox) -> NaiveResult:
    """Ground closure by wholesale recomputation until nothing changes.

    Equalities are kept as equivalence classes rebuilt every pass; atoms are
    recanonicalized in bulk.  Only decomposed ABoxes (atomic class
    assertions) are supported; composite assertions are a parser-level
    convenience tested elsewhere.
    """
    sup, tbox_edges = naive_classify(ntbox)

    exr_nom = []
    conjs = []
    exls = []
    for r in ntbox.rules:
        if isinstance(r, RExistRhs) and isinstance(r.filler, Nominal):
            exr_nom.append((_key(r.lhs), r.role, r.filler.individual))
        elif isinstance(r, RConj):
            conjs.append((_key(r.lhs1), _key(r.lhs2), _key(r.rhs)))
        elif isinstance(r, RExistLhs):
            exls.append((r.role, _key(r.filler), _key(r.rhs)))

    mentioned: set[str] = set()
    catoms: set[tuple[str, str]] = set()
    ratoms: set[tuple[str, str, str]] = set()
    eq_pairs: set[tuple[str, str]] = set()
    ineqs: list[tuple[str, str]] = []
    nominal_inds = {k[1:] for k in sup if k.startswith("{")}
    for _, _, n in exr_nom:
        nominal_inds.add(n)
    mentioned |= nominal_inds

    for ax in abox:
        if isinstance(ax, ClassAssertion):
            assert isinstance(ax.concept, Atomic), "oracle wants decomposed ABoxes"
            mentioned.add(ax.individual)
            catoms.add((ax.concept.name, ax.individual))
        elif isinstance(ax, RoleAssertion):
            mentioned.update((ax.subject, ax.object))
            ratoms.add((ax.role, ax.subject, ax.object))
        elif isinstance(ax, Equality):
            mentioned.update((ax.a, ax.b))
            eq_pairs.add((ax.a, ax.b))
        elif isinstance(ax, Inequality):
            mentioned.update((ax.a, ax.b))
            ineqs.append((ax.a, ax.b))

    def eq_classes():
        classes = {x: {x} for x in mentioned}
        stable = False
        while not stable:
            stable = True
            for a, b in eq_pairs:
                if classes[a] is not classes[b]:
                    merged = classes[a] | classes[b]
                    for m in merged:
                        classes[m] = merged
                    stable = False
        return classes

    inconsistent = False

    def canon_map():
        classes = eq_classes()
        return {x: min(classes[x]) for x in mentioned}

    while True:
        cm = canon_map()
        catoms = {(k, cm[x]) for k, x in catoms}
        ratoms = {(r, cm[a], cm[b]) for r, a, b in ratoms}
        for a, b in ineqs:
            if cm[a] == cm[b]:
                inconsistent = True
        if inconsistent:
            break

        def holds(key, x):
            if key == _TOP:
                return True
            if key.startswith("{"):
                return cm[key[1:]] == x
            return (key, x) in catoms

        new_c: set[tuple[str, str]] = set()
        new_r: set[tuple[str, str, str]] = set()
        new_eq: set[tuple[str, str]] = set()
        bottom = False

        def act(key, x):
            nonlocal bottom
            if key == _TOP:
                return
            if key == _BOT:
                bottom = True
            elif key.startswith("{"):
                new_eq.add((x, key[1:]))
            else:
                new_c.add((key, x))

        inds = {cm[x] for x in mentioned}
        for x in inds:
            for key in list(sup):
                if holds(key, x):
                    for b in sup[key]:
                        act(b, x)
            for lhs, role, n in exr_nom:
                if holds(lhs, x):
                    new_r.add((role, x, cm[n]))
            for a1, a2, b in conjs:
                if holds(a1, x) and holds(a2, x):
                    act(b, x)
        for role, xx, y in list(ratoms):
            for r2, f, b in exls:
                if r2 == role and holds(f, y):
                    act(b, xx)
            for rs in ntbox.role_subs:
                if rs.sub == role:
                    new_r.add((rs.sup, xx, y))
            for ch in ntbox.role_chains:
                if ch.first == role:
                    for r3, y2, z in list(ratoms):
                        if r3 == ch.second and y2 == y:
                            new_r.add((ch.sup, xx, z))
                if ch.second == role:
                    for r3, w, x2 in list(ratoms):
                        if r3 == ch.first and x2 == xx:
                            new_r.add((ch.sup, w, y))

        if bottom:
            inconsistent = True
            break
        grown = False
        if not new_c <= catoms:
            catoms |= new_c
            grown = True
        if not new_r <= ratoms:
            ratoms |= new_r
            grown = True
        for a, b in new_eq:
            if canon_map()[a] != canon_map()[b]:
                eq_pairs.add((a, b))
                grown = True
        if not grown:
            break

    cm = canon_map()
    classes: dict[str, set[str]] = {}
    for x in mentioned:
        classes.setdefault(cm[x], set()).add(x)
    groups = {frozenset(v) for v in classes.values() if len(v) > 1}
    return NaiveResult(inconsistent, catoms, ratoms, groups, {cm[x] for x in mentioned})


# ---------------------------------------------------------------------------
# structural oracle for the named-witness fragment


def structural_closure(tbox_axioms, abox):
    """Direct fixpoint over the original (un-normalized) axioms.

    Valid only when every existential on an axiom's right side has a nominal
    filler, so all role successors are named and concept evaluation can
    quantify over named individuals.
    """
    gcis, subroles, chains = [], [], []
    for ax in tbox_axioms:
        if isinstance(ax, Gci):
            gcis.append(ax)
        elif isinstance(ax, SubRole):
            subroles.append(ax)
        elif isinstance(ax, RoleChain):
            chains.append(ax)

    def rhs_named(c):
        if isinstance(c, Existential):
            return isinstance(c.filler, Nominal)
        if isinstance(c, Conjunction):
            return all(rhs_named(p) for p in c.parts)
        return True

    assert all(rhs_named(g.rhs) for g in gcis), "oracle fragment violated"

    mentioned: set[str] = set()

    def walk(c):
        if isinstance(c, Nominal):
            mentioned.add(c.individual)
        elif isinstance(c, Existential):
            walk(c.filler)
        elif isinstance(c, Conjunction):
            for p in c.parts:
                walk(p)

    for g in gcis:
        walk(g.lhs)
        walk(g.rhs)

    catoms: set[tuple[str, str]] = set()
    ratoms: set[tuple[str, str, str]] = set()
    eq_pairs: set[tuple[str, str]] = set()
    ineqs: list[tuple[str, str]] = []
    for ax in abox:
        if isinstance(ax, ClassAssertion):
            assert isinstance(ax.concept, Atomic)
            mentioned.add(ax.individual)
            catoms.add((ax.concept.name, ax.individual))
        elif isinstance(ax, RoleAssertion):
            mentioned.update((ax.subject, ax.object))
            ratoms.add((ax.role, ax.subject, ax.object))
        elif isinstance(ax, Equality):
            mentioned.update((ax.a, ax.b))
            eq_pairs.add((ax.a, ax.b))
        elif isinstance(ax, Inequality):
            mentioned.update((ax.a, ax.b))
            ineqs.append((ax.a, ax.b))

    inconsistent = False

    def canon_map():
        classes = {x: {x} for x in mentioned}
        stable = False
        while not stable:
            stable = True
            for a, b in eq_pairs:
                if classes[a] is not classes[b]:
                    merged = classes[a] | classes[b]
                    for m in merged:
                        classes[m] = merged
            stable = all(
                classes[a] is classes[b] for a, b in eq_pairs
            )
        return {x: min(classes[x]) for x in mentioned}

    while True:
        cm = canon_map()
        catoms = {(k, cm[x]) for k, x in catoms}
        ratoms = {(r, cm[a], cm[b]) for r, a, b in ratoms}
        for a, b in ineqs:
            if cm[a] == cm[b]:
                inconsistent = True
        if inconsistent:
            break

        def ev(c, x):
            if isinstance(c, Top):
                return True
            if isinstance(c, Bottom):
                return False
            if isinstance(c, Atomic):
                return (c.name, x) in catoms
            if isinstance(c, Nominal):
                return cm[c.individual] == x
            if isinstance(c, Conjunction):
                return all(ev(p, x) for p in c.parts)
            return any(
                ev(c.filler, b) for r, a, b in ratoms if r == c.role and a == x
            )

        new_c, new_r, new_eq = set(), set(), set()
        bottom = False

        def put(c, x):
            nonlocal bottom
            if isinstance(c, Top):
                return
            if isinstance(c, Bottom):
                bottom = True
            elif isinstance(c, Atomic):
                new_c.add((c.name, x))
            elif isinstance(c, Nominal):
                new_eq.add((x, c.individual))
            elif isinstance(c, Conjunction):
                for p in c.parts:
                    put(p, x)
            else:
                new_r.add((c.role, x, cm[c.filler.individual]))

        inds = {cm[x] for x in mentioned}
        for g in gcis:
            for x in inds:
                if ev(g.lhs, x):
                    put(g.rhs, x)
        for rs in subroles:
            for r, a, b in list(ratoms):
                if r == rs.sub:
                    new_r.add((rs.sup, a, b))
        for ch in chains:
            for r1, a, b in list(ratoms):
                if r1 != ch.first:
                    continue
                for r2, b2, c2 in list(ratoms):
                    if r2 == ch.second and b2 == b:
                        new_r.add((ch.sup, a, c2))

        if bottom:
            inconsistent = True
            break
        grown = not (new_c <= catoms and new_r <= ratoms)
        catoms |= new_c
        ratoms |= new_r
        for a, b in new_eq:
            if cm[a] != cm[b]:
                eq_pairs.add((a, b))
                grown = True
        if not grown:
            break

    cm = canon_map()
    classes: dict[str, set[str]] = {}
    for x in mentioned:
        classes.setdefault(cm[x], set()).add(x)
    groups = {frozenset(v) for v in classes.values() if len(v) > 1}
    return NaiveResult(inconsistent, catoms, ratoms, groups, {cm[x] for x in mentioned})


# ---------------------------------------------------------------------------
# statistics oracles


def pearson_exact(xs, ys) -> float:
    """Correlation via exact fractions, converted to float at the very end."""
    n = len(xs)
    fx = [Fraction(x).limit_denominator(10**15) if not isinstance(x, int) else Fraction(x) for x in xs]
    fy = [Fraction(y).limit_denominator(10**15) if not isinstance(y, int) else Fraction(y) for y in ys]
    mx = sum(fx) / n
    my = sum(fy) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    sxx = sum((a - mx) ** 2 for a in fx)
    syy = sum((b - my) ** 2 for b in fy)
    assert sxx > 0 and syy > 0, "zero variance"
    import math

    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def p_value_quadrature(r: float, n: int) -> float:
    """Two-sided tail of Student's t via numeric integration of the density."""
    import mpmath as mp

    mp.mp.dps = 30
    df = n - 2
    t = abs(mp.mpf(r)) * mp.sqrt(df / (1 - mp.mpf(r) ** 2))
    c = mp.gamma((df + 1) / 2) / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))

    def dens(u):
        return c * (1 + u * u / df) ** (-(df + 1) / 2)

    tail = mp.quad(dens, [t, mp.inf])
    return float(2 * tail)


def stirling_tail_mp(x: float) -> float:
    """lgamma(x) minus ``(x - 1/2) log x - x + log(2 pi) / 2``, at 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        x = mp.mpf(x)
        return float(mp.loggamma(x) - ((x - 0.5) * mp.log(x) - x + mp.log(2 * mp.pi) / 2))


def auc_by_pairs(scores, labels) -> float:
    """Mann-Whitney by literally comparing every positive/negative pair."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    assert pos and neg
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def auc_by_rankdata(labels: np.ndarray, scores: np.ndarray) -> float:
    """The package's former ``auc``, ranking with ``scipy.stats.rankdata``."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise DataError("labels and scores must have the same length")
    _check_classes(labels, "evaluation split")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite; a diverged model gives NaN, try a smaller lr")
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float(
        (ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0)
        / (n_pos * n_neg)
    )


def frequent_brute(closures, target, sigma):
    """Frequent entailments by scanning every candidate against every LSO."""
    universe = set().union(*closures) - {target}
    n = len(closures)
    return {g for g in universe if sum(g in c for c in closures) / n >= sigma}


def effective_brute(closures, target, kappa, tau):
    """Exhaustive effective-subset search over all size-kappa combinations."""
    universe = sorted(set().union(*closures) - {target})
    n = len(closures)
    out = {}
    for combo in itertools.combinations(universe, kappa):
        gs = set(combo) | {target}
        r_e = sum(gs <= c for c in closures) / n
        r_i = sum(not (gs & c) for c in closures) / n
        if r_e + r_i >= tau:
            out[frozenset(combo)] = (r_e, r_i)
    return out


# -- the per-model trainer ------------------------------------------------------
#
# The harness trainer as it was before model stacks: one network, 2-D
# products, each minibatch standardized on its own.  The code below is
# copied unchanged, so the stacked trainer is held to it with ==.


@dataclass
class Model:
    """One-hidden-layer network with the input standardization it was fit under."""

    mu: np.ndarray
    sigma: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


def _check_classes(y: np.ndarray, what: str) -> None:
    if y.size == 0 or y.min() == y.max():
        raise DataError(f"{what} needs both classes present")


def _forward(model: Model, x: np.ndarray):
    xs = (x - model.mu) / model.sigma
    z1 = xs @ model.w1 + model.b1
    a1 = np.maximum(z1, 0.0)
    return xs, z1, a1, expit(a1 @ model.w2 + model.b2)


def predict_proba(model: Model, x: np.ndarray) -> np.ndarray:
    return _forward(model, np.asarray(x, dtype=np.float64))[3]


def _fit(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    train_features: bool,
) -> Model:
    n = len(y)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xs, z1, a1, p = _forward(model, x[idx])
            dz2 = (p - y[idx]) / len(idx)
            gw2 = a1.T @ dz2
            gb2 = dz2.sum()
            if train_features:
                dz1 = np.outer(dz2, model.w2) * (z1 > 0)
                model.w1 -= cfg.lr * (xs.T @ dz1)
                model.b1 -= cfg.lr * dz1.sum(axis=0)
            model.w2 -= cfg.lr * gw2
            model.b2 -= cfg.lr * gb2
    return model


def _standardize_params(x: np.ndarray):
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    return mu, sigma


def _fresh_head(d_hidden: int, rng: np.random.Generator):
    return rng.normal(0.0, np.sqrt(1.0 / d_hidden), size=d_hidden), 0.0


def train_within(
    x: np.ndarray, y: np.ndarray, cfg: TrainConfig, seed: int
) -> Model:
    """Fit a fresh model on one training split."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_classes(y, "training split")
    rng = np.random.default_rng(seed)
    d = x.shape[1]
    mu, sigma = _standardize_params(x)
    w2, b2 = _fresh_head(cfg.hidden, rng)
    model = Model(
        mu=mu,
        sigma=sigma,
        w1=rng.normal(0.0, np.sqrt(2.0 / max(d, 1)), size=(d, cfg.hidden)),
        b1=np.zeros(cfg.hidden),
        w2=w2,
        b2=b2,
    )
    return _fit(model, x, y, cfg, rng, train_features=True)


def transfer(
    source: Model,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    seed: int,
    mode: str,
) -> Model:
    """Adapt a source model to a new training split.

    ``hard`` keeps the source feature block frozen and fits only a fresh
    head; ``soft`` starts from the whole source model and fits everything.
    Input standardization is preprocessing, not weights: both modes refit
    it on the new split, otherwise features constant within the source
    domain turn into huge offsets here and saturate the network.
    """
    if mode not in ("hard", "soft"):
        raise DataError(f"unknown transfer mode {mode!r} (expected hard or soft)")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_classes(y, "training split")
    if x.shape[1] != source.w1.shape[0]:
        raise DataError(
            f"feature width {x.shape[1]} does not match the source model "
            f"({source.w1.shape[0]}); encode both domains over one vocabulary"
        )
    rng = np.random.default_rng(seed)
    if mode == "hard":
        w2, b2 = _fresh_head(cfg.hidden, rng)
    else:
        w2, b2 = source.w2.copy(), float(source.b2)
    mu, sigma = _standardize_params(x)
    model = Model(mu, sigma, source.w1.copy(), source.b1.copy(), w2, b2)
    return _fit(model, x, y, cfg, rng, train_features=mode == "soft")

