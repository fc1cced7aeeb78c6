"""Root mining: the entailments and individuals that anchor a domain.

Two routes feed the root set.  Frequent entailments hold in at least a
``sigma`` fraction of a domain's LSO closures.  Effective subsets are
exactly-``kappa``-sized entailment sets scored by how tightly they travel
with the target: ``r_e`` is the fraction of LSOs whose closure contains the
subset together with the target, ``r_i`` the fraction whose closure avoids
all of them, and a subset qualifies when ``r_e + r_i >= tau``.  Both scores
can only shrink as a subset grows, so candidate generation is apriori-style:
only joins of surviving smaller subsets are ever scored, which is lossless.

Root individuals are the individuals named by root entailments, in
lexicographic order; downstream import walks them in exactly that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .config import MiningParams
from .domain import LearningDomain, membership_masks
from .reasoner import Entailment


@dataclass
class RootSet:
    domain_id: str
    params: MiningParams
    frequent: frozenset[Entailment]
    effective: dict[frozenset[Entailment], tuple[float, float]]
    root_entailments: frozenset[Entailment]
    root_individuals: tuple[str, ...]


def _lso_masks(domain: LearningDomain) -> tuple[dict[Entailment, int], int]:
    """Per-entailment LSO membership masks and the LSO count."""
    closures = domain.consistent_closures()
    return membership_masks(c.atoms() for c in closures), len(closures)


def frequent_entailments(domain: LearningDomain, params: MiningParams) -> frozenset[Entailment]:
    return _frequent(domain.target, *_lso_masks(domain), params.sigma)


def _frequent(target: Entailment, masks, n: int, sigma: float) -> frozenset[Entailment]:
    return frozenset(g for g, m in masks.items() if g != target and m.bit_count() / n >= sigma)


def effective_subsets(
    domain: LearningDomain, params: MiningParams
) -> dict[frozenset[Entailment], tuple[float, float]]:
    """Qualifying exactly-``params.kappa``-element subsets with their (r_e, r_i)."""
    return _effective(domain.target, *_lso_masks(domain), params.kappa, params.tau)


def _effective(
    target: Entailment, masks, n: int, kappa: int, tau: float
) -> dict[frozenset[Entailment], tuple[float, float]]:
    full = (1 << n) - 1
    target_mask = masks.get(target, 0)

    def score(subset) -> tuple[float, float]:
        both = any_of = target_mask
        for g in subset:
            both &= masks[g]
            any_of |= masks[g]
        return both.bit_count() / n, (full & ~any_of).bit_count() / n

    level: dict[frozenset[Entailment], tuple[float, float]] = {}
    for g in sorted(g for g in masks if g != target):
        s = score((g,))
        if s[0] + s[1] >= tau:
            level[frozenset((g,))] = s
    singles = sorted(g for fs in level for g in fs)
    size = 1
    while size < kappa:
        nxt: dict[frozenset[Entailment], tuple[float, float]] = {}
        seen: set[frozenset[Entailment]] = set()
        for base in level:
            for g in singles:
                if g in base:
                    continue
                cand = base | {g}
                if cand in seen:
                    continue
                seen.add(cand)
                if any(cand - {h} not in level for h in cand):
                    continue
                s = score(cand)
                if s[0] + s[1] >= tau:
                    nxt[cand] = s
        level = nxt
        size += 1
    return level


def root_individuals(root_entailments) -> tuple[str, ...]:
    return tuple(sorted({a for g in root_entailments for a in g.args}))


def mine_roots(domain: LearningDomain, params: MiningParams) -> RootSet:
    # one mask table serves both routes
    masks, n = _lso_masks(domain)
    freq = _frequent(domain.target, masks, n, params.sigma)
    eff = _effective(domain.target, masks, n, params.kappa, params.tau)
    roots = frozenset(freq) | frozenset(itertools.chain.from_iterable(eff))
    return RootSet(
        domain_id=domain.id,
        params=params,
        frequent=freq,
        effective=eff,
        root_entailments=roots,
        root_individuals=root_individuals(roots),
    )
