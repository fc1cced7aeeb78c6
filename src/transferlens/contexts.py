"""Core-context search over synchronized entailment clusters.

Two entailments are synchronized when exactly the same domains' closures
contain them, i.e. when they share one domain mask.  A context's statistics
depend only on its mask, the AND of its entailments' masks, which the
clusters the context touches determine, whichever member of a cluster was
picked.  The search therefore walks sets of cluster representatives, and
every concrete context a set covers inherits its result; the evidence space
scores each distinct mask once.  On top of that, extension of a scored
context stops early when its significance is hopeless, since adding
entailments only shrinks the evidence domains.

The scan's result store is representative-level.  ``iter_contexts`` expands
it to concrete contexts (for small universes and tests), ``rep_results``
streams the compact form with exact cover counts, and ``lookup`` answers for
any specific context, including one the search pruned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .domain import LearningDomain, membership_masks
from .errors import DataError
from .evidence import CoreContext, EvidenceResult, EvidenceSpace
from .reasoner import Entailment


@dataclass(frozen=True)
class SearchConfig:
    max_dim: int = 4
    epsilon: float = 0.1
    alpha: float = 0.05
    n_min: int = 3
    early_stop: bool = True

    def __post_init__(self):
        if self.max_dim < 2:
            raise DataError(f"max_dim must be at least 2, got {self.max_dim}")
        if not 0.0 <= self.epsilon <= 1.0:  # NaN fails this test too
            raise DataError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass
class SyncClusters:
    universe: tuple[Entailment, ...]
    clusters: tuple[tuple[Entailment, ...], ...]
    masks: tuple[int, ...]
    of_entailment: dict[Entailment, int]

    @property
    def reps(self) -> tuple[Entailment, ...]:
        return tuple(c[0] for c in self.clusters)


def sync_clusters(domains: list[LearningDomain]) -> SyncClusters:
    """Partition the shared entailment universe by domain mask."""
    closures = [d.entailment_closure() for d in domains]
    targets = {d.target for d in domains}
    return _cluster_closures(closures, targets)


def _cluster_closures(closures, targets) -> SyncClusters:
    masks = membership_masks(closures)
    universe = sorted(masks.keys() - targets)
    groups: dict[int, list[Entailment]] = {}
    for g in universe:
        groups.setdefault(masks[g], []).append(g)
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])
    clusters = tuple(tuple(atoms) for _, atoms in ordered)
    of_entailment = {
        g: ci for ci, cluster in enumerate(clusters) for g in cluster
    }
    return SyncClusters(
        universe=tuple(universe),
        clusters=clusters,
        masks=tuple(mask for mask, _ in ordered),
        of_entailment=of_entailment,
    )


def early_stop(result: EvidenceResult, alpha: float) -> bool:
    """Extension is pointless: significance is undefined or already lost."""
    return result.rho is None or result.rho > alpha


def fast_extend(context_atoms, g: Entailment, clusters: SyncClusters) -> bool:
    """True when ``g`` is synchronized with the context: its cluster is
    already represented, so the extended context keeps the same statistics."""
    ci = clusters.of_entailment.get(g)
    if ci is None:
        raise DataError(f"{g} is not in the search universe")
    touched = {clusters.of_entailment[a] for a in context_atoms}
    return ci in touched


@dataclass
class SearchStats:
    universe: int = 0
    clusters: int = 0
    enumerable: int = 0
    evaluated: int = 0
    inherited: int = 0
    early_stopped: int = 0
    covered: int = 0
    valid: int = 0

    @property
    def prune_rate(self) -> float:
        """Fraction of enumerable (size >= 2) contexts never scored directly.

        Singleton evaluations seed the walk but stand for no reportable
        context, so they are excluded from the ratio.
        """
        if self.enumerable == 0:
            return 0.0
        return 1.0 - (self.evaluated - self.clusters) / self.enumerable


def _count_expansions(sizes: list[int], lo: int, hi: int) -> int:
    """Ways to pick a nonempty subset from each cluster, total size in [lo, hi]."""
    poly = [1]
    for m in sizes:
        nxt = [0] * min(len(poly) + m, hi + 1)
        for t, coeff in enumerate(poly):
            if coeff == 0:
                continue
            for j in range(1, m + 1):
                if t + j > hi:
                    break
                nxt[t + j] += coeff * math.comb(m, j)
        poly = nxt
    return sum(poly[lo : hi + 1])


class CoreContextScan:
    def __init__(
        self,
        space: EvidenceSpace,
        clusters: SyncClusters,
        cfg: SearchConfig,
    ):
        self.space = space
        self.clusters = clusters
        self.cfg = cfg
        self.results: dict[frozenset[int], EvidenceResult] = {}
        self.stats = SearchStats()
        self._ran = False

    # -- search ------------------------------------------------------------

    def run(self) -> "CoreContextScan":
        if self._ran:
            return self
        self._ran = True
        n = len(self.clusters.clusters)
        u = len(self.clusters.universe)
        self.stats.universe = u
        self.stats.clusters = n
        self.stats.enumerable = sum(
            math.comb(u, k) for k in range(2, self.cfg.max_dim + 1)
        )
        for i in range(n):
            mask = self.clusters.masks[i]
            self._walk((i,), mask, self._evaluate((i,), mask))
        for key, res in self.results.items():
            cover = self._expansion_count(key)
            self.stats.covered += cover
            self.stats.inherited += cover - (1 if len(key) >= 2 else 0)
            if res.valid:
                self.stats.valid += cover
        return self

    def _evaluate(self, idxs: tuple[int, ...], mask: int) -> EvidenceResult:
        evidence = CoreContext(
            frozenset(self.clusters.clusters[i][0] for i in idxs)
        )
        res = self.space.score_mask(evidence, mask)
        self.results[frozenset(idxs)] = res
        self.stats.evaluated += 1
        return res

    def _walk(self, idxs: tuple[int, ...], mask: int, res: EvidenceResult) -> None:
        if len(idxs) >= self.cfg.max_dim:
            return
        if self.cfg.early_stop and len(idxs) >= 2 and early_stop(res, self.cfg.alpha):
            self.stats.early_stopped += 1
            return
        for nxt in range(idxs[-1] + 1, len(self.clusters.clusters)):
            child_mask = mask & self.clusters.masks[nxt]
            # evidence domains can only shrink along an extension
            assert not child_mask & ~mask, "evidence-domain growth"
            child = idxs + (nxt,)
            self._walk(child, child_mask, self._evaluate(child, child_mask))

    # -- result access -----------------------------------------------------

    def _expansion_count(self, key: frozenset[int]) -> int:
        sizes = [len(self.clusters.clusters[i]) for i in sorted(key)]
        return _count_expansions(sizes, max(2, len(sizes)), self.cfg.max_dim)

    def rep_results(self):
        """(representative context, result, exact covered-context count)."""
        self.run()
        for key in sorted(self.results, key=sorted):
            res = self.results[key]
            yield res.evidence, res, self._expansion_count(key)

    def iter_contexts(self):
        """Every covered concrete context with its (inherited) result.

        Expansion is combinatorial in cluster sizes; meant for small
        universes, reporting caps, and equivalence tests.
        """
        self.run()
        for key in sorted(self.results, key=sorted):
            res = self.results[key]
            member_sets = [self.clusters.clusters[i] for i in sorted(key)]
            k = len(member_sets)
            for total in range(max(2, k), self.cfg.max_dim + 1):
                for sizes in _compositions(total, [len(m) for m in member_sets]):
                    for picks in itertools.product(
                        *(
                            itertools.combinations(ms, sz)
                            for ms, sz in zip(member_sets, sizes)
                        )
                    ):
                        atoms = frozenset(itertools.chain.from_iterable(picks))
                        yield replace(res, evidence=CoreContext(atoms))

    def lookup(self, atoms) -> EvidenceResult:
        """Result for one specific context, whether or not the search pruned it."""
        atoms = frozenset(atoms)
        if not atoms:
            raise DataError("empty context")
        missing = [g for g in atoms if g not in self.clusters.of_entailment]
        if missing:
            raise DataError(f"not in the search universe: {sorted(map(str, missing))}")
        return self.space.score(CoreContext(atoms))


def _compositions(total: int, caps: list[int]):
    """All ways to write ``total`` as parts with 1 <= part_i <= caps[i]."""
    if len(caps) == 1:
        if 1 <= total <= caps[0]:
            yield (total,)
        return
    head = caps[0]
    rest = caps[1:]
    lo = max(1, total - sum(rest))
    hi = min(head, total - len(rest))
    for j in range(lo, hi + 1):
        for tail in _compositions(total - j, rest):
            yield (j,) + tail


def core_context_search(
    domains: list[LearningDomain],
    fti: dict[tuple[str, str], float],
    cfg: SearchConfig = SearchConfig(),
) -> CoreContextScan:
    """Run the clustered search; the returned scan is already complete."""
    space = EvidenceSpace.build(
        domains, fti, epsilon=cfg.epsilon, alpha=cfg.alpha, n_min=cfg.n_min
    )
    clusters = _cluster_closures(list(space.closures), {d.target for d in domains})
    return CoreContextScan(space, clusters, cfg).run()
