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

The scan's result store holds, per scanned cluster set, the evidence
space's shared result for its mask; contexts are attached on the way out.
A set is keyed by its tuple of cluster indices in ascending order.  The
walk is a preorder depth-first search that extends a set only by larger
indices, so the store's insertion order is already the sorted key order.
The walk also carries each set's ascending cluster-size profile down to
its children (a child's is its parent's with one size inserted), and a
set's cover count is looked up by that profile.

``iter_contexts`` expands the store to concrete contexts (for small
universes and tests), ``rep_results`` streams one representative context
per set with its exact cover count, and ``lookup`` answers for any specific
context, including one the search pruned.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace

from .config import SearchConfig
from .domain import LearningDomain, membership_masks
from .errors import DataError
from .evidence import CoreContext, EvidenceResult, EvidenceSpace
from .reasoner import Entailment


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
    masks = membership_masks([d.entailment_closure() for d in domains])
    return _cluster_closures(masks, {d.target for d in domains})


def _cluster_closures(masks: dict[Entailment, int], targets) -> SyncClusters:
    """Group the non-target entailments of ``masks`` by their mask."""
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
    early_stopped: int = 0
    covered: int = 0
    valid: int = 0

    @property
    def inherited(self) -> int:
        """Covered contexts not scored: all but one per scored set of 2+ clusters."""
        return self.covered - (self.evaluated - self.clusters)

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
        self.results: dict[tuple[int, ...], EvidenceResult] = {}
        self.stats = SearchStats()
        self._sizes = tuple(len(c) for c in clusters.clusters)
        self._covers: dict[tuple[int, ...], int] = {}
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
            self._walk((i,), self.clusters.masks[i], (self._sizes[i],))
        return self

    def _walk(self, idxs: tuple[int, ...], mask: int, profile: tuple[int, ...]) -> None:
        # ``profile`` is the set's cluster sizes in ascending order
        res = self.results[idxs] = self.space.score_mask(mask)
        cover = self._cover(profile)
        self.stats.evaluated += 1
        self.stats.covered += cover
        if res.valid:
            self.stats.valid += cover
        if len(idxs) >= self.cfg.max_dim:
            return
        if self.cfg.early_stop and len(idxs) >= 2 and early_stop(res, self.cfg.alpha):
            self.stats.early_stopped += 1
            return
        for nxt in range(idxs[-1] + 1, len(self.clusters.clusters)):
            child_mask = mask & self.clusters.masks[nxt]
            # evidence domains can only shrink along an extension
            assert not child_mask & ~mask, "evidence-domain growth"
            size = self._sizes[nxt]
            at = bisect.bisect(profile, size)
            self._walk(idxs + (nxt,), child_mask, profile[:at] + (size,) + profile[at:])

    # -- result access -----------------------------------------------------

    def _cover(self, sizes: tuple[int, ...]) -> int:
        """Concrete contexts a cluster set with these ascending sizes covers."""
        cover = self._covers.get(sizes)
        if cover is None:
            lo, hi = max(2, len(sizes)), self.cfg.max_dim
            cover = self._covers[sizes] = _count_expansions(list(sizes), lo, hi)
        return cover

    def rep_results(self):
        """(representative context, result, exact covered-context count)."""
        self.run()
        reps = self.clusters.reps
        for key, res in self.results.items():
            context = CoreContext(frozenset(reps[i] for i in key))
            sizes = tuple(sorted(self._sizes[i] for i in key))
            yield context, replace(res, evidence=context), self._cover(sizes)

    def iter_contexts(self):
        """Every covered concrete context with its (inherited) result.

        Expansion is combinatorial in cluster sizes; meant for small
        universes, reporting caps, and equivalence tests.
        """
        self.run()
        for key, res in self.results.items():
            member_sets = [self.clusters.clusters[i] for i in key]
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
    clusters = _cluster_closures(space.masks, {d.target for d in domains})
    return CoreContextScan(space, clusters, cfg).run()
