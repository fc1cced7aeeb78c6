"""Core-context search over synchronized entailment clusters.

Two entailments are synchronized when exactly the same domains' closures
contain them, i.e. when they share one domain mask.  A context's statistics
depend only on its mask, the AND of its entailments' masks, which the
clusters the context touches determine, whichever member of a cluster was
picked.  The search therefore walks sets of cluster representatives, and
every concrete context a set covers inherits its result; the evidence space
scores each distinct mask once.  With ``early_stop`` the walk scans every
set of one or two clusters but enters a larger set only when it or an
extension of it is valid, an exact test memoized over masks.

The scan's result store holds, per scanned cluster set, the evidence
space's shared result for its mask; contexts are attached on the way out.
A set is keyed by its tuple of cluster indices in ascending order.  The
walk is a preorder depth-first search that extends a set only by larger
indices, so the store's insertion order is already the sorted key order.
The walk also carries each set's cluster-size profile down to its children
as an int code, one base ``max_dim + 1`` digit per distinct cluster size
counting the set's clusters of that size (a child's code is its parent's
plus its new cluster's digit), and a set's cover count is computed once
per code.

``iter_contexts`` expands the store to concrete contexts (for small
universes and tests), ``rep_results`` streams one representative context
per set with its exact cover count, and ``lookup`` answers for any specific
context, including one the search pruned.
"""

from __future__ import annotations

import functools
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


def fast_extend(context_atoms, g: Entailment, clusters: SyncClusters) -> bool:
    """True when ``g`` is synchronized with the context: its cluster is
    already represented, so the extended context keeps the same statistics."""
    ci = clusters.of_entailment.get(g)
    if ci is None:
        raise DataError(f"{g} is not in the search universe")
    context_atoms = set(context_atoms)
    missing = context_atoms - clusters.of_entailment.keys()
    if missing:
        raise DataError(f"not in the search universe: {sorted(map(str, missing))}")
    return ci in {clusters.of_entailment[a] for a in context_atoms}


@dataclass
class SearchStats:
    universe: int = 0
    clusters: int = 0
    enumerable: int = 0
    evaluated: int = 0
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
        # validity is the space's: a config with other thresholds would be
        # silently ignored, so it is refused
        for key in ("epsilon", "alpha", "n_min"):
            if getattr(cfg, key) != getattr(space, key):
                raise DataError(
                    f"the search config's {key} {getattr(cfg, key)!r} differs from "
                    f"the evidence space's {getattr(space, key)!r}"
                )
        self.space = space
        self.clusters = clusters
        self.cfg = cfg
        self.results: dict[tuple[int, ...], EvidenceResult] = {}
        self.stats = SearchStats()
        sizes = [len(c) for c in clusters.clusters]
        # profile codes: digit r in base max_dim + 1 counts the set's
        # clusters of the r-th smallest size; a set has at most max_dim
        # clusters, so no digit carries and equal codes mean equal profiles
        self._base = cfg.max_dim + 1
        self._distinct = sorted(set(sizes))
        rank = {m: r for r, m in enumerate(self._distinct)}
        self._digits = tuple(self._base ** rank[m] for m in sizes)
        self._covers: dict[int, int] = {}
        self._ran = False

    # -- search ------------------------------------------------------------

    def run(self) -> "CoreContextScan":
        """Walk every cluster set in preorder, extending a set only by larger
        indices; a child's mask is its parent's ANDed with the new cluster's
        and its profile code its parent's plus the new cluster's digit."""
        if self._ran:
            return self
        self._ran = True
        n = len(self.clusters.clusters)
        u = len(self.clusters.universe)
        max_dim, stop = self.cfg.max_dim, self.cfg.early_stop
        self.stats.universe = u
        self.stats.clusters = n
        self.stats.enumerable = sum(math.comb(u, k) for k in range(2, max_dim + 1))
        masks, digits = self.clusters.masks, self._digits
        results, covers, cover_of = self.results, self._covers, self._cover
        # the space's per-mask store, read here first: a set's mask is
        # nearly always scored already, and a lookup costs less than a call
        score_mask, scored = self.space.score_mask, self.space._scored
        evaluated = covered = valid = 0
        # memoized on (mask, i, k) with no budget: each key stands for a cluster
        # set and costs O(n), so reach costs at most the exhaustive walk, and
        # it recurses at most max_dim deep
        @functools.cache
        def reach(mask: int, i: int, k: int) -> bool:
            """This mask, or it ANDed with up to k masks of clusters i on, is valid."""
            return (scored.get(mask) or score_mask(mask)).valid or k > 0 and any(
                reach(mask & masks[j], j + 1, k - 1) for j in range(i, n)
            )

        def walk(idxs: tuple[int, ...], mask: int, code: int) -> None:
            nonlocal evaluated, covered, valid
            res = scored.get(mask) or score_mask(mask)
            results[idxs] = res
            cover = covers.get(code)
            if cover is None:
                cover = cover_of(code)
            evaluated += 1
            covered += cover
            if res.valid:
                valid += cover
            depth = len(idxs)
            if depth >= max_dim:
                return
            for nxt in range(idxs[-1] + 1, n):
                child_mask = mask & masks[nxt]
                # evidence domains can only shrink along an extension
                assert not child_mask & ~mask, "evidence-domain growth"
                if not stop or depth < 2 or reach(child_mask, nxt + 1, max_dim - depth - 1):
                    walk(idxs + (nxt,), child_mask, code + digits[nxt])

        for i in range(n):
            walk((i,), masks[i], digits[i])
        st = self.stats
        st.evaluated, st.covered, st.valid = evaluated, covered, valid
        return self

    # -- result access -----------------------------------------------------

    def _cover(self, code: int) -> int:
        """Concrete contexts a cluster set with this profile code covers."""
        cover = self._covers.get(code)
        if cover is None:
            sizes, rest = [], code
            for m in self._distinct:
                rest, count = divmod(rest, self._base)
                sizes += [m] * count
            lo, hi = max(2, len(sizes)), self.cfg.max_dim
            cover = self._covers[code] = _count_expansions(sizes, lo, hi)
        return cover

    def rep_results(self):
        """(representative context, result, exact covered-context count)."""
        self.run()
        reps = self.clusters.reps
        for key, res in self.results.items():
            context = CoreContext(frozenset(reps[i] for i in key))
            code = sum(self._digits[i] for i in key)
            yield context, replace(res, evidence=context), self._cover(code)

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
