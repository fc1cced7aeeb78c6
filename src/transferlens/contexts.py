"""Core-context search over the concept lattice of entailment clusters.

Two entailments are synchronized when exactly the same domains' closures
contain them, i.e. when they share one domain mask; a cluster holds one
mask's entailments.  A context's statistics depend only on its mask, the
AND of its entailments' masks, and every mask a context of at most
``max_dim`` entailments can have is the AND of at most ``max_dim`` cluster
masks.  These masks are the extents of formal concepts (Ganter & Wille),
so the search is over concepts, not cluster sets: a breadth-first
AND-closure of the cluster masks finds each reachable mask together with
its least generator, the first cluster set (fewest clusters, then index
order) whose AND it is, and the evidence space scores each mask once.

A concept's cover, the number of concrete contexts of 2..``max_dim``
entailments whose mask is exactly it, comes from Möbius inversion over the
lattice (Rota 1964): with u(M) the entailments whose mask contains M,
f(M) = sum of C(u(M), k) for k = 2..max_dim counts the contexts whose
mask contains M, and g(M) = f(M) - sum of g(M') over the concepts M'
strictly above M.

The evidence space's per-mask store is the one store of results; the
scan keeps only the concepts.  Without ``early_stop`` it also walks every
cluster set of 1..``max_dim`` clusters, the exhaustive oracle, into
``results``: the space's shared result per set, keyed by its cluster
indices in ascending order, in sorted key order.  Concepts and covers are
the same either way.

``concept_rows`` streams one row per concept that covers a context,
``iter_contexts`` scores every concrete context (for small universes and
tests), and ``lookup`` answers for any specific context.
"""

from __future__ import annotations

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
        # the exhaustive walk's store; empty with early_stop
        self.results: dict[tuple[int, ...], EvidenceResult] = {}
        # concept mask -> (least generator, cover), in breadth-first order
        self.concepts: dict[int, tuple[tuple[int, ...], int]] = {}
        self.stats = SearchStats()
        self._ran = False

    # -- search ------------------------------------------------------------

    def run(self) -> "CoreContextScan":
        """Build the concept lattice and its covers; without ``early_stop``,
        also walk every cluster set into the store."""
        if self._ran:
            return self
        self._ran = True
        masks, max_dim = self.clusters.masks, self.cfg.max_dim
        n, u = len(masks), len(self.clusters.universe)
        # a mask first reached with k clusters has a least generator whose
        # first k - 1 clusters are the least generator of their own mask, so
        # extending each new mask's generator by larger indices, in order,
        # reaches every mask first from its least generator
        gens = {m: (i,) for i, m in enumerate(masks)}
        frontier = list(gens.items())
        for _ in range(max_dim - 1):
            grown = []
            for mask, gen in frontier:
                for j in range(gen[-1] + 1, n):
                    child = mask & masks[j]
                    if child not in gens:
                        gens[child] = gen + (j,)
                        grown.append((child, gens[child]))
            frontier = grown
        # Möbius inversion, every strict superset (more domains) first
        sizes = [len(c) for c in self.clusters.clusters]
        covers: dict[int, int] = {}
        for mask in sorted(gens, key=int.bit_count, reverse=True):
            held = sum(s for m, s in zip(masks, sizes) if m & mask == mask)
            above = sum(g for m, g in covers.items() if m & mask == mask)
            covers[mask] = sum(math.comb(held, k) for k in range(2, max_dim + 1)) - above
        self.concepts = {m: (gen, covers[m]) for m, gen in gens.items()}

        if not self.cfg.early_stop:
            self._walk()
        st = self.stats
        st.universe, st.clusters = u, n
        st.enumerable = sum(math.comb(u, k) for k in range(2, max_dim + 1))
        st.evaluated = len(gens) if self.cfg.early_stop else len(self.results)
        st.covered = sum(covers.values())
        st.valid = sum(g for m, g in covers.items() if self.space.score_mask(m).valid)
        return self

    def _walk(self) -> None:
        """Store every cluster set of 1..max_dim clusters in preorder,
        extending a set only by larger indices, so in sorted key order; a
        child's mask is its parent's ANDed with the new cluster's."""
        masks, max_dim, results = self.clusters.masks, self.cfg.max_dim, self.results
        n = len(masks)
        # the space's per-mask store, read here first: a set's mask is
        # nearly always scored already, and a lookup costs less than a call
        score_mask, scored = self.space.score_mask, self.space._scored

        def walk(idxs: tuple[int, ...], mask: int) -> None:
            results[idxs] = scored.get(mask) or score_mask(mask)
            if len(idxs) < max_dim:
                for nxt in range(idxs[-1] + 1, n):
                    walk(idxs + (nxt,), mask & masks[nxt])

        for i in range(n):
            walk((i,), masks[i])

    # -- result access -----------------------------------------------------

    def concept_rows(self):
        """(result, cover) per concept covering at least one context; the
        result's evidence is its generator's cluster representatives."""
        self.run()
        reps = self.clusters.reps
        for mask, (gen, cover) in self.concepts.items():
            if cover:
                context = CoreContext(frozenset(reps[i] for i in gen))
                yield replace(self.space.score_mask(mask), evidence=context), cover

    def iter_contexts(self):
        """Every enumerable context of 2..max_dim entailments with its
        result.  Combinatorial; meant for small universes and equivalence
        tests."""
        for k in range(2, self.cfg.max_dim + 1):
            for atoms in itertools.combinations(self.clusters.universe, k):
                yield self.space.score(CoreContext(frozenset(atoms)))

    def lookup(self, atoms) -> EvidenceResult:
        """Result for one specific context."""
        atoms = frozenset(atoms)
        if not atoms:
            raise DataError("empty context")
        missing = [g for g in atoms if g not in self.clusters.of_entailment]
        if missing:
            raise DataError(f"not in the search universe: {sorted(map(str, missing))}")
        return self.space.score(CoreContext(atoms))


def core_context_search(
    domains: list[LearningDomain],
    fti: dict[tuple[str, str], float],
    cfg: SearchConfig = SearchConfig(),
) -> CoreContextScan:
    """Run the clustered search; the returned scan is already complete."""
    space = EvidenceSpace.build(
        domains, fti, epsilon=cfg.epsilon, alpha=cfg.alpha, n_min=cfg.n_min
    )
    clusters = _cluster_closures(space.masks, space.targets)
    return CoreContextScan(space, clusters, cfg).run()
