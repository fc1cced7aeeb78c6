"""Learning domains: annotated LSO collections over a shared TBox.

An LSO (learning-system observation) is one observation unit: a set of
key/value annotations plus an ABox.  A learning domain bundles the LSOs that
share an annotation profile, fixes the target entailment whose presence in
an LSO's closure is the supervised label, and optionally carries external
axioms imported from a knowledge base, which join every LSO's ABox when
closures are computed.

Feature encoding is bag-of-entailments: one bit per vocabulary entailment,
plus a dense block of numeric value properties (roles whose objects are
finite numbers, averaged per LSO).  Only the encoder functions import
numpy, so the knowledge stages, which use closures and masks alone, never
load it.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from typing import TYPE_CHECKING

from .config import check_train_frac
from .errors import DataError
from .ontology import ABoxAxiom, NormalizedTBox
from .reasoner import Entailment, EntailmentClosure, materialize

if TYPE_CHECKING:
    import numpy as np


@contextmanager
def collector_paused():
    """Pause the cycle collector, then restore the state it had.

    Loading a corpus and closing its LSOs allocate many objects and no
    reference cycles, so the collections they would trigger free nothing
    and, on a large corpus, walk the growing heap again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Lso:
    name: str
    annotations: frozenset[tuple[str, str]]
    abox: frozenset[ABoxAxiom]


@dataclass
class LearningDomain:
    id: str
    tbox: NormalizedTBox
    lsos: tuple[Lso, ...]
    target: Entailment
    external_axioms: frozenset[ABoxAxiom] = frozenset()
    _closures: tuple[EntailmentClosure, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.lsos:
            raise DataError(f"domain {self.id} has no LSOs")

    def set_external_axioms(self, axioms) -> None:
        axioms = frozenset(axioms)
        if axioms != self.external_axioms:
            self.external_axioms = axioms
            self._closures = None

    def lso_closures(self) -> tuple[EntailmentClosure, ...]:
        if self._closures is None:
            ext = self.external_axioms
            with collector_paused():
                self._closures = tuple(
                    materialize(self.tbox, lso.abox | ext) for lso in self.lsos
                )
        return self._closures

    def closure_atom_sets(self) -> tuple[frozenset[Entailment], ...]:
        return tuple(c.atoms() for c in self.lso_closures())

    def entailment_closure(self) -> frozenset[Entailment]:
        """The domain closure: union of all LSO closures."""
        out: set[Entailment] = set()
        for c in self.lso_closures():
            if not c.inconsistent:
                out |= c.atoms()
        return frozenset(out)

    def labels(self) -> np.ndarray:
        import numpy as np

        return np.array(
            [1 if c.entails(self.target) else 0 for c in self.lso_closures()],
            dtype=np.int64,
        )


def membership_masks(atom_sets) -> dict[Entailment, int]:
    """Entailment -> int mask over ``atom_sets``: bit i is set when the
    i-th set holds the entailment."""
    masks: dict[Entailment, int] = {}
    for i, atoms in enumerate(atom_sets):
        bit = 1 << i
        for g in atoms:
            masks[g] = masks.get(g, 0) | bit
    return masks


def domain_annotation(domain: LearningDomain) -> frozenset[tuple[str, str]]:
    """Annotation pairs shared by every LSO, plus the target marker."""
    shared = set(domain.lsos[0].annotations)
    for lso in domain.lsos[1:]:
        shared &= lso.annotations
    shared.add(("t_e", str(domain.target)))
    return frozenset(shared)


def build_vocabulary(domains) -> tuple[Entailment, ...]:
    """Sorted union of LSO closure entailments, excluding every target.

    Accepts one domain or a comparison set; a shared vocabulary makes
    encodings from different domains dimensionally compatible.
    """
    if isinstance(domains, LearningDomain):
        domains = [domains]
    targets = {d.target for d in domains}
    vocab: set[Entailment] = set()
    for d in domains:
        for atoms in d.closure_atom_sets():
            vocab |= atoms
    return tuple(sorted(vocab - targets))


def _numeric(text: str) -> float | None:
    """The finite number ``text`` spells, else None."""
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def value_properties(domains) -> tuple[str, ...]:
    """Roles whose objects are finite numbers in every occurrence, sorted."""
    if isinstance(domains, LearningDomain):
        domains = [domains]
    numeric: set[str] = set()
    tainted: set[str] = set()
    for d in domains:
        for atoms in d.closure_atom_sets():
            for g in atoms:
                if g.is_class_atom:
                    continue
                if _numeric(g.args[1]) is None:
                    tainted.add(g.pred)
                else:
                    numeric.add(g.pred)
    return tuple(sorted(numeric - tainted))


@dataclass
class FeatureVector:
    bits: np.ndarray
    values: np.ndarray
    label: int

    @property
    def x(self) -> np.ndarray:
        import numpy as np

        return np.concatenate([self.bits, self.values])


def boe_encode(
    domain: LearningDomain,
    index: int,
    vocab: tuple[Entailment, ...],
    value_props: tuple[str, ...] = (),
) -> FeatureVector:
    """Encode one LSO as vocabulary bits plus value-property averages.

    Refuses inconsistent LSOs: a contradictory observation entails
    everything and would poison the encoding silently.
    """
    import numpy as np

    closure = domain.lso_closures()[index]
    if closure.inconsistent:
        raise DataError(
            f"LSO {domain.lsos[index].name!r} of domain {domain.id} is "
            f"inconsistent ({closure.inconsistency_witness}); refusing to encode"
        )
    atoms = closure.atoms()
    bits = np.array([1.0 if g in atoms else 0.0 for g in vocab], dtype=np.float64)
    vals = np.zeros(len(value_props), dtype=np.float64)
    if value_props:
        sums = {p: [] for p in value_props}
        for g in atoms:
            if not g.is_class_atom and g.pred in sums:
                v = _numeric(g.args[1])
                if v is not None:
                    sums[g.pred].append(v)
        for j, p in enumerate(value_props):
            if sums[p]:
                # the atoms are a set, so the sum must not depend on their order
                vals[j] = math.fsum(sums[p]) / len(sums[p])
    return FeatureVector(bits=bits, values=vals, label=int(closure.entails(domain.target)))


def encode_dataset(
    domain: LearningDomain,
    vocab: tuple[Entailment, ...],
    value_props: tuple[str, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """All LSOs of a domain as a feature matrix and label vector."""
    import numpy as np

    fvs = [boe_encode(domain, i, vocab, value_props) for i in range(len(domain.lsos))]
    X = np.stack([fv.x for fv in fvs])
    y = np.array([fv.label for fv in fvs], dtype=np.int64)
    return X, y


def split_indices(
    domain: LearningDomain, train_frac: float = 0.8, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Train/test index split.

    When every LSO carries a ``dat`` annotation the split is chronological
    (train on the past, test on the future); otherwise it is a seeded
    shuffle.  ``train_frac`` of the LSOs, rounded up, go to training.
    """
    import numpy as np

    check_train_frac(train_frac)
    n = len(domain.lsos)
    dats = []
    for lso in domain.lsos:
        d = [date.fromisoformat(v) for k, v in lso.annotations if k == "dat"]
        dats.append(min(d) if d else None)
    if all(d is not None for d in dats):
        order = sorted(range(n), key=lambda i: (dats[i], domain.lsos[i].name))
    else:
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(n))
    cut = int(np.ceil(train_frac * n))
    cut = min(max(cut, 1), n - 1)
    return order[:cut], order[cut:]
