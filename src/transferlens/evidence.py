"""Correlative reasoning: does a piece of evidence travel with transfer gain?

Evidence comes in three flavors.  General factors embed each ordered domain
pair as a closure change rate (new / obsolete / invariant fraction).
Particular narrators and core contexts embed a pair as directed
co-existence: 1 when the evidence entailments all hold in the target
domain's closure, 0 otherwise, restricted to pairs whose source domain
carries the evidence.  Each embedding is correlated against the transfer
index over the same pairs; the result is valid when the correlation is
strong enough, significant enough, and supported by enough pairs.

Invalid results carry a reason code instead of raising: batch runs over many
domains routinely hit evidence with no supporting pairs or constant
embeddings, and those outcomes are findings, not errors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betainc

from .domain import LearningDomain, membership_masks
from .errors import DataError
from .reasoner import Entailment


@dataclass(frozen=True)
class ChangeRates:
    new: float
    obsolete: float
    invariant: float


def change_rates(ga: frozenset, gb: frozenset) -> ChangeRates:
    """Closure change rates from source atoms ``ga`` to target atoms ``gb``.

    new: fraction of the target closure absent from the source;
    obsolete: fraction of the source closure absent from the target;
    invariant: shared fraction of the union (1.0 exactly when ga == gb).
    """
    if not ga:
        raise DataError("change rates undefined: source closure is empty")
    if not gb:
        raise DataError("change rates undefined: target closure is empty")
    union = len(ga | gb)
    return ChangeRates(
        new=len(gb - ga) / len(gb),
        obsolete=len(ga - gb) / len(ga),
        invariant=len(ga & gb) / union,
    )


def change_rates_from_counts(
    n_source: int, n_target: int, n_new: int, n_obsolete: int, n_invariant: int
) -> ChangeRates:
    """Change rates from raw counts, for audit trails quoting set sizes.

    The invariant rate here divides by the plain size sum, matching how
    summarized counts are usually reported; the set-based form divides by
    the union instead.
    """
    if n_source <= 0:
        raise DataError("change rates undefined: source closure is empty")
    if n_target <= 0:
        raise DataError("change rates undefined: target closure is empty")
    return ChangeRates(
        new=n_new / n_target,
        obsolete=n_obsolete / n_source,
        invariant=n_invariant / (n_source + n_target),
    )


def dec(evidence_atoms, target_atoms) -> int:
    """Directed co-existence: 1 iff every evidence atom holds in the target."""
    return 1 if frozenset(evidence_atoms) <= target_atoms else 0


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"pearson needs two equal-length vectors, got {x.shape} and {y.shape}")
    n = x.shape[0]
    if n < 2:
        raise DataError(f"pearson needs at least 2 samples, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0:
        raise DataError("pearson undefined: first vector has zero variance")
    if syy == 0.0:
        raise DataError("pearson undefined: second vector has zero variance")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def p_value(r: float, n: int) -> float:
    """Two-sided significance of a correlation r over n samples.

    Student's t with n-2 degrees of freedom; the tail mass is evaluated
    through the regularized incomplete beta function.
    """
    if n < 3:
        raise DataError(f"p_value needs at least 3 samples, got {n}")
    if not -1.0 - 1e-12 <= r <= 1.0 + 1e-12:
        raise DataError(f"correlation out of range: {r}")
    r = min(max(r, -1.0), 1.0)
    df = n - 2
    if abs(r) == 1.0:
        return 0.0
    t_sq = r * r * df / (1.0 - r * r)
    return float(betainc(df / 2.0, 0.5, df / (df + t_sq)))


class FactorKind(enum.Enum):
    NEW = "new"
    OBS = "obs"
    INV = "inv"


@dataclass(frozen=True)
class GeneralFactor:
    kind: FactorKind

    def __str__(self) -> str:
        return {"new": "d_new", "obs": "d_obs", "inv": "d_inv"}[self.kind.value]

    @staticmethod
    def parse(text: str) -> "GeneralFactor":
        table = {
            "d_new": FactorKind.NEW,
            "d_obs": FactorKind.OBS,
            "d_inv": FactorKind.INV,
        }
        kind = table.get(text.strip())
        if kind is None:
            raise DataError(
                f"unknown general factor {text!r} (expected d_new, d_obs or d_inv)"
            )
        return GeneralFactor(kind)


@dataclass(frozen=True)
class ParticularNarrator:
    entailment: Entailment

    def __str__(self) -> str:
        return str(self.entailment)


@dataclass(frozen=True)
class CoreContext:
    entailments: frozenset[Entailment]

    def __str__(self) -> str:
        return " + ".join(sorted(str(g) for g in self.entailments))


Evidence = GeneralFactor | ParticularNarrator | CoreContext


@dataclass(frozen=True)
class EvidenceResult:
    evidence: Evidence | None  # None on the shared per-mask result of a space
    gamma: float | None
    rho: float | None
    n: int
    valid: bool
    reason: str | None = None


def check_thresholds(epsilon: float, alpha: float) -> None:
    """Validity thresholds: epsilon in [0, 1], alpha in (0, 1); NaN fails both."""
    if not 0.0 <= epsilon <= 1.0:
        raise DataError(f"epsilon must be in [0, 1], got {epsilon}")
    if not 0.0 < alpha < 1.0:
        raise DataError(f"alpha must be in (0, 1), got {alpha}")


@dataclass
class EvidenceSpace:
    """Shared precomputation for scoring many evidence items over one
    comparison set: domain closures, usable ordered pairs, the aligned
    transfer-index vector, and each entailment's domain mask (bit i set
    when domain i's closure holds it).  Directed co-existence evidence
    depends only on its mask, and each mask is scored once per space."""

    ids: tuple[str, ...]
    closures: tuple[frozenset[Entailment], ...]
    pair_src: np.ndarray
    pair_dst: np.ndarray
    fti_vec: np.ndarray
    epsilon: float
    alpha: float
    n_min: int

    def __post_init__(self):
        check_thresholds(self.epsilon, self.alpha)
        self.masks: dict[Entailment, int] = membership_masks(self.closures)
        self._scored: dict[int, EvidenceResult] = {}

    @staticmethod
    def build(
        domains: list[LearningDomain],
        fti: dict[tuple[str, str], float],
        epsilon: float = 0.1,
        alpha: float = 0.05,
        n_min: int = 3,
    ) -> "EvidenceSpace":
        if len(domains) < 2:
            raise DataError("correlative reasoning needs at least two domains")
        ids = tuple(d.id for d in domains)
        if len(set(ids)) != len(ids):
            raise DataError("duplicate domain ids in comparison set")
        closures = tuple(d.entailment_closure() for d in domains)
        src, dst, vals = [], [], []
        for i in range(len(domains)):
            for j in range(len(domains)):
                if i == j:
                    continue
                v = fti.get((ids[i], ids[j]))
                if v is not None:
                    if not math.isfinite(v):
                        raise DataError(
                            f"transfer index of {ids[i]}->{ids[j]} is not finite: {v}"
                        )
                    src.append(i)
                    dst.append(j)
                    vals.append(float(v))
        if not vals:
            raise DataError("transfer cache covers no ordered pair of the comparison set")
        return EvidenceSpace(
            ids=ids,
            closures=closures,
            pair_src=np.array(src, dtype=np.intp),
            pair_dst=np.array(dst, dtype=np.intp),
            fti_vec=np.array(vals, dtype=np.float64),
            epsilon=epsilon,
            alpha=alpha,
            n_min=n_min,
        )

    def membership(self, atoms) -> int:
        """Domain mask: bit i set when domain i's closure holds every atom."""
        out = (1 << len(self.ids)) - 1
        for g in atoms:
            out &= self.masks.get(g, 0)
        return out

    def correlate(self, v_e: np.ndarray, v_f: np.ndarray, n: int):
        """The one correlation kernel every evidence path funnels through."""
        if n < max(self.n_min, 3):
            return None, None, "insufficient-samples", False
        if np.all(v_e == v_e[0]) or np.all(v_f == v_f[0]):
            return None, None, "zero-variance", False
        gamma = pearson(v_e, v_f)
        rho = p_value(gamma, n)
        valid = abs(gamma) >= self.epsilon and rho <= self.alpha
        return gamma, rho, None, valid

    def score_membership(self, evidence: Evidence | None, member: np.ndarray) -> EvidenceResult:
        """Score directed co-existence evidence given its domain membership."""
        if not member.any():
            return EvidenceResult(evidence, None, None, 0, False, "no-evidence-domains")
        sel = member[self.pair_src]
        n = int(sel.sum())
        if n == 0:
            return EvidenceResult(evidence, None, None, 0, False, "no-evidence-domains")
        v_e = member[self.pair_dst][sel].astype(np.float64)
        v_f = self.fti_vec[sel]
        gamma, rho, reason, valid = self.correlate(v_e, v_f, n)
        return EvidenceResult(evidence, gamma, rho, n, valid, reason)

    def score_general(self, evidence: GeneralFactor) -> EvidenceResult:
        v_e = np.empty(len(self.fti_vec), dtype=np.float64)
        for k, (i, j) in enumerate(zip(self.pair_src, self.pair_dst)):
            rates = change_rates(self.closures[i], self.closures[j])
            v_e[k] = getattr(rates, _FIELD[evidence.kind])
        n = len(v_e)
        gamma, rho, reason, valid = self.correlate(v_e, self.fti_vec, n)
        return EvidenceResult(evidence, gamma, rho, n, valid, reason)

    def score_mask(self, mask: int) -> EvidenceResult:
        """The stored result of a domain mask, scored once per space; evidence None."""
        stored = self._scored.get(mask)
        if stored is None:
            member = np.array([mask >> i & 1 for i in range(len(self.ids))], dtype=bool)
            stored = self._scored[mask] = self.score_membership(None, member)
        return stored

    def score(self, evidence: Evidence) -> EvidenceResult:
        if isinstance(evidence, GeneralFactor):
            return self.score_general(evidence)
        if isinstance(evidence, ParticularNarrator):
            atoms = (evidence.entailment,)
        else:
            atoms = evidence.entailments
        return replace(self.score_mask(self.membership(atoms)), evidence=evidence)


_FIELD = {
    FactorKind.NEW: "new",
    FactorKind.OBS: "obsolete",
    FactorKind.INV: "invariant",
}


def correlative_reason(
    domains: list[LearningDomain],
    evidence: Evidence,
    fti: dict[tuple[str, str], float],
    epsilon: float = 0.1,
    alpha: float = 0.05,
    n_min: int = 3,
) -> EvidenceResult:
    """Score one piece of evidence against one comparison set."""
    space = EvidenceSpace.build(domains, fti, epsilon=epsilon, alpha=alpha, n_min=n_min)
    return space.score(evidence)
