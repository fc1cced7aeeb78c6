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

The layer computes with the standard library alone, so scoring loads
neither numpy nor scipy; its kernels still accept numpy arrays as input.
"""

from __future__ import annotations

import array
import enum
import math
from dataclasses import dataclass, replace

from .config import SearchConfig, check_thresholds
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
    """Pearson's r of two equal-length vectors (sequences or 1-D arrays).

    The means and the three sums of products are ``math.fsum``s, each
    exactly rounded, so r does not depend on the order of the samples.
    """
    xs, ys = _vector(x), _vector(y)
    if xs is None or ys is None or len(xs) != len(ys):
        raise DataError(
            f"pearson needs two equal-length vectors, got {_shape(x)} and {_shape(y)}"
        )
    n = len(xs)
    if n < 2:
        raise DataError(f"pearson needs at least 2 samples, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [a - mx for a in xs]
    dy = [b - my for b in ys]
    sxx = math.fsum([a * a for a in dx])
    syy = math.fsum([b * b for b in dy])
    if sxx == 0.0:
        raise DataError("pearson undefined: first vector has zero variance")
    if syy == 0.0:
        raise DataError("pearson undefined: second vector has zero variance")
    sxy = math.fsum([a * b for a, b in zip(dx, dy)])
    return sxy / math.sqrt(sxx * syy)


def _vector(v) -> list[float] | None:
    """``v`` as a list of floats, or None unless it is one-dimensional."""
    if getattr(v, "ndim", 1) != 1:
        return None
    try:
        return [float(a) for a in v]
    except TypeError:
        return None


def _shape(v):
    shape = getattr(v, "shape", None)
    if shape is not None:
        return shape
    return (len(v),) if hasattr(v, "__len__") else type(v).__name__


def p_value(r: float, n: int) -> float:
    """Two-sided significance of a correlation r over n samples.

    Student's t with n-2 degrees of freedom, t^2 = r^2 (n-2) / (1 - r^2):
    the two tails hold I_x((n-2)/2, 1/2) at x = (n-2) / (n-2 + t^2), the
    regularized incomplete beta, which ``_betainc`` evaluates with the
    standard library alone.  It agrees with ``scipy.special.betainc`` at
    the same x to a relative 1e-10 for n up to 8,372 (the tests check a
    grid of n and |r| down to 1e-7).  r = 0 gives exactly 1.0 and |r| = 1
    exactly 0.0.
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
    return _betainc(df / 2.0, 0.5, df / (df + t_sq))


# with b = 1/2 the continued fraction converges in under 70 steps for any
# n up to 10**7; the cap stops one that does not converge
_BETA_MAX_STEPS = 300
_BETA_EPS = 1e-15
_BETA_TINY = 1e-300


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta I_x(a, b) for a, b > 0, 0 < x <= 1.

    The continued fraction converges fast below x = (a+1)/(a+b+2); above
    it, I_x(a, b) = 1 - I_{1-x}(b, a) (Numerical Recipes, section 6.4).
    """
    if x == 1.0:
        return 1.0
    y = 1.0 - x
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_fraction(b, a, y, x)
    return _beta_fraction(a, b, x, y)


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) by the modified Lentz method, given y = 1 - x; raises
    DataError rather than return an unconverged value."""
    front = math.exp(a * math.log(x) + b * math.log(y) - _log_beta(a, b)) / a
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _BETA_TINY else _BETA_TINY)
    h = d
    for m in range(1, _BETA_MAX_STEPS + 1):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _BETA_TINY else _BETA_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _BETA_TINY else _BETA_TINY
            h *= d * c
        if abs(d * c - 1.0) < _BETA_EPS:
            return front * h
    raise DataError(
        f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge in {_BETA_MAX_STEPS} steps"
    )


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  Once the larger argument reaches 10, the difference
    lgamma(big + small) - lgamma(big) comes from Stirling's series, so
    that no two lgamma values near big * log(big) cancel."""
    small, big = min(a, b), max(a, b)
    if big < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rise = (
        (big - 0.5) * math.log1p(small / big)
        + small * (math.log(big + small) - 1.0)
        + _stirling_tail(big + small)
        - _stirling_tail(big)
    )
    return math.lgamma(small) - rise


# the Bernoulli terms B_2k / (2k (2k - 1)) of Stirling's series, k = 1..6
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) for x >= 10, to
    below 1e-15."""
    s2 = 1.0 / (x * x)
    acc = 0.0
    for coef in reversed(_STIRLING):
        acc = acc * s2 + coef
    return acc / x


class FactorKind(enum.Enum):
    NEW = "d_new"
    OBS = "d_obs"
    INV = "d_inv"


@dataclass(frozen=True)
class GeneralFactor:
    kind: FactorKind

    def __str__(self) -> str:
        return self.kind.value

    @staticmethod
    def parse(text: str) -> "GeneralFactor":
        try:
            return GeneralFactor(FactorKind(text.strip()))
        except ValueError:
            raise DataError(
                f"unknown general factor {text!r} (expected d_new, d_obs or d_inv)"
            ) from None


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


@dataclass
class EvidenceSpace:
    """Shared precomputation for scoring many evidence items over one
    comparison set: domain closures, usable ordered pairs, the aligned
    transfer-index vector, and each entailment's domain mask (bit i set
    when domain i's closure holds it).  Directed co-existence evidence
    depends only on its mask, and each mask is scored once per space.

    The pair indices and transfer values are kept as tuples of Python
    numbers; direct construction may pass any sequences, numpy arrays
    included."""

    ids: tuple[str, ...]
    closures: tuple[frozenset[Entailment], ...]
    pair_src: tuple[int, ...]
    pair_dst: tuple[int, ...]
    fti_vec: tuple[float, ...]
    epsilon: float
    alpha: float
    n_min: int
    # the kept domains' target entailments, which no core context may hold
    targets: frozenset[Entailment] = frozenset()

    def __post_init__(self):
        check_thresholds(self.epsilon, self.alpha, self.n_min)
        self.pair_src = tuple(int(i) for i in self.pair_src)
        self.pair_dst = tuple(int(j) for j in self.pair_dst)
        self.fti_vec = tuple(float(v) for v in self.fti_vec)
        self.masks: dict[Entailment, int] = membership_masks(self.closures)
        self._scored: dict[int, EvidenceResult] = {}

    @staticmethod
    def build(
        domains: list[LearningDomain],
        fti: dict[tuple[str, str], float],
        epsilon: float = SearchConfig.epsilon,
        alpha: float = SearchConfig.alpha,
        n_min: int = SearchConfig.n_min,
    ) -> "EvidenceSpace":
        if len(domains) < 2:
            raise DataError("correlative reasoning needs at least two domains")
        ids = [d.id for d in domains]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate domain ids in comparison set")
        # the comparison set: the given domains that a measured pair joins
        index = {d: i for i, d in enumerate(ids)}
        pairs = sorted(
            (index[s], index[t], v)
            for (s, t), v in fti.items()
            if s != t and s in index and t in index
        )
        if not pairs:
            raise DataError("transfer cache covers no ordered pair of the comparison set")
        for i, j, v in pairs:
            if not math.isfinite(v):
                raise DataError(f"transfer index of {ids[i]}->{ids[j]} is not finite: {v}")
        kept = sorted({i for i, _, _ in pairs} | {j for _, j, _ in pairs})
        for i in kept:
            # entailment_closure would silently drop a refused LSO
            domains[i].consistent_closures()
        renumber = {i: k for k, i in enumerate(kept)}
        return EvidenceSpace(
            ids=tuple(ids[i] for i in kept),
            closures=tuple(domains[i].entailment_closure() for i in kept),
            pair_src=tuple(renumber[i] for i, _, _ in pairs),
            pair_dst=tuple(renumber[j] for _, j, _ in pairs),
            fti_vec=tuple(v for _, _, v in pairs),
            epsilon=epsilon,
            alpha=alpha,
            n_min=n_min,
            targets=frozenset(domains[i].target for i in kept),
        )

    def membership(self, atoms) -> int:
        """Domain mask: bit i set when domain i's closure holds every atom."""
        out = (1 << len(self.ids)) - 1
        for g in atoms:
            out &= self.masks.get(g, 0)
        return out

    def correlate(self, v_e, v_f, n: int):
        """The one correlation kernel every evidence path funnels through."""
        if n < self.n_min:
            return None, None, "insufficient-samples", False
        if _constant(v_e) or _constant(v_f):
            return None, None, "zero-variance", False
        gamma = pearson(v_e, v_f)
        rho = p_value(gamma, n)
        valid = abs(gamma) >= self.epsilon and rho <= self.alpha
        return gamma, rho, None, valid

    def score_membership(self, evidence: Evidence | None, member) -> EvidenceResult:
        """Score directed co-existence evidence given its domain membership,
        a sequence of one truth value per domain."""
        sel = [k for k, i in enumerate(self.pair_src) if member[i]]
        n = len(sel)
        if n == 0:
            return EvidenceResult(evidence, None, None, 0, False, "no-evidence-domains")
        dst, fti = self.pair_dst, self.fti_vec
        v_e = [1.0 if member[dst[k]] else 0.0 for k in sel]
        v_f = [fti[k] for k in sel]
        gamma, rho, reason, valid = self.correlate(v_e, v_f, n)
        return EvidenceResult(evidence, gamma, rho, n, valid, reason)

    def score_general(self, evidence: GeneralFactor) -> EvidenceResult:
        field = _FIELD[evidence.kind]
        v_e = [
            getattr(change_rates(self.closures[i], self.closures[j]), field)
            for i, j in zip(self.pair_src, self.pair_dst)
        ]
        gamma, rho, reason, valid = self.correlate(v_e, self.fti_vec, len(v_e))
        return EvidenceResult(evidence, gamma, rho, len(v_e), valid, reason)

    def score_mask(self, mask: int) -> EvidenceResult:
        """The stored result of a domain mask, scored once per space; evidence None."""
        stored = self._scored.get(mask)
        if stored is None:
            member = array.array("B", [mask >> i & 1 for i in range(len(self.ids))])
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


def _constant(v) -> bool:
    first = v[0]
    return all(a == first for a in v)


_FIELD = {
    FactorKind.NEW: "new",
    FactorKind.OBS: "obsolete",
    FactorKind.INV: "invariant",
}


def correlative_reason(
    domains: list[LearningDomain],
    evidence: Evidence,
    fti: dict[tuple[str, str], float],
    epsilon: float = SearchConfig.epsilon,
    alpha: float = SearchConfig.alpha,
    n_min: int = SearchConfig.n_min,
) -> EvidenceResult:
    """Score one piece of evidence against one comparison set."""
    space = EvidenceSpace.build(domains, fti, epsilon=epsilon, alpha=alpha, n_min=n_min)
    return space.score(evidence)
