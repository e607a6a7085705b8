"""Discrimination functions delta (Definition 3 / Section 3.2).

The reference implementation is :class:`MultinomialDiscriminator`: the
context distribution, normalized into a multinomial hypothesis, is tested
against the query observations; the score is::

    MT(pi, x) = 1 - Pr_s(X_{N,pi} = x)   if Pr_s <= alpha, else 0
    delta(l, C, Q) = max(delta_Inst, delta_Card)

:class:`KLDiscriminator`, :class:`EMDDiscriminator` and
:class:`ChiSquareDiscriminator` implement the alternatives the paper
compares against in the Section 4.2 "Metrics comparison" experiment; their
scores are raw divergences (higher = more different) rather than
probability complements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.distributions import CharacteristicDistributions
from repro.stats.divergence import kl_divergence
from repro.stats.emd import earth_movers_distance_1d, total_variation_distance
from repro.stats.histograms import counts_to_probabilities
from repro.stats.multinomial import MultinomialTestResult, multinomial_test
from repro.stats.tests import chi_square_test
from repro.util.rng import RandomSource, ensure_rng


@dataclass(frozen=True)
class DiscriminationResult:
    """delta applied to one characteristic.

    ``score`` follows the paper's convention: 0 means "not notable";
    any positive value means notable, larger = more notable. For the
    multinomial discriminator the per-channel significance probabilities
    (p-values) are carried along — Figure 9 plots exactly those.
    """

    label: str
    score: float
    inst_score: float
    card_score: float
    inst_p_value: float | None = None
    card_p_value: float | None = None
    distributions: CharacteristicDistributions | None = None

    @property
    def notable(self) -> bool:
        """Whether either channel cleared the discriminator's bar."""
        return self.score > 0.0

    @property
    def channel(self) -> str:
        """Which distribution pair drove the final score."""
        return "instance" if self.inst_score >= self.card_score else "cardinality"

    @property
    def min_p_value(self) -> float | None:
        """The smaller of the two channel p-values (Figure 9's y-axis)."""
        candidates = [p for p in (self.inst_p_value, self.card_p_value) if p is not None]
        return min(candidates) if candidates else None


class Discriminator(ABC):
    """Interface of a discrimination function delta."""

    name: str = "discriminator"

    @abstractmethod
    def score(self, distributions: CharacteristicDistributions) -> DiscriminationResult:
        """Score one characteristic from its aligned distribution pairs."""


class MultinomialDiscriminator(Discriminator):
    """The paper's delta: exact multinomial test on both channels.

    ``alpha`` is the significance level (0.05 in the paper; Figure 9 notes
    that relaxing it to 0.1 surfaces borderline characteristics such as
    ``owns``).

    Two regularizations, both required to reproduce the Section-4.2 test
    cases (see DESIGN.md):

    * **Unseen-value smoothing** (``unseen_pseudocount``): values observed
      only in the query get a small pseudo-count in the context
      distribution instead of probability zero. A literal zero makes every
      query-specific value (Brad Pitt's own company under ``owns``)
      maximally significant; the paper instead reports ``owns`` as a
      *borderline* case surfaced only at significance 0.1, which requires a
      finite p-value.
    * **Identity-free-channel skip**: when every non-``None`` context value
      occurs exactly once, value *identity* carries no information — the
      relation hands each entity its own value (books written, companies
      founded). The channel then only retains *existence* information,
      which is testable only when a substantial share of the context
      actually lacks the edge (``min_none_share``, default 25% — Figure 7's
      ``created`` has a 43% None mass and stays testable; the authors'
      ``created`` has ~10% and is skipped: "all authors only created their
      own works ... this is an expected result and thus not notable").
    """

    name = "multinomial"

    def __init__(
        self,
        *,
        alpha: float = 0.05,
        unseen_pseudocount: float = 0.5,
        min_none_share: float = 0.25,
        cardinality_kernel: float = 0.25,
        rng: RandomSource = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if unseen_pseudocount < 0:
            raise ValueError("unseen_pseudocount must be >= 0")
        if not 0.0 <= min_none_share <= 1.0:
            raise ValueError("min_none_share must be in [0, 1]")
        if not 0.0 <= cardinality_kernel < 0.5:
            raise ValueError("cardinality_kernel must be in [0, 0.5)")
        self.alpha = alpha
        self.unseen_pseudocount = unseen_pseudocount
        self.min_none_share = min_none_share
        self.cardinality_kernel = cardinality_kernel
        # Without an ``rng`` the Monte-Carlo fallback seeds itself from each
        # test's own inputs, so answers never depend on the instance.
        self._rng = ensure_rng(rng) if rng is not None else None

    def _channel(
        self,
        context_counts: np.ndarray,
        query_counts: np.ndarray,
        *,
        none_index: int | None = None,
        check_identity_free: bool = False,
        ordinal: bool = False,
    ) -> MultinomialTestResult:
        n = int(query_counts.sum())
        context_total = int(context_counts.sum())
        if context_total == 0:
            # The context never exhibits the label at all while the query
            # does (possible when the None bucket is disabled): maximally
            # significant by convention.
            return MultinomialTestResult(
                p_value=0.0,
                alpha=self.alpha,
                n=n,
                support=int(query_counts.size),
                method="degenerate",
            )
        if check_identity_free and self._identity_free(
            context_counts, none_index, context_total
        ):
            return MultinomialTestResult(
                p_value=1.0,
                alpha=self.alpha,
                n=n,
                support=int(query_counts.size),
                method="uninformative",
            )
        smoothed = (
            self._smooth_ordinal(context_counts)
            if ordinal
            else context_counts.astype(float)
        )
        if self.unseen_pseudocount > 0:
            unseen = (smoothed == 0) & (query_counts > 0)
            smoothed = smoothed + unseen * self.unseen_pseudocount
        pi = counts_to_probabilities(smoothed)
        return multinomial_test(
            pi,
            query_counts,
            alpha=self.alpha,
            rng=self._rng.getrandbits(63) if self._rng is not None else None,
        )

    def _smooth_ordinal(self, counts: np.ndarray) -> np.ndarray:
        """Redistribute a slice of each positive cell's mass to neighbours.

        Cardinality supports are *ordered* above zero (having 7 books is
        like having 8), but the multinomial test is order-blind: a sparse
        context histogram with an accidental gap at exactly the query's
        count would read as a categorically new value. The kernel
        ``(k, 1 - 2k, k)`` over the cells >= 1 (boundary mass folded back)
        removes such gaps without changing the total mass.

        The 0 cell is deliberately **not** smoothed: existence is the
        categorical boundary the cardinality channel is *for* ("Angela
        Merkel has no child while all other leaders have at least one") —
        bleeding mass from "1" into "0" would erase exactly that signal.
        """
        k = self.cardinality_kernel
        values = counts.astype(float)
        if k <= 0 or counts.size < 3:
            return values
        body = values[1:]  # the ordinal region: counts >= 1
        smoothed_body = (1.0 - 2.0 * k) * body
        smoothed_body[:-1] += k * body[1:]
        smoothed_body[1:] += k * body[:-1]
        # Fold the mass that would leave the region back into its edges.
        smoothed_body[0] += k * body[0]
        smoothed_body[-1] += k * body[-1]
        out = values.copy()
        out[1:] = smoothed_body
        return out

    def _identity_free(
        self,
        context_counts: np.ndarray,
        none_index: int | None,
        context_total: int,
    ) -> bool:
        """Whether the instance channel carries no usable signal.

        True when all non-None context values are singletons (identity is
        per-entity-unique) *and* the None bucket holds less than
        ``min_none_share`` of the context mass (existence is near-universal,
        so the query having values of its own is expected).
        """
        non_none = context_counts.astype(np.int64).copy()
        none_count = 0
        if none_index is not None:
            none_count = int(non_none[none_index])
            non_none[none_index] = 0
        if non_none.size and int(non_none.max(initial=0)) > 1:
            return False
        return none_count / context_total < self.min_none_share

    def score(self, distributions: CharacteristicDistributions) -> DiscriminationResult:
        """Exact multinomial test per channel, maximized (Section 4.1)."""
        from repro.core.distributions import NONE_INSTANCE

        none_index = None
        for index, value in enumerate(distributions.instance_support):
            if value is NONE_INSTANCE:
                none_index = index
                break
        inst = self._channel(
            distributions.inst_context,
            distributions.inst_query,
            none_index=none_index,
            check_identity_free=True,
        )
        card = self._channel(
            distributions.card_context, distributions.card_query, ordinal=True
        )
        return DiscriminationResult(
            label=distributions.label,
            score=max(inst.score, card.score),
            inst_score=inst.score,
            card_score=card.score,
            inst_p_value=inst.p_value,
            card_p_value=card.p_value,
            distributions=distributions,
        )


class KLDiscriminator(Discriminator):
    """delta via smoothed KL divergence (baseline of Section 4.2).

    The divergence of the query distribution from the context distribution
    is taken per channel and maximized; scores are unbounded divergences.
    A ``threshold`` can zero-out small divergences to mimic the notable /
    not-notable cut, default 0 (every difference counts).
    """

    name = "kl"

    def __init__(self, *, smoothing: float = 0.5, threshold: float = 0.0) -> None:
        if smoothing <= 0:
            raise ValueError("KL over sparse query distributions needs smoothing > 0")
        self.smoothing = smoothing
        self.threshold = threshold

    def _channel(self, query_counts: np.ndarray, context_counts: np.ndarray) -> float:
        if query_counts.sum() == 0 or context_counts.sum() == 0:
            return 0.0
        return kl_divergence(
            query_counts.astype(float),
            context_counts.astype(float),
            smoothing=self.smoothing,
        )

    def score(self, distributions: CharacteristicDistributions) -> DiscriminationResult:
        """Smoothed KL divergence per channel, maximized."""
        inst = self._channel(distributions.inst_query, distributions.inst_context)
        card = self._channel(distributions.card_query, distributions.card_context)
        best = max(inst, card)
        return DiscriminationResult(
            label=distributions.label,
            score=best if best > self.threshold else 0.0,
            inst_score=inst,
            card_score=card,
            distributions=distributions,
        )


class EMDDiscriminator(Discriminator):
    """delta via Earth Mover's Distance (baseline of Section 4.2).

    Cardinality channels use true 1-D EMD over the ordered support; the
    instance channel has no value distance (the paper's objection), so the
    discrete-metric EMD — total variation — is used there.
    """

    name = "emd"

    def __init__(self, *, threshold: float = 0.0) -> None:
        self.threshold = threshold

    def score(self, distributions: CharacteristicDistributions) -> DiscriminationResult:
        """Earth-mover's / total-variation distance per channel, maximized."""
        if distributions.inst_query.sum() > 0 and distributions.inst_context.sum() > 0:
            inst = total_variation_distance(
                distributions.inst_query.astype(float),
                distributions.inst_context.astype(float),
            )
        else:
            inst = 0.0
        if distributions.card_query.sum() > 0 and distributions.card_context.sum() > 0:
            card = earth_movers_distance_1d(
                distributions.card_query.astype(float),
                distributions.card_context.astype(float),
                positions=list(distributions.cardinality_support),
            )
        else:
            card = 0.0
        best = max(inst, card)
        return DiscriminationResult(
            label=distributions.label,
            score=best if best > self.threshold else 0.0,
            inst_score=inst,
            card_score=card,
            distributions=distributions,
        )


class ChiSquareDiscriminator(Discriminator):
    """delta via the Pearson chi-square test (rejected by the paper for
    query-sized samples; kept for the assumption-violation ablation)."""

    name = "chi-square"

    def __init__(self, *, alpha: float = 0.05) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha

    def _channel(self, query_counts: np.ndarray, context_counts: np.ndarray) -> tuple[float, float]:
        if query_counts.sum() == 0 or context_counts.sum() == 0:
            return 0.0, 1.0
        pi = counts_to_probabilities(context_counts)
        result = chi_square_test(query_counts, pi)
        score = 1.0 - result.p_value if result.p_value <= self.alpha else 0.0
        return score, result.p_value

    def score(self, distributions: CharacteristicDistributions) -> DiscriminationResult:
        """Chi-square significance test per channel, maximized."""
        inst_score, inst_p = self._channel(
            distributions.inst_query, distributions.inst_context
        )
        card_score, card_p = self._channel(
            distributions.card_query, distributions.card_context
        )
        return DiscriminationResult(
            label=distributions.label,
            score=max(inst_score, card_score),
            inst_score=inst_score,
            card_score=card_score,
            inst_p_value=inst_p,
            card_p_value=card_p,
            distributions=distributions,
        )
