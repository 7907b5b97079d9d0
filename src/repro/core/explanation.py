"""Explanations and the three quality metrics of Section 3.3.

An explanation is a pair of predicates ``(des', bec)``.  Its quality, with
respect to a query ``(des, obs, exp)`` and a set of labeled job pairs, is
measured by:

* **relevance**  ``P(exp | des' AND des)`` — does the extended despite
  clause pick out the circumstances under which the expected behaviour
  normally holds?
* **precision**  ``P(obs | bec AND des' AND des)`` — among pairs matching
  the because clause (in context), how many behaved as observed?
* **generality** ``P(bec | des' AND des)`` — how many pairs does the
  because clause apply to at all?

The probabilities are estimated over the labeled examples of a
:class:`~repro.core.examples.TrainingMatrix` (pairs already known to
satisfy the query's ``des``, labeled OBSERVED or EXPECTED).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.examples import TrainingMatrix
from repro.core.pxql.ast import Predicate, TRUE_PREDICATE
from repro.logs.records import FeatureValue
from repro.ml.matrix import flags_to_bits


@dataclass(frozen=True)
class ExplanationMetrics:
    """Quality metrics of one explanation on one example set.

    ``evidence`` carries a technique's quantitative justification beyond
    the three probability estimates — the deterministic detectors
    (:mod:`repro.detectors`) record the threshold comparisons their rules
    fired on (skew ratio, straggler factor, merge-pass counts, ...).  It
    is stored as a sorted tuple of ``(name, value)`` pairs so the frozen
    dataclass stays hashable; a mapping passed to the constructor is
    normalised automatically.
    """

    relevance: float
    precision: float
    generality: float
    support: int
    evidence: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.evidence, Mapping):
            object.__setattr__(
                self,
                "evidence",
                tuple(sorted((str(k), float(v)) for k, v in self.evidence.items())),
            )
        elif self.evidence is not None:
            object.__setattr__(
                self,
                "evidence",
                tuple(sorted((str(k), float(v)) for k, v in self.evidence)),
            )

    def as_dict(self) -> dict[str, float]:
        """Metrics as a plain all-float dictionary (handy for reports)."""
        data = {
            "relevance": self.relevance,
            "precision": self.precision,
            "generality": self.generality,
            "support": float(self.support),
        }
        return data

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form that round-trips via :meth:`from_dict`.

        ``evidence`` is emitted (as a plain dictionary) only when present,
        so serialized metrics from evidence-free techniques are unchanged.
        """
        data: dict[str, Any] = {
            "relevance": self.relevance,
            "precision": self.precision,
            "generality": self.generality,
            "support": self.support,
        }
        if self.evidence is not None:
            data["evidence"] = dict(self.evidence)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExplanationMetrics":
        """Rebuild metrics from their :meth:`to_dict` form."""
        evidence = data.get("evidence")
        return cls(
            relevance=float(data["relevance"]),
            precision=float(data["precision"]),
            generality=float(data["generality"]),
            support=int(data["support"]),
            evidence=evidence if evidence is not None else None,
        )

    def with_evidence(
        self, evidence: "Mapping[str, float] | tuple[tuple[str, float], ...]"
    ) -> "ExplanationMetrics":
        """A copy of the metrics carrying (replacing) threshold evidence."""
        return ExplanationMetrics(
            relevance=self.relevance,
            precision=self.precision,
            generality=self.generality,
            support=self.support,
            evidence=evidence,  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class Explanation:
    """A performance explanation: a despite clause and a because clause."""

    because: Predicate
    despite: Predicate = TRUE_PREDICATE
    technique: str = "perfxplain"
    metrics: ExplanationMetrics | None = None

    @property
    def width(self) -> int:
        """Number of atoms in the because clause."""
        return self.because.width

    def is_applicable(self, pair_values: Mapping[str, FeatureValue]) -> bool:
        """Definition 3: both clauses must hold for the pair of interest."""
        return self.despite.evaluate(pair_values) and self.because.evaluate(pair_values)

    def with_metrics(self, metrics: ExplanationMetrics) -> "Explanation":
        """A copy of the explanation annotated with metrics."""
        return Explanation(
            because=self.because,
            despite=self.despite,
            technique=self.technique,
            metrics=metrics,
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form of the explanation.

        Predicates serialize symbolically (one ``{feature, op, value}``
        entry per atom) rather than as rendered text, so the result
        round-trips exactly through :meth:`from_dict`.
        """
        return {
            "technique": self.technique,
            "despite": self.despite.to_dict(),
            "because": self.because.to_dict(),
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Explanation":
        """Rebuild an explanation from its :meth:`to_dict` form."""
        metrics = data.get("metrics")
        return cls(
            because=Predicate.from_dict(data["because"]),
            despite=Predicate.from_dict(data.get("despite", [])),
            technique=data.get("technique", "perfxplain"),
            metrics=ExplanationMetrics.from_dict(metrics) if metrics is not None else None,
        )

    def to_json(self, indent: int | None = None) -> str:
        """The :meth:`to_dict` form rendered as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Explanation":
        """Rebuild an explanation from its :meth:`to_json` form."""
        return cls.from_dict(json.loads(text))

    def format(self) -> str:
        """Human-readable rendering, mirroring the paper's output form."""
        lines = []
        if not self.despite.is_true:
            lines.append(f"DESPITE {self.despite}")
        lines.append(f"BECAUSE {self.because}")
        if self.metrics is not None:
            lines.append(
                f"-- precision={self.metrics.precision:.2f} "
                f"generality={self.metrics.generality:.2f} "
                f"relevance={self.metrics.relevance:.2f}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


# --------------------------------------------------------------------- #
# metric estimation over labeled pair sets
# --------------------------------------------------------------------- #


def _tally(
    despite: Predicate, because: Predicate, matrix: TrainingMatrix
) -> tuple[int, int, int, int]:
    """Counts over a training matrix's examples, read column by column.

    Returns (in context, in-context observed, matching, matching observed),
    where *in context* means satisfying ``despite`` and *matching* means
    satisfying ``despite`` and ``because``.  Only the two clauses' own
    pair features are read, so a training matrix derives nothing else.
    Each clause is a row bitset (:meth:`TrainingMatrix.satisfied
    <repro.core.examples.TrainingMatrix.satisfied>`), and each count is one
    ``int.bit_count()`` of an AND with the observed examples' bitset.
    """
    in_context = matrix.satisfied(despite)
    matching = in_context & matrix.satisfied(because)
    observed = flags_to_bits(matrix.observed)
    return (
        in_context.bit_count(),
        (in_context & observed).bit_count(),
        matching.bit_count(),
        (matching & observed).bit_count(),
    )


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def evaluate_explanation(
    explanation: Explanation, matrix: TrainingMatrix
) -> ExplanationMetrics:
    """All three metrics of an explanation over a training matrix, whose
    examples already satisfy the query's despite clause."""
    in_context, in_context_observed, matching, matching_observed = _tally(
        explanation.despite, explanation.because, matrix
    )
    return ExplanationMetrics(
        relevance=_share(in_context - in_context_observed, in_context),
        precision=_share(matching_observed, matching),
        generality=_share(matching, in_context),
        support=in_context,
    )
