"""PerfXplain core: the paper's primary contribution.

Submodules:

* :mod:`repro.core.features` — raw-feature schema inference, feature kinds
  and the three feature *levels* from Section 6.8;
* :mod:`repro.core.pairs` — the pair (training-example) feature encoding of
  Table 1: ``isSame``, ``compare``, ``diff`` and base features;
* :mod:`repro.core.pxql` — the PXQL query language (AST, parser, evaluator);
* :mod:`repro.core.explanation` — explanations and the relevance /
  precision / generality metrics of Section 3.3;
* :mod:`repro.core.examples` — related-pair enumeration and training-example
  construction (Definition 7-9), adapted over the columnar pair kernels;
* :mod:`repro.core.pairkernel` — vectorised pair-feature kernels and clause
  masks over a :class:`~repro.logs.chunkstore.RecordBlock`;
* :mod:`repro.core.sampling` — the balanced sampling of Section 4.3;
* :mod:`repro.core.explainer` — Algorithm 1 and automatic despite-clause
  generation;
* :mod:`repro.core.baselines` — the RuleOfThumb and SimButDiff baselines of
  Section 5;
* :mod:`repro.core.evaluation` — the repeated 2-fold cross-validation
  harness used in Section 6;
* :mod:`repro.core.registry` — the pluggable explainer registry behind the
  ``technique=`` argument everywhere;
* :mod:`repro.core.report` — machine-readable result containers
  (:class:`~repro.core.report.Report`);
* :mod:`repro.core.api` — the :class:`~repro.core.api.PerfXplain` facade
  and the batch :class:`~repro.core.api.PerfXplainSession`.
"""

from repro.core.features import FeatureKind, FeatureLevel, FeatureSchema, infer_schema
from repro.core.pairs import PairFeatureConfig, compute_pair_features, pair_feature_catalog
from repro.core.pxql import (
    BoundQuery,
    Comparison,
    Operator,
    Predicate,
    PXQLQuery,
    parse_predicate,
    parse_query,
)
from repro.core.explanation import Explanation, ExplanationMetrics
from repro.core.examples import (
    Label,
    TrainingExample,
    TrainingMatrix,
    construct_training_matrix,
    encode_training_examples,
)
from repro.core.explainer import PerfXplainConfig, PerfXplainExplainer
from repro.core.baselines import RuleOfThumbExplainer, SimButDiffExplainer
from repro.core.registry import (
    Explainer,
    create_explainer,
    register_explainer,
    registered_explainers,
    unregister_explainer,
)
from repro.core.report import Report, ReportEntry
from repro.core.api import PerfXplain, PerfXplainSession

__all__ = [
    "FeatureKind",
    "FeatureLevel",
    "FeatureSchema",
    "infer_schema",
    "PairFeatureConfig",
    "compute_pair_features",
    "pair_feature_catalog",
    "BoundQuery",
    "Comparison",
    "Operator",
    "Predicate",
    "PXQLQuery",
    "parse_predicate",
    "parse_query",
    "Explanation",
    "ExplanationMetrics",
    "Label",
    "TrainingExample",
    "TrainingMatrix",
    "construct_training_matrix",
    "encode_training_examples",
    "PerfXplainConfig",
    "PerfXplainExplainer",
    "RuleOfThumbExplainer",
    "SimButDiffExplainer",
    "Explainer",
    "create_explainer",
    "register_explainer",
    "registered_explainers",
    "unregister_explainer",
    "Report",
    "ReportEntry",
    "PerfXplain",
    "PerfXplainSession",
]
