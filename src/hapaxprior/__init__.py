"""Lexical prior estimation for syncretic word forms.

Counts how often each surface form of an ambiguity class serves each of its
possible functions, and compares two estimators of the prior for unseen or
rare forms: the overall MLE over all tokens, and the MLE over hapax
legomena only.  Includes a k-fold cross-validation harness, a paired
t-test, frequency-class plot data, and a synthetic-corpus generator with
known ground truth.
"""

from .corpus import (
    ClassSpec,
    CorpusFormatError,
    TaggedCorpus,
    TokenRecord,
    load_class_spec,
    load_corpus,
    save_class_spec,
    save_corpus,
)
from .crossval import (
    CrossValError,
    CrossValReport,
    FoldPlan,
    FoldResult,
    make_folds,
    run_crossval,
    run_fold,
)
from .estimators import (
    EstimationError,
    ExpectedCounts,
    NoHapaxesError,
    PriorEstimate,
    UnseenFormError,
    backoff_prior,
    backoff_priors,
    expected_unseen_counts,
    form_mle,
    hapax_mle,
    overall_mle,
)
from .spectrum import (
    ClassProportionPoint,
    SpectrumTable,
    TypeCount,
    build_spectrum,
    class_proportions,
    hapaxes,
    running_median,
)
from .stats import DegenerateTTestError, TTestResult, paired_t, two_sided_p
from .synth import SynthSpec, SynthTruth, generate, save_truth, zipf_token_counts

__version__ = "0.1.0"

__all__ = [
    "ClassProportionPoint",
    "ClassSpec",
    "CorpusFormatError",
    "CrossValError",
    "CrossValReport",
    "DegenerateTTestError",
    "EstimationError",
    "ExpectedCounts",
    "FoldPlan",
    "FoldResult",
    "NoHapaxesError",
    "PriorEstimate",
    "SpectrumTable",
    "SynthSpec",
    "SynthTruth",
    "TTestResult",
    "TaggedCorpus",
    "TokenRecord",
    "TypeCount",
    "UnseenFormError",
    "backoff_prior",
    "backoff_priors",
    "build_spectrum",
    "class_proportions",
    "expected_unseen_counts",
    "form_mle",
    "generate",
    "hapax_mle",
    "hapaxes",
    "load_class_spec",
    "load_corpus",
    "make_folds",
    "overall_mle",
    "paired_t",
    "run_crossval",
    "run_fold",
    "running_median",
    "save_class_spec",
    "save_corpus",
    "save_truth",
    "two_sided_p",
    "zipf_token_counts",
    "__version__",
]
