"""Multilingual emoji prediction: n-gram features, MNB/LR/RF base
classifiers, SMOTE oversampling, and two-level weighted soft voting."""

from .archive import ModelArchive, archive_load, archive_save
from .classifiers import (
    LrConfig,
    LrModel,
    MnbConfig,
    MnbModel,
    RfConfig,
    RfModel,
    lr_fit,
    lr_predict_proba,
    mnb_fit,
    mnb_predict_proba,
    rf_fit,
    rf_predict_proba,
)
from .corpus import (
    LabelMapping,
    RawCorpus,
    load_corpus,
    load_mapping,
)
from .ensemble import (
    EnsembleSpec,
    MetaSpec,
    build_base_ensemble,
    build_meta,
    vote_proba,
)
from .features import (
    FeatureConfig,
    LabeledDataset,
    Vocabulary,
    build_vocabulary,
    text_to_vector,
    vectorize,
    vectorize_corpus,
)
from .metrics import ClassMetrics, EvalReport, confusion, evaluate, report_render
from .preprocess import AsciiPolicy, extract_ngrams, normalize, tokenize
from .resample import ResamplePlan, SmoteConfig, plan_resample, smote

__version__ = "0.1.0"
