"""Weighted soft-voting ensembles.

The combined distribution is the weight-normalized sum of member
distributions; the predicted class is its argmax (ties to the smallest
index). Two levels: a base ensemble over {MNB, LR, RF}, and a meta ensemble
over the base ensemble trained on original data (Ensemble1) and on
SMOTE-oversampled data (Ensemble2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import (
    LrConfig,
    MnbConfig,
    RfConfig,
    lr_fit,
    mnb_fit,
    rf_fit,
    rf_fit_prefixes,
)
from .features import CsrMatrix, LabeledDataset
from .resample import SmoteConfig, smote

# Member order for base-ensemble weight triples.
BASE_MEMBER_ORDER = ("mnb", "lr", "rf")

# Names of the parts of a meta model that predict on their own: the base
# members of Ensemble1, the two base ensembles, and the meta vote.
SELECTORS = BASE_MEMBER_ORDER + ("ensemble1", "ensemble2", "meta")

# Hand-tuned voting weights per language: base triple (MNB, LR, RF) and
# meta pair (Ensemble1, Ensemble2).
LANGUAGE_BASE_WEIGHTS = {"es": (1.1, 1.0, 1.0), "en": (1.5, 6.0, 1.0)}
LANGUAGE_META_WEIGHTS = {"es": (3.0, 1.0), "en": (4.0, 1.0)}


def select(model: "MetaSpec", name: str):
    """The member or vote of `model` that `name`, one of SELECTORS, names."""
    if name not in SELECTORS:
        raise ValueError(f"unknown selector {name!r}; valid: {', '.join(SELECTORS)}")
    if name == "meta":
        return model
    if name in ("ensemble1", "ensemble2"):
        return getattr(model, name)
    return model.ensemble1.members[BASE_MEMBER_ORDER.index(name)]


def check_weights(weights, n: int) -> None:
    """Raise ValueError unless `weights` holds n positive, finite weights."""
    if len(weights) != n:
        raise ValueError(f"{len(weights)} weights for {n} members")
    if not all(0 < w < math.inf for w in weights):
        raise ValueError(f"ensemble weights must be positive and finite, got {tuple(weights)}")


def vote_proba(weights, member_probs) -> np.ndarray:
    """Weighted soft vote: sum of w_i * P_i with weights normalized to 1."""
    check_weights(weights, len(member_probs))
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    return sum(wi * np.asarray(p, dtype=float) for wi, p in zip(w, member_probs))


class _Vote:
    """A weighted soft vote over `members`, each with a `predict_proba`."""

    def __post_init__(self):
        check_weights(self.weights, len(self.members))

    def __setstate__(self, state):  # unpickling and copying skip __init__: check here too
        self.__dict__.update(state)
        self.__post_init__()

    def predict_proba(self, X: CsrMatrix) -> np.ndarray:
        return vote_proba(self.weights, [m.predict_proba(X) for m in self.members])

    def predict(self, X: CsrMatrix) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=-1)


# The two levels stay two classes: each keeps its own pickled fields, so
# archives load as before, and a vote's level can be told by its class.
@dataclass(frozen=True)
class EnsembleSpec(_Vote):
    members: tuple
    weights: tuple[float, ...]


@dataclass(frozen=True)
class MetaSpec(_Vote):
    ensemble1: EnsembleSpec  # trained on original data
    ensemble2: EnsembleSpec  # trained on oversampled data
    weights: tuple[float, float]

    @property
    def members(self) -> tuple[EnsembleSpec, EnsembleSpec]:
        return (self.ensemble1, self.ensemble2)


def build_base_ensemble(
    dataset: LabeledDataset,
    weights: tuple[float, float, float],
    mnb_cfg: MnbConfig = MnbConfig(),
    lr_cfg: LrConfig = LrConfig(),
    rf_cfg: RfConfig = RfConfig(),
) -> EnsembleSpec:
    """Fit MNB, LR, RF on the dataset and wrap them with voting weights."""
    members = (mnb_fit(dataset, mnb_cfg), lr_fit(dataset, lr_cfg), rf_fit(dataset, rf_cfg))
    return EnsembleSpec(members=members, weights=tuple(float(w) for w in weights))


def build_meta(
    dataset: LabeledDataset,
    smote_cfg: SmoteConfig,
    meta_weights: tuple[float, float],
    base_weights: tuple[float, float, float],
    mnb_cfg: MnbConfig = MnbConfig(),
    lr_cfg: LrConfig = LrConfig(),
    rf_cfg: RfConfig = RfConfig(),
) -> MetaSpec:
    """Ensemble1 on the original data, Ensemble2 on the SMOTE'd data, then a

    fixed-weight soft vote over the two. The meta level is never retrained.
    Each member equals build_base_ensemble's. SMOTE's output starts with the
    original rows, so both forests grow in one pass over the oversampled
    rows, Ensemble1's on that prefix.
    """
    weights = tuple(float(w) for w in base_weights)
    first = (mnb_fit(dataset, mnb_cfg), lr_fit(dataset, lr_cfg))
    oversampled = smote(dataset, smote_cfg)
    second = (mnb_fit(oversampled, mnb_cfg), lr_fit(oversampled, lr_cfg))
    # The forests come last: grown before Ensemble2's LR, they leave this process's heap
    # larger under that LR's arrays, and train's peak RSS on 300 English tweets rose 3.6%.
    forests = rf_fit_prefixes(oversampled, [len(dataset), len(oversampled)], rf_cfg)
    return MetaSpec(
        ensemble1=EnsembleSpec(members=(*first, forests[0]), weights=weights),
        ensemble2=EnsembleSpec(members=(*second, forests[1]), weights=weights),
        weights=(float(meta_weights[0]), float(meta_weights[1])),
    )
