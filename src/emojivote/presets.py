"""Hand-tuned voting weights per language, base triple (MNB, LR, RF) and meta pair
(Ensemble1, Ensemble2); `ensemble` re-exports them, and the CLI reads them without it."""

LANGUAGE_BASE_WEIGHTS = {"es": (1.1, 1.0, 1.0), "en": (1.5, 6.0, 1.0)}
LANGUAGE_META_WEIGHTS = {"es": (3.0, 1.0), "en": (4.0, 1.0)}
