"""Command-line driver: train, predict, evaluate, resample, stats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Language presets (--lang en|es) fill in the published voting weights unless
overridden by explicit flags.
"""

import argparse
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .archive import ModelArchive, archive_load, archive_save, atomic_file
from .classifiers import LrConfig, MnbConfig, RfConfig
from .corpus import (
    LabelMapping,
    RawCorpus,
    _read_lines,
    class_distribution,
    load_corpus,
    load_mapping,
)
from .ensemble import (
    LANGUAGE_BASE_WEIGHTS,
    LANGUAGE_META_WEIGHTS,
    build_meta,
)
from .exceptions import ArchiveError, DataError
from .features import CsrMatrix, FeatureConfig, text_to_vector, vectorize_corpus
from .metrics import confusion, evaluate, report_render
from .preprocess import AsciiPolicy
from .resample import SmoteConfig, plan_resample, smote

SELECTORS = ("mnb", "lr", "rf", "ensemble1", "ensemble2", "meta")

PREDICT_CHUNK = 256  # tweets per batch: amortizes numpy calls, keeps batch memory small


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    language: str = "en"
    policy: AsciiPolicy = AsciiPolicy.KEEP_MOST
    features: FeatureConfig = field(default_factory=FeatureConfig)
    mnb: MnbConfig = field(default_factory=MnbConfig)
    lr: LrConfig = field(default_factory=LrConfig)
    rf: RfConfig = field(default_factory=RfConfig)
    smote: SmoteConfig = field(default_factory=SmoteConfig)
    base_weights: tuple[float, float, float] = LANGUAGE_BASE_WEIGHTS["en"]
    meta_weights: tuple[float, float] = LANGUAGE_META_WEIGHTS["en"]
    seed: int = 0


def _parse_weights(text: str, n: int, flag: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError(f"{flag} expects {n} comma-separated values, got {text!r}")
    try:
        weights = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag}: unparseable weight in {text!r}")
    if any(w <= 0 for w in weights):
        raise UsageError(f"{flag}: weights must be positive")
    return weights


def _run_config(args) -> RunConfig:
    base = (
        _parse_weights(args.base_weights, 3, "--base-weights")
        if args.base_weights
        else LANGUAGE_BASE_WEIGHTS[args.lang]
    )
    meta = (
        _parse_weights(args.meta_weights, 2, "--meta-weights")
        if args.meta_weights
        else LANGUAGE_META_WEIGHTS[args.lang]
    )
    try:
        return RunConfig(
            language=args.lang,
            policy=AsciiPolicy(args.ascii_policy),
            features=FeatureConfig(min_df=args.min_df),
            mnb=MnbConfig(alpha=args.alpha),
            lr=LrConfig(l2_strength=args.l2),
            rf=RfConfig(n_trees=args.trees, seed=args.seed),
            smote=SmoteConfig(k_neighbors=args.smote_k, seed=args.seed),
            base_weights=base,
            meta_weights=meta,
            seed=args.seed,
        )
    except ValueError as exc:  # a config rejected a flag's value
        raise UsageError(str(exc))


def _write_atomic(path, content: str) -> None:
    with atomic_file(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _stratified_split(corpus: RawCorpus, fraction: float, seed: int):
    """Hold out `fraction` of each class for testing; returns (train, test)."""
    rng = np.random.default_rng([seed, 0xD1])
    test_idx = set()
    for c in range(corpus.num_classes):
        members = [i for i, lab in enumerate(corpus.labels) if lab == c]
        n_test = int(round(len(members) * fraction))
        chosen = rng.permutation(len(members))[:n_test]
        test_idx.update(members[i] for i in chosen)
    train_i = [i for i in range(len(corpus)) if i not in test_idx]
    test_i = [i for i in range(len(corpus)) if i in test_idx]
    make = lambda idx: RawCorpus(
        texts=[corpus.texts[i] for i in idx],
        labels=[corpus.labels[i] for i in idx],
        num_classes=corpus.num_classes,
    )
    return make(train_i), make(test_i)


def _select(model, selector: str):
    if selector not in SELECTORS:
        raise UsageError(f"unknown selector {selector!r}; valid: {', '.join(SELECTORS)}")
    if selector == "meta":
        return model
    if selector in ("ensemble1", "ensemble2"):
        return getattr(model, selector)
    return model.ensemble1.members[("mnb", "lr", "rf").index(selector)]


def _predict_chunks(ar: ModelArchive, texts: list[str], selector: str):
    """(n, k) distributions for consecutive chunks of PREDICT_CHUNK texts."""
    predictor = _select(ar.model, selector)
    for start in range(0, len(texts), PREDICT_CHUNK):
        chunk = texts[start : start + PREDICT_CHUNK]
        rows = [text_to_vector(t, ar.policy, ar.vocabulary) for t in chunk]
        yield predictor.predict_proba(CsrMatrix.from_rows(rows, ar.vocabulary.size))


def _predict_labels(ar: ModelArchive, texts: list[str], selector: str) -> list[int]:
    return [int(c) for probs in _predict_chunks(ar, texts, selector) for c in probs.argmax(axis=1)]


def cmd_train(args) -> int:
    cfg = _run_config(args)
    if args.split is not None and not 0 < args.split < 1:
        raise UsageError(f"--split must be between 0 and 1 (exclusive), got {args.split}")
    corpus = load_corpus(args.text, args.labels, args.classes)
    test_corpus = None
    if args.split:
        corpus, test_corpus = _stratified_split(corpus, args.split, cfg.seed)
        print(f"split: {len(corpus)} train / {len(test_corpus)} held out")

    vocab, dataset = vectorize_corpus(corpus, cfg.policy, cfg.features)
    if vocab.size == 0:
        raise DataError(f"no n-gram occurs in --min-df {cfg.features.min_df} tweets; lower it")
    dist = class_distribution(corpus)
    print(f"corpus: {len(corpus)} tweets, {corpus.num_classes} classes")
    print(
        f"vocabulary: {vocab.size} features "
        f"({vocab.num_unigrams} unigrams, {vocab.num_bigrams} bigrams)"
    )
    plan = plan_resample(dataset)
    print(f"resample plan: target {plan.target} per class, total {plan.total}")

    model = build_meta(
        dataset,
        smote_cfg=cfg.smote,
        meta_weights=cfg.meta_weights,
        base_weights=cfg.base_weights,
        mnb_cfg=cfg.mnb,
        lr_cfg=cfg.lr,
        rf_cfg=cfg.rf,
    )
    ar = ModelArchive(
        language=cfg.language,
        policy=cfg.policy,
        vocabulary=vocab,
        model=model,
        metadata={
            "seed": cfg.seed,
            "num_tweets": len(corpus),
            "num_classes": corpus.num_classes,
            "class_counts": dist.counts,
            "vocab_size": vocab.size,
            "base_weights": list(cfg.base_weights),
            "meta_weights": list(cfg.meta_weights),
            "min_df": cfg.features.min_df,
            "alpha": cfg.mnb.alpha,
            "l2": cfg.lr.l2_strength,
            "trees": cfg.rf.n_trees,
            "smote_k": cfg.smote.k_neighbors,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
    )
    archive_save(ar, args.out)
    print(f"model written to {args.out}")

    if test_corpus is not None and len(test_corpus) > 0:
        preds = _predict_labels(ar, test_corpus.texts, args.selector)
        report = evaluate(confusion(test_corpus.labels, preds, corpus.num_classes))
        print(
            f"held-out ({args.selector}): macro-F1 {report.macro_f1:.4f}, "
            f"accuracy {report.accuracy:.4f}"
        )
    return 0


def cmd_predict(args) -> int:
    ar = archive_load(args.model)
    texts = _read_lines(args.text)
    lines = []
    for chunk in _predict_chunks(ar, texts, args.selector):
        for probs in chunk:
            line = str(int(np.argmax(probs)))
            if args.proba:
                line += "\t" + " ".join(f"{p:.6f}" for p in probs)
            lines.append(line)
    out = "".join(line + "\n" for line in lines)
    if args.out:
        _write_atomic(args.out, out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_evaluate(args) -> int:
    ar = archive_load(args.model)
    k = ar.model.ensemble1.members[0].num_classes
    gold_corpus = load_corpus(args.text, args.gold, k)
    preds = _predict_labels(ar, gold_corpus.texts, args.selector)
    report = evaluate(confusion(gold_corpus.labels, preds, k))
    mapping = load_mapping(args.mapping) if args.mapping else LabelMapping.identity(k)
    text, grid = report_render(report, mapping)
    sys.stdout.write(text)
    if args.report:
        _write_atomic(args.report, text)
    if args.matrix:
        _write_atomic(args.matrix, grid)
    return 0


def cmd_resample(args) -> int:
    cfg = _run_config(args)
    corpus = load_corpus(args.text, args.labels, args.classes)
    vocab, dataset = vectorize_corpus(corpus, cfg.policy, cfg.features)
    plan = plan_resample(dataset)
    print(f"vocabulary: {vocab.size} features")
    for c, (n, s) in enumerate(zip(plan.original_counts, plan.synthetic_counts)):
        print(f"class {c}: {n} original + {s} synthetic -> {plan.target}")
    resampled = smote(dataset, cfg.smote)
    print(f"resampled size: {len(resampled)} (target total {plan.total})")
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.text, args.labels, args.classes)
    dist = class_distribution(corpus)
    order = sorted(range(corpus.num_classes), key=lambda c: (-dist.counts[c], c))
    for c in order:
        print(f"{c}: {dist.counts[c]} ({dist.fractions[c] * 100:.2f}%)")
    return 0


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lang", choices=("en", "es"), default="en")
    p.add_argument("--ascii-policy", choices=("strip-all", "keep-most"), default="keep-most")
    p.add_argument("--min-df", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--trees", type=int, default=20)
    p.add_argument("--smote-k", type=int, default=5)
    p.add_argument("--base-weights", default=None, metavar="W1,W2,W3")
    p.add_argument("--meta-weights", default=None, metavar="W1,W2")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emojivote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the two-level ensemble and write a model archive")
    p.add_argument("text", help="tweets, one per line")
    p.add_argument("labels", help="class indices, one per line")
    p.add_argument("-k", "--classes", type=int, required=True)
    p.add_argument("-o", "--out", required=True, help="model archive output path")
    p.add_argument("--split", type=float, default=None, help="held-out fraction (stratified)")
    p.add_argument("--selector", choices=SELECTORS, default="meta")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for a text file")
    p.add_argument("model", help="model archive path")
    p.add_argument("text", help="tweets, one per line")
    p.add_argument("-o", "--out", default=None, help="output label file (default stdout)")
    p.add_argument("--selector", choices=SELECTORS, default="meta")
    p.add_argument("--proba", action="store_true", help="append the full distribution per line")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="predict then score against gold labels")
    p.add_argument("model")
    p.add_argument("text")
    p.add_argument("gold", help="gold class indices, one per line")
    p.add_argument("--selector", choices=SELECTORS, default="meta")
    p.add_argument("--mapping", default=None, help="label mapping file (index<TAB>display)")
    p.add_argument("--report", default=None, help="write metrics table here")
    p.add_argument("--matrix", default=None, help="write confusion-matrix CSV grid here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("resample", help="report SMOTE oversampling statistics")
    p.add_argument("text")
    p.add_argument("labels")
    p.add_argument("-k", "--classes", type=int, required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_resample)

    p = sub.add_parser("stats", help="print the class distribution")
    p.add_argument("text")
    p.add_argument("labels")
    p.add_argument("-k", "--classes", type=int, required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ArchiveError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
