"""Command-line driver: train, predict, evaluate, resample, stats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Language presets (--lang en|es) fill in the published voting weights unless
overridden by explicit flags.
"""

import argparse
import sys
import time
from contextlib import contextmanager

import numpy as np

from .archive import ModelArchive, archive_load, archive_save, atomic_file, check_output_path
from .classifiers import LrConfig, MnbConfig, RfConfig
from .corpus import (
    LabelMapping,
    RawCorpus,
    _read_lines,
    load_corpus,
    load_mapping,
)
from .ensemble import (
    LANGUAGE_BASE_WEIGHTS,
    LANGUAGE_META_WEIGHTS,
    SELECTORS,
    build_meta,
    check_weights,
    select,
)
from .exceptions import ArchiveError, DataError
from .features import FeatureConfig, text_to_vector, vectorize_corpus
from .metrics import confusion, evaluate, report_render
from .preprocess import AsciiPolicy
from .resample import SmoteConfig, plan_resample, smote

PREDICT_CHUNK = 256  # tweets per batch: amortizes numpy calls, keeps batch memory small


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@contextmanager
def _flag_values():
    """Report a value that a config or weights check rejects as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc))


def _weights(text, preset: tuple[float, ...], flag: str) -> tuple[float, ...]:
    """The weights a comma-separated flag value gives, or the language preset."""
    if not text:
        return preset
    try:
        weights = tuple(float(p) for p in text.split(","))
        check_weights(weights, len(preset))
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}")
    return weights


def _write_atomic(path, content: str) -> None:
    with atomic_file(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _stratified_split(corpus: RawCorpus, fraction: float, seed: int):
    """Hold out `fraction` of each class for testing; returns (train, test)."""
    rng = np.random.default_rng([seed, 0xD1])
    labels = np.asarray(corpus.labels, dtype=np.intp)
    held = np.zeros(len(labels), dtype=bool)
    for c in range(corpus.num_classes):
        members = np.flatnonzero(labels == c)
        n_test = int(round(len(members) * fraction))
        held[members[rng.permutation(len(members))[:n_test]]] = True
    train_i, test_i = np.flatnonzero(~held).tolist(), np.flatnonzero(held).tolist()
    make = lambda idx: RawCorpus(
        texts=[corpus.texts[i] for i in idx],
        labels=[corpus.labels[i] for i in idx],
        num_classes=corpus.num_classes,
    )
    return make(train_i), make(test_i)


def _predict_chunks(ar: ModelArchive, texts: list[str], selector: str):
    """(n, k) distributions for consecutive chunks of PREDICT_CHUNK texts."""
    predictor = select(ar.model, selector)
    for start in range(0, len(texts), PREDICT_CHUNK):
        chunk = texts[start : start + PREDICT_CHUNK]
        yield predictor.predict_proba(text_to_vector(chunk, ar.policy, ar.vocabulary))


def _predict_labels(ar: ModelArchive, texts: list[str], selector: str) -> list[int]:
    return [int(c) for probs in _predict_chunks(ar, texts, selector) for c in probs.argmax(axis=1)]


def _vectorize(corpus: RawCorpus, policy: AsciiPolicy, features: FeatureConfig):
    """vectorize_corpus, with a vocabulary that --min-df leaves empty a data error."""
    vocab, dataset = vectorize_corpus(corpus, policy, features)
    if vocab.size == 0:
        raise DataError(f"no n-gram occurs in --min-df {features.min_df} tweets; lower it")
    return vocab, dataset


def cmd_train(args) -> int:
    with _flag_values():
        features = FeatureConfig(min_df=args.min_df)
        smote_cfg = SmoteConfig(k_neighbors=args.smote_k, seed=args.seed)
        mnb_cfg, lr_cfg = MnbConfig(alpha=args.alpha), LrConfig(l2_strength=args.l2)
        rf_cfg = RfConfig(n_trees=args.trees, seed=args.seed)
        base_weights = _weights(args.base_weights, LANGUAGE_BASE_WEIGHTS[args.lang], "--base-weights")
        meta_weights = _weights(args.meta_weights, LANGUAGE_META_WEIGHTS[args.lang], "--meta-weights")
    if args.split is not None and not 0 < args.split < 1:
        raise UsageError(f"--split must be between 0 and 1 (exclusive), got {args.split}")
    check_output_path(args.out)
    policy = AsciiPolicy(args.ascii_policy)
    corpus = load_corpus(args.text, args.labels, args.classes)
    test_corpus = None
    if args.split:
        corpus, test_corpus = _stratified_split(corpus, args.split, args.seed)
        print(f"split: {len(corpus)} train / {len(test_corpus)} held out")
        emptied = sorted(set(test_corpus.labels) - set(corpus.labels))
        if emptied:
            raise DataError(f"--split {args.split} holds out every tweet of class {emptied[0]}")

    vocab, dataset = _vectorize(corpus, policy, features)
    print(f"corpus: {len(corpus)} tweets, {corpus.num_classes} classes")
    print(
        f"vocabulary: {vocab.size} features "
        f"({vocab.num_unigrams} unigrams, {vocab.num_bigrams} bigrams)"
    )
    plan = plan_resample(dataset)
    print(f"resample plan: target {plan.target} per class, total {plan.total}")

    model = build_meta(
        dataset,
        smote_cfg=smote_cfg,
        meta_weights=meta_weights,
        base_weights=base_weights,
        mnb_cfg=mnb_cfg,
        lr_cfg=lr_cfg,
        rf_cfg=rf_cfg,
    )
    ar = ModelArchive(
        language=args.lang,
        policy=policy,
        vocabulary=vocab,
        model=model,
        metadata={
            "seed": args.seed,
            "num_tweets": len(corpus),
            "num_classes": corpus.num_classes,
            "class_counts": plan.original_counts,
            "vocab_size": vocab.size,
            "base_weights": list(base_weights),
            "meta_weights": list(meta_weights),
            "min_df": features.min_df,
            "alpha": mnb_cfg.alpha,
            "l2": lr_cfg.l2_strength,
            "trees": rf_cfg.n_trees,
            "smote_k": smote_cfg.k_neighbors,
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
    if args.out:
        check_output_path(args.out)
    ar = archive_load(args.model)
    texts = _read_lines(args.text)
    lines = []
    for probs in _predict_chunks(ar, texts, args.selector):
        labels = probs.argmax(axis=1).tolist()
        if args.proba:
            rows = zip(labels, probs.tolist())
            lines += [f"{c}\t" + " ".join(f"{p:.6f}" for p in row) for c, row in rows]
        else:
            lines += map(str, labels)
    out = "".join(line + "\n" for line in lines)
    if args.out:
        _write_atomic(args.out, out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_evaluate(args) -> int:
    for path in filter(None, (args.report, args.matrix)):
        check_output_path(path)
    ar = archive_load(args.model)
    k = select(ar.model, "mnb").num_classes
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
    with _flag_values():
        features = FeatureConfig(min_df=args.min_df)
        smote_cfg = SmoteConfig(k_neighbors=args.smote_k, seed=args.seed)
    corpus = load_corpus(args.text, args.labels, args.classes)
    vocab, dataset = _vectorize(corpus, AsciiPolicy(args.ascii_policy), features)
    plan = plan_resample(dataset)
    print(f"vocabulary: {vocab.size} features")
    for c, (n, s) in enumerate(zip(plan.original_counts, plan.synthetic_counts)):
        print(f"class {c}: {n} original + {s} synthetic -> {plan.target}")
    resampled = smote(dataset, smote_cfg)
    print(f"resampled size: {len(resampled)} (target total {plan.total})")
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(args.text, args.labels, args.classes)
    if len(corpus) == 0:
        raise DataError("cannot compute a class distribution of an empty corpus")
    counts = np.bincount(corpus.labels, minlength=corpus.num_classes).tolist()
    order = sorted(range(corpus.num_classes), key=lambda c: (-counts[c], c))
    for c in order:
        print(f"{c}: {counts[c]} ({counts[c] / len(corpus) * 100:.2f}%)")
    return 0


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by `train` and `resample`; `resample` takes `--lang` but ignores it."""
    p.add_argument("-k", "--classes", type=int, required=True)
    p.add_argument("--lang", choices=("en", "es"), default="en")
    p.add_argument("--ascii-policy", choices=("strip-all", "keep-most"), default="keep-most")
    p.add_argument("--min-df", type=int, default=5)
    p.add_argument("--smote-k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emojivote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the two-level ensemble and write a model archive")
    p.add_argument("text", help="tweets, one per line")
    p.add_argument("labels", help="class indices, one per line")
    _add_corpus_flags(p)
    p.add_argument("-o", "--out", required=True, help="model archive output path")
    p.add_argument("--split", type=float, default=None, help="held-out fraction (stratified)")
    p.add_argument("--selector", choices=SELECTORS, default="meta")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--trees", type=int, default=20)
    p.add_argument("--base-weights", default=None, metavar="W1,W2,W3")
    p.add_argument("--meta-weights", default=None, metavar="W1,W2")
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
    _add_corpus_flags(p)
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
