"""Run one `emojivote` command in this process with timing wrappers.

Usage (with the repository's `src` on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json -- train tweets.txt labels.txt -k 20 -o model.bin

Before the command runs, each public function in TARGETS is replaced, at the
name its caller looks up, by a wrapper that times every call. Spans therefore
nest as in the real call graph without any edit to the program. Calls are
aggregated in memory per (span, parent) as a count, an inclusive total and a
self total (inclusive minus child spans); the aggregate is written to
SPANS.json when the command ends. A target that a refactor renamed or removed
is listed as absent instead of failing the run, and so is a counter whose
hook no longer understands the value it inspects.
"""

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, span name). A span name ending in "{data}" gets
# "orig" before the first SMOTE call of the process and "smote" after it,
# which separates the Ensemble1 fits from the Ensemble2 fits.
TARGETS = [
    ("emojivote.cli", "load_corpus", "corpus.load_corpus"),
    ("emojivote.cli", "vectorize_corpus", "features.vectorize_corpus"),
    ("emojivote.cli", "text_to_vector", "features.text_to_vector"),
    ("emojivote.features", "build_vocabulary", "features.build_vocabulary"),
    ("emojivote.features", "normalize", "preprocess.normalize"),
    ("emojivote.features", "tokenize", "preprocess.tokenize"),
    ("emojivote.features", "extract_ngrams", "preprocess.extract_ngrams"),
    ("emojivote.cli", "smote", "resample.smote"),
    ("emojivote.ensemble", "smote", "resample.smote"),
    ("emojivote.resample", "nearest_neighbors", "resample.nearest_neighbors"),
    ("emojivote.cli", "build_meta", "ensemble.build_meta"),
    ("emojivote.ensemble", "mnb_fit", "classifiers.mnb_fit.{data}"),
    ("emojivote.ensemble", "lr_fit", "classifiers.lr_fit.{data}"),
    ("emojivote.ensemble", "rf_fit", "classifiers.rf_fit.{data}"),
    ("emojivote.classifiers", "mnb_predict_proba", "classifiers.mnb_predict"),
    ("emojivote.classifiers", "lr_predict_proba", "classifiers.lr_predict"),
    ("emojivote.classifiers", "rf_predict_proba", "classifiers.rf_predict"),
    ("emojivote.ensemble", "EnsembleSpec.predict_proba", "ensemble.base_vote"),
    ("emojivote.ensemble", "MetaSpec.predict_proba", "ensemble.meta_vote"),
    ("emojivote.cli", "archive_save", "archive.save"),
    ("emojivote.cli", "archive_load", "archive.load"),
    ("emojivote.cli", "main", "cli.main"),
]


def _mass(value) -> float:
    """Sum of the counts in a vector, a dataset or a list of vectors."""
    if hasattr(value, "entries"):
        return float(sum(c for _, c in value.entries))
    if hasattr(value, "rows"):
        return float(sum(_mass(r) for r in value.rows))
    if hasattr(value, "data"):
        return float(np.sum(value.data))
    raise TypeError(f"cannot read counts from {type(value).__name__}")


def _tree_shape(tree) -> tuple[int, int]:
    """(nodes, depth) of a linked tree of nodes with .left/.right children."""
    nodes, depth = 0, 0
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        for child in (node.left, node.right):
            if child is not None:
                stack.append((child, d + 1))
    return nodes, depth


class Tracer:
    def __init__(self):
        self.stack = ["<root>"]
        self.child_time = [0.0]
        # (name, parent) -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.absent = set()
        self.hook_s = 0.0
        self.smote_seen = False

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            span = name.replace("{data}", "smote" if self.smote_seen else "orig")
            parent = self.stack[-1]
            self.stack.append(span)
            self.child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self.child_time.pop()
                self.stack.pop()
                self.child_time[-1] += elapsed
                record = self.spans[(span, parent)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
            if hook is not None:
                self._run_hook(hook, result, args)
            return result

        return traced

    def _run_hook(self, hook, result, args):
        # Hook time is charged to no span: it is tracing overhead.
        start = perf_counter()
        try:
            hook(self, result, args)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError):
            self.absent.add(hook.__name__)
        elapsed = perf_counter() - start
        self.child_time[-1] += elapsed
        self.hook_s += elapsed

    def install(self):
        for module_name, path, span in TARGETS:
            module = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.add(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(span, fn, HOOKS.get(span)))

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.spans.items())
            ],
            "counters": dict(self.counters),
            "absent": sorted(self.absent),
            "hook_s": self.hook_s,
        }


def tokens_seen(tracer, tokens, args):
    tracer.counters["tokens"] += len(tokens)


def grams_seen(tracer, bag, args):
    tracer.counters["grams_seen"] += sum(bag.values())


def grams_in_vocab(tracer, vector, args):
    tracer.counters["grams_in_vocab"] += _mass(vector)


def corpus_grams_in_vocab(tracer, result, args):
    vocab, dataset = result
    tracer.counters["grams_in_vocab"] += _mass(dataset)
    tracer.counters["vocab_size"] = vocab.size


def vocab_size(tracer, vocab, args):
    tracer.counters["vocab_size"] = vocab.size


def loaded_vocab_size(tracer, archive, args):
    tracer.counters["vocab_size"] = archive.vocabulary.size


def synthetic_rows(tracer, resampled, args):
    tracer.smote_seen = True
    tracer.counters["synthetic_rows"] += len(resampled) - len(args[0])


def forest_shape(tracer, model, args):
    for tree in model.trees:
        nodes, depth = _tree_shape(tree)
        tracer.counters["rf_nodes"] += nodes
        tracer.counters["rf_max_depth"] = max(tracer.counters["rf_max_depth"], depth)


HOOKS = {
    "preprocess.tokenize": tokens_seen,
    "preprocess.extract_ngrams": grams_seen,
    "features.text_to_vector": grams_in_vocab,
    "features.vectorize_corpus": corpus_grams_in_vocab,
    "features.build_vocabulary": vocab_size,
    "archive.load": loaded_vocab_size,
    "resample.smote": synthetic_rows,
    "classifiers.rf_fit.{data}": forest_shape,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    import emojivote.cli

    code = emojivote.cli.main(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.dump(), exit_code=code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
