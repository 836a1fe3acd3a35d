"""emojivote benchmark: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload train-en --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository. The program under test is
`python -m emojivote.cli` with the checkout's `src` on PYTHONPATH; nothing is
installed. Every input comes from `corpus_gen` seeded by `--seed`. One client
runs one CLI op at a time, each in a fresh child process, so every op gets
its own wall time and peak RSS (from `os.wait4`).

A run sets its workload up several times (setup_s is the median), each
set-up making its own variant of the inputs from the seed, then repeats the
workload's cycle of ops, rotating over the variants, until `--seconds` have
passed, checking every output; side ops (those that only feed the summary)
run in the first cycle only. Rotating keeps one corpus's quirks (a deeper
forest, a larger vocabulary) from setting a whole run's times. After each op
it times `reference.py`, a fixed piece of work that uses nothing of `src`;
the op times divided by its mean (op_rel, cold_rel) stay steady when a
shared host slows every process for minutes at a time. With `--trace 0` it
prints the end-to-end metrics, measured with no tracing. With `--trace 1` it
runs each op twice per cycle, once plain and once under `tracer.py`, and
prints the per-layer metrics and the tracing overhead (traced minus plain
wall time). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record, with the environment, is also written to `.perfbench_work/`.

Workloads (sizes are the SIZES table):
  train-en     `train --lang en` with all defaults, then a held-out `predict`
               scored against gold, then one-tweet `predict` calls on the new
               model (cold start).
  predict-es   set-up trains a `--lang es` model; the cycle is `predict
               --selector meta`, `predict --selector mnb` on a larger file,
               and one-tweet `predict` calls (cold start).
  resample-en  `resample` on an English corpus, then a minimal `resample`.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import corpus_gen
from reference import REFERENCE_CHECKSUM

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SIZES = {
    "train-en": {"train": 300, "heldout": 600, "cold_repeats": 2, "setup_repeats": 7},
    "predict-es": {"train": 250, "meta": 2000, "mnb": 20000, "cold_repeats": 1, "setup_repeats": 3},
    "resample-en": {"resample": 3000, "minimal": 40, "cold_repeats": 2, "setup_repeats": 7},
}
STARTUP_PROBES = 3  # import-only processes per traced run
DEADLINE_S = 170.0  # a run stops starting ops, and kills a running one, after this
F1_FLOOR_FACTOR = 3.0  # macro-F1 must be this many times the majority baseline's


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    name: str
    args: list[str]
    role: str  # "main", "side" or "cold"
    tweets: int
    check: Callable[["Run", "Op", Sample], str | None]
    output: Path | None = None
    gold: list[int] | None = None
    archive: Path | None = None


@dataclass
class Run:
    workload: str
    deadline: float
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_output: dict = field(default_factory=dict)
    f1: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], run: Run, cwd: Path) -> Sample:
    """Run argv to completion; wall time from spawn to reap, peak RSS of the child."""
    remaining = run.deadline - time.monotonic()
    if remaining <= 0:
        return Sample(0.0, 0.0, -1, "", "not started: run deadline passed")
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=_child_env())
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_cycle(run: Run, ops: list[Op], first: bool, refs: list[float]) -> list[tuple[Op, Sample]]:
    """One pass over ops, timing the reference process after each into refs;

    side ops run only in the first cycle of a run.
    """
    out = []
    for op in ops:
        if first or op.role != "side":
            out.append((op, run_op(run, op, cli_argv(op.args))))
            ref = time_reference(run)
            if ref is not None:
                refs.append(ref)
    return out


def time_reference(run: Run) -> float | None:
    """Wall time of one `reference.py` process; None if the run's deadline stopped it."""
    sample = spawn([sys.executable, str(BENCH_DIR / "reference.py")], run, run.work)
    if time.monotonic() >= run.deadline:
        return None
    if sample.code != 0 or sample.stdout.strip() != REFERENCE_CHECKSUM:
        raise RuntimeError(f"reference.py failed: exit {sample.code}, printed {sample.stdout.strip()[:80]!r}: {sample.stderr.strip()[-300:]}")
    return sample.wall_s


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "emojivote.cli", *args]


def traced_argv(spans: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "--", *args]


def run_op(run: Run, op: Op, argv: list[str]) -> Sample:
    for stale in (op.output, op.archive):
        if stale is not None:
            stale.unlink(missing_ok=True)
    sample = spawn(argv, run, run.work)
    run.attempted += 1
    problem = f"exit {sample.code}: {sample.stderr.strip()[-300:]}" if sample.code != 0 else op.check(run, op, sample)
    if problem:
        run.failed += 1
        run.problems.append(f"{op.name}: {problem}")
    return sample


# ---------------------------------------------------------------------------
# Output checks


def macro_f1(gold: list[int], pred: list[int], k: int) -> float:
    g, p = np.asarray(gold), np.asarray(pred)
    scores = []
    for c in range(k):
        tp = int(np.sum((g == c) & (p == c)))
        wrong = int(np.sum((g == c) != (p == c)))
        scores.append(2 * tp / (2 * tp + wrong) if tp + wrong else 0.0)
    return float(np.mean(scores))


def check_predictions(k: int):
    def check(run: Run, op: Op, sample: Sample) -> str | None:
        if not op.output.is_file():
            return "no prediction file written"
        raw = op.output.read_bytes()
        lines = raw.decode("utf-8", errors="replace").split("\n")
        if lines[-1] != "":
            return "prediction file does not end with a newline"
        labels = lines[:-1]
        if len(labels) != op.tweets:
            return f"{len(labels)} predictions for {op.tweets} tweets"
        if any(not re.fullmatch(r"\d+", lab) or int(lab) >= k for lab in labels):
            return f"a prediction is not a label in [0, {k})"
        first = run.first_output.setdefault(str(op.output), raw)
        if raw != first:
            return "predictions differ from the first run on the same inputs"
        if op.gold is not None:
            pred = [int(lab) for lab in labels]
            f1 = macro_f1(op.gold, pred, k)
            majority = max(range(k), key=op.gold.count)
            floor = F1_FLOOR_FACTOR * macro_f1(op.gold, [majority] * len(op.gold), k)
            run.f1.setdefault(op.name, f1)
            if f1 < floor:
                return f"macro-F1 {f1:.4f} below the floor {floor:.4f}"
        return None

    return check


def check_resample(expected: int):
    def check(run: Run, op: Op, sample: Sample) -> str | None:
        found = re.search(r"resampled size: (\d+)", sample.stdout)
        if not found:
            return "no 'resampled size' line"
        if int(found.group(1)) != expected:
            return f"resampled size {found.group(1)}, expected k x majority count = {expected}"
        return None

    return check


def check_archive(run: Run, op: Op, sample: Sample) -> str | None:
    if not op.archive.is_file() or op.archive.stat().st_size == 0:
        return "no model archive written"
    return None


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    ops: list[Op]  # one cycle, in order
    trace_ops: list[Op]  # one traced cycle
    archives: list[Path]


def write(work: Path, name: str, texts, labels=None) -> tuple[Path, Path | None]:
    text_path = work / f"{name}.txt"
    label_path = work / f"{name}.lab" if labels is not None else None
    corpus_gen.write_corpus(texts, labels, text_path, label_path)
    return text_path, label_path


def train_op(name: str, style: str, text: Path, labels: Path, n: int, archive: Path, role: str) -> Op:
    k = corpus_gen.STYLES[style]["classes"]
    args = ["train", str(text), str(labels), "-k", str(k), "-o", str(archive), "--lang", style]
    return Op(name, args, role, n, check_archive, archive=archive)


def predict_op(name: str, archive: Path, text: Path, out: Path, n: int, k: int, selector: str, role: str, gold=None) -> Op:
    args = ["predict", str(archive), str(text), "--selector", selector, "-o", str(out)]
    return Op(name, args, role, n, check_predictions(k), output=out, gold=gold)


def resample_op(name: str, style: str, text: Path, labels: Path, counts: list[int], role: str) -> Op:
    k = len(counts)
    args = ["resample", str(text), str(labels), "-k", str(k), "--lang", style]
    return Op(name, args, role, sum(counts), check_resample(k * max(counts)))


def setup_train_en(run: Run, work: Path, seed: int, variant: int) -> Workload:
    size = SIZES["train-en"]
    k = corpus_gen.STYLES["en"]["classes"]
    train = write(work, "train", *corpus_gen.generate(size["train"], seed, "en", "train", variant))
    held_texts, held_gold = corpus_gen.generate(size["heldout"], seed, "en", "test", variant)
    held, _ = write(work, "heldout", held_texts)
    cold, _ = write(work, "cold", corpus_gen.generate(2 * k, seed, "en", "cold", variant)[0][:1])
    model = work / "model.bin"
    ops = [
        train_op("train", "en", *train, size["train"], model, "main"),
        predict_op("predict-heldout", model, held, work / "heldout.pred", size["heldout"], k, "meta", "side", held_gold),
    ] + [predict_op("predict-cold", model, cold, work / "cold.pred", 1, k, "meta", "cold")] * size["cold_repeats"]
    return Workload(ops=ops, trace_ops=ops[:3], archives=[model])


def setup_predict_es(run: Run, work: Path, seed: int, variant: int) -> Workload:
    size = SIZES["predict-es"]
    k = corpus_gen.STYLES["es"]["classes"]
    train = write(work, "train", *corpus_gen.generate(size["train"], seed, "es", "train", variant))
    meta_texts, meta_gold = corpus_gen.generate(size["meta"], seed, "es", "test", variant)
    meta, _ = write(work, "meta", meta_texts)
    mnb_texts, mnb_gold = corpus_gen.generate(size["mnb"], seed, "es", "bulk", variant)
    mnb, _ = write(work, "mnb", mnb_texts)
    cold, _ = write(work, "cold", corpus_gen.generate(2 * k, seed, "es", "cold", variant)[0][:1])
    model = work / "model.bin"
    fit = train_op("train-es", "es", *train, size["train"], model, "setup")
    run_op(run, fit, cli_argv(fit.args))
    ops = [
        predict_op("predict-meta", model, meta, work / "meta.pred", size["meta"], k, "meta", "main", meta_gold),
        predict_op("predict-mnb", model, mnb, work / "mnb.pred", size["mnb"], k, "mnb", "side", mnb_gold),
    ] + [predict_op("predict-cold", model, cold, work / "cold.pred", 1, k, "meta", "cold")] * size["cold_repeats"]
    return Workload(ops=ops, trace_ops=[fit] + ops[:3], archives=[model])


def setup_resample_en(run: Run, work: Path, seed: int, variant: int) -> Workload:
    size = SIZES["resample-en"]
    priors = corpus_gen.class_priors("en")
    corpus = write(work, "corpus", *corpus_gen.generate(size["resample"], seed, "en", "train", variant))
    minimal = write(work, "minimal", *corpus_gen.generate(size["minimal"], seed, "en", "cold", variant))
    ops = [
        resample_op("resample", "en", *corpus, corpus_gen.class_counts(size["resample"], priors), "main"),
    ] + [resample_op("resample-minimal", "en", *minimal, corpus_gen.class_counts(size["minimal"], priors), "cold")] * size["cold_repeats"]
    return Workload(ops=ops, trace_ops=ops[:2], archives=[])


SETUPS = {"train-en": setup_train_en, "predict-es": setup_predict_es, "resample-en": setup_resample_en}


# ---------------------------------------------------------------------------
# Metrics


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile_note(values: list[float]) -> str:
    """Sample count, median, and the highest of p75..p99 with at least ten samples beyond it."""
    note = f"n={len(values)}, median {median(values):.4f}"
    best = None
    for p in (75, 90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = p
    if best:
        return note + f", p{best} {statistics.quantiles(values, n=100)[best - 1]:.4f}"
    return note + " (too few samples for a percentile above the median)"


def end_to_end(run: Run, setups: list[float], cycles: list[list], refs: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics and a readable summary under each workload's

    own metric names. Op times are means over the run (busy time per op, the
    inverse of throughput); op_rel and cold_rel divide them by the mean time
    of the reference process, timed after every op of the same run. Set-up
    time and peak RSS are medians.
    """
    def walls(pick):
        return [s.wall_s for c in cycles for op, s in c if pick(op)]

    main = walls(lambda op: op.role == "main")
    cold = walls(lambda op: op.role == "cold")
    peak = [max(s.rss_mb for _, s in c) for c in cycles]
    ref = mean(refs)
    metrics = {
        "setup_s": {"value": median(setups), "unit": "s"},
        "op_rel": {"value": mean(main) / ref if ref else 0.0, "unit": "x"},
        "peak_rss_mb": {"value": median(peak), "unit": "MB"},
        "cold_rel": {"value": mean(cold) / ref if ref else 0.0, "unit": "x"},
    }
    lines = []

    def show(name, value, unit, note=""):
        lines.append(f"  {name:<26} {value:>11.4f} {unit:<9} {note}")

    def timing(name, values, what=""):
        show(name, mean(values), "s", what + "mean; " + percentile_note(values))

    def throughput(name, tweets, values):
        show(name, tweets / mean(values), "tweets/s", f"{tweets} tweets per op, at the mean of n={len(values)}")

    show("setup_s", median(setups), "s", "set-ups: " + percentile_note(setups))
    timing("reference_s", refs, "reference.py, after every op: ")
    show("op_rel", metrics["op_rel"]["value"], "x", "main op / reference")
    show("cold_rel", metrics["cold_rel"]["value"], "x", "cold op / reference")
    if run.workload == "train-en":
        timing("train_s", main)
        show("train_peak_rss_mb", median(peak), "MB", "median over cycles")
        show("train_macro_f1", run.f1.get("predict-heldout", 0.0), "", f"meta, {SIZES['train-en']['heldout']} held-out tweets")
        timing("train_cold_s", cold, "one-tweet predict on the trained model: ")
    elif run.workload == "predict-es":
        size = SIZES["predict-es"]
        throughput("predict_meta_tweets_per_s", size["meta"], main)
        throughput("predict_mnb_tweets_per_s", size["mnb"], walls(lambda op: op.name == "predict-mnb"))
        timing("predict_cold_s", cold)
        show("predict_peak_rss_mb", median(peak), "MB", "median over cycles")
        show("predict_meta_macro_f1", run.f1.get("predict-meta", 0.0), "")
        show("predict_mnb_macro_f1", run.f1.get("predict-mnb", 0.0), "")
    else:
        timing("resample_s", main)
        show("resample_peak_rss_mb", median(peak), "MB", "median over cycles")
        timing("resample_cold_s", cold, "minimal resample: ")
    show("failed_share", run.failed / max(run.attempted, 1), "", f"{run.failed} of {run.attempted} ops")
    return metrics, lines


PER_LAYER_UNITS = {
    "preprocess.us_per_tweet": "us",
    "preprocess.tokens_per_tweet": "count",
    "features.text_to_vector_us": "us",
    "features.vectorize_corpus_s": "s",
    "features.build_vocabulary_s": "s",
    "features.vocab_size": "count",
    "features.oov_gram_share": "share",
    "features.grams_seen": "count",
    "resample.smote_s": "s",
    "resample.nearest_neighbors_s": "s",
    "resample.synthetic_rows": "count",
    **{f"classifiers.{m}_fit_s.{d}": "s" for m in ("mnb", "lr", "rf") for d in ("orig", "smote")},
    "classifiers.rf_nodes": "count",
    "classifiers.rf_max_depth": "count",
    **{f"classifiers.{m}_predict_us": "us" for m in ("mnb", "lr", "rf")},
    "ensemble.vote_us": "us",
    "ensemble.build_meta_self_s": "s",
    "archive.load_s": "s",
    "archive.save_s": "s",
    "archive.bytes": "bytes",
    "corpus.load_corpus_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_spans": "count",
}


def layer_values(dumps: list[dict], startup_s: float, archive_bytes: int) -> dict:
    """Per-layer values of one traced cycle: seconds summed over its ops,

    microseconds per call, counts summed (sizes and depths as maxima).
    """
    calls, total, self_s = {}, {}, {}
    counters = {"tokens": 0.0, "grams_seen": 0.0, "grams_in_vocab": 0.0, "synthetic_rows": 0.0, "rf_nodes": 0.0}
    maxima = {"vocab_size": 0.0, "rf_max_depth": 0.0}
    outer_votes = 0
    absent = set()
    for dump in dumps:
        absent.update(dump["absent"])
        for span in dump["spans"]:
            name = span["name"]
            calls[name] = calls.get(name, 0) + span["calls"]
            total[name] = total.get(name, 0.0) + span["total_s"]
            self_s[name] = self_s.get(name, 0.0) + span["self_s"]
            if name.endswith("_vote") and not span["parent"].endswith("_vote"):
                outer_votes += span["calls"]
        for key, value in dump["counters"].items():
            if key in maxima:
                maxima[key] = max(maxima[key], value)
            else:
                counters[key] = counters.get(key, 0.0) + value

    def per_call_us(names, times):
        n = calls.get(names[0], 0)
        return 1e6 * sum(times.get(x, 0.0) for x in names) / n if n else 0.0

    grams = counters["grams_seen"]
    values = {
        "preprocess.us_per_tweet": per_call_us(["preprocess.normalize", "preprocess.tokenize", "preprocess.extract_ngrams"], total),
        "preprocess.tokens_per_tweet": counters["tokens"] / calls["preprocess.tokenize"] if calls.get("preprocess.tokenize") else 0.0,
        "features.text_to_vector_us": per_call_us(["features.text_to_vector"], self_s),
        "features.vectorize_corpus_s": total.get("features.vectorize_corpus", 0.0),
        "features.build_vocabulary_s": total.get("features.build_vocabulary", 0.0),
        "features.vocab_size": maxima["vocab_size"],
        "features.oov_gram_share": 1.0 - counters["grams_in_vocab"] / grams if grams else 0.0,
        "features.grams_seen": grams,
        "resample.smote_s": total.get("resample.smote", 0.0),
        "resample.nearest_neighbors_s": total.get("resample.nearest_neighbors", 0.0),
        "resample.synthetic_rows": counters["synthetic_rows"],
        "classifiers.rf_nodes": counters["rf_nodes"],
        "classifiers.rf_max_depth": maxima["rf_max_depth"],
        "ensemble.vote_us": 1e6 * (self_s.get("ensemble.base_vote", 0.0) + self_s.get("ensemble.meta_vote", 0.0)) / outer_votes if outer_votes else 0.0,
        "ensemble.build_meta_self_s": self_s.get("ensemble.build_meta", 0.0),
        "archive.load_s": total.get("archive.load", 0.0),
        "archive.save_s": total.get("archive.save", 0.0),
        "archive.bytes": float(archive_bytes),
        "corpus.load_corpus_s": total.get("corpus.load_corpus", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.startup_s": startup_s,
        "trace.absent_spans": float(len(absent)),
    }
    for m in ("mnb", "lr", "rf"):
        for d in ("orig", "smote"):
            values[f"classifiers.{m}_fit_s.{d}"] = total.get(f"classifiers.{m}_fit.{d}", 0.0)
        values[f"classifiers.{m}_predict_us"] = per_call_us([f"classifiers.{m}_predict"], total)
    return values


def traced_cycle(run: Run, ops: list[Op], index: int) -> list[tuple[Sample, Sample, dict]]:
    """Each op plainly and under the tracer, alternating which goes first."""
    out = []
    for i, op in enumerate(ops):
        spans_path = run.work / f"spans-{i}.json"
        spans_path.unlink(missing_ok=True)
        argvs = [cli_argv(op.args), traced_argv(spans_path, op.args)]
        if index % 2:
            traced, plain = [run_op(run, op, argv) for argv in reversed(argvs)]
        else:
            plain, traced = [run_op(run, op, argv) for argv in argvs]
        dump = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.is_file() else None
        out.append((plain, traced, dump))
    return out


def trace_report(workload: Workload, cycles: list[list], startup_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over cycles) and, per op, the accounting of

    its plain wall time by start-up, cli.main's self time and its child spans.
    """
    archive_bytes = max((p.stat().st_size for p in workload.archives if p.is_file()), default=0)
    per_cycle = [layer_values([d for _, _, d in c if d], startup_s, archive_bytes) for c in cycles]
    lines, overhead = [], 0.0
    for i, op in enumerate(workload.trace_ops):
        plain = median([c[i][0].wall_s for c in cycles])
        traced = median([c[i][1].wall_s for c in cycles])
        dumps = [c[i][2] for c in cycles if c[i][2]]
        main = median([sum(s["total_s"] for s in d["spans"] if s["name"] == "cli.main") for d in dumps])
        own = median([sum(s["self_s"] for s in d["spans"] if s["name"] == "cli.main") for d in dumps])
        overhead += traced - plain
        rest = plain - startup_s - main
        lines.append(
            f"  accounting {op.name:<16} plain {plain:.3f} s = cli.startup {startup_s:.3f} + cli.self {own:.3f}"
            f" + child spans {main - own:.3f} + rest {rest:+.3f}; traced {traced:.3f} s,"
            f" overhead {traced - plain:+.3f} s; |rest| within |overhead|: {abs(rest) <= abs(traced - plain)}"
            f" (medians of {len(cycles)})"
        )
    absent = sorted({name for c in cycles for _, _, d in c if d for name in d["absent"]})
    if absent:
        lines.append(f"  absent (renamed or removed; reported as 0): {', '.join(absent)}")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        value = overhead if name == "trace.overhead_s" else median([v[name] for v in per_cycle])
        metrics[name] = {"value": value, "unit": unit}
    lines += [f"  {n:<34} {m['value']:>14.6f} {m['unit']}" for n, m in metrics.items()]
    lines.append(f"  ({len(cycles)} traced cycles; values are medians over cycles)")
    return metrics, lines


# ---------------------------------------------------------------------------
# Environment


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(),
        "seed": seed,
    }


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, left at its default."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "lib*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emojivote" / "cli.py").is_file():
        print(f"error: {SRC / 'emojivote' / 'cli.py'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-{args.seed}-", dir=WORK))
    run = Run(args.workload, time.monotonic() + DEADLINE_S, work)
    try:
        # Compile the program's bytecode before anything is timed.
        spawn([sys.executable, "-c", "import emojivote.cli"], run, work)
        setups, variants = [], []
        for i in range(SIZES[args.workload]["setup_repeats"]):
            run.work = work / f"setup-{i}"
            run.work.mkdir()
            start = time.perf_counter()
            variants.append(SETUPS[args.workload](run, run.work, args.seed, i))
            setups.append(time.perf_counter() - start)
        workload = variants[0]
        lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"]
        env = environment(args.seed)
        lines.append("env " + json.dumps(env))
        cycles = []
        end = time.perf_counter() + args.seconds
        if args.trace:
            probes = [spawn([sys.executable, "-c", "import emojivote.cli"], run, run.work).wall_s for _ in range(STARTUP_PROBES)]
            while not cycles or (time.perf_counter() < end and time.monotonic() < run.deadline):
                cycles.append(traced_cycle(run, workload.trace_ops, len(cycles)))
            metrics, report = trace_report(workload, cycles, median(probes))
            lines += report
        else:
            refs = []
            while not cycles or (time.perf_counter() < end and time.monotonic() < run.deadline):
                ops = variants[len(cycles) % len(variants)].ops
                cycles.append(run_cycle(run, ops, not cycles, refs))
            metrics, summary = end_to_end(run, setups, cycles, refs)
            lines += summary
        lines += [f"  FAILED {p}" for p in run.problems]
        result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env, "result": result, "setups_s": setups}
        if not args.trace:
            record["samples"] = [[op.name, s.wall_s, s.rss_mb] for c in cycles for op, s in c]
            record["reference_s"] = refs
        (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
