"""Command-line interface: one executable exposing the whole laboratory.

Subcommands: ingest, train, mine, retrieve, evaluate, fuse, buckets, shift,
gradcheck, pipeline, sweep. No index is written to disk: mine, retrieve and
train --teacher-checkpoint build theirs in memory from the checkpoint (BM25
without one). A config-driven command takes as flags the PipelineConfig
keys of its COMMAND_KEYS entry, each under its full name only (no flag may be
abbreviated); precedence is flag > LED_SEED env var (seed, for commands that
read it) > config file > default. Each command writes only its output: the
provenance record is the config digest in each checkpoint header and, for
pipeline runs, ``manifest.json``. Errors print to stderr with an ``error:`` prefix and a
non-zero exit code.
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import analysis, gradcheck, retrieval, training
from .data import (
    build_vocab,
    load_collection,
    load_qrels,
    load_queries,
)
from .encoders import PARAMS_BY_KIND, CheckpointMeta, load_params, save_params
from .training import (
    PipelineConfig,
    config_digest,
    config_from_mapping,
    parse_config_file,
)

log = logging.getLogger("lexlab")


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        mapping.update(parse_config_file(args.config))
    if "LED_SEED" in os.environ and "seed" in COMMAND_KEYS[args.command]:
        mapping["seed"] = os.environ["LED_SEED"]
    mapping.update((k, v) for k, v in vars(args).items() if k in _ALL_KEYS and v is not None)
    return config_from_mapping(mapping)


# The PipelineConfig keys each command reads, which are its only config flags.
# A config file may set any key; pipeline and sweep take every key as a flag.
# train's are the data keys and the stage settings a TrainConfig holds.
_ALL_KEYS = tuple(f.name for f in fields(PipelineConfig))
_VOCAB_KEYS = ("collection", "min_df", "max_vocab")
_TRAIN_DATA_KEYS = (*_VOCAB_KEYS, "train_queries", "train_qrels", "seed")
COMMAND_KEYS = {
    "ingest": _VOCAB_KEYS,
    "mine": (*_TRAIN_DATA_KEYS, "depth", "warmup_m", "bm25_k1", "bm25_b"),
    "retrieve": (*_VOCAB_KEYS, "eval_queries", "run_depth", "bm25_k1", "bm25_b"),
    "train": (*_TRAIN_DATA_KEYS, *(f.name for f in fields(training.TrainConfig)
                                   if f.name not in ("seed", "stage")), "teacher_scores_file"),
    "pipeline": _ALL_KEYS,
    "sweep": _ALL_KEYS,
}


def _checked(convert, ok, rule: str):
    """An argparse `type` that converts a flag's value and rejects it, naming
    the flag, unless `ok` holds, before the command does any work."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_MARGIN = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_TOLERANCE = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")


def _metric_specs(text: str) -> tuple[str, ...]:
    """The `--metrics` type: a comma list of '<name>@<k>' specs, each checked
    by `retrieval.parse_metric` as the flag is parsed."""
    specs = tuple(text.split(",")) if text else retrieval.DEFAULT_METRICS
    for spec in specs:
        try:
            retrieval.parse_metric(spec)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return specs


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        parser.add_argument(f"--{key}", dest=key, default=None, metavar="V")


def cmd_ingest(args) -> int:
    cfg = _resolve_config(args)
    training.require_config_keys(cfg, ("collection",))
    corpus = load_collection(cfg.collection)
    vocab = build_vocab(corpus, cfg.min_df, cfg.max_vocab)
    print(f"passages\t{corpus.n_docs}")
    print(f"tokens\t{corpus.total_tokens}")
    print(f"avgdl\t{corpus.avgdl:.4f}")
    print(f"vocab\t{vocab.size}")
    if args.queries:
        queries = load_queries(args.queries)
        print(f"queries\t{len(queries)}")
    if args.qrels:
        qrels = load_qrels(args.qrels)
        print(f"qrels\t{len(qrels.entries)}")
    return 0


def _load_model(path: str | None, vocab, min_df: int, max_vocab: int):
    """The checkpoint at `path` (None without one); it must fit the command's vocabulary."""
    if not path:
        return None
    params, _ = load_params(path)
    if params.vocab_size != vocab.size:
        raise ValueError(
            f"{path}: the checkpoint has a {params.vocab_size}-term vocabulary, but min_df "
            f"{min_df} and max_vocab {max_vocab} give {vocab.size} terms on this collection"
        )
    return params


def cmd_mine(args) -> int:
    cfg = _resolve_config(args)
    corpus, vocab, queries, qrels = training.load_train_data(cfg)
    params = _load_model(args.checkpoint, vocab, cfg.min_df, cfg.max_vocab)
    index = retrieval.encode_corpus(params, corpus, vocab)
    pool = training.mine_negatives(
        retrieval.Retriever(params, index, vocab, cfg.bm25_k1, cfg.bm25_b), queries, qrels,
        cfg.depth, cfg.warmup_m, cfg.seed, source=args.source, sample=not args.no_sample,
    )
    training.save_pool(pool, args.out)
    print(f"mined negatives for {len(pool.by_query)} queries -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if cfg.teacher_scores_file and args.teacher_checkpoint:
        raise ValueError("give teacher_scores_file or --teacher-checkpoint, not both")
    if args.teacher_checkpoint and cfg.strategy == "none":
        raise ValueError("--teacher-checkpoint is never called under strategy 'none'")
    digest = config_digest(cfg, COMMAND_KEYS["train"])
    corpus, vocab, queries, qrels = training.load_train_data(cfg)
    pool = training.load_pool(args.pool)
    init = _load_model(args.init, vocab, cfg.min_df, cfg.max_vocab)
    if init is None:
        init = PARAMS_BY_KIND[args.kind or "dense"].init(vocab.size, cfg.dim, cfg.seed)
    elif args.kind and args.kind != init.kind:
        raise ValueError(f"--kind is {args.kind} but --init {args.init} holds a {init.kind} model")
    teacher = None
    if cfg.teacher_scores_file:
        teacher = training.table_teacher(training.load_teacher_scores(cfg.teacher_scores_file))
    elif args.teacher_checkpoint:
        t_params = _load_model(args.teacher_checkpoint, vocab, cfg.min_df, cfg.max_vocab)
        t_index = retrieval.encode_corpus(t_params, corpus, vocab)
        teacher = training.model_teacher(retrieval.Retriever(t_params, t_index, vocab), queries)
    stage_cfg = training.stage_config(
        cfg, training.Stage(args.stage, "lr", "epochs", "m"), cfg.strategy
    )
    params, tlog = training.train_stage(
        stage_cfg, vocab, corpus, queries, qrels, pool, init, teacher=teacher
    )
    meta = CheckpointMeta(
        stage=args.stage, step=tlog.optimizer_steps, seed=cfg.seed, config_digest=digest
    )
    save_params(params, meta, args.out)
    for epoch, loss in enumerate(tlog.epoch_mean_loss):
        print(f"epoch\t{epoch}\t{loss:.6f}")
    print(f"checkpoint -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    if not args.tag or any(c.isspace() for c in args.tag):
        raise ValueError(f"--tag {args.tag!r} must be non-empty and hold no whitespace")
    cfg = _resolve_config(args)
    training.require_config_keys(cfg, ("collection", "eval_queries"))
    corpus = load_collection(cfg.collection)
    queries = load_queries(cfg.eval_queries)
    vocab = build_vocab(corpus, cfg.min_df, cfg.max_vocab)
    params = _load_model(args.checkpoint, vocab, cfg.min_df, cfg.max_vocab)
    index = retrieval.encode_corpus(params, corpus, vocab)
    run = retrieval.make_run(
        params, queries, index, vocab, k=cfg.run_depth, tag=args.tag,
        bm25_k1=cfg.bm25_k1, bm25_b=cfg.bm25_b,
    )
    retrieval.save_run(run, args.out)
    print(f"run with {len(run.rankings)} queries -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    run = retrieval.load_run(args.run)
    qrels = load_qrels(args.qrels)
    report = retrieval.evaluate(run, qrels, args.metrics, exponential_gain=args.exponential_gain)
    if args.table:
        sys.stdout.write(retrieval.format_report_table(report))
    else:
        sys.stdout.write(retrieval.format_report(report, per_query=args.per_query))
    if args.out:
        Path(args.out).write_text(retrieval.format_report(report, per_query=True), encoding="utf-8")
    return 0


def cmd_fuse(args) -> int:
    run_a = retrieval.load_run(args.run_a)
    run_b = retrieval.load_run(args.run_b)
    fused = analysis.ensemble_fuse(run_a, run_b, k=args.k)
    retrieval.save_run(fused, args.out)
    print(f"fused {len(fused.rankings)} queries -> {args.out}")
    return 0


def cmd_buckets(args) -> int:
    paths = {}
    for spec in args.run or []:
        name, _, path = spec.partition("=")
        if not path:
            raise ValueError(f"--run expects name=path, got {spec!r}")
        if name in paths:
            raise ValueError(f"--run name {name!r} given twice")
        paths[name] = path
    reference = retrieval.load_run(args.reference)
    others = {name: retrieval.load_run(path) for name, path in paths.items()}
    qrels = load_qrels(args.qrels)
    table = analysis.rank_buckets(reference, others, qrels, depth=args.depth)
    text = analysis.format_bucket_table(table)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_shift(args) -> int:
    sample = analysis.discrepancy_pairs(
        retrieval.load_run(args.lex_run),
        retrieval.load_run(args.den_run),
        retrieval.load_run(args.led_run),
        margin=args.margin,
        depth=args.depth,
    )
    text = analysis.emit_histogram(sample, bins=args.bins)
    sys.stdout.write(text)
    print(f"pairs: lex-biased={len(sample.biased)} lex-unbiased={len(sample.unbiased)}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_gradcheck(args) -> int:
    report = gradcheck.run_suite(trials=args.trials, seed=args.seed)
    sys.stdout.write(gradcheck.format_suite_report(report))
    return 0 if report.worst < args.tolerance else 1


def cmd_pipeline(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(args.out_dir)
    result = training.run_pipeline(cfg, out_dir=out_dir)
    print(f"config digest {result.digest}")
    for name in sorted(result.checkpoints):
        print(f"checkpoint\t{name}\t{out_dir / 'checkpoints' / (name + '.ckpt')}")
    for name in sorted(result.reports):
        rep = result.reports[name]
        means = "\t".join(f"{m}={rep.results[m].mean:.4f}" for m in rep.results)
        print(f"metrics\t{name}\t{means}")
    return 0


def cmd_sweep(args) -> int:
    if args.key not in _ALL_KEYS:
        raise ValueError(f"unknown config key {args.key!r}")
    # Every value's configuration is resolved before any pipeline runs.
    configs = []
    for value in args.values.split(","):
        sweep_args = argparse.Namespace(**vars(args))
        setattr(sweep_args, args.key, value)
        configs.append((value, _resolve_config(sweep_args)))
    rows = []
    for value, cfg in configs:
        result = training.run_pipeline(cfg, out_dir=Path(args.out_dir) / f"{args.key}={value}")
        led = result.reports.get("led")
        rows.append((value, led.results if led else {}))
    metrics = list(rows[0][1])
    lines = [[args.key, *metrics]]
    lines += [[value, *(f"{results[m].mean:.4f}" for m in metrics)] for value, results in rows]
    table = "".join("\t".join(line) + "\n" for line in lines)
    sys.stdout.write(table)
    out = Path(args.out_dir) / "sweep.tsv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(table, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexlab",
        description="Desk-scale retrieval laboratory: train, mine, retrieve, evaluate, analyze.",
    )
    # No subcommand accepts a prefix of a flag: each flag has one spelling.
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    p = sub.add_parser("ingest", help="load and validate corpus/query/qrels files")
    p.add_argument("--queries")
    p.add_argument("--qrels")
    _add_config_flags(p, COMMAND_KEYS["ingest"])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("mine", help="mine hard negatives with a model or BM25")
    p.add_argument("--config")
    p.add_argument("--checkpoint", help="model checkpoint; omit for BM25")
    p.add_argument("--source", default="bm25", choices=training.SOURCE_TAGS)
    p.add_argument("--no-sample", action="store_true", help="keep the top instead of sampling")
    p.add_argument("--out", required=True)
    _add_config_flags(p, COMMAND_KEYS["mine"])
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train one stage from a negative pool")
    p.add_argument("--config")
    p.add_argument("--kind", choices=tuple(PARAMS_BY_KIND),
                   help="model kind (default: that of --init, else dense)")
    p.add_argument("--stage", default="warmup")
    p.add_argument("--pool", required=True)
    p.add_argument("--init", help="starting checkpoint (default: fresh init)")
    p.add_argument("--teacher-checkpoint", help="lexical teacher checkpoint")
    p.add_argument("--out", required=True)
    _add_config_flags(p, COMMAND_KEYS["train"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("retrieve", help="encode queries and write a TREC run")
    p.add_argument("--config")
    p.add_argument("--checkpoint", help="model checkpoint; omit for BM25")
    p.add_argument("--tag", default="lexlab")
    p.add_argument("--out", required=True)
    _add_config_flags(p, COMMAND_KEYS["retrieve"])
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", help="score a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", type=_metric_specs, default=retrieval.DEFAULT_METRICS,
                   help="comma list, e.g. mrr@10,recall@50")
    p.add_argument("--per-query", action="store_true")
    p.add_argument("--table", action="store_true", help="aligned summary table instead of records")
    p.add_argument("--exponential-gain", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fuse", help="sum-fuse two runs after per-query normalization")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--k", type=_POSITIVE_INT, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("buckets", help="golden-rank buckets against a reference run")
    p.add_argument("--reference", required=True)
    p.add_argument("--run", action="append", metavar="NAME=PATH")
    p.add_argument("--qrels", required=True)
    p.add_argument("--depth", type=_POSITIVE_INT, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_buckets)

    p = sub.add_parser("shift", help="score-discrepancy histogram across three runs")
    p.add_argument("--lex-run", required=True)
    p.add_argument("--den-run", required=True)
    p.add_argument("--led-run", required=True)
    p.add_argument("--margin", type=_MARGIN, default=0.2)
    p.add_argument("--bins", type=_POSITIVE_INT, default=20)
    p.add_argument("--depth", type=_POSITIVE_INT, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--trials", type=_POSITIVE_INT, default=100)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--tolerance", type=_TOLERANCE, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("pipeline", help="run the full two-stage training pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="artifacts")
    _add_config_flags(p, COMMAND_KEYS["pipeline"])
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="run the pipeline across values of one config key")
    p.add_argument("--config", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out-dir", default="sweep")
    _add_config_flags(p, COMMAND_KEYS["sweep"])
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Ids and tags are UTF-8 text, whatever the locale says about the terminal.
    for stream in (sys.stdout, sys.stderr):
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(encoding="utf-8")
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
