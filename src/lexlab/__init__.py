"""Desk-scale retrieval laboratory.

Small trainable dual encoders (one dense, one producing sparse per-term
weights), BM25 and exact top-k search over inverted indexes, contrastive
training with mined hard negatives, rank-consistent distillation from a
lexical teacher, TREC-style evaluation, ensemble fusion, and ranking
analyses. Everything is seeded and reproducible.
"""

from .data import (
    Corpus,
    Qrels,
    QuerySet,
    TermVector,
    Vocabulary,
    build_vocab,
    load_collection,
    load_qrels,
    load_queries,
    tokenize,
    vectorize,
)
from .encoders import (
    DenseParams,
    LexicalParams,
    TermWeightVector,
    dense_encode,
    lexical_encode,
    relevance,
)
from .retrieval import Retriever, RunFile, evaluate, make_run
from .training import PipelineConfig, TrainConfig, run_pipeline, train_stage

__version__ = "0.1.0"
