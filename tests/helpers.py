"""Test oracles and helpers for what the library itself never runs.

`relevance` is the bit-for-bit oracle of `sparse_index.sparse_scores` and of
the lexical teacher, `params_digest` fingerprints a model's parameters, and
`save_teacher_scores` writes the score table `training.load_teacher_scores`
reads.
"""

import hashlib

import numpy as np

from lexlab.encoders import TermWeightVector
from lexlab.objectives import ordered_total


def relevance(q_vec: TermWeightVector, p_vec: TermWeightVector) -> float:
    """Dot product of two lexical vectors: their shared terms' products added
    left to right in ascending term order."""
    _, qi, pi = np.intersect1d(q_vec.terms, p_vec.terms, assume_unique=True, return_indices=True)
    return ordered_total(q_vec.weights[qi] * p_vec.weights[pi])


def params_digest(params) -> str:
    """sha256 over the model kind and every tensor's name and float64 bytes."""
    h = hashlib.sha256()
    h.update(params.kind.encode())
    for name, t in params.tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return h.hexdigest()


def save_teacher_scores(scores: dict[tuple[str, str], float], path) -> None:
    """`<qid>\\t<pid>\\t<score>` lines in key order, scores to 12 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        for (qid, pid), score in sorted(scores.items()):
            f.write(f"{qid}\t{pid}\t{score:.12g}\n")
