"""Finite-difference verification harness.

Checks three layers: encoder parameter gradients, loss gradients with
respect to their inputs (the candidate score array, index 0 the positive,
or lexical term weights for FLOPS), and full compositions (parameters ->
encoder -> relevance -> loss).
Every check runs `fd_max_rel_error`, one central-difference loop over a flat
float64 array (for parameters, a model's own `flat` buffer, never the
caller's), against the functions that train: `dense_encode_batch` /
`dense_backward_batch`, `lexical_trace` / `LexicalRoutes`, the losses, and
`training.batch_step`. Kink-adjacent coordinates are detected by comparing
the discrete forward structure (ReLU gates, max-pool argmaxes, active
hinges) at the +eps and -eps evaluation points and skipped when it differs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .data import TermVector
from .encoders import (
    DenseParams,
    LexicalParams,
    LexicalRoutes,
    Params,
    TokenBatch,
    dense_backward_batch,
    dense_encode_batch,
    lexical_trace,
)
from .objectives import TEACHING_LOSSES, RankPairSet, flops_penalty, make_rank_pairs, strategy_loss
from .training import batch_step
from .workers import fork_map

# Negatives per loss check; vocabulary size, width and negatives of each
# composed check.
LOSS_NEGS = 4
COMPOSED_VOCAB_SIZE, COMPOSED_DIM, COMPOSED_NEGS = 10, 3, 3

LOSS_NAMES = (
    "contrastive",
    "rank-consistent",
    "combined",
    "margin-mse",
    "kl",
    "flops",
)


def fd_max_rel_error(x: np.ndarray, forward, analytic: np.ndarray, eps: float, unread=()) -> float:
    """Max relative error between `analytic` and central differences at `x`.

    `x` is a flat float64 array that `forward() -> (value, structure)` reads;
    each element in turn is set to +eps and -eps around its value and then
    restored. Coordinates where the structure at +eps and -eps differs are
    skipped as kink-adjacent. Coordinates in `unread` are never read by
    `forward`, so their finite difference is exactly zero without
    evaluating it, and their analytic gradient is held to that. A checked
    coordinate with a NaN or infinite difference or analytic value fails
    the check with an infinite error.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    unread = set(np.asarray(unread, dtype=np.int64).tolist())
    worst = 0.0
    for i, (orig, an) in enumerate(zip(x.tolist(), analytic.tolist())):
        if i in unread:
            fd = 0.0
        else:
            x[i] = orig + eps
            f_plus, s_plus = forward()
            x[i] = orig - eps
            f_minus, s_minus = forward()
            x[i] = orig
            if s_plus != s_minus:
                continue
            fd = (f_plus - f_minus) / (2.0 * eps)
        # The floor keeps central-difference roundoff (~|f|*1e-16/eps) on
        # zero-gradient coordinates from registering as relative error.
        error = abs(fd - an) / max(abs(fd) + abs(an), 1e-5)
        # A NaN or infinite fd or analytic value makes the ratio NaN, which
        # max() would pass over.
        if not math.isfinite(error):
            return math.inf
        worst = max(worst, error)
    return worst


def grad_check(params: Params, sample: TermVector, eps: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    of the encoder `params.kind`.

    The scalar objective is a fixed random linear functional of the encoder
    output. Coordinates whose +/-eps perturbations land on different sides of
    a ReLU or max-pool decision are skipped (the two-sided difference spans a
    kink there and is meaningless for comparison).
    """
    rng = np.random.default_rng(seed)
    p = params.copy()
    grads = p.zeros_like()
    batch = TokenBatch.of([sample])
    if p.kind == "dense":
        probe = rng.normal(size=p.dim)

        def forward():
            return float(probe @ dense_encode_batch(p, batch)[0][0]), b""

        pooled = dense_encode_batch(p, batch)[1]
        dense_backward_batch(p, batch, pooled, probe[None], grads)
    else:
        probe = rng.normal(size=p.vocab_size)

        def forward():
            trace = lexical_trace(batch.ids, p)
            parts = probe[trace.active_terms] * trace.weights
            return sum(parts.tolist()), trace.structure()

        trace = lexical_trace(batch.ids, p)
        routes = LexicalRoutes(p, grads)
        routes.add(trace, probe[trace.active_terms])
        routes.flush()
    return fd_max_rel_error(p.flat, forward, grads.flat, eps)


def _loss_and_structure(name: str, scores: np.ndarray, teacher: np.ndarray, pairs: RankPairSet):
    """Evaluate one named loss of one set as training does; returns (LossValue
    of the one-row matrix, discrete structure).

    "contrastive" and "combined" are the training losses of the strategies
    "none" and "rank-consistent" (weight 1.2); the others are the teaching
    losses themselves, "kl" at temperature 2. `pairs` is the fixed teacher's
    `make_rank_pairs`, built once per check as `train_stage` builds it once
    per query.
    """
    s, t = scores[None], teacher[None]
    if name == "contrastive":
        lv = strategy_loss("none", s)[0]
    elif name == "combined":
        lv = strategy_loss("rank-consistent", s, t, reg_weight=1.2, pairs=pairs)[0]
    else:
        lv = TEACHING_LOSSES[name](s, t, pairs, 2.0)
    if name not in ("rank-consistent", "combined"):
        return lv, b""
    # Which rank pairs' hinges are active: s(other) > s(preferred).
    return lv, (pairs.mask & (s > s.T)).tobytes()


def loss_grad_check(name: str, seed: int, eps: float = 1e-5) -> float:
    """Central differences of one loss with respect to its direct inputs."""
    rng = np.random.default_rng(seed)
    if name == "flops":
        # Three vectors of three distinct terms each; x holds their weights.
        vecs = [
            (rng.choice(12, size=3, replace=False), rng.uniform(0.1, 2.0, size=3))
            for _ in range(3)
        ]
        terms = [t for t, _ in vecs]
        x = np.concatenate([w for _, w in vecs])
        values = np.split(x, 3)

        def forward():
            return flops_penalty(terms, values, 0.7, [3]).loss[0], b""

        analytic = flops_penalty(terms, values, 0.7, [3]).grad
        return fd_max_rel_error(x, forward, analytic, eps)

    scores = rng.normal(size=LOSS_NEGS + 1)  # x: the array the loss reads
    teacher = rng.normal(size=LOSS_NEGS + 1)
    pairs = make_rank_pairs(teacher)

    def forward():
        lv, structure = _loss_and_structure(name, scores, teacher, pairs)
        return lv.loss[0], structure

    analytic = _loss_and_structure(name, scores, teacher, pairs)[0].grad[0]
    return fd_max_rel_error(scores, forward, analytic, eps)


def composed_grad_check(kind: str, loss_name: str, seed: int, eps: float = 1e-5) -> float:
    """Full-chain check: parameters -> encode -> dot products -> loss."""
    rng = np.random.default_rng(seed)

    def rand_tv(max_terms: int) -> TermVector:
        k = int(rng.integers(1, max_terms + 1))
        ids = rng.choice(COMPOSED_VOCAB_SIZE, size=k, replace=False)
        counts = {int(t): int(rng.integers(1, 3)) for t in ids}
        return TermVector(counts=counts, n=sum(counts.values()))

    q_tv = rand_tv(3)
    cand_tvs = [rand_tv(4) for _ in range(COMPOSED_NEGS + 1)]
    teacher = rng.normal(size=COMPOSED_NEGS + 1)
    pairs = make_rank_pairs(teacher)

    if kind == "dense":
        params = DenseParams.init(COMPOSED_VOCAB_SIZE, COMPOSED_DIM, seed)
        params.emb[:] = rng.uniform(-0.5, 0.5, size=params.emb.shape)
        params.proj[:] = rng.uniform(-0.5, 0.5, size=params.proj.shape)
        params.bias[:] = rng.uniform(-0.2, 0.2, size=params.bias.shape)
    elif kind == "lexical":
        params = LexicalParams.init(COMPOSED_VOCAB_SIZE, COMPOSED_DIM, seed)
        params.emb[:] = rng.uniform(-0.8, 0.8, size=params.emb.shape)
        params.expand[:] = rng.uniform(-0.8, 0.8, size=params.expand.shape)
        params.bias[:] = rng.uniform(-0.1, 0.1, size=params.bias.shape)
    else:
        raise ValueError(f"unknown encoder kind {kind!r}")
    if loss_name == "flops" and kind != "lexical":
        raise ValueError("flops composes on the lexical encoder only")

    # The chain under test is the training step itself: batch_step encodes,
    # scores, applies the loss (plus FLOPS) and backpropagates.
    table, rows = TokenBatch.for_encoder([q_tv, *cand_tvs], kind)
    sets = [rows]
    flops_weight = 0.7 if loss_name == "flops" else 0.0
    loss_structure = []

    def loss_fn(scores):
        if loss_name == "flops":
            return [0.0], [np.zeros(len(scores[0]))]
        lv, structure = _loss_and_structure(loss_name, scores[0], teacher, pairs)
        loss_structure.append(structure)
        return lv.loss, lv.grad

    def forward():
        loss_structure.clear()
        step = batch_step(params, table, sets, loss_fn, flops_weight)
        encoded = b"dense" if step.traces is None else b"".join(
            tr.structure() for tr in step.traces
        )
        return step.losses[0], encoded + b"".join(loss_structure)

    grads = params.zeros_like()
    batch_step(params, table, sets, loss_fn, flops_weight, grads)
    # The embedding rows of terms in no input, at the head of `flat`.
    rows = np.setdiff1d(np.arange(COMPOSED_VOCAB_SIZE), table.ids)
    unread = (rows[:, None] * COMPOSED_DIM + np.arange(COMPOSED_DIM)).reshape(-1)
    return fd_max_rel_error(params.flat, forward, grads.flat, eps, unread=unread)


@dataclass
class GradCheckReport:
    max_errors: dict[str, float]
    trials: int
    elapsed_s: float

    @property
    def worst(self) -> float:
        return max(self.max_errors.values())


def _encoder_check(kind: str, seed: int, t: int, eps: float) -> float:
    """`grad_check` of trial `t`: a random model of `kind` and a random input."""
    rng = np.random.default_rng(seed + 1000 + t)
    vocab_size, dim = 10, 3
    if kind == "dense":
        params = DenseParams.init(vocab_size, dim, seed + t)
        params.proj[:] = rng.uniform(-0.5, 0.5, size=(dim, dim))
    else:
        params = LexicalParams.init(vocab_size, dim, seed + t)
        params.emb[:] = rng.uniform(-0.8, 0.8, size=params.emb.shape)
        params.expand[:] = rng.uniform(-0.8, 0.8, size=params.expand.shape)
    k = int(rng.integers(1, 4))
    ids = rng.choice(vocab_size, size=k, replace=False)
    counts = {int(i): int(rng.integers(1, 3)) for i in ids}
    tv = TermVector(counts=counts, n=sum(counts.values()))
    return grad_check(params, tv, eps=eps, seed=seed + t)


def run_suite(trials: int = 100, seed: int = 0, eps: float = 1e-5) -> GradCheckReport:
    """Encoder, loss, and composed checks over `trials` seeded instances."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    start = time.perf_counter()
    # Each check's name and its error at trial t.
    checks = {
        **{f"encoder/{kind}": lambda t, kind=kind: _encoder_check(kind, seed, t, eps)
           for kind in ("dense", "lexical")},
        **{f"loss/{name}": lambda t, name=name: loss_grad_check(name, seed + 2000 + t, eps=eps)
           for name in LOSS_NAMES},
        **{
            f"composed/{kind}/{name}": lambda t, kind=kind, name=name: composed_grad_check(
                kind, name, seed + 3000 + t, eps=eps
            )
            for kind in ("dense", "lexical") for name in LOSS_NAMES
            if kind == "lexical" or name != "flops"
        },
    }
    # The (check, trial) instances are independent, so they run on every usable CPU.
    instances = [(name, t) for name in checks for t in range(trials)]
    values = fork_map(lambda instance: checks[instance[0]](instance[1]), instances)
    errors = {name: max(values[i * trials : (i + 1) * trials]) for i, name in enumerate(checks)}
    return GradCheckReport(max_errors=errors, trials=trials, elapsed_s=time.perf_counter() - start)


def format_suite_report(report: GradCheckReport) -> str:
    lines = [f"gradient check: {report.trials} trials, {report.elapsed_s:.1f}s"]
    for name in sorted(report.max_errors):
        lines.append(f"{name}\t{report.max_errors[name]:.3e}")
    lines.append(f"worst\t{report.worst:.3e}")
    return "\n".join(lines) + "\n"
