"""Finite-difference verification harness.

Checks three layers: encoder parameter gradients, loss gradients with
respect to candidate scores, and full compositions (parameters -> encoder ->
relevance -> loss). Kink-adjacent coordinates are detected by comparing the
discrete forward structure (ReLU gates, max-pool argmaxes, active hinges) at
the +eps and -eps evaluation points and skipped when it differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import TermVector
from .encoders import (
    DenseParams,
    LexicalParams,
    TermWeightVector,
    TokenBatch,
    fd_max_rel_error,
    grad_check,
    token_row,
)
from .objectives import (
    CandidateSet,
    contrastive_loss,
    combined_loss,
    flops_penalty,
    kl_divergence_loss,
    listnet_loss,
    make_rank_pairs,
    margin_mse_loss,
    rank_consistent_loss,
)
from .training import batch_step

LOSS_NAMES = (
    "contrastive",
    "rank-consistent",
    "combined",
    "margin-mse",
    "kl",
    "listnet",
    "flops",
)


def _loss_and_structure(name: str, cands: CandidateSet, reg_weight: float = 1.2):
    """Evaluate one named loss; returns (LossValue, discrete structure)."""
    if name == "contrastive":
        return contrastive_loss(cands), b""
    if name in ("rank-consistent", "combined"):
        pairs = make_rank_pairs(cands)
        lv = rank_consistent_loss(cands, pairs)
        if name == "combined":
            lv = combined_loss(contrastive_loss(cands), lv, reg_weight)
        s = cands.scores
        # Which pairs' hinges are active: s(other) > s(preferred).
        return lv, (pairs.mask & (s[None, :] > s[:, None])).tobytes()
    if name == "margin-mse":
        return margin_mse_loss(cands, make_rank_pairs(cands)), b""
    if name == "kl":
        return kl_divergence_loss(cands, temperature=2.0), b""
    if name == "listnet":
        return listnet_loss(cands), b""
    raise ValueError(f"unknown loss {name!r}")


def _random_cands(rng: np.random.Generator, n_negs: int = 4) -> CandidateSet:
    scores = rng.normal(size=n_negs + 1)
    teacher = rng.normal(size=n_negs + 1)
    return CandidateSet(
        qid="q",
        pos_pid="p+",
        neg_pids=[f"n{i}" for i in range(n_negs)],
        scores=scores,
        teacher_scores=teacher,
    )


def loss_grad_check(name: str, seed: int, eps: float = 1e-5, n_negs: int = 4) -> float:
    """Central differences of one loss with respect to its direct inputs."""
    rng = np.random.default_rng(seed)
    if name == "flops":
        batch = [
            TermWeightVector({int(t): float(w) for t, w in zip(
                rng.choice(12, size=3, replace=False), rng.uniform(0.1, 2.0, size=3))})
            for _ in range(3)
        ]
        lv = flops_penalty(batch, weight=0.7)
        worst = 0.0
        for b, vec in enumerate(batch):
            for term in vec.weights:
                def f(delta, b=b, term=term):
                    perturbed = [
                        TermWeightVector(
                            {t: w + (delta if (i == b and t == term) else 0.0)
                             for t, w in v.weights.items()}
                        )
                        for i, v in enumerate(batch)
                    ]
                    return flops_penalty(perturbed, weight=0.7).loss

                fd = (f(eps) - f(-eps)) / (2 * eps)
                an = lv.grad[b][term]
                worst = max(worst, abs(fd - an) / max(abs(fd) + abs(an), 1e-5))
        return worst

    cands = _random_cands(rng, n_negs)
    lv, _ = _loss_and_structure(name, cands)
    worst = 0.0
    for i in range(len(cands.scores)):
        def f(delta, i=i):
            scores = cands.scores.copy()
            scores[i] += delta
            shifted = CandidateSet(
                qid=cands.qid,
                pos_pid=cands.pos_pid,
                neg_pids=cands.neg_pids,
                scores=scores,
                teacher_scores=cands.teacher_scores,
            )
            return _loss_and_structure(name, shifted)

        lv_p, s_p = f(eps)
        lv_m, s_m = f(-eps)
        if s_p != s_m:
            continue
        fd = (lv_p.loss - lv_m.loss) / (2 * eps)
        an = lv.grad[i]
        worst = max(worst, abs(fd - an) / max(abs(fd) + abs(an), 1e-5))
    return worst


def composed_grad_check(
    kind: str,
    loss_name: str,
    seed: int,
    eps: float = 1e-5,
    vocab_size: int = 10,
    dim: int = 3,
    n_negs: int = 3,
) -> float:
    """Full-chain check: parameters -> encode -> dot products -> loss."""
    rng = np.random.default_rng(seed)

    def rand_tv(max_terms: int) -> TermVector:
        k = int(rng.integers(1, max_terms + 1))
        ids = rng.choice(vocab_size, size=k, replace=False)
        counts = {int(t): int(rng.integers(1, 3)) for t in ids}
        return TermVector(counts=counts, n=sum(counts.values()))

    q_tv = rand_tv(3)
    cand_tvs = [rand_tv(4) for _ in range(n_negs + 1)]
    teacher = rng.normal(size=n_negs + 1)
    neg_pids = [f"n{i}" for i in range(n_negs)]

    if kind == "dense":
        params = DenseParams.init(vocab_size, dim, seed)
        params.emb[:] = rng.uniform(-0.5, 0.5, size=params.emb.shape)
        params.proj[:] = rng.uniform(-0.5, 0.5, size=params.proj.shape)
        params.bias[:] = rng.uniform(-0.2, 0.2, size=params.bias.shape)
    elif kind == "lexical":
        params = LexicalParams.init(vocab_size, dim, seed)
        params.emb[:] = rng.uniform(-0.8, 0.8, size=params.emb.shape)
        params.expand[:] = rng.uniform(-0.8, 0.8, size=params.expand.shape)
        params.bias[:] = rng.uniform(-0.1, 0.1, size=params.bias.shape)
    else:
        raise ValueError(f"unknown encoder kind {kind!r}")
    if loss_name == "flops" and kind != "lexical":
        raise ValueError("flops composes on the lexical encoder only")

    # The chain under test is the training step itself: batch_step encodes,
    # scores, applies the loss (plus FLOPS) and backpropagates.
    batch = TokenBatch([token_row(tv) for tv in (q_tv, *cand_tvs)])
    sizes = [len(batch)]
    flops_weight = 0.7 if loss_name == "flops" else 0.0
    loss_structure = []

    def loss_fn(k, scores):
        if loss_name == "flops":
            return 0.0, np.zeros(len(scores))
        cands = CandidateSet(
            qid="q", pos_pid="p+", neg_pids=neg_pids, scores=scores, teacher_scores=teacher
        )
        lv, structure = _loss_and_structure(loss_name, cands)
        loss_structure.append(structure)
        return lv.loss, lv.grad

    def forward(p):
        loss_structure.clear()
        step = batch_step(p, batch, sizes, loss_fn, flops_weight)
        encoded = b"dense" if step.traces is None else b"".join(
            tr.structure() for tr in step.traces
        )
        return step.losses[0], encoded + b"".join(loss_structure)

    grads = params.zeros_like()
    batch_step(params, batch, sizes, loss_fn, flops_weight, grads)
    unread = np.setdiff1d(np.arange(vocab_size), batch.ids)
    return fd_max_rel_error(params, forward, grads, eps, unread_emb_rows=unread)


@dataclass
class GradCheckReport:
    max_errors: dict[str, float]
    trials: int
    elapsed_s: float

    @property
    def worst(self) -> float:
        return max(self.max_errors.values())


def run_suite(trials: int = 100, seed: int = 0, eps: float = 1e-5) -> GradCheckReport:
    """Encoder, loss, and composed checks over `trials` seeded instances."""
    start = time.perf_counter()
    errors: dict[str, float] = {}

    for kind in ("dense", "lexical"):
        worst = 0.0
        for t in range(trials):
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
            worst = max(worst, grad_check(kind, params, tv, eps=eps, seed=seed + t))
        errors[f"encoder/{kind}"] = worst

    for name in LOSS_NAMES:
        worst = 0.0
        for t in range(trials):
            worst = max(worst, loss_grad_check(name, seed + 2000 + t, eps=eps))
        errors[f"loss/{name}"] = worst

    compositions = [("dense", n) for n in LOSS_NAMES if n != "flops"] + [
        ("lexical", n) for n in LOSS_NAMES
    ]
    for kind, name in compositions:
        worst = 0.0
        for t in range(trials):
            worst = max(worst, composed_grad_check(kind, name, seed + 3000 + t, eps=eps))
        errors[f"composed/{kind}/{name}"] = worst

    return GradCheckReport(
        max_errors=errors, trials=trials, elapsed_s=time.perf_counter() - start
    )


def format_suite_report(report: GradCheckReport) -> str:
    lines = [f"gradient check: {report.trials} trials, {report.elapsed_s:.1f}s"]
    for name in sorted(report.max_errors):
        lines.append(f"{name}\t{report.max_errors[name]:.3e}")
    lines.append(f"worst\t{report.worst:.3e}")
    return "\n".join(lines) + "\n"
