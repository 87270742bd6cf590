"""Toy dual encoders with hand-derived parameter gradients.

The dense encoder pools count-weighted token embeddings and applies an affine
map; the lexical encoder scores every vocabulary term against each input
token, max-pools over tokens, and log-saturates the ReLU-gated result into a
sparse term-weight vector. Both share the dot-product relevance function, so
either one can play query or passage side of a dual-encoder retriever.

Backward passes are exact: the lexical max-pool routes gradient only through
the recorded argmax token, and the ReLU gate contributes zero gradient at or
below the kink.

Training encodes whole optimizer batches at fixed parameters and keeps the
per-input arithmetic bit for bit: dense rows of equal length pool through one
stacked matmul (`TokenBatch`) whose items are the per-input products, and
lexical inputs stay one GEMM each, because a GEMM over several inputs'
tokens rounds differently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import CheckpointMeta, TermVector, load_checkpoint, save_checkpoint

_INIT_SCALE = 0.1


@dataclass
class DenseParams:
    """Embedding table, projection, and bias of the dense retriever."""

    emb: np.ndarray   # |V| x d
    proj: np.ndarray  # d x d
    bias: np.ndarray  # d

    kind = "dense"

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"emb": self.emb, "proj": self.proj, "bias": self.bias}

    def copy(self) -> "DenseParams":
        return DenseParams(self.emb.copy(), self.proj.copy(), self.bias.copy())

    def zeros_like(self) -> "DenseParams":
        return DenseParams(np.zeros_like(self.emb), np.zeros_like(self.proj), np.zeros_like(self.bias))

    @classmethod
    def init(cls, vocab_size: int, dim: int, seed: int) -> "DenseParams":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        return cls(
            emb=rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(vocab_size, dim)),
            proj=np.eye(dim),
            bias=np.zeros(dim),
        )


@dataclass
class LexicalParams:
    """Embedding table, vocabulary expansion matrix, and per-term bias."""

    emb: np.ndarray     # |V| x d
    expand: np.ndarray  # |V| x d, one scoring row per vocabulary term
    bias: np.ndarray    # |V|

    kind = "lexical"

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"emb": self.emb, "expand": self.expand, "bias": self.bias}

    def copy(self) -> "LexicalParams":
        return LexicalParams(self.emb.copy(), self.expand.copy(), self.bias.copy())

    def zeros_like(self) -> "LexicalParams":
        return LexicalParams(np.zeros_like(self.emb), np.zeros_like(self.expand), np.zeros_like(self.bias))

    @classmethod
    def init(cls, vocab_size: int, dim: int, seed: int) -> "LexicalParams":
        # The expansion matrix starts as a copy of the embedding table (an
        # MLM-head-style tie): every term's own channel opens positive at
        # birth (self dot product), which is what makes exact term matching
        # learnable. The two tensors train independently afterwards.
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        emb = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(vocab_size, dim))
        return cls(emb=emb, expand=emb.copy(), bias=np.zeros(vocab_size))


Params = DenseParams | LexicalParams


@dataclass(frozen=True)
class TermWeightVector:
    """Sparse term-id -> weight map; stored weights are strictly positive."""

    weights: dict[int, float]

    def __len__(self) -> int:
        return len(self.weights)


@dataclass
class DenseTrace:
    term_ids: np.ndarray  # distinct in-vocab term ids, ascending
    counts: np.ndarray    # float64, aligned with term_ids
    n_invocab: float
    pooled: np.ndarray    # h before projection
    empty: bool
    vocab_size: int
    dim: int


@dataclass
class LexicalTrace:
    token_ids: np.ndarray     # distinct input term ids, ascending
    active_terms: np.ndarray  # vocab terms with positive pre-activation
    pre_activation: np.ndarray  # max-pooled z per active term
    source_token: np.ndarray    # argmax token (term id) per active term
    empty: bool
    vocab_size: int
    dim: int

    def structure(self) -> bytes:
        """Discrete forward state; differs iff a ReLU/max decision differs."""
        return self.active_terms.tobytes() + b"|" + self.source_token.tobytes()


def token_ids(tv: TermVector) -> np.ndarray:
    """Distinct in-vocabulary term ids of `tv`, ascending."""
    return np.array(sorted(tv.counts), dtype=np.int64)


def dense_encode(tv: TermVector, params: DenseParams) -> tuple[np.ndarray, DenseTrace]:
    """Count-weighted mean of token embeddings followed by an affine map.

    Empty or all-OOV input encodes to the zero vector with an empty trace;
    that is a documented degenerate case, not an error.
    """
    d = params.dim
    if not tv.counts:
        trace = DenseTrace(
            term_ids=np.empty(0, dtype=np.int64),
            counts=np.empty(0),
            n_invocab=0.0,
            pooled=np.zeros(d),
            empty=True,
            vocab_size=params.vocab_size,
            dim=d,
        )
        return np.zeros(d), trace
    ids = token_ids(tv)
    counts = np.array([float(tv.counts[int(t)]) for t in ids])
    n = counts.sum()
    h = counts @ params.emb[ids] / n
    out = params.proj @ h + params.bias
    trace = DenseTrace(
        term_ids=ids,
        counts=counts,
        n_invocab=float(n),
        pooled=h,
        empty=False,
        vocab_size=params.vocab_size,
        dim=d,
    )
    return out, trace


def dense_backward(
    params: DenseParams,
    trace: DenseTrace,
    upstream: np.ndarray,
    into: DenseParams | None = None,
) -> DenseParams:
    """Accumulate exact gradients of (upstream . output) into `into`."""
    if trace.vocab_size != params.vocab_size or trace.dim != params.dim:
        raise ValueError("trace does not match parameter shapes")
    grads = into if into is not None else params.zeros_like()
    if trace.empty:
        return grads
    g = upstream
    grads.bias += g
    grads.proj += np.outer(g, trace.pooled)
    gh = params.proj.T @ g
    grads.emb[trace.term_ids] += (trace.counts / trace.n_invocab)[:, None] * gh[None, :]
    return grads


TokenRow = tuple[np.ndarray, np.ndarray]  # ascending distinct term ids, their counts


def token_row(tv: TermVector) -> TokenRow:
    """One input as (ascending distinct in-vocabulary term ids, their counts)."""
    ids = token_ids(tv)
    return ids, np.array([float(tv.counts[t]) for t in ids.tolist()])


class TokenBatch:
    """The token rows of one optimizer batch, kept per row and grouped by length.

    Lexical encoding takes the rows one by one (`row_ids`). For dense
    encoding, rows of one length pool through a single stacked matmul whose
    items are the vector-matrix products `dense_encode` makes per input, so
    a batch encodes each row exactly as `dense_encode` would.
    """

    def __init__(self, rows: list[TokenRow]):
        self.row_ids = [ids for ids, _ in rows]
        self.lens = np.array([len(ids) for ids in self.row_ids], dtype=np.int64)
        self.starts = np.cumsum(self.lens) - self.lens
        self.ids = np.concatenate(self.row_ids + [np.empty(0, dtype=np.int64)])
        self.counts = np.concatenate([c for _, c in rows] + [np.empty(0)])
        self.empty = self.lens == 0
        self.n = np.zeros(len(rows))  # in-vocabulary token count per row
        # Per length: the member rows, their ids (rows x length), counts
        # (rows x 1 x length) and token totals (rows x 1), shaped for pooling.
        self.groups = []
        for k in np.unique(self.lens[~self.empty]).tolist():
            members = np.flatnonzero(self.lens == k)
            at = self.starts[members, None] + np.arange(k)
            counts = self.counts[at]
            self.n[members] = counts.sum(axis=1)
            self.groups.append((members, self.ids[at], counts[:, None, :], self.n[members, None]))

    def __len__(self) -> int:
        return len(self.lens)


def dense_encode_batch(params: DenseParams, batch: TokenBatch) -> tuple[np.ndarray, np.ndarray]:
    """`dense_encode` of every row; returns (outputs, pooled inputs), one row each."""
    pooled = np.zeros((len(batch), params.dim))
    for rows, ids, counts, n in batch.groups:
        pooled[rows] = np.matmul(counts, params.emb[ids])[:, 0] / n
    out = np.matmul(params.proj, pooled[:, :, None])[:, :, 0] + params.bias
    out[batch.empty] = 0.0
    return out, pooled


def dense_backward_batch(
    params: DenseParams,
    batch: TokenBatch,
    pooled: np.ndarray,
    upstream: np.ndarray,
    into: DenseParams,
) -> DenseParams:
    """Accumulate gradients of sum_r upstream[r] . output[r] into `into`.

    Equal to `dense_backward` row after row in batch order: every gradient
    element receives the same additions in the same order. Empty rows and
    rows with zero upstream add nothing and are skipped.
    """
    use = ~batch.empty & upstream.any(axis=1)
    g, h = upstream[use], pooled[use]
    # np.add.reduce over axis 0 adds row by row, starting from `into`.
    into.bias[:] = np.add.reduce(np.concatenate([into.bias[None], g]), axis=0)
    outer = g[:, :, None] * h[:, None, :]
    into.proj[:] = np.add.reduce(np.concatenate([into.proj[None], outer]), axis=0)
    gh = np.matmul(params.proj.T, g[:, :, None])[:, :, 0]
    rows = np.flatnonzero(use)
    lens = batch.lens[rows]
    at = np.repeat(batch.starts[rows] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    scale = batch.counts[at] / np.repeat(batch.n[rows], lens)
    add_rows_at(into.emb, batch.ids[at], scale[:, None] * np.repeat(gh, lens, axis=0))
    return into


def lexical_trace(ids: np.ndarray, params: LexicalParams) -> LexicalTrace:
    """The lexical forward pass on ascending distinct term ids, without the weight map.

    Scores every vocabulary term against every token in one GEMM, max-pools
    over tokens, and takes the argmax token (the first, on ties) only for the
    active (positive) terms; it returns exactly what `lexical_encode` puts in
    its trace.
    """
    vocab_size, dim = params.emb.shape
    if not len(ids):
        return LexicalTrace(
            token_ids=ids,
            active_terms=np.empty(0, dtype=np.int64),
            pre_activation=np.empty(0),
            source_token=np.empty(0, dtype=np.int64),
            empty=True,
            vocab_size=vocab_size,
            dim=dim,
        )
    # The |V| x tokens GEMM plus bias, laid out tokens x |V| so that the max
    # over tokens runs along contiguous rows.
    scores = (params.expand @ params.emb.take(ids, axis=0).T).T
    z = np.add(scores, params.bias, order="C")
    zmax = z.max(axis=0)
    active = (zmax > 0.0).nonzero()[0]
    source = ids[z.take(active, axis=1).argmax(axis=0)]
    return LexicalTrace(ids, active, zmax[active], source, False, vocab_size, dim)


def lexical_encode(tv: TermVector, params: LexicalParams) -> tuple[TermWeightVector, LexicalTrace]:
    """Per-vocabulary-term weights: max over tokens of log(1 + ReLU(score)).

    log1p(ReLU(.)) is monotone, so the max can be taken on the raw
    pre-activations; the argmax token is recorded for the backward pass.
    """
    trace = lexical_trace(token_ids(tv), params)
    weights = np.log1p(trace.pre_activation)
    return TermWeightVector(dict(zip(trace.active_terms.tolist(), weights.tolist()))), trace


def lexical_backward(
    params: LexicalParams,
    trace: LexicalTrace,
    upstream: dict[int, float] | np.ndarray,
    into: LexicalParams | None = None,
    scale: float = 1.0,
) -> LexicalParams:
    """Accumulate exact gradients of sum_v upstream[v] * weight(v).

    `upstream` is either a sparse term -> gradient map or a full |V| vector.
    Gradient flows only through each active term's recorded argmax token.
    """
    if trace.vocab_size != params.vocab_size or trace.dim != params.dim:
        raise ValueError("trace does not match parameter shapes")
    grads = into if into is not None else params.zeros_like()
    if trace.empty or len(trace.active_terms) == 0:
        return grads
    if isinstance(upstream, np.ndarray):
        gv = upstream[trace.active_terms] * scale
    else:
        gv = np.array(
            [upstream.get(int(v), 0.0) for v in trace.active_terms]
        ) * scale
    routes = LexicalRoutes(params, grads)
    routes.add(trace, gv)
    routes.flush()
    return grads


class LexicalRoutes:
    """Lexical backward of many (trace, upstream) pairs, scattered in bulk.

    `add(trace, gv)` records d loss / d weight(v) for the trace's active
    terms; `flush` scatters what is recorded with one `np.add.at` per
    tensor. `np.add.at` adds in input order, so each parameter element
    receives its additions in the order of the `add` calls, exactly as
    separate `lexical_backward` calls would. Recording flushes itself
    beyond `PENDING_LIMIT` entries, which bounds the scratch memory: an
    untrained model activates most of the vocabulary.
    """

    PENDING_LIMIT = 1024

    def __init__(self, params: LexicalParams, into: LexicalParams):
        self.params = params
        self.into = into
        self.terms: list[np.ndarray] = []
        self.src: list[np.ndarray] = []
        self.coef: list[np.ndarray] = []
        self.pending = 0

    def add(self, trace: LexicalTrace, gv: np.ndarray) -> None:
        nz = gv.nonzero()[0]
        if len(nz):
            self.terms.append(trace.active_terms[nz])
            self.src.append(trace.source_token[nz])
            # d log1p(z) / dz at z > 0
            self.coef.append(gv[nz] / (1.0 + trace.pre_activation[nz]))
            self.pending += len(nz)
            if self.pending > self.PENDING_LIMIT:
                self.flush()

    def flush(self) -> None:
        if not self.terms:
            return
        terms = np.concatenate(self.terms)
        src = np.concatenate(self.src)
        coef = np.concatenate(self.coef)
        self.terms, self.src, self.coef, self.pending = [], [], [], 0
        params, into = self.params, self.into
        add_rows_at(into.expand, terms, coef[:, None] * params.emb[src])
        np.add.at(into.bias, terms, coef)
        add_rows_at(into.emb, src, coef[:, None] * params.expand[terms])


def add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)`` for a 2-D target.

    A C-contiguous target takes one 1-D `np.add.at` over its flattened view,
    which numpy runs several times faster than the 2-D form, with the same
    additions in the same order.
    """
    if not target.flags.c_contiguous:
        np.add.at(target, rows, values)
        return
    width = target.shape[1]
    at = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), at, np.ascontiguousarray(values).reshape(-1))


def relevance(q_vec, p_vec) -> float:
    """Dot-product relevance; representation kinds must match."""
    if isinstance(q_vec, np.ndarray) and isinstance(p_vec, np.ndarray):
        return float(q_vec @ p_vec)
    if isinstance(q_vec, TermWeightVector) and isinstance(p_vec, TermWeightVector):
        a, b = q_vec.weights, p_vec.weights
        if len(b) < len(a):
            a, b = b, a
        return sum(w * b[t] for t, w in a.items() if t in b)
    raise TypeError(
        f"mismatched representation kinds: {type(q_vec).__name__} vs {type(p_vec).__name__}"
    )


def params_from_tensors(kind: str, tensors: dict[str, np.ndarray]) -> Params:
    if kind == "dense":
        return DenseParams(emb=tensors["emb"], proj=tensors["proj"], bias=tensors["bias"])
    if kind == "lexical":
        return LexicalParams(emb=tensors["emb"], expand=tensors["expand"], bias=tensors["bias"])
    raise ValueError(f"unknown encoder kind {kind!r}")


def save_params(params: Params, meta: CheckpointMeta, path) -> None:
    save_checkpoint(params.tensors(), meta, path)


def load_params(path) -> tuple[Params, CheckpointMeta]:
    tensors, meta = load_checkpoint(path)
    params = params_from_tensors(meta.kind, tensors)
    if params.vocab_size != meta.vocab_size or params.dim != meta.dim:
        raise ValueError(f"{path}: header dimensions do not match tensor shapes")
    return params, meta


def params_digest(params: Params) -> str:
    h = hashlib.sha256()
    h.update(params.kind.encode())
    for name, t in params.tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return h.hexdigest()


def _rand_term_vector(rng: np.random.Generator, vocab_size: int, max_tokens: int = 5) -> TermVector:
    n_terms = int(rng.integers(1, max_tokens + 1))
    ids = rng.choice(vocab_size, size=min(n_terms, vocab_size), replace=False)
    counts = {int(t): int(rng.integers(1, 4)) for t in ids}
    return TermVector(counts=counts, n=sum(counts.values()))


def grad_check(
    kind: str,
    params: Params,
    sample: TermVector,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The scalar objective is a fixed random linear functional of the encoder
    output. Coordinates whose +/-eps perturbations land on different sides of
    a ReLU or max-pool decision are skipped (the two-sided difference spans a
    kink there and is meaningless for comparison).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    rng = np.random.default_rng(seed)

    if kind == "dense":
        probe = rng.normal(size=params.dim)

        def forward(p):
            out, trace = dense_encode(sample, p)
            return float(probe @ out), b"empty" if trace.empty else b"dense"

        _, trace = dense_encode(sample, params)
        analytic = dense_backward(params, trace, probe)
    elif kind == "lexical":
        probe = rng.normal(size=params.vocab_size)

        def forward(p):
            vec, trace = lexical_encode(sample, p)
            val = sum(probe[t] * w for t, w in vec.weights.items())
            return float(val), trace.structure()

        _, trace = lexical_encode(sample, params)
        analytic = lexical_backward(params, trace, probe)
    else:
        raise ValueError(f"unknown encoder kind {kind!r}")

    return fd_max_rel_error(params, forward, analytic, eps)


def fd_max_rel_error(
    params: Params, forward, analytic: Params, eps: float, unread_emb_rows=()
) -> float:
    """Central finite differences over every parameter coordinate.

    `forward(params) -> (value, structure)`; coordinates where the structure
    at +eps and -eps differs are skipped as kink-adjacent. Embedding rows in
    `unread_emb_rows` (terms absent from every input) are never read by the
    forward, so their finite difference is exactly zero without evaluating
    it, and their analytic gradient is held to that.
    """
    worst = 0.0
    an_tensors = analytic.tensors()
    unread = set(int(t) for t in unread_emb_rows)
    for name, tensor in params.tensors().items():
        flat = tensor.reshape(-1)
        width = tensor.shape[1] if tensor.ndim == 2 else 1
        for i, (orig, an) in enumerate(zip(flat.tolist(), an_tensors[name].reshape(-1).tolist())):
            if name == "emb" and i // width in unread:
                f_plus = f_minus = 0.0
            else:
                flat[i] = orig + eps
                f_plus, s_plus = forward(params)
                flat[i] = orig - eps
                f_minus, s_minus = forward(params)
                flat[i] = orig
                if s_plus != s_minus:
                    continue
            fd = (f_plus - f_minus) / (2.0 * eps)
            # The floor keeps central-difference roundoff (~|f|*1e-16/eps) on
            # zero-gradient coordinates from registering as relative error.
            err = abs(fd - an) / max(abs(fd) + abs(an), 1e-5)
            worst = max(worst, err)
    return worst
