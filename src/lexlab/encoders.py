"""Toy dual encoders with hand-derived parameter gradients.

The dense encoder pools count-weighted token embeddings and applies an affine
map; the lexical encoder scores every vocabulary term against each input
token, max-pools over tokens, and log-saturates the ReLU-gated result into a
sparse term-weight vector. Either scores a query against a passage by the dot
product of their encodings (`sparse_index.sparse_scores` for lexical vectors),
so it can play query or passage side of a dual-encoder retriever. Each
model keeps its tensors as views of one flat buffer (`_FlatParams`), and a
checkpoint file is a JSON header line followed by that buffer's bytes
(`save_params`, `load_params`).

Backward passes are exact: the lexical max-pool routes gradient only through
the recorded argmax token, and the ReLU gate contributes zero gradient at or
below the kink.

Each kind has one forward and one backward. Inputs are rows of a token
table, `TokenBatch`, which `TokenBatch.of` builds from term vectors and
whose `take` gathers any of its rows into a batch. Dense rows of equal
length pool through one stacked matmul whose items are the per-row
products, so a row gets the same bits alone as in any batch. A lexical
input in training is one GEMM (`lexical_trace`); inference, of passages
and queries alike, reads one sparse score table per checkpoint
(`LexicalTable`), which gives each input the bits of its GEMM. The GEMM
is tokens-major, so the max over tokens runs along contiguous rows, and
its operand layouts make it round exactly as the vocabulary-major product
`expand @ emb[ids].T`; the per-term bias is added after the max, which
rounding leaves exact. Either kind encodes an input to the same bits at
fixed parameters, so `training.batch_step` encodes a batch's distinct table
rows once each. A lexical candidate set is then a few concatenated arrays
(`LexicalTrace.join`): the query's upstream is one `np.bincount` over the
candidates' terms, which adds in input order from +0.0 as a per-candidate
loop would, and `LexicalRoutes` takes the set's backward in at most three
chunks and scatters the backward of all inputs in bulk.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .data import TermVector

_INIT_SCALE = 0.1


class _FlatParams:
    """A model's tensors as views of one flat float64 buffer, `flat`.

    `layout` gives the tensors in buffer order, `emb` first. Assigning a
    tensor or `flat` writes into its view, so no tensor comes loose from the
    buffer, and elementwise work (Adam, gradient scaling and zeroing, the
    finite-difference checks' perturbations) runs on `flat` in one pass.
    """

    def __init__(self, vocab_size: int, dim: int, flat: np.ndarray | None = None):
        shapes = self.layout(vocab_size, dim)
        sizes = [math.prod(shape) for shape in shapes.values()]
        if flat is None:
            flat = np.zeros(sum(sizes))
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        views = {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}
        self.__dict__.update(flat=flat, **views)

    def __setattr__(self, name: str, value) -> None:
        view = getattr(self, name)
        if value is not view:  # `p.bias += u` hands back the view itself
            if np.shape(value) != view.shape:
                raise ValueError(f"{self.kind} tensor {name!r} has shape {view.shape}, got {np.shape(value)}")
            view[...] = value

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.layout(self.vocab_size, self.dim)}

    def copy(self):
        return type(self)(self.vocab_size, self.dim, self.flat.copy())

    def zeros_like(self):
        return type(self)(self.vocab_size, self.dim)

    def __reduce__(self):
        # Pickled tensors would come back as copies, loose from `flat`.
        return type(self), (self.vocab_size, self.dim, self.flat)


class DenseParams(_FlatParams):
    """Embedding table, projection, and bias of the dense retriever."""

    kind = "dense"

    @staticmethod
    def layout(vocab_size: int, dim: int) -> dict[str, tuple[int, ...]]:
        return {"emb": (vocab_size, dim), "proj": (dim, dim), "bias": (dim,)}

    @classmethod
    def init(cls, vocab_size: int, dim: int, seed: int) -> "DenseParams":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        params = cls(vocab_size, dim)
        params.emb = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(vocab_size, dim))
        params.proj = np.eye(dim)
        return params


class LexicalParams(_FlatParams):
    """Embedding table, vocabulary expansion matrix (one scoring row per
    vocabulary term), and per-term bias."""

    kind = "lexical"

    @staticmethod
    def layout(vocab_size: int, dim: int) -> dict[str, tuple[int, ...]]:
        return {"emb": (vocab_size, dim), "expand": (vocab_size, dim), "bias": (vocab_size,)}

    @classmethod
    def init(cls, vocab_size: int, dim: int, seed: int) -> "LexicalParams":
        # The expansion matrix starts as a copy of the embedding table (an
        # MLM-head-style tie): every term's own channel opens positive at
        # birth (self dot product), which is what makes exact term matching
        # learnable. The two tensors train independently afterwards.
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        params = cls(vocab_size, dim)
        params.emb = params.expand = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=(vocab_size, dim))
        return params


Params = DenseParams | LexicalParams
PARAMS_BY_KIND = {cls.kind: cls for cls in (DenseParams, LexicalParams)}


@dataclass(frozen=True, eq=False)
class TermWeightVector:
    """A sparse lexical vector; index build, search and `sparse_scores` rely on its order."""

    terms: np.ndarray    # int64, strictly ascending
    weights: np.ndarray  # float64, aligned with terms

    def __post_init__(self):
        if self.terms.ndim != 1 or self.weights.shape != self.terms.shape:
            raise ValueError(f"misaligned terms {self.terms.shape} and weights {self.weights.shape}")
        if np.any(self.terms[1:] <= self.terms[:-1]):
            raise ValueError("terms must be strictly ascending")


@dataclass
class LexicalTrace:
    """The forward state of one input, or of several joined back to back."""

    active_terms: np.ndarray    # vocab terms with positive pre-activation, ascending per input
    pre_activation: np.ndarray  # max-pooled z per active term
    source_token: np.ndarray    # argmax token (term id) per active term
    weights: np.ndarray         # log1p(pre_activation): the term weights

    def structure(self) -> bytes:
        """Discrete forward state; differs iff a ReLU/max decision differs."""
        return self.active_terms.tobytes() + b"|" + self.source_token.tobytes()

    @classmethod
    def join(cls, traces: list["LexicalTrace"]) -> "LexicalTrace":
        """The entries of `traces` concatenated in order."""
        ints, floats = np.empty(0, dtype=np.int64), np.empty(0)
        return cls(
            np.concatenate([*(tr.active_terms for tr in traces), ints]),
            np.concatenate([*(tr.pre_activation for tr in traces), floats]),
            np.concatenate([*(tr.source_token for tr in traces), ints]),
            np.concatenate([*(tr.weights for tr in traces), floats]),
        )

    def __getitem__(self, at: slice) -> "LexicalTrace":
        return LexicalTrace(
            self.active_terms[at], self.pre_activation[at], self.source_token[at], self.weights[at]
        )


class TokenBatch:
    """Inputs as a token table, grouped by length for dense encoding.

    Each row's ascending distinct term ids run back to back in `ids`, their
    counts in `counts`, and each row's length is in `lens`. Rows of one
    length pool through a single stacked matmul whose items are one
    vector-matrix product per row, so a row encodes to the same bits in any
    batch, alone included.
    """

    def __init__(self, ids: np.ndarray, counts: np.ndarray, lens: np.ndarray):
        self.ids = ids        # int64
        self.counts = counts  # float64, aligned with ids
        self.lens = lens      # int64, one per row
        self.starts = np.cumsum(lens) - lens
        self.empty = lens == 0

    @classmethod
    def of(cls, tvs: list[TermVector]) -> "TokenBatch":
        """One row per term vector: its distinct term ids ascending, and their counts."""
        dicts = [tv.counts for tv in tvs]
        lens = np.fromiter(map(len, dicts), np.int64, len(dicts))
        ids = np.fromiter(chain.from_iterable(dicts), np.int64)
        counts = np.fromiter(chain.from_iterable(map(dict.values, dicts)), np.float64)
        order = np.lexsort((ids, np.arange(len(dicts)).repeat(lens)))
        return cls(ids[order], counts[order], lens)

    @classmethod
    def for_encoder(cls, tvs: list[TermVector], kind: str) -> tuple["TokenBatch", list[int]]:
        """The token table of `tvs` for a `kind` encoder, and each input's row.

        The lexical encoder reads only the term ids, so inputs with the same
        ids share the first one's row and trace once. Dense inputs keep a row
        each: one stacked matmul encodes a table's rows of a length together,
        so sharing would save nothing and add a gather.
        """
        if kind != "lexical":
            return cls.of(tvs), list(range(len(tvs)))
        row_of: dict[tuple[int, ...], int] = {}
        firsts, rows = [], []
        for tv in tvs:
            ids = tuple(sorted(tv.counts))
            if ids not in row_of:
                row_of[ids] = len(firsts)
                firsts.append(tv)
            rows.append(row_of[ids])
        return cls.of(firsts), rows

    def __len__(self) -> int:
        return len(self.lens)

    def take(self, rows: np.ndarray | list[int]) -> "TokenBatch":
        """The listed rows, in that order; a row may be listed more than once."""
        lens = self.lens[rows]
        at = np.repeat(self.starts[rows] - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
        return TokenBatch(self.ids[at], self.counts[at], lens)

    @cached_property
    def groups(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per length: the member rows, their ids (rows x length), counts
        (rows x 1 x length) and token totals (rows x 1), shaped for pooling."""
        # The non-empty rows by length, stably, gathered in that order; each
        # length is then a slice of the gathered table.
        order = np.argsort(self.lens, kind="stable")[np.count_nonzero(self.empty):]
        table = self.take(order)
        bounds = [*np.flatnonzero(np.diff(table.lens, prepend=0)).tolist(), len(order)]
        groups = []
        for a, b in zip(bounds, bounds[1:]):
            shape = (b - a, int(table.lens[a]))
            lo, hi = int(table.starts[a]), int(table.starts[a]) + shape[0] * shape[1]
            c = table.counts[lo:hi].reshape(shape)
            groups.append(
                (order[a:b], table.ids[lo:hi].reshape(shape), c[:, None, :], c.sum(axis=1)[:, None])
            )
        return groups


def dense_encode_batch(params: DenseParams, batch: TokenBatch) -> tuple[np.ndarray, np.ndarray]:
    """Count-weighted mean of token embeddings followed by an affine map, per row.

    Returns (outputs, pooled inputs), one row each. An empty or all-OOV row
    encodes to the zero vector; that is a documented degenerate case, not an
    error.
    """
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

    Rows contribute in batch order, so every gradient element receives the
    same additions in the same order as it would from one-row batches
    applied one after another. Empty rows and rows with zero upstream add
    nothing and are skipped.
    """
    use = ~batch.empty & upstream.any(axis=1)
    g, h = upstream[use], pooled[use]
    # np.add.reduce over axis 0 adds row by row, starting from `into`.
    into.bias[:] = np.add.reduce(np.concatenate([into.bias[None], g]), axis=0)
    outer = g[:, :, None] * h[:, None, :]
    into.proj[:] = np.add.reduce(np.concatenate([into.proj[None], outer]), axis=0)
    gh = np.matmul(params.proj.T, g[:, :, None])[:, :, 0]
    used = batch.take(np.flatnonzero(use))
    # Used rows are non-empty, so reduceat gives each its token total, and
    # counts are whole numbers, so the total is exact, as in `groups`.
    scale = used.counts / np.repeat(np.add.reduceat(used.counts, used.starts), used.lens)
    add_rows_at(into.emb, used.ids, scale[:, None] * np.repeat(gh, used.lens, axis=0))
    return into


# A product of at least two token rows and at most this many multiply-adds
# gives each row the same bits as any other such product holding it
# (OpenBLAS 0.3.31; `tests/test_engine.py` checks it by name). A one-row
# product takes another kernel, and so do some larger ones, and both round
# otherwise.
ROW_EXACT_MULADDS = 10**6


def token_scores(params: LexicalParams, ids: np.ndarray) -> np.ndarray:
    """The tokens x |V| scores of the term ids `ids` against every term, in
    the one call form that both `lexical_trace` and `LexicalTable` use."""
    return np.asfortranarray(params.emb.take(ids, axis=0)) @ params.expand.T


def lexical_trace(ids: np.ndarray, params: LexicalParams) -> LexicalTrace:
    """The lexical forward pass on ascending distinct term ids.

    Scores every token against every vocabulary term in one GEMM, max-pools
    over tokens and then adds the term's bias, takes the argmax token of
    score plus bias (the first, on ties) only for the active (positive)
    terms, and log-saturates their maxima into weights. The result depends
    on the ids and the parameters alone, so callers trace a repeated row
    once.
    """
    if not len(ids):
        return LexicalTrace(
            active_terms=np.empty(0, dtype=np.int64),
            pre_activation=np.empty(0),
            source_token=np.empty(0, dtype=np.int64),
            weights=np.empty(0),
        )
    # The tokens x |V| GEMM: the max over tokens runs along its contiguous
    # rows. BLAS picks its kernel, and so the rounding, from the operand
    # layouts. A Fortran-ordered token block times the `expand.T` view sums
    # each score as the vocabulary-major `expand @ emb[ids].T` does, bit for
    # bit, on OpenBLAS 0.3.31 below width 32 and 10^6 multiply-adds (its
    # small-matrix kernels); a C-ordered block or a contiguous copy of
    # `expand.T` rounds differently. `tests/test_engine.py` holds the trace
    # to that vocabulary-major oracle. Rounding is monotone, so
    # max_t fl(s_t + b) = fl(max_t s_t + b) and the bias is added after the
    # max. Adding it can turn s_1 < s_2 into a tie, so the argmax is taken
    # over s + b, on the active terms' columns.
    scores = token_scores(params, ids)
    zmax = np.maximum.reduce(scores)
    zmax += params.bias
    active = (zmax > 0.0).nonzero()[0]
    pre = zmax[active]
    z = scores.take(active, axis=1)
    z += params.bias[active]
    return LexicalTrace(active, pre, ids[z.argmax(axis=0)], np.log1p(pre))


class LexicalTable:
    """The token-to-term scores of one lexical checkpoint that can win a max,
    kept sparse: `encode` gives many inputs, passages or queries, the
    weights `lexical_trace` gives each.

    Row t holds each term v with `not (S[t, v] + bias[v] <= 0)` (positive,
    or NaN) and its score S[t, v]. A term is active for an input iff the max
    of its tokens' scores plus the bias is positive; rounding is monotone,
    so a score left out never beats a kept one, and a term with no kept
    score stays inactive. The scores come from `token_scores` over blocks
    of at least two rows and at most `ROW_EXACT_MULADDS` multiply-adds, so
    a row has the bits that the product of any input of 2 to `max_tokens`
    tokens gives it. Any other input takes its own product. The table is
    built only when such inputs can exist, and on a trained checkpoint few
    scores are positive, so it is small.
    """

    # Cells of the rows x |V| max that one chunk of inputs fills; a larger
    # chunk raised search-large's peak RSS.
    CHUNK_CELLS = 1 << 16

    def __init__(self, params: LexicalParams):
        vocab_size = params.vocab_size
        self.params = params
        self.max_tokens = ROW_EXACT_MULADDS // max(1, vocab_size * params.dim)
        cells, scores = [np.empty(0, dtype=np.int64)], [np.empty(0)]  # cell t * |V| + v, S[t, v]
        if self.max_tokens >= 2 and vocab_size >= 2:
            for lo in range(0, vocab_size, self.max_tokens):
                first = min(lo, vocab_size - 2)  # a last block of one row takes two
                block = token_scores(params, np.arange(first, min(lo + self.max_tokens, vocab_size)))
                block = block[lo - first :]
                keep = np.flatnonzero(~(block + params.bias <= 0.0))
                cells.append(keep + lo * vocab_size)
                scores.append(block.reshape(-1)[keep])
        cells = np.concatenate(cells)
        self.terms, self.scores = cells % vocab_size, np.concatenate(scores)
        self.counts = np.bincount(cells // vocab_size, minlength=vocab_size)
        self.starts = np.cumsum(self.counts) - self.counts

    def encode(self, batch: TokenBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's active term count, then all their ascending terms and
        all their weights, row after row, with the bits `lexical_trace` gives.

        A chunk of rows takes its max over tokens in one rows x |V| array,
        then adds the bias and keeps the positive maxima as `lexical_trace`
        does. A row of 2 to `max_tokens` tokens fills its row of that array
        from the table, any other from its own `token_scores`.
        """
        vocab_size, params = self.params.vocab_size, self.params
        step = max(1, self.CHUNK_CELLS // max(1, vocab_size))
        out = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))]
        for lo in range(0, len(batch), step):
            rows = batch.take(np.arange(lo, min(lo + step, len(batch))))
            zmax = np.full((len(rows), vocab_size), -np.inf)
            tabled = (rows.lens >= 2) & (rows.lens <= self.max_tokens)
            for r in np.flatnonzero(~tabled & (rows.lens > 0)).tolist():
                a = int(rows.starts[r])
                zmax[r] = np.maximum.reduce(token_scores(params, rows.ids[a : a + int(rows.lens[r])]))
            # Each token of a table row max-es its row of the table into the
            # input's row. np.maximum passes a NaN on as the trace's max
            # does, though `.at` flags it as invalid where the max does not.
            row_of = np.repeat(np.arange(len(rows)), rows.lens)
            tokens, row_of = rows.ids[tabled[row_of]], row_of[tabled[row_of]]
            n = self.counts[tokens]
            at = np.repeat(self.starts[tokens] - (np.cumsum(n) - n), n) + np.arange(n.sum())
            cells = zmax.reshape(-1)
            with np.errstate(invalid="ignore"):
                np.maximum.at(cells, np.repeat(row_of * vocab_size, n) + self.terms[at], self.scores[at])
            zmax += params.bias
            positive = zmax > 0.0
            active = positive.reshape(-1).nonzero()[0]
            out.append((np.count_nonzero(positive, axis=1), active % vocab_size, np.log1p(cells[active])))
        return tuple(np.concatenate(part) for part in zip(*out))

    def vectors(self, batch: TokenBatch) -> list[TermWeightVector]:
        """Every row's `encode` output as its own vector, in row order."""
        lens, terms, weights = self.encode(batch)
        starts = np.cumsum(lens) - lens
        return [TermWeightVector(terms[a : a + n], weights[a : a + n])
                for a, n in zip(starts.tolist(), lens.tolist())]


class LexicalRoutes:
    """Lexical backward of many (trace, upstream) chunks, scattered in bulk.

    `add(trace, gv)` records d loss / d weight(v) for the trace's active
    terms by reference. The trace may be a `LexicalTrace.join` of several
    inputs, so training adds a whole candidate set in at most three chunks:
    the query, all candidates, and the FLOPS gradient of every row. `flush`
    drops the zero entries (a candidate with zero upstream contributes only
    zeros) and forms the coefficients over the concatenation of everything
    recorded, then scatters with one `np.add.at` per tensor. `np.add.at`
    adds in input order, so each parameter element receives its additions
    in entry order wherever the flushes fall: chunked or one input per
    call, the bits are those of a backward per input. Recording flushes
    itself beyond `PENDING_LIMIT` entries, which bounds the scratch memory:
    an untrained model activates most of the vocabulary.
    """

    PENDING_LIMIT = 1024

    def __init__(self, params: LexicalParams, into: LexicalParams):
        self.params = params
        self.into = into
        self.traces: list[LexicalTrace] = []
        self.gvs: list[np.ndarray] = []
        self.pending = 0

    def add(self, trace: LexicalTrace, gv: np.ndarray) -> None:
        if len(gv):
            self.traces.append(trace)
            self.gvs.append(gv)
            self.pending += len(gv)
            if self.pending > self.PENDING_LIMIT:
                self.flush()

    def flush(self) -> None:
        if not self.traces:
            return
        gv = np.concatenate(self.gvs)
        nz = gv.nonzero()[0]
        terms = np.concatenate([tr.active_terms for tr in self.traces]).take(nz)
        src = np.concatenate([tr.source_token for tr in self.traces]).take(nz)
        pre = np.concatenate([tr.pre_activation for tr in self.traces]).take(nz)
        self.traces, self.gvs, self.pending = [], [], 0
        # d log1p(z) / dz at z > 0
        coef = gv.take(nz) / (1.0 + pre)
        params, into = self.params, self.into
        add_rows_at(into.expand, terms, coef[:, None] * params.emb.take(src, axis=0))
        np.add.at(into.bias, terms, coef)
        add_rows_at(into.emb, src, coef[:, None] * params.expand.take(terms, axis=0))


def add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)`` for a 2-D model tensor.

    The tensor is a C-contiguous view of its model's buffer, so this takes
    one 1-D `np.add.at` over its flattened view, which numpy runs several
    times faster than the 2-D form, with the same additions in the same order.
    """
    width = target.shape[1]
    at = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), at, np.ascontiguousarray(values).reshape(-1))


CHECKPOINT_VERSION = 1
_HEADER_KEYS = ("kind", "vocab_size", "dim", "stage", "step", "seed", "tensors")


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint file."""


@dataclass(frozen=True)
class CheckpointMeta:
    """Training metadata stored alongside the model; its kind and sizes come from the model."""

    stage: str
    step: int
    seed: int
    config_digest: str = ""


def save_params(params: Params, meta: CheckpointMeta, path) -> None:
    """Write a JSON header line, then `params.flat` as raw little-endian float64."""
    header = {
        "version": CHECKPOINT_VERSION,
        "kind": params.kind,
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "tensors": [[name, list(t.shape)] for name, t in params.tensors().items()],
        **asdict(meta),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(params.flat.astype("<f8", copy=False))


def load_params(path) -> tuple[Params, CheckpointMeta]:
    """The model and metadata `save_params` wrote to `path`.

    The header's `tensors` must be the layout its kind and sizes give, and
    the body exactly that many values; both are checked before the model's
    buffer is allocated, and the body is then read straight into it.
    """
    with open(path, "rb") as f:
        raw = f.readline()
        if not raw.endswith(b"\n"):
            raise CheckpointError(f"{path}: corrupt header (no newline)")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from None
        if not isinstance(header, dict) or "version" not in header:
            raise CheckpointError(f"{path}: corrupt header (not a checkpoint)")
        if header["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {header['version']}")
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise CheckpointError(f"{path}: header lacks {missing}")
        for key in ("vocab_size", "dim", "step", "seed"):
            if type(header[key]) is not int or header[key] < 0:
                raise CheckpointError(f"{path}: {key} must be an integer >= 0, got {header[key]!r}")
        for key in ("stage", "config_digest"):
            if type(header.get(key, "")) is not str:
                raise CheckpointError(f"{path}: {key} must be a string, got {header[key]!r}")
        cls = PARAMS_BY_KIND.get(header["kind"]) if type(header["kind"]) is str else None
        if cls is None:
            raise CheckpointError(f"{path}: unknown encoder kind {header['kind']!r}")
        sizes = header["vocab_size"], header["dim"]
        tensors = [[name, list(shape)] for name, shape in cls.layout(*sizes).items()]
        if header["tensors"] != tensors:
            raise CheckpointError(f"{path}: tensors {header['tensors']} are not the layout {tensors}")
        need = 8 * sum(math.prod(shape) for _, shape in tensors)
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have != need:
            problem = "truncated body" if have < need else "trailing bytes after the body"
            raise CheckpointError(f"{path}: {problem} ({have} bytes, the layout takes {need})")
        flat = np.empty(need // 8, dtype="<f8")
        f.readinto(flat)
    meta = CheckpointMeta(header["stage"], header["step"], header["seed"], header.get("config_digest", ""))
    return cls(*sizes, flat.astype(np.float64, copy=False)), meta
