import hashlib
import json
import re
import sys
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.data import (
    Corpus,
    FormatError,
    build_vocab,
    load_collection,
    load_qrels,
    load_queries,
    tokenize,
    vectorize,
)
from lexlab.encoders import (
    CheckpointError,
    CheckpointMeta,
    DenseParams,
    LexicalParams,
    load_params,
    save_params,
)
from lexlab.synthetic import write_fixture


def groupby_tokenize(text):
    """Runs of `str.isalnum` codepoints of the lowercased text: the
    `tokenize` oracle."""
    return ["".join(g) for alnum, g in groupby(text.lower(), key=str.isalnum) if alnum]


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Thoros of Myr!") == ["thoros", "of", "myr"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_and_digits(self):
        assert tokenize("active-margin 2020") == ["active", "margin", "2020"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]

    @given(st.text(max_size=80))
    def test_idempotent_on_joined_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    @settings(max_examples=500)
    @given(st.text(st.characters(), max_size=60))
    def test_matches_isalnum_runs(self, text):
        assert tokenize(text) == groupby_tokenize(text)

    def test_every_codepoint_splits_as_isalnum(self):
        chars = [chr(c) for c in range(sys.maxunicode + 1)]  # lone surrogates too
        for text in ("".join(chars), " ".join(chars), "_".join(chars)):
            assert tokenize(text) == groupby_tokenize(text)


class TestVocab:
    def test_min_df_filters(self):
        corpus = Corpus.from_docs({"d1": "a b", "d2": "a c"})
        vocab = build_vocab(corpus, min_df=2)
        assert vocab.term_to_id == {"a": 0}

    def test_df_tie_broken_lexicographically(self):
        corpus = Corpus.from_docs({"d1": "a b", "d2": "a c"})
        vocab = build_vocab(corpus, min_df=1, max_vocab=2)
        assert vocab.term_to_id == {"a": 0, "b": 1}

    def test_size_matches_distinct_token_count(self):
        # Brute-force oracle: distinct tokens over a synthetic 1000-doc corpus.
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(400)]
        docs = {
            f"d{i}": " ".join(rng.choice(words, size=rng.integers(3, 15)))
            for i in range(1000)
        }
        corpus = Corpus.from_docs(docs)
        distinct = set()
        for text in docs.values():
            distinct.update(tokenize(text))
        vocab = build_vocab(corpus, min_df=1)
        assert vocab.size == len(distinct)

    def test_ids_contiguous(self):
        corpus = Corpus.from_docs({"d1": "c b a", "d2": "b a", "d3": "a"})
        vocab = build_vocab(corpus)
        assert sorted(vocab.term_to_id.values()) == list(range(vocab.size))
        assert [vocab.term_to_id[t] for t in vocab.id_to_term] == list(range(vocab.size))

    def test_invalid_args(self):
        corpus = Corpus.from_docs({"d1": "a"})
        with pytest.raises(ValueError):
            build_vocab(corpus, min_df=0)
        with pytest.raises(ValueError):
            build_vocab(corpus, max_vocab=-1)

    def test_max_vocab_zero_keeps_every_term(self):
        corpus = Corpus.from_docs({"d1": "a b", "d2": "a c"})
        assert build_vocab(corpus, max_vocab=0).id_to_term == ["a", "b", "c"]
        assert build_vocab(corpus, max_vocab=3) == build_vocab(corpus, max_vocab=0)

    def test_empty_corpus(self):
        vocab = build_vocab(Corpus.from_docs({}))
        assert vocab.size == 0


class TestVectorize:
    def test_counts(self):
        corpus = Corpus.from_docs({"d": "a b"})
        vocab = build_vocab(corpus)
        tv = vectorize("a a b", vocab)
        assert tv.counts == {vocab.term_to_id["a"]: 2, vocab.term_to_id["b"]: 1}
        assert tv.n == 3 == sum(tv.counts.values())

    def test_oov_counted_in_length_only(self):
        corpus = Corpus.from_docs({"d": "a"})
        vocab = build_vocab(corpus)
        tv = vectorize("z z", vocab)
        assert tv.counts == {}
        assert tv.n - sum(tv.counts.values()) == 2

    def test_corpus_total_counts_match_token_scan(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(50)]
        docs = {
            f"d{i}": " ".join(rng.choice(words, size=rng.integers(1, 20)))
            for i in range(200)
        }
        corpus = Corpus.from_docs(docs)
        vocab = build_vocab(corpus, min_df=2)
        total = sum(sum(vectorize(t, vocab).counts.values()) for t in docs.values())
        # Independent scan.
        expected = sum(
            1 for t in docs.values() for tok in tokenize(t) if tok in vocab.term_to_id
        )
        assert total == expected

    @given(st.text(max_size=60))
    def test_n_at_least_invocab_count(self, text):
        corpus = Corpus.from_docs({"d": "alpha beta gamma"})
        vocab = build_vocab(corpus)
        tv = vectorize(text, vocab)
        assert tv.n >= sum(tv.counts.values())


class TestCorpusStats:
    def test_avgdl_times_n_is_total_tokens(self):
        docs = {"d1": "a b c", "d2": "a b", "d3": "x"}
        corpus = Corpus.from_docs(docs)
        assert corpus.total_tokens == 6
        assert corpus.avgdl * corpus.n_docs == pytest.approx(6, abs=0)

    def test_empty_corpus_avgdl(self):
        assert Corpus.from_docs({}).avgdl == 0.0

    def test_df_bounded_by_n(self):
        docs = {"d1": "a a b", "d2": "a c", "d3": "c c c"}
        corpus = Corpus.from_docs(docs)
        assert corpus.df["a"] == 2
        assert all(df <= corpus.n_docs for df in corpus.df.values())


class TestLoaders:
    def test_collection_roundtrip(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("d1\thello world\nd2\tsecond doc\n")
        corpus = load_collection(path)
        assert corpus.n_docs == 2
        assert corpus.docs["d2"] == "second doc"

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("d1\tok\nbroken-line\n")
        with pytest.raises(FormatError, match=r":2"):
            load_collection(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("d1\ta\nd1\tb\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_collection(path)

    @pytest.mark.parametrize("load", [load_collection, load_queries])
    @pytest.mark.parametrize("iid", ["dx005,x", "d 5", "d\u00a05", "d\x1c5"])
    def test_id_holding_a_separator_rejected(self, tmp_path, load, iid):
        # Run and qrels lines split on whitespace, a pool's pid list on ",".
        path = tmp_path / "c.tsv"
        path.write_text(f"d1\tok\n{iid}\ttext\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"c\.tsv:2: .*whitespace or ','"):
            load(path)

    @pytest.mark.parametrize("load, what", [(load_collection, "passage"), (load_queries, "query")])
    def test_empty_id_rejected(self, tmp_path, load, what):
        path = tmp_path / "c.tsv"
        path.write_text("d1\tok\n\ttext\n", encoding="utf-8")
        with pytest.raises(FormatError, match=rf"c\.tsv:2: empty {what} id"):
            load(path)

    def test_queries(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\twhat is an active margin\n")
        queries = load_queries(path)
        assert queries.queries == {"q1": "what is an active margin"}

    def test_qrels_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 1\nq1 0 d8 0\nq2 0 d1 2\n")
        qrels = load_qrels(path)
        assert qrels.entries[("q1", "d7")] == 1
        assert qrels.positives("q1") == {"d7"}
        assert qrels.positives("q2") == {"d1"}

    def test_qrels_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 1\nq1 0 d7 2\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_qrels(path)

    @pytest.mark.parametrize("line, what", [
        ("q1 0 d1,d2 1", "passage id 'd1,d2'"), ("q1,q2 0 d1 1", "query id 'q1,q2'"),
    ])
    def test_qrels_id_holding_a_separator_rejected(self, tmp_path, line, what):
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d7 1\n{line}\n")
        with pytest.raises(FormatError, match=f"qrels.txt:2: {what} holds whitespace or ','"):
            load_qrels(path)

    def test_qrels_bad_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 x\n")
        with pytest.raises(FormatError, match=":1"):
            load_qrels(path)

    @pytest.mark.parametrize("line, why", [
        ("q1 0 d1", "expected '<qid> 0 <pid> <grade>'"),
        ("q1 0 d1 1 extra", "expected '<qid> 0 <pid> <grade>'"),
        ("q1 0 d1 -1", "negative grade -1"),
    ])
    def test_qrels_bad_line_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d7 1\n{line}\n")
        with pytest.raises(FormatError, match=f"qrels.txt:2: {why}$"):
            load_qrels(path)


def _resized(vocab_size, dim):
    """A header edit giving a dense model's sizes, with the layout they imply."""
    tensors = [[name, list(shape)] for name, shape in DenseParams.layout(vocab_size, dim).items()]
    return lambda header: header.update(vocab_size=vocab_size, dim=dim, tensors=tensors)


class TestCheckpoint:
    """`encoders.save_params`/`load_params` on real models."""

    META = CheckpointMeta(stage="warmup", step=5, seed=9, config_digest="c0ffee")

    def _saved(self, tmp_path, params=None):
        path = tmp_path / "c.ckpt"
        save_params(params or DenseParams.init(7, 3, 0), self.META, path)
        return path

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for params in (DenseParams(7, 3), LexicalParams(7, 3)):
            params.flat = rng.normal(size=params.flat.size)
            loaded, meta = load_params(self._saved(tmp_path, params))
            assert type(loaded) is type(params)
            assert loaded.flat.tobytes() == params.flat.tobytes()
            assert meta == self.META

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_params(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"\x00\x01\x02 not json\n\x00" * 3)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b'{"version": 99, "kind": "dense", "tensors": []}\n')
        with pytest.raises(CheckpointError, match="version"):
            load_params(path)

    def test_stage_metadata_preserved(self, tmp_path):
        _, meta = load_params(self._saved(tmp_path, LexicalParams(1, 1)))
        assert meta.stage == "warmup"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_params(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(tensors=[["emb", [-1]]]), id="negative-shape"),
        pytest.param(lambda h: h.update(tensors=[["emb", "ab"]]), id="string-shape"),
        pytest.param(lambda h: h.update(tensors=5), id="tensors-not-a-list"),
        pytest.param(lambda h: h["tensors"].reverse(), id="tensors-reordered"),
        pytest.param(lambda h: h["tensors"].append(["extra", [0]]), id="extra-tensor"),
        pytest.param(lambda h: h.update(vocab_size=-1), id="negative-vocab_size"),
        pytest.param(lambda h: h.update(dim=-1), id="negative-dim"),
        pytest.param(lambda h: h.update(vocab_size=7.5), id="fractional-vocab_size"),
        pytest.param(lambda h: h.update(dim="3"), id="string-dim"),
        # 2**40 values take 8 TiB: the body's length must reject them unread.
        pytest.param(_resized(2**40, 3), id="huge-vocab_size"),
        pytest.param(_resized(7, 2**40), id="huge-dim"),
        *(pytest.param(lambda h, key=key: h.pop(key), id=f"no-{key}")
          for key in ("tensors", "kind", "vocab_size", "dim", "stage", "step", "seed")),
    ])
    def test_malformed_header_rejected_with_its_path(self, tmp_path, edit):
        path = self._saved(tmp_path)
        head, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_params(path)

    @pytest.mark.parametrize("key, value", [
        ("stage", 7), ("config_digest", 5), ("step", "x"), ("step", True), ("seed", [1]), ("seed", -1),
    ])
    def test_mistyped_metadata_rejected_naming_the_key(self, tmp_path, key, value):
        path = self._saved(tmp_path)
        head, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header[key] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: {key} must be"):
            load_params(path)


# sha256 of each file `write_fixture` writes at the acceptance seed (13) and
# at perfbench's default seed (1). The acceptance thresholds were validated
# on these bytes.
FIXTURE_SHA256 = {
    13: {
        "collection.tsv": "ded0ae4faef62164410d9624e760f093ed248355babf5010aa21a62c7b50d2c9",
        "train_queries.tsv": "657b57ee1780f87783ee53405d818ca81119a004e77df7017d01370ea59a6894",
        "train_qrels.txt": "d18bc6f6909e1efafc3e45731c2a8ce122ae4129dc5c264f8f4c7d7e8725d5cf",
        "test_queries.tsv": "fb4e1468afcc1de4e9229022a3fe24cf9148088c17f09283957756e576fc1469",
        "test_qrels.txt": "06ed7877759b0c98fa8295f26421409aae00506ed629a3c5de7dd4f3a8346bc5",
    },
    1: {
        "collection.tsv": "57becde18c984ee8fbae51e3ea6a28f4b510cc20098fb6ae29a3cc85fbdca39b",
        "train_queries.tsv": "fb1fc850fa83ab9f3b51eee67bbba243bedd9cc5212311cae4e944c895437115",
        "train_qrels.txt": "d18bc6f6909e1efafc3e45731c2a8ce122ae4129dc5c264f8f4c7d7e8725d5cf",
        "test_queries.tsv": "15482bbe932865594f23898db1f0a002b0ce4821f1b0b14f535c5d5c3dfc8415",
        "test_qrels.txt": "06ed7877759b0c98fa8295f26421409aae00506ed629a3c5de7dd4f3a8346bc5",
    },
}


class TestSyntheticFixture:
    @pytest.mark.parametrize("seed", sorted(FIXTURE_SHA256))
    def test_written_bytes_are_pinned(self, tmp_path, seed):
        write_fixture(tmp_path, seed=seed)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert written == FIXTURE_SHA256[seed]
