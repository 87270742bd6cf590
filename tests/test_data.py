import sys
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.data import (
    CheckpointMeta,
    CheckpointError,
    Corpus,
    FormatError,
    build_vocab,
    load_checkpoint,
    load_collection,
    load_qrels,
    load_queries,
    save_checkpoint,
    tokenize,
    vectorize,
)


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
        vocab = build_vocab(corpus, min_df=1, max_size=2)
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
            build_vocab(corpus, max_size=0)

    def test_empty_corpus(self):
        vocab = build_vocab(Corpus.from_docs({}))
        assert vocab.size == 0


class TestVectorize:
    def test_counts(self):
        corpus = Corpus.from_docs({"d": "a b"})
        vocab = build_vocab(corpus)
        tv = vectorize("a a b", vocab)
        assert tv.counts == {vocab.term_to_id["a"]: 2, vocab.term_to_id["b"]: 1}
        assert tv.n == 3
        assert tv.n_oov == 0

    def test_oov_counted_in_length_only(self):
        corpus = Corpus.from_docs({"d": "a"})
        vocab = build_vocab(corpus)
        tv = vectorize("z z", vocab)
        assert tv.counts == {}
        assert tv.n == 2
        assert tv.n_oov == 2

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
        assert tv.n >= tv.n_invocab
        assert (tv.n == tv.n_invocab) == (tv.n_oov == 0)


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

    def test_qrels_bad_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d7 x\n")
        with pytest.raises(FormatError, match=":1"):
            load_qrels(path)


class TestCheckpoint:
    def _meta(self, **kw):
        base = dict(kind="dense", vocab_size=7, dim=3, stage="warmup", step=5, seed=9)
        base.update(kw)
        return CheckpointMeta(**base)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "emb": rng.normal(size=(7, 3)),
            "proj": rng.normal(size=(3, 3)),
            "bias": rng.normal(size=3),
        }
        path = tmp_path / "c.ckpt"
        save_checkpoint(tensors, self._meta(), path)
        loaded, meta = load_checkpoint(path)
        for name, t in tensors.items():
            assert loaded[name].tobytes() == t.tobytes()
        assert meta.stage == "warmup" and meta.step == 5 and meta.seed == 9

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint({"emb": np.ones((4, 2))}, self._meta(vocab_size=4, dim=2), path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"\x00\x01\x02 not json\n\x00" * 3)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b'{"version": 99, "kind": "dense", "tensors": []}\n')
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_stage_metadata_preserved(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint({"emb": np.zeros((1, 1))}, self._meta(vocab_size=1, dim=1, stage="warmup"), path)
        _, meta = load_checkpoint(path)
        assert meta.stage == "warmup"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint({"emb": np.zeros((2, 2))}, self._meta(vocab_size=2, dim=2), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)
