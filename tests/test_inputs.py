"""Input files and configuration values fail early and say where.

Pool, teacher-score and run files round-trip or load, and reject malformed
lines with `path:line`, as config files do; `PipelineConfig` range-checks
its numeric keys before the pipeline loads a file or mines a negative.
"""

import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexlab import cli, training
from lexlab.data import FormatError
from lexlab.retrieval import load_run
from lexlab.training import (
    SOURCE_TAGS,
    NegativePool,
    PipelineConfig,
    config_from_mapping,
    load_pool,
    load_teacher_scores,
    parse_config_file,
    run_pipeline,
    save_pool,
    save_teacher_scores,
)

ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=8)


class TestPoolFile:
    @given(st.dictionaries(
        ids, st.dictionaries(st.sampled_from(SOURCE_TAGS), st.lists(ids, max_size=6), max_size=3),
        max_size=5,
    ))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, tmp_path_factory, spec):
        pool = NegativePool()
        for qid, sources in spec.items():
            for source, pids in sources.items():
                pool.add(qid, source, pids)
        path = tmp_path_factory.mktemp("pool") / "pool.tsv"
        save_pool(pool, path)
        assert load_pool(path).by_query == pool.by_query

    @pytest.mark.parametrize("line, why", [
        ("q1\tbm25\n", "expected"),
        ("q1\tbm25\td1\textra\n", "expected"),
        ("q1\tmystery\td1,d2\n", "unknown source tag 'mystery'"),
        ("q0\tbm25\td1\n", "query 'q0', source bm25 given twice"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "pool.tsv"
        path.write_text("q0\tbm25\td0\n" + line, encoding="utf-8")
        with pytest.raises(FormatError, match=f"pool.tsv:2: {why}"):
            load_pool(path)


class TestTeacherScoreFile:
    @given(st.dictionaries(
        st.tuples(ids, ids), st.floats(allow_nan=False, allow_infinity=False), max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_at_twelve_digits(self, tmp_path_factory, scores):
        path = tmp_path_factory.mktemp("scores") / "s.tsv"
        save_teacher_scores(scores, path)
        loaded = load_teacher_scores(path)
        assert loaded == {key: float(f"{v:.12g}") for key, v in scores.items()}

    @pytest.mark.parametrize("line, why", [
        ("q1\td1\n", "expected"),
        ("q1\td1\t0.5\t7\n", "expected"),
        ("q1\td1\thigh\n", "score 'high' is not a number"),
        ("q0\td0\t2.5\n", "query 'q0', passage 'd0' given twice"),
        ("q1\td1\tnan\n", "score 'nan' is not finite"),
        ("q1\td1\tinf\n", "score 'inf' is not finite"),
        ("q1\td1\t-inf\n", "score '-inf' is not finite"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "s.tsv"
        path.write_text("q0\td0\t1.5\n" + line, encoding="utf-8")
        with pytest.raises(FormatError, match=f"s.tsv:2: {why}"):
            load_teacher_scores(path)


class TestRunFile:
    @pytest.mark.parametrize("score", ["high", "0.5x", "--1"])
    def test_bad_score_names_path_and_line(self, tmp_path, score):
        path = tmp_path / "run.trec"
        path.write_text(f"q0 Q0 d0 1 1.500000 t\nq0 Q0 d1 2 {score} t\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"run.trec:2: score '{re.escape(score)}' is not a number"):
            load_run(path)


class TestConfigFile:
    @pytest.mark.parametrize("text, why", [
        ("seed = 3\nlr = 0.1\nseed = 9\n", ":3: config key 'seed' given twice"),
        ("seed = 3\n = 4\n", ":2: expected 'key = value'"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, text, why):
        path = tmp_path / "c.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=f"c.cfg{why}"):
            parse_config_file(path)

    def test_repeated_key_fails_before_any_work(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(training, "mine_negatives", forbidden)
        monkeypatch.setattr(training, "run_pipeline", forbidden)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("seed = 3\nseed = 9\n", encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "out")]) != 0
        assert not (tmp_path / "out").exists()


class TestConfigRanges:
    @pytest.mark.parametrize("key", [
        "dim", "depth", "m", "warmup_m", "batch_size", "epochs", "run_depth", "lr",
        "kl_temperature", "min_df",
    ])
    def test_positive_keys(self, key):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"'{key}' must be > 0"):
                PipelineConfig(**{key: bad})

    @pytest.mark.parametrize("key", [
        "lex_epochs", "den_epochs", "led_epochs", "mix_depth",
        "lex_warmup_lr", "lex_continue_lr", "den_warmup_lr", "led_lr",
        "reg_weight", "flops_weight", "filter_threshold", "max_vocab", "bm25_k1",
    ])
    def test_non_negative_keys(self, key):
        PipelineConfig(**{key: 0})
        with pytest.raises(ValueError, match=f"'{key}' must be >= 0"):
            PipelineConfig(**{key: -1})

    def test_depth_at_least_warmup_m(self):
        PipelineConfig(depth=5, warmup_m=5)
        with pytest.raises(ValueError, match=r"'depth' must be >= warmup_m \(6\), got 5"):
            PipelineConfig(depth=5, warmup_m=6)

    @pytest.mark.parametrize(
        "key", [f.name for f in fields(PipelineConfig) if f.type == "float"]
    )
    def test_non_finite_float_keys(self, key):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"'{key}' must be finite"):
                PipelineConfig(**{key: bad})

    def test_bm25_b_in_unit_interval(self):
        PipelineConfig(bm25_b=0)
        PipelineConfig(bm25_b=1)
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"'bm25_b' must be in \[0, 1\], got"):
                PipelineConfig(bm25_b=bad)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="'lr'"):
            config_from_mapping({"lr": "nan"})

    def test_fails_before_any_file_or_mining(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(training, "mine_negatives", forbidden)
        missing = str(tmp_path / "missing.tsv")
        for key, value in (("depth", "-3"), ("dim", "0"), ("kl_temperature", "0"), ("depth", "4"),
                           ("bm25_b", "nan"), ("bm25_k1", "inf"), ("lr", "inf")):
            mapping = {"collection": missing, "train_queries": missing, "train_qrels": missing,
                       key: value}
            with pytest.raises(ValueError, match=f"'{key}'"):
                run_pipeline(config_from_mapping(mapping))
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()))
            assert cli.main(["pipeline", "--config", str(cfg_path),
                             "--out-dir", str(tmp_path / "out")]) != 0
            assert not (tmp_path / "out").exists()


class TestConfigDocs:
    def test_readme_table_lists_every_config_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
        documented = [
            key
            for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])
        ]
        assert sorted(documented) == sorted(f.name for f in fields(PipelineConfig))
