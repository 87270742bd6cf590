"""Input files and configuration values fail early and say where.

Pool and teacher-score files round-trip and reject malformed lines with
`path:line`; `PipelineConfig` range-checks its numeric keys before the
pipeline loads a file or mines a negative.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lexlab import cli, training
from lexlab.data import FormatError
from lexlab.training import (
    SOURCE_TAGS,
    NegativePool,
    PipelineConfig,
    TeacherScoreTable,
    config_from_mapping,
    load_pool,
    load_teacher_scores,
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
        save_teacher_scores(TeacherScoreTable(scores=scores), path)
        loaded = load_teacher_scores(path).scores
        assert loaded == {key: float(f"{v:.12g}") for key, v in scores.items()}

    @pytest.mark.parametrize("line, why", [
        ("q1\td1\n", "expected"),
        ("q1\td1\t0.5\t7\n", "expected"),
        ("q1\td1\thigh\n", "score 'high' is not a number"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "s.tsv"
        path.write_text("q0\td0\t1.5\n" + line, encoding="utf-8")
        with pytest.raises(FormatError, match=f"s.tsv:2: {why}"):
            load_teacher_scores(path)


class TestConfigRanges:
    @pytest.mark.parametrize("key", [
        "dim", "depth", "m", "warmup_m", "batch_size", "epochs", "run_depth", "lr",
    ])
    def test_positive_keys(self, key):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"'{key}' must be > 0"):
                PipelineConfig(**{key: bad})

    @pytest.mark.parametrize("key", [
        "lex_epochs", "den_epochs", "led_epochs", "mix_depth",
        "lex_warmup_lr", "lex_continue_lr", "den_warmup_lr", "led_lr",
        "reg_weight", "flops_weight",
    ])
    def test_non_negative_keys(self, key):
        PipelineConfig(**{key: 0})
        with pytest.raises(ValueError, match=f"'{key}' must be >= 0"):
            PipelineConfig(**{key: -1})

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="'lr'"):
            config_from_mapping({"lr": "nan"})

    def test_fails_before_any_file_or_mining(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(training, "mine_negatives", forbidden)
        missing = str(tmp_path / "missing.tsv")
        for key, value in (("depth", "-3"), ("dim", "0")):
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
