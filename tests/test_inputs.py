"""Input files and configuration values fail early and say where.

Pool, teacher-score and run files round-trip or load, and reject malformed
lines with `path:line`, as config files do; every reader names the first
line that is not UTF-8 text, and every text file the package reads or
writes is UTF-8 whatever the locale. `PipelineConfig` and `TrainConfig`
range-check their numeric keys before the pipeline loads a file or mines a
negative.
"""

import ast
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexlab
from lexlab import cli, training
from lexlab.data import FormatError, load_collection, load_qrels, load_queries
from lexlab.retrieval import load_run
from lexlab.training import (
    SOURCE_TAGS,
    NegativePool,
    PipelineConfig,
    TrainConfig,
    config_from_mapping,
    load_pool,
    load_teacher_scores,
    parse_config_file,
    run_pipeline,
    save_pool,
)

from helpers import save_teacher_scores

ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1, max_size=8)


def once_per_query(sources: dict[str, list[str]]) -> dict[str, list[str]]:
    """`sources` with each pid kept in the first source that lists it."""
    seen: set[str] = set()
    return {source: [p for p in pids if not (p in seen or seen.add(p))]
            for source, pids in sources.items()}


class TestPoolFile:
    @given(st.dictionaries(
        ids,
        st.dictionaries(st.sampled_from(SOURCE_TAGS), st.lists(ids, max_size=6), max_size=3)
        .map(once_per_query),
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
        ("q 1\tbm25\td1\n", "query id 'q 1' holds whitespace or ','"),
        ("q1\tbm25\td1,d 2\n", "passage id 'd 2' holds whitespace or ','"),
        ("\tbm25\td1\n", "empty query id"),
        ("q1\tbm25\td1,,d2\n", "empty passage id"),
        ("q1\tbm25\td1,d1\n", "query 'q1', passage 'd1' given twice"),
        ("q0\tlex1\td0\n", "query 'q0', passage 'd0' given twice"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "pool.tsv"
        path.write_text("q0\tbm25\td0\n" + line, encoding="utf-8")
        with pytest.raises(FormatError, match=f"pool.tsv:2: {why}"):
            load_pool(path)

    def test_an_empty_pid_list_loads(self, tmp_path):
        # mine_negatives writes one for a query with no eligible negative.
        path = tmp_path / "pool.tsv"
        path.write_text("q0\tbm25\td0\nq1\tbm25\t\n", encoding="utf-8")
        assert load_pool(path).by_query == {"q0": {"bm25": ["d0"]}, "q1": {"bm25": []}}


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
        ("q 1\td1\t1.5\n", "query id 'q 1' holds whitespace or ','"),
        ("q1\td1,d2\t1.5\n", "passage id 'd1,d2' holds whitespace or ','"),
        ("\td1\t1.5\n", "empty query id"),
        ("q1\t\t2.0\n", "empty passage id"),
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

    @pytest.mark.parametrize("line, why", [
        ("q0 Q0 d1,d2 2 1.000000 t", "passage id 'd1,d2' holds whitespace or ','"),
        ("q,1 Q0 d1 1 1.000000 t", "query id 'q,1' holds whitespace or ','"),
    ])
    def test_an_id_holding_a_comma_names_path_and_line(self, tmp_path, line, why):
        path = tmp_path / "run.trec"
        path.write_text(f"q0 Q0 d0 1 1.500000 t\n{line}\nq2 Q0 d0 1 1.500000 t\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"run.trec:2: {re.escape(why)}"):
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


class TestUtf8:
    # Line 1 holds a two-byte UTF-8 character, line 2 a byte that no UTF-8
    # text holds; a third line follows.
    LINES = {
        load_collection: ["d0\tcaf\u00e9", "d1\tbad\udcff", "d2\tok"],
        load_queries: ["q0\tcaf\u00e9", "q1\tbad\udcff", "q2\tok"],
        load_qrels: ["q\u00e9 0 d0 1", "q1 0 d\udcff 1", "q2 0 d2 1"],
        load_pool: ["q\u00e9\tbm25\td0", "q1\tbm25\td\udcff", "q2\tbm25\td2"],
        load_teacher_scores: ["q\u00e9\td0\t1.5", "q1\td\udcff\t1.5", "q2\td2\t1.5"],
        load_run: ["q\u00e9 Q0 d0 1 1.5 t", "q1 Q0 d\udcff 1 1.5 t", "q2 Q0 d2 1 1.5 t"],
        parse_config_file: ["collection = caf\u00e9", "seed = 3\udcff", "lr = 0.1"],
    }

    @pytest.mark.parametrize("read", list(LINES), ids=lambda read: read.__name__)
    def test_a_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, read):
        path = tmp_path / "input.txt"
        path.write_bytes("\n".join(self.LINES[read] + [""]).encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError, match=r"^.*input\.txt:2: not UTF-8 text$"):
            read(path)

    @pytest.mark.parametrize("read", list(LINES), ids=lambda read: read.__name__)
    def test_a_byte_order_mark_is_skipped(self, tmp_path, read):
        # Kept, the mark would start the first id, or the first config key.
        text = "".join(line.replace("\udcff", "x") + "\n" for line in self.LINES[read])
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")

        def comparable(loaded):
            if read is load_run:  # a Ranking compares by identity
                return loaded.tag, {qid: (r.qid, r.entries) for qid, r in loaded.rankings.items()}
            return loaded

        assert comparable(read(marked)) == comparable(read(plain))

    @staticmethod
    def run_under_an_ascii_locale(*argv):
        """`python -m lexlab.cli *argv` where the locale's encoding is ASCII."""
        src = str(Path(lexlab.__file__).parent.parent)
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONIOENCODING", None)
        return subprocess.run(
            [sys.executable, "-m", "lexlab.cli", *argv], env=env, capture_output=True,
            encoding="utf-8",
        )

    @pytest.fixture
    def run_and_qrels(self, tmp_path):
        run, qrels = tmp_path / "run.trec", tmp_path / "qrels.txt"
        run.write_text("q\u00e9 Q0 d0 1 1.5 t\n", encoding="utf-8")
        qrels.write_text("q\u00e9 0 d0 1\n", encoding="utf-8")
        return run, qrels

    def test_evaluate_writes_utf8_under_an_ascii_locale(self, tmp_path, run_and_qrels):
        run, qrels = run_and_qrels
        out = tmp_path / "rep.tsv"
        done = self.run_under_an_ascii_locale(
            "evaluate", "--run", run, "--qrels", qrels, "--metrics", "mrr@10", "--out", out,
        )
        assert (done.returncode, done.stderr) == (0, "")
        report = out.read_text(encoding="utf-8")
        assert report == "mrr@10\tq\u00e9\t1.000000\nmrr@10\tall\t1.000000\n"

    def test_evaluate_prints_utf8_under_an_ascii_locale(self, run_and_qrels):
        run, qrels = run_and_qrels
        done = self.run_under_an_ascii_locale(
            "evaluate", "--run", run, "--qrels", qrels, "--metrics", "mrr@10", "--per-query",
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "mrr@10\tq\u00e9\t1.000000\nmrr@10\tall\t1.000000\n"

    def test_errors_print_utf8_under_an_ascii_locale(self, run_and_qrels):
        run, qrels = run_and_qrels
        run.write_text("q\u00e9 Q0 d0 1 1.5\u00e9 t\n", encoding="utf-8")
        done = self.run_under_an_ascii_locale("evaluate", "--run", run, "--qrels", qrels)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {run}:1: score '1.5\u00e9' is not a number\n"

    def test_every_text_file_is_opened_as_utf8(self):
        """No `open`, `Path.read_text` or `Path.write_text` call in the package
        reads or writes text without `encoding="utf-8"`."""

        def unnamed(call: ast.Call) -> bool:
            func = call.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
                mode = call.args[1] if len(call.args) > 1 else mode
                if isinstance(mode, ast.Constant) and "b" in mode.value:
                    return False
            elif not (isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text")):
                return False
            encoding = next((k.value for k in call.keywords if k.arg == "encoding"), None)
            return not (isinstance(encoding, ast.Constant) and encoding.value == "utf-8")

        package = Path(lexlab.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and unnamed(node)
        ]
        assert found == []


# The keys a stage's `TrainConfig` holds; each has the range it has in `PipelineConfig`.
TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


class TestConfigRanges:
    @pytest.mark.parametrize("key", [
        "dim", "depth", "m", "warmup_m", "batch_size", "epochs", "run_depth", "lr",
        "kl_temperature", "min_df",
    ])
    def test_positive_keys(self, key):
        for config in (PipelineConfig, TrainConfig) if key in TRAIN_KEYS else (PipelineConfig,):
            for bad in (0, -3):
                with pytest.raises(ValueError, match=f"'{key}' must be > 0"):
                    config(**{key: bad})

    @pytest.mark.parametrize("key", [
        "seed", "lex_epochs", "den_epochs", "led_epochs", "mix_depth",
        "lex_warmup_lr", "lex_continue_lr", "den_warmup_lr", "led_lr",
        "reg_weight", "flops_weight", "filter_threshold", "max_vocab", "bm25_k1",
    ])
    def test_non_negative_keys(self, key):
        for config in (PipelineConfig, TrainConfig) if key in TRAIN_KEYS else (PipelineConfig,):
            config(**{key: 0})
            with pytest.raises(ValueError, match=f"'{key}' must be >= 0"):
                config(**{key: -1})

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
