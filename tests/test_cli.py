import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lexlab import cli, gradcheck, training
from lexlab.synthetic import write_fixture

from helpers import save_teacher_scores

FIXTURE = Path(__file__).parent / "data" / "metric_fixture"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    write_fixture(
        d, seed=13, exact_clusters=4, cluster_size=4, exact_train=10, exact_test=5,
        para_supers=2, groups_per_super=5, para_train=8, para_test=4,
        total_docs=50, filler_topics=4,
    )
    (d / "toy.cfg").write_text(
        "\n".join(
            [
                f"collection = {d / 'collection.tsv'}",
                f"train_queries = {d / 'train_queries.tsv'}",
                f"train_qrels = {d / 'train_qrels.txt'}",
                f"eval_queries = {d / 'test_queries.tsv'}",
                f"eval_qrels = {d / 'test_qrels.txt'}",
                "seed = 5",
                "dim = 6",
                "epochs = 2",
                "m = 6",
                "warmup_m = 3",
                "depth = 12",
                "run_depth = 50",
                "batch_size = 4",
                "lr = 0.02",
            ]
        )
        + "\n"
    )
    return d


@pytest.fixture(scope="module")
def checkpoints(workspace):
    """Freshly initialized dense and lexical checkpoints over the toy vocabulary."""
    from lexlab.data import build_vocab, load_collection
    from lexlab.encoders import CheckpointMeta, DenseParams, LexicalParams, save_params

    vocab = build_vocab(load_collection(workspace / "collection.tsv"))
    paths = {}
    for params in (DenseParams.init(vocab.size, 6, 5), LexicalParams.init(vocab.size, 6, 5)):
        meta = CheckpointMeta(stage="init", step=0, seed=5, config_digest="")
        paths[params.kind] = workspace / f"{params.kind}.ckpt"
        save_params(params, meta, paths[params.kind])
    return paths


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestBasics:
    def test_ingest(self, workspace, capsys):
        assert run_cli("ingest", "--collection", workspace / "collection.tsv") == 0
        out = capsys.readouterr().out
        assert "passages\t50" in out

    def test_ingest_counts_queries_and_qrels(self, workspace, capsys):
        queries, qrels = workspace / "train_queries.tsv", workspace / "train_qrels.txt"
        assert run_cli("ingest", "--collection", workspace / "collection.tsv",
                       "--queries", queries, "--qrels", qrels) == 0
        out = capsys.readouterr().out
        assert f"queries\t{len(queries.read_text().splitlines())}\n" in out
        assert out.endswith(f"qrels\t{len(qrels.read_text().splitlines())}\n")

    def test_vocabulary_flags_spelled_as_config_keys(self, workspace, capsys):
        collection = workspace / "collection.tsv"
        assert run_cli("ingest", "--collection", collection, "--min_df", 1, "--max_vocab", 20) == 0
        assert "vocab\t20" in capsys.readouterr().out
        for flag in ("--min-df", "--max-size"):
            with pytest.raises(SystemExit):
                run_cli("ingest", "--collection", collection, flag, 2)

    def test_error_prefix_and_exit_code(self, workspace, capsys):
        rc = run_cli("ingest", "--collection", workspace / "missing.tsv")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_removed_build_index_command_rejected(self, workspace, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("build-index", "--collection", workspace / "collection.tsv",
                    "--out", tmp_path / "bm25.idx")

    def test_unknown_flag_rejected(self, workspace):
        with pytest.raises(SystemExit):
            run_cli("ingest", "--collection", workspace / "collection.tsv", "--bogus", "1")

    def test_missing_config_key_named(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 3\n")
        rc = run_cli("pipeline", "--config", cfg, "--out-dir", tmp_path / "x")
        assert rc == 1
        assert "collection" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("mine", "collection"), ("mine", "train_queries"), ("mine", "train_qrels"),
        ("train", "collection"), ("train", "train_queries"), ("train", "train_qrels"),
        ("retrieve", "collection"), ("retrieve", "eval_queries"),
    ])
    def test_missing_input_key_named_before_any_work(
        self, workspace, tmp_path, capsys, command, key
    ):
        lines = (workspace / "toy.cfg").read_text().splitlines()
        partial = tmp_path / "partial.cfg"
        partial.write_text("\n".join(line for line in lines if not line.startswith(f"{key} ")) + "\n")
        extra = ["--pool", tmp_path / "pool.tsv"] if command == "train" else []
        out = tmp_path / "out"
        assert run_cli(command, "--config", partial, *extra, "--out", out) == 1
        assert capsys.readouterr().err == f"error: missing config key {key!r}\n"
        assert list(tmp_path.iterdir()) == [partial]

    def test_unknown_config_key_named(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("collection = x\nmystery_knob = 2\n")
        rc = run_cli("pipeline", "--config", cfg, "--out-dir", tmp_path / "x")
        assert rc == 1
        assert "mystery_knob" in capsys.readouterr().err


class TestEvaluateFuse:
    def test_evaluate_matches_fixture(self, capsys):
        rc = run_cli("evaluate", "--run", FIXTURE / "run.trec", "--qrels", FIXTURE / "qrels.txt")
        assert rc == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            metric, qid, value = line.split("\t")
            values[(metric, qid)] = float(value)
        assert values[("mrr@10", "all")] == pytest.approx(4 / 9, abs=1e-6)
        assert values[("recall@50", "all")] == pytest.approx(5 / 6, abs=1e-6)

    @pytest.mark.parametrize("exponential_gain", [False, True])
    def test_evaluate_per_query(self, capsys, exponential_gain):
        # q1 ranks d2 (grade 1) above d1 (grade 3), so its gains are 1 and 3,
        # or 2^1 - 1 and 2^3 - 1 under exponential gain.
        flag = ["--exponential-gain"] if exponential_gain else []
        rc = run_cli("evaluate", "--run", FIXTURE / "run.trec", "--qrels", FIXTURE / "qrels.txt",
                     "--metrics", "ndcg@10", "--per-query", *flag)
        assert rc == 0
        g1, g3 = (1, 7) if exponential_gain else (1, 3)
        q1 = (g1 + g3 / math.log2(3)) / (g3 + g1 / math.log2(3))
        rows = (("q1", q1), ("q2", 0.5), ("q3", 0.0), ("all", (q1 + 0.5) / 3))
        assert capsys.readouterr().out == "".join(f"ndcg@10\t{q}\t{v:.6f}\n" for q, v in rows)

    def test_evaluate_table(self, capsys):
        rc = run_cli("evaluate", "--run", FIXTURE / "run.trec", "--qrels", FIXTURE / "qrels.txt",
                     "--metrics", "mrr@10,ndcg@10", "--table")
        assert rc == 0
        q1 = (1 + 3 / math.log2(3)) / (3 + 1 / math.log2(3))
        assert capsys.readouterr().out == (
            f"metric   mean\nmrr@10   {4 / 9:.4f}\nndcg@10  {(q1 + 0.5) / 3:.4f}\n"
        )

    def test_evaluate_rejects_a_cutoff_below_one(self, capsys):
        # The metrics are checked as the flag is parsed, before any file is read.
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--run", "missing.trec", "--qrels", "missing.txt",
                    "--metrics", "mrr@10,mrr@0")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert ("error: argument --metrics: bad metric name 'mrr@0' (the cutoff must be >= 1)"
                in captured.err)
        assert captured.out == ""

    def test_fuse_with_self_preserves_order(self, tmp_path, capsys):
        out = tmp_path / "fused.trec"
        rc = run_cli(
            "fuse", "--run-a", FIXTURE / "run.trec", "--run-b", FIXTURE / "run.trec",
            "--out", out,
        )
        assert rc == 0
        from lexlab.retrieval import load_run

        original = load_run(FIXTURE / "run.trec")
        fused = load_run(out)
        for qid, ranking in original.rankings.items():
            assert fused.rankings[qid].pids() == ranking.pids()


class TestAnalysisFlags:
    """Analysis and gradcheck flags are range-checked before any run is read."""

    RUNS = {
        "fuse": ["--run-a", "missing.trec", "--run-b", "missing.trec", "--out", "o"],
        "shift": ["--lex-run", "missing.trec", "--den-run", "missing.trec",
                  "--led-run", "missing.trec"],
        "gradcheck": [],
    }

    @pytest.mark.parametrize("command, flag, value, rule", [
        ("fuse", "--k", "0", "an integer >= 1"),
        ("shift", "--bins", "0", "an integer >= 1"),
        ("shift", "--margin", "-1", "a finite number >= 0"),
        ("shift", "--margin", "nan", "a finite number >= 0"),
        ("gradcheck", "--tolerance", "-1", "a finite number > 0"),
        ("gradcheck", "--tolerance", "inf", "a finite number > 0"),
        ("gradcheck", "--seed", "-1", "an integer >= 0"),
    ])
    def test_out_of_range_value_names_the_flag(self, command, flag, value, rule, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, *self.RUNS[command], flag, value)
        err = capsys.readouterr().err
        assert f"argument {flag}: must be {rule}, got '{value}'" in err


class TestOutputs:
    @pytest.mark.parametrize(
        "command", ["mine", "train", "retrieve", "evaluate", "fuse", "buckets", "shift"]
    )
    def test_command_writes_only_its_out_file(self, workspace, tmp_path, command):
        config = ["--config", workspace / "toy.cfg"]
        run, qrels = FIXTURE / "run.trec", FIXTURE / "qrels.txt"
        pool = tmp_path / "pool.tsv"
        if command == "train":
            assert run_cli("mine", *config, "--out", pool) == 0
        argv = {
            "mine": ["mine", *config],
            "train": ["train", *config, "--pool", pool, "--epochs", 1, "--strategy", "none"],
            "retrieve": ["retrieve", *config],
            "evaluate": ["evaluate", "--run", run, "--qrels", qrels],
            "fuse": ["fuse", "--run-a", run, "--run-b", run],
            "buckets": ["buckets", "--reference", run, "--qrels", qrels],
            "shift": ["shift", "--lex-run", run, "--den-run", run, "--led-run", run],
        }[command]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert run_cli(*argv, "--out", fresh / "out") == 0
        assert [p.name for p in fresh.iterdir()] == ["out"]

    def test_shift_names_the_model_of_a_nan_score(self, tmp_path, capsys):
        # A first-listed NaN normalizes every score of q1 in its run to NaN.
        # Each run takes it in turn; the other two stay finite.
        scores = {"lex": [3, 2, 1], "den": [1, 2, 3], "led": [3, 2, 1]}
        for bad in scores:
            runs = {}
            for name, row in scores.items():
                row = ["nan", *row[1:]] if name == bad else row
                runs[name] = tmp_path / f"{name}.trec"
                runs[name].write_text("".join(
                    f"q1 Q0 p{i} {i} {score} {name}\n" for i, score in enumerate(row, 1)
                ), encoding="utf-8")
            out = tmp_path / "shift.tsv"
            rc = run_cli("shift", "--lex-run", runs["lex"], "--den-run", runs["den"],
                         "--led-run", runs["led"], "--out", out)
            err = f"error: the normalized {bad} score of ('q1', 'p1') is NaN\n"
            assert (rc, capsys.readouterr()) == (1, ("", err))
            assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("mine", "eval_qrels"), ("retrieve", "teacher_scores_file"),
        ("train", "eval_queries"), ("train", "eval_qrels"),
    ])
    def test_unread_input_key_may_name_a_missing_file(self, workspace, tmp_path, command, key):
        full = workspace / "toy.cfg"
        lines = [line for line in full.read_text().splitlines() if not line.startswith(key)]
        partial = tmp_path / "partial.cfg"
        partial.write_text("\n".join([*lines, f"{key} = {tmp_path / 'missing'}"]) + "\n")
        extra = []
        if command == "train":
            pool = tmp_path / "pool.tsv"
            assert run_cli("mine", "--config", full, "--out", pool) == 0
            extra = ["--pool", pool, "--strategy", "none", "--epochs", 1]
        written = []
        for cfg in (full, partial):
            out = tmp_path / f"{cfg.stem}.out"
            assert run_cli(command, "--config", cfg, *extra, "--out", out) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestPipelineCli:
    def test_pipeline_and_digest_manifest(self, workspace, tmp_path, capsys):
        rc = run_cli("pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "arts")
        assert rc == 0
        manifest = json.loads((tmp_path / "arts" / "manifest.json").read_text())
        assert manifest["config_digest"]
        assert any(name.startswith("checkpoints/") for name in manifest["files"])
        out = capsys.readouterr().out
        assert "config digest" in out
        assert "metrics\tled" in out

    def test_rerun_identical_manifest(self, workspace, tmp_path):
        run_cli("pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "a")
        run_cli("pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "b")
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_flag_overrides_config(self, workspace, tmp_path, capsys):
        rc = run_cli(
            "pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "a",
            "--seed", "6",
        )
        assert rc == 0
        digest_a = json.loads((tmp_path / "a" / "manifest.json").read_text())["config_digest"]
        run_cli("pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "b")
        digest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())["config_digest"]
        assert digest_a != digest_b

    def test_led_seed_env_overrides_config(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("LED_SEED", "77")
        run_cli("pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "env")
        monkeypatch.delenv("LED_SEED")
        run_cli(
            "pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "flag",
            "--seed", "77",
        )
        assert json.loads((tmp_path / "env" / "manifest.json").read_text()) == json.loads(
            (tmp_path / "flag" / "manifest.json").read_text()
        )

    def test_led_seed_applies_only_to_commands_reading_seed(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("LED_SEED", "abc")
        assert run_cli("ingest", "--collection", workspace / "collection.tsv") == 0
        assert run_cli("retrieve", "--config", workspace / "toy.cfg", "--out", tmp_path / "run") == 0
        capsys.readouterr()
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", tmp_path / "pool") == 1
        assert capsys.readouterr().err == "error: config key 'seed' must be an integer, got 'abc'\n"
        assert not (tmp_path / "pool").exists()

    @pytest.mark.parametrize("env, flag", [(None, "-1"), ("-2", None)])
    def test_negative_seed_fails_before_any_work(
        self, workspace, tmp_path, monkeypatch, capsys, env, flag
    ):
        monkeypatch.setattr(training, "run_pipeline", lambda *a, **k: pytest.fail("ran"))
        if env is not None:
            monkeypatch.setenv("LED_SEED", env)
        argv = ["pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "out"]
        assert run_cli(*argv, *(["--seed", flag] if flag else [])) == 1
        seed = flag or env
        assert capsys.readouterr().err == f"error: config key 'seed' must be >= 0, got {seed}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, strategy", [
        ("eval_queries", "rank-consistent"), ("eval_qrels", "rank-consistent"),
        ("teacher_scores_file", "rank-consistent"), ("teacher_scores_file", "none"),
    ])
    def test_reads_every_input_file_before_any_work(
        self, workspace, tmp_path, monkeypatch, capsys, key, strategy
    ):
        for step in ("mine_negatives", "train_stage"):
            monkeypatch.setattr(training, step, lambda *a, **k: pytest.fail("work started"))
        queries = (workspace / "test_queries.tsv").read_text()
        bad = tmp_path / "bad.tsv"
        bad.write_text({
            "eval_queries": queries + queries.splitlines(keepends=True)[0],
            "eval_qrels": "not qrels\n",
            "teacher_scores_file": "this is not a teacher file\n",
        }[key])
        line = len(queries.splitlines()) + 1 if key == "eval_queries" else 1
        why = "duplicate query id" if key == "eval_queries" else "expected"
        argv = ["pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "out",
                f"--{key}", bad, "--strategy", strategy]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: {why}")
        assert not (tmp_path / "out").exists()

    def test_bad_flag_value_names_its_key(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli("retrieve", "--config", workspace / "toy.cfg", "--run_depth", "abc", "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config key 'run_depth' must be an integer, got 'abc'\n"
        )
        assert not out.exists()


class TestSweep:
    def test_single_value_sweep_equals_pipeline(self, workspace, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--config", workspace / "toy.cfg", "--key", "reg_weight",
            "--values", "1.2", "--out-dir", tmp_path / "sweep",
        )
        assert rc == 0
        sweep_out = capsys.readouterr().out
        rc = run_cli("pipeline", "--config", workspace / "toy.cfg", "--out-dir", tmp_path / "pipe")
        assert rc == 0
        pipe_out = capsys.readouterr().out
        led_line = next(l for l in pipe_out.splitlines() if l.startswith("metrics\tled"))
        mrr = led_line.split("mrr@10=")[1].split("\t")[0]
        assert mrr in sweep_out

    def test_sweep_accepts_reg_weight_grid(self, workspace, tmp_path):
        rc = run_cli(
            "sweep", "--config", workspace / "toy.cfg", "--key", "reg_weight",
            "--values", "1.0,1.2", "--out-dir", tmp_path / "s",
            "--epochs", "1",
        )
        assert rc == 0
        table = (tmp_path / "s" / "sweep.tsv").read_text()
        assert table.startswith("reg_weight")
        assert len(table.strip().splitlines()) == 3

    def test_sweep_accepts_m_grid(self, workspace, tmp_path):
        rc = run_cli(
            "sweep", "--config", workspace / "toy.cfg", "--key", "m",
            "--values", "4,8", "--out-dir", tmp_path / "s2", "--epochs", "1",
        )
        assert rc == 0

    def test_every_value_is_checked_before_any_pipeline_runs(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "s4"
        rc = run_cli(
            "sweep", "--config", workspace / "toy.cfg", "--key", "reg_weight",
            "--values", "1.2,-1", "--out-dir", out_dir,
        )
        assert rc == 1
        assert "config key 'reg_weight' must be >= 0, got -1.0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_sweep_unknown_key_rejected(self, workspace, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--config", workspace / "toy.cfg", "--key", "lambda",
            "--values", "1.0", "--out-dir", tmp_path / "s3",
        )
        assert rc == 1
        assert "lambda" in capsys.readouterr().err


class TestModelCommands:
    def test_mine_train_retrieve_roundtrip(self, workspace, tmp_path, capsys):
        pool = tmp_path / "pool.tsv"
        rc = run_cli("mine", "--config", workspace / "toy.cfg", "--source", "bm25", "--out", pool)
        assert rc == 0
        ckpt = tmp_path / "warm.ckpt"
        rc = run_cli(
            "train", "--config", workspace / "toy.cfg", "--kind", "dense",
            "--stage", "warmup", "--pool", pool, "--out", ckpt, "--epochs", "1",
            "--strategy", "none",
        )
        assert rc == 0
        run_path = tmp_path / "run.trec"
        rc = run_cli(
            "retrieve", "--config", workspace / "toy.cfg", "--checkpoint", ckpt,
            "--eval_queries", workspace / "test_queries.tsv", "--out", run_path, "--tag", "den",
        )
        assert rc == 0
        rc = run_cli("evaluate", "--run", run_path, "--qrels", workspace / "test_qrels.txt")
        assert rc == 0
        assert "mrr@10" in capsys.readouterr().out

    @pytest.mark.parametrize("tag", ["my run", "", "a\tb"])
    def test_retrieve_rejects_a_tag_a_run_line_cannot_carry(self, tmp_path, capsys, tag):
        # Rejected before any file is read: the config file does not exist.
        out = tmp_path / "run.trec"
        assert run_cli("retrieve", "--config", tmp_path / "none.cfg", "--tag", tag, "--out", out) == 1
        assert "--tag" in capsys.readouterr().err
        assert not out.exists()

    def test_train_rejects_a_dense_teacher(self, workspace, checkpoints, tmp_path, capsys):
        pool = tmp_path / "pool.tsv"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        out = tmp_path / "led.ckpt"
        rc = run_cli(
            "train", "--config", workspace / "toy.cfg", "--pool", pool, "--out", out,
            "--teacher-checkpoint", checkpoints["dense"], "--strategy", "rank-consistent",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "lexical" in err and "dense" in err
        assert not out.exists()

    def test_train_rejects_an_init_of_another_kind(self, workspace, checkpoints, tmp_path, capsys):
        pool = tmp_path / "pool.tsv"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        out = tmp_path / "lex.ckpt"
        rc = run_cli(
            "train", "--config", workspace / "toy.cfg", "--kind", "lexical", "--pool", pool,
            "--init", checkpoints["dense"], "--out", out, "--strategy", "none",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "lexical" in err and "dense" in err
        assert not out.exists()

    def test_train_header_holds_the_trained_width(self, workspace, checkpoints, tmp_path):
        # --dim sizes a fresh model only; a 6-dim --init stays 6-dim.
        from lexlab.encoders import load_params

        pool, ckpt = tmp_path / "pool.tsv", tmp_path / "lex.ckpt"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        rc = run_cli(
            "train", "--config", workspace / "toy.cfg", "--pool", pool, "--init",
            checkpoints["lexical"], "--dim", 16, "--epochs", 1, "--strategy", "none",
            "--out", ckpt,
        )
        assert rc == 0
        header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
        assert load_params(ckpt)[0].dim == header["dim"] == 6
        rc = run_cli(
            "retrieve", "--config", workspace / "toy.cfg", "--checkpoint", ckpt,
            "--out", tmp_path / "run.trec",
        )
        assert rc == 0

    @pytest.mark.parametrize("small_checkpoint", [True, False])
    @pytest.mark.parametrize(
        "command", ["mine", "retrieve", "train --init", "train --teacher-checkpoint"]
    )
    def test_checkpoint_of_another_vocabulary_rejected(
        self, workspace, checkpoints, tmp_path, capsys, command, small_checkpoint
    ):
        from lexlab.data import build_vocab, load_collection
        from lexlab.encoders import CheckpointMeta, LexicalParams, save_params

        full = build_vocab(load_collection(workspace / "collection.tsv")).size
        if small_checkpoint:
            # A 20-term checkpoint against the command's full vocabulary.
            ckpt = tmp_path / "small.ckpt"
            meta = CheckpointMeta(stage="init", step=0, seed=5, config_digest="")
            save_params(LexicalParams.init(20, 6, 5), meta, ckpt)
            sizes, limit = (20, full), []
        else:
            # The full-vocabulary checkpoint against a command limited to 20 terms.
            ckpt = checkpoints["lexical"]
            sizes, limit = (full, 20), ["--max_vocab", 20]
        pool, out = tmp_path / "pool.tsv", tmp_path / "out"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        config = ["--config", workspace / "toy.cfg"]
        argv = {
            "mine": ["mine", *config, "--checkpoint", ckpt],
            "retrieve": ["retrieve", *config, "--checkpoint", ckpt],
            "train --init": ["train", *config, "--pool", pool, "--init", ckpt],
            "train --teacher-checkpoint": ["train", *config, "--pool", pool,
                                           "--teacher-checkpoint", ckpt],
        }[command]
        capsys.readouterr()
        assert run_cli(*argv, *limit, "--out", out) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "min_df" in err and "max_vocab" in err
        assert f"{sizes[0]}-term" in err and f"give {sizes[1]} terms" in err
        assert not out.exists()

    def test_gradcheck_small(self, capsys):
        rc = run_cli("gradcheck", "--trials", "2")
        assert rc == 0
        assert "worst" in capsys.readouterr().out

    def test_gradcheck_rejects_a_negative_seed(self, capsys):
        # argparse rejects it (exit status 2) before any check runs.
        with pytest.raises(SystemExit) as exc:
            run_cli("gradcheck", "--trials", 1, "--seed", -1)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --seed: must be an integer >= 0, got '-1'" in captured.err
        assert captured.out == ""

    def test_gradcheck_fails_on_a_nan_gradient(self, monkeypatch, capsys):
        real = gradcheck.flops_penalty

        def nan_grad(terms, values, weight, sizes):
            lv = real(terms, values, weight, sizes)
            lv.grad[0] = np.nan
            return lv

        monkeypatch.setattr(gradcheck, "flops_penalty", nan_grad)
        report = gradcheck.run_suite(trials=1)
        assert report.max_errors["loss/flops"] == report.worst == math.inf
        assert run_cli("gradcheck", "--trials", 1) == 1

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--trials", 0],
        ["buckets", "--reference", FIXTURE / "run.trec", "--qrels", FIXTURE / "qrels.txt",
         "--depth", 0],
        ["shift", "--lex-run", FIXTURE / "run.trec", "--den-run", FIXTURE / "run.trec",
         "--led-run", FIXTURE / "run.trec", "--depth", -1],
    ])
    def test_counts_below_one_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            run_cli(*argv)
        captured = capsys.readouterr()
        assert f"error: argument {argv[-2]}: must be an integer >= 1" in captured.err
        assert captured.out == ""

    def test_train_reads_its_input_files_before_training(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        pool = tmp_path / "pool.tsv"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        calls = []
        monkeypatch.setattr(training, "train_stage", lambda *a, **k: calls.append(a))
        out = tmp_path / "den.ckpt"
        rc = run_cli("train", "--config", workspace / "toy.cfg", "--pool", pool,
                     "--teacher_scores_file", tmp_path / "missing.tsv", "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'teacher_scores_file'" in err
        assert calls == [] and not out.exists()

    def test_buckets_rejects_a_repeated_run_name_before_reading_a_run(self, capsys):
        rc = run_cli("buckets", "--reference", "missing.trec", "--run", "den=a.trec",
                     "--run", "den=b.trec", "--qrels", "missing.txt")
        assert rc == 1
        assert capsys.readouterr().err == "error: --run name 'den' given twice\n"

    def test_buckets_and_shift(self, workspace, tmp_path, capsys):
        # Build two runs from checkpoints trained a single epoch.
        pool = tmp_path / "pool.tsv"
        run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool)
        lex_ckpt = tmp_path / "lex.ckpt"
        run_cli(
            "train", "--config", workspace / "toy.cfg", "--kind", "lexical",
            "--stage", "warmup", "--pool", pool, "--out", lex_ckpt, "--epochs", "1",
            "--strategy", "none",
        )
        lex_run = tmp_path / "lex.trec"
        den_run = tmp_path / "den.trec"
        run_cli(
            "retrieve", "--config", workspace / "toy.cfg", "--checkpoint", lex_ckpt,
            "--eval_queries", workspace / "test_queries.tsv", "--out", lex_run, "--tag", "lex",
        )
        run_cli(
            "retrieve", "--config", workspace / "toy.cfg",
            "--eval_queries", workspace / "test_queries.tsv", "--out", den_run, "--tag", "bm25",
        )
        capsys.readouterr()
        rc = run_cli(
            "buckets", "--reference", lex_run, "--run", f"den={den_run}",
            "--qrels", workspace / "test_qrels.txt", "--depth", "50",
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("range\t")
        rc = run_cli(
            "shift", "--lex-run", lex_run, "--den-run", den_run, "--led-run", den_run,
            "--bins", "5", "--depth", "50",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("stratum\t")


class TestCommandKeys:
    """Each config-driven command takes as flags only the config keys it reads."""

    REQUIRED = {"mine": ["--out", "o"], "retrieve": ["--out", "o"],
                "train": ["--pool", "p", "--out", "o"]}

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_only_the_keys_a_command_reads_are_flags(self, command, capsys):
        parser = cli.build_parser()
        read = set(cli.COMMAND_KEYS[command])
        for key in sorted(read):
            parser.parse_args([command, *self.REQUIRED[command], f"--{key}", "1"])
        for key in sorted({f.name for f in dataclasses.fields(training.PipelineConfig)} - read):
            with pytest.raises(SystemExit):
                parser.parse_args([command, *self.REQUIRED[command], f"--{key}", "1"])
            err = capsys.readouterr().err
            assert f"error: unrecognized arguments: --{key} 1" in err

    @pytest.mark.parametrize("argv", [
        ["retrieve", "--out", "o", "--run_d", "7"],
        ["train", "--pool", "p", "--out", "o", "--teacher_sc", "t.tsv"],
        ["mine", "--out", "o", "--m", "9"],
    ])
    def test_no_flag_may_be_abbreviated(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("mine", "--led_lr", 9), ("train", "--depth", 5), ("retrieve", "--seed", 1),
    ])
    def test_an_unread_key_flag_fails_before_any_work(
        self, workspace, tmp_path, command, flag, value
    ):
        pool, out = tmp_path / "pool.tsv", tmp_path / "out"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        argv = [command, "--config", workspace / "toy.cfg", flag, value, "--out", out]
        if command == "train":
            argv += ["--pool", pool]
        with pytest.raises(SystemExit):
            run_cli(*argv)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["retrieve", "--queries", "q.tsv"], ["retrieve", "--k", 7],
        ["train", "--pool", "p", "--teacher-scores", "t.tsv"],
    ])
    def test_removed_spellings_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit):
            run_cli(*argv, "--out", tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_ingest_requires_collection(self, capsys):
        assert run_cli("ingest") == 1
        assert capsys.readouterr().err == "error: missing config key 'collection'\n"

    @pytest.mark.parametrize("command", ["ingest", "mine", "retrieve", "train"])
    def test_entry_equals_the_keys_the_command_reads(
        self, workspace, tmp_path, monkeypatch, command
    ):
        pool, out = tmp_path / "pool.tsv", tmp_path / "out"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        names = {f.name for f in dataclasses.fields(training.PipelineConfig)}
        reads = set()

        class RecordingConfig(training.PipelineConfig):
            def __getattribute__(self, name):
                if name in names:
                    reads.add(name)
                return super().__getattribute__(name)

        resolve = cli._resolve_config

        def recording(args):
            cfg = resolve(args)
            recorder = RecordingConfig(**{name: getattr(cfg, name) for name in names})
            reads.clear()
            return recorder

        monkeypatch.setattr(cli, "_resolve_config", recording)
        # train hashes its keys into its header digest; that read is not a use.
        monkeypatch.setattr(cli, "config_digest", lambda cfg, keys: "")
        config = ["--config", workspace / "toy.cfg", "--out", out]
        argv = {
            "ingest": ["ingest", "--collection", workspace / "collection.tsv"],
            "mine": ["mine", *config],
            "retrieve": ["retrieve", *config],
            "train": ["train", *config, "--pool", pool, "--epochs", 1, "--strategy", "none"],
        }[command]
        assert run_cli(*argv) == 0
        assert reads == set(cli.COMMAND_KEYS[command])


class TestTrainInputs:
    def test_train_reads_teacher_scores_file(self, workspace, tmp_path):
        from lexlab.data import build_vocab, load_collection, load_qrels, load_queries
        from lexlab.encoders import DenseParams, load_params

        toy = workspace / "toy.cfg"
        pool = tmp_path / "pool.tsv"
        assert run_cli("mine", "--config", toy, "--out", pool) == 0
        cfg = training.config_from_mapping(training.parse_config_file(toy))
        corpus = load_collection(cfg.collection)
        queries = load_queries(cfg.train_queries)
        qrels = load_qrels(cfg.train_qrels)
        vocab = build_vocab(corpus, cfg.min_df, cfg.max_vocab)
        stage_cfg = training.stage_config(
            dataclasses.replace(cfg, epochs=1), training.Stage("warmup", "lr", "epochs", "m"),
            "rank-consistent",
        )
        digests, trained = [], []
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            table = tmp_path / f"teacher{seed}.tsv"
            save_teacher_scores(
                {(q, p): float(rng.normal()) for q in queries.queries for p in sorted(corpus.docs)},
                table,
            )
            out = tmp_path / f"led{seed}.ckpt"
            rc = run_cli(
                "train", "--config", toy, "--pool", pool, "--teacher_scores_file", table,
                "--strategy", "rank-consistent", "--epochs", 1, "--out", out,
            )
            assert rc == 0
            params, meta = load_params(out)
            expected, _ = training.train_stage(
                stage_cfg, vocab, corpus, queries, qrels, training.load_pool(pool),
                DenseParams.init(vocab.size, cfg.dim, cfg.seed),
                teacher=training.table_teacher(training.load_teacher_scores(table)),
            )
            for name, tensor in expected.tensors().items():
                np.testing.assert_array_equal(params.tensors()[name], tensor)
            digests.append(meta.config_digest)
            trained.append(params.tensors()["proj"])
        assert digests[0] != digests[1]
        assert not np.array_equal(*trained)

    def test_train_rejects_two_teachers(self, workspace, checkpoints, tmp_path, capsys):
        pool, table, out = tmp_path / "pool.tsv", tmp_path / "teacher.tsv", tmp_path / "led.ckpt"
        assert run_cli("mine", "--config", workspace / "toy.cfg", "--out", pool) == 0
        table.write_text("")
        # The conflict is found before any input file is read, even a missing pool.
        for pool_path in (pool, tmp_path / "nopool.tsv"):
            rc = run_cli(
                "train", "--config", workspace / "toy.cfg", "--pool", pool_path,
                "--teacher_scores_file", table, "--teacher-checkpoint", checkpoints["lexical"],
                "--out", out,
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert "teacher_scores_file" in err and "--teacher-checkpoint" in err
            assert not out.exists()

    def test_train_rejects_a_teacher_checkpoint_under_strategy_none(
        self, workspace, checkpoints, tmp_path, capsys
    ):
        # Strategy none never calls a teacher, so the flag would change no
        # byte of the checkpoint; it is rejected before any input file is
        # read, even a missing pool.
        out = tmp_path / "lex.ckpt"
        rc = run_cli(
            "train", "--config", workspace / "toy.cfg", "--pool", tmp_path / "nopool.tsv",
            "--teacher-checkpoint", checkpoints["lexical"], "--strategy", "none", "--out", out,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--teacher-checkpoint" in err and "none" in err
        assert not out.exists()

    def test_train_rejects_a_pool_holding_a_positive(self, workspace, tmp_path, capsys):
        toy = workspace / "toy.cfg"
        pool = tmp_path / "pool.tsv"
        assert run_cli("mine", "--config", toy, "--out", pool) == 0
        qid, pids = next(
            (qid, sources["bm25"])
            for qid, sources in training.load_pool(pool).by_query.items() if sources["bm25"]
        )
        qrels = tmp_path / "qrels2.txt"
        qrels.write_text((workspace / "train_qrels.txt").read_text() + f"{qid} 0 {pids[0]} 1\n")
        out = tmp_path / "den.ckpt"
        rc = run_cli("train", "--config", toy, "--train_qrels", qrels, "--pool", pool,
                     "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(qid) in err and "source bm25" in err
        assert not out.exists()
