import json
import shutil

import pytest

from dramastyle import (
    ConfigError,
    PipelineError,
    PreconditionFailed,
    compare_translations,
    load_config,
    run_experiment,
)
from dramastyle.cli import main
from dramastyle.errors import NoEligibleCharacters
from dramastyle.experiment import CorpusEntry, ExperimentConfig


def synthetic_config(configs_dir, tmp_path, **overrides):
    overrides.setdefault("permutations", 300)
    overrides.setdefault("output_dir", str(tmp_path / "out"))
    return load_config(configs_dir / "synthetic_two_category.json", **overrides)


class TestConfigValidation:
    def test_loads_bundled_config(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path)
        assert config.experiment_id == "synthetic_two_category"
        assert config.chunk_count * config.chunk_size <= config.min_size

    def test_chunk_budget_must_fit_min_size(self, configs_dir, tmp_path):
        with pytest.raises(ConfigError):
            synthetic_config(configs_dir, tmp_path, min_size=100)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment_id="x", corpus=()).validate()

    def test_duplicate_play_per_translator_rejected(self):
        entry = CorpusEntry(path="p.txt", play_id="p", language="en", translator="t")
        with pytest.raises(ConfigError):
            ExperimentConfig(
                experiment_id="x", corpus=(entry, entry), min_size=100,
                chunk_count=2, chunk_size=50,
            ).validate()

    def test_unknown_mode_rejected(self, configs_dir, tmp_path):
        with pytest.raises(ConfigError):
            synthetic_config(configs_dir, tmp_path, modes=("syllable_trigram",))


class TestRunExperiment:
    def test_synthetic_two_category(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path, modes=("letter_unigram",))
        report = run_experiment(config)
        section = report.modes["letter_unigram"]
        cats = {c["category"]: c for c in section["categories"]}
        assert set(cats) == {"alfa", "bravo"}
        for cat in cats.values():
            assert cat["attribution_hits"] == cat["attribution_total"] == 5
            assert cat["attribution_p"] <= 0.05
        out = tmp_path / "out" / "synthetic_two_category"
        assert (out / "chunk_manifest.csv").exists()
        assert (out / "matrix_letter_unigram.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "run_meta.json").exists()

    def test_no_eligible_characters_reports_segmentation_stage(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path, min_size=10**6,
                                  chunk_count=2, chunk_size=100)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "segmentation"
        assert isinstance(err.value.cause, NoEligibleCharacters)

    def test_partial_outputs_removed_on_failure(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path, min_size=10**6,
                                  chunk_count=2, chunk_size=100)
        with pytest.raises(PipelineError):
            run_experiment(config)
        assert not (tmp_path / "out" / "synthetic_two_category").exists()

    def test_single_mode_rerun_replaces_previous_outputs(self, configs_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path))
        run_experiment(synthetic_config(configs_dir, tmp_path, modes=("letter_unigram",)))
        out = tmp_path / "out" / "synthetic_two_category"
        assert not (out / "matrix_word_unigram.csv").exists()
        assert (out / "matrix_letter_unigram.csv").exists()
        assert [p.name for p in (tmp_path / "out").iterdir()] == [out.name]

    def test_failed_rerun_keeps_previous_results(self, configs_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path))
        out = tmp_path / "out" / "synthetic_two_category"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        config = synthetic_config(configs_dir, tmp_path, min_size=10**6,
                                  chunk_count=2, chunk_size=100)
        with pytest.raises(PipelineError):
            run_experiment(config)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in (tmp_path / "out").iterdir()] == [out.name]

    def test_jobs_do_not_change_output_bytes(self, configs_dir, tmp_path):
        files = {}
        for jobs in (1, 8):
            config = synthetic_config(
                configs_dir, tmp_path, output_dir=str(tmp_path / f"out{jobs}")
            )
            run_experiment(config, jobs=jobs)
            out = tmp_path / f"out{jobs}" / "synthetic_two_category"
            files[jobs] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"
            }
        # the config echo records the differing output_dir; outputs must
        # otherwise be byte-identical
        for name in files[1]:
            a = files[1][name].replace(b"out1", b"out#")
            b = files[8][name].replace(b"out8", b"out#")
            assert a == b, name

    def test_config_echo_reproduces_run(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path)
        run_experiment(config)
        out = tmp_path / "out" / "synthetic_two_category"
        echoed = json.loads((out / "report.json").read_text())["config"]
        first = (out / "report.json").read_bytes()
        shutil.rmtree(out)
        rerun = ExperimentConfig(
            **{**echoed, "corpus": tuple(CorpusEntry(**e) for e in echoed["corpus"]),
               "modes": tuple(echoed["modes"])}
        )
        run_experiment(rerun)
        assert (out / "report.json").read_bytes() == first


class TestCompareTranslations:
    def test_requires_two_translators(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path)
        with pytest.raises(PreconditionFailed):
            compare_translations(config)

    def test_noisy_translation_maps_to_counterpart(self, configs_dir, tmp_path):
        config = load_config(
            configs_dir / "synthetic_translations.json",
            permutations=100, output_dir=str(tmp_path / "out"),
        )
        rows = compare_translations(config)
        beta_rows = [r for r in rows if r["translator"] == "beta"]
        assert beta_rows
        matches = sum(
            r["nearest_foreign_category"] == f"{r['speaker']}@alpha" for r in beta_rows
        )
        assert matches > len(beta_rows) / 2
        table = tmp_path / "out" / "synthetic_translations" / "cross_attribution.csv"
        assert table.exists()

    def test_identical_translations_map_to_same_character(self, data_dir, tmp_path, configs_dir):
        src = data_dir / "synthetic" / "translation_a.txt"
        twin = tmp_path / "translation_twin.txt"
        twin.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
        config = ExperimentConfig(
            experiment_id="twins",
            corpus=(
                CorpusEntry(path=str(src), play_id="synthia", language="synthetic",
                            translator="alpha"),
                CorpusEntry(path=str(twin), play_id="synthia", language="synthetic",
                            translator="twin"),
            ),
            labeling="character_by_translator",
            modes=("letter_unigram",),
            min_size=3000, chunk_count=5, chunk_size=600,
            permutations=50, seed=42, output_dir=str(tmp_path / "out"),
        )
        rows = compare_translations(config)
        for r in rows:
            other = "twin" if r["translator"] == "alpha" else "alpha"
            assert r["nearest_foreign_category"] == f"{r['speaker']}@{other}"


class TestGoldenParse:
    def test_miniature_play_matches_committed_interchange(self, data_dir, tmp_path):
        out = tmp_path / "parsed.json"
        rc = main([
            "parse", str(data_dir / "miniature_play.txt"),
            "--play-id", "miniature", "--language", "english",
            "--translator", "original", "--out", str(out),
        ])
        assert rc == 0
        golden = (data_dir / "golden" / "miniature_play.json").read_bytes()
        assert out.read_bytes() == golden

    def test_golden_has_expected_shape(self, data_dir):
        data = json.loads((data_dir / "golden" / "miniature_play.json").read_text())
        assert list(data) == ["play_id", "language", "translator", "turns"]
        assert len(data["turns"]) == 12
        assert {t["speaker"] for t in data["turns"]} == {"nora", "helmer", "mrs. linde"}
        for t in data["turns"]:
            assert list(t) == ["speaker", "text", "ordinal"]
            assert "[" not in t["text"] and "(" not in t["text"]


class TestCliExitCodes:
    def test_success(self, configs_dir, tmp_path):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--permutations", "50", "--mode", "letter_unigram",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0

    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2

    def test_corpus_error_is_3(self, tmp_path, configs_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment_id": "x",
            "corpus": [{"path": "missing.txt", "play_id": "p", "language": "en"}],
            "min_size": 200, "chunk_count": 2, "chunk_size": 100,
            "permutations": 10, "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(cfg)]) == 3

    def test_degenerate_statistics_is_4(self, configs_dir, tmp_path, data_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment_id": "x",
            "corpus": [{
                "path": str(data_dir / "synthetic" / "two_category.txt"),
                "play_id": "p", "language": "syn",
            }],
            "min_size": 10**7, "chunk_count": 2, "chunk_size": 100,
            "permutations": 10, "output_dir": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(cfg)]) == 4

    def test_matrix_subcommand(self, data_dir, tmp_path):
        interchange = tmp_path / "mini.json"
        main([
            "parse", str(data_dir / "synthetic" / "two_category.txt"),
            "--play-id", "synthia", "--language", "syn", "--out", str(interchange),
        ])
        out = tmp_path / "matrix.csv"
        rc = main([
            "matrix", str(interchange), "--mode", "letter_unigram",
            "--min-size", "3000", "--chunk-count", "5", "--chunk-size", "600",
            "--out", str(out),
        ])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("chunk_id,")

    def test_matrix_skips_play_without_eligible_speaker(self, data_dir, tmp_path):
        interchange = tmp_path / "synthia.json"
        main([
            "parse", str(data_dir / "synthetic" / "two_category.txt"),
            "--play-id", "synthia", "--language", "syn", "--out", str(interchange),
        ])
        chunking = ["--min-size", "3000", "--chunk-count", "5", "--chunk-size", "600"]
        alone, mixed = tmp_path / "alone.csv", tmp_path / "mixed.csv"
        assert main(["matrix", str(interchange), *chunking, "--out", str(alone)]) == 0
        miniature = data_dir / "golden" / "miniature_play.json"
        rc = main(["matrix", str(interchange), str(miniature), *chunking, "--out", str(mixed)])
        assert rc == 0
        assert mixed.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("permutations", 0),
        ("chunk_count", 1),
        ("chunk_size", 0),
        ("significance", 0.0),
        ("significance", 1.0),
    ])
    def test_out_of_range_setting_is_2(self, configs_dir, tmp_path, field, value):
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        config[field] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_permutations_override_is_validated(self, configs_dir, tmp_path):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--permutations", "0", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2

    def test_report_subcommand(self, configs_dir, tmp_path, capsys):
        main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--permutations", "50", "--mode", "letter_unigram",
            "--out", str(tmp_path / "out"),
        ])
        rc = main([
            "report", str(tmp_path / "out" / "synthetic_two_category" / "report.json"),
        ])
        assert rc == 0
        shown = capsys.readouterr().out
        assert "alfa" in shown and "bravo" in shown
