import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from dramastyle import (
    ConfigError,
    PipelineError,
    PreconditionFailed,
    compare_translations,
    load_config,
    run_experiment,
)
from dramastyle import experiment
from dramastyle.cli import build_parser, main
from dramastyle.errors import NoEligibleCharacters
from dramastyle.experiment import CorpusEntry, ExperimentConfig, prepare_chunks
from dramastyle.ingest import PlayScript, SpeechTurn
from dramastyle.tokenization import TokenizationMode, count_matrix
from reference_counts import _ref_tokenize


def _play(play_id, speakers):
    """A play in which each (name, chars) speaker has one turn of `chars` characters."""
    turns = tuple(SpeechTurn(name, "x" * chars, i) for i, (name, chars) in enumerate(speakers))
    return PlayScript(play_id, "x", "original", turns)


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
            ExperimentConfig(experiment_id="x", corpus=())

    # the pipeline keys a file by (play_id, translator), whatever its language
    @pytest.mark.parametrize("language", ["en", "de"])
    def test_duplicate_play_per_translator_rejected(self, language):
        entry = CorpusEntry(path="p.txt", play_id="p", language="en", translator="t")
        with pytest.raises(ConfigError, match=r"each \(play_id, translator\) must name one"):
            ExperimentConfig(
                experiment_id="x", corpus=(entry, replace(entry, language=language)),
                min_size=100, chunk_count=2, chunk_size=50,
            )

    def test_unknown_mode_rejected(self, configs_dir, tmp_path):
        with pytest.raises(ConfigError):
            synthetic_config(configs_dir, tmp_path, modes=("syllable_trigram",))

    # a config checks its fields when it is built, and replace builds one too
    @pytest.mark.parametrize("field, value", [
        ("permutations", 0), ("permutations", 1.5), ("permutations", True),
        ("chunk_count", 1), ("chunk_size", 0), ("min_size", 100), ("min_size", "10000"),
        ("significance", 0.0), ("significance", 1.0), ("significance", True),
        ("seed", -1), ("seed", 2**64), ("seed", "42"),
        ("experiment_id", ".."), ("experiment_id", 5), ("output_dir", 5),
        ("modes", ()), ("modes", "letter_unigram"), ("modes", (5,)),
        ("modes", ("letter_ngram:3", "letter_ngram:3")), ("modes", ("letter_ngram",)),
        ("labeling", "x"), ("labeling", 5),
    ])
    def test_config_is_checked_when_built(self, configs_dir, tmp_path, field, value):
        config = synthetic_config(configs_dir, tmp_path)
        with pytest.raises(ConfigError):
            ExperimentConfig(**{"experiment_id": "x", "corpus": config.corpus, "min_size": 3000,
                                "chunk_count": 5, "chunk_size": 600, field: value})
        with pytest.raises(ConfigError):
            replace(config, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("path", 5), ("play_id", 5), ("language", None), ("translator", ["a"]),
        ("latin1_fallback", "no"), ("speaker_aliases", ["x"]), ("speaker_aliases", {"kari": 1}),
        ("parse_rules", {"delimiters": []}), ("parse_rules", {"max_heading_words": 0}),
        ("parse_rules", ["x"]),
    ])
    def test_corpus_entry_is_checked_when_built(self, field, value):
        with pytest.raises(ConfigError):
            CorpusEntry(**{"path": "p.txt", "play_id": "p", "language": "en", field: value})
        with pytest.raises(ConfigError):
            replace(CorpusEntry(path="p.txt", play_id="p", language="en"), **{field: value})


class TestRunExperiment:
    def test_synthetic_two_category(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path, modes=("letter_unigram",))
        report = run_experiment(config)
        section = report["modes"]["letter_unigram"]
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

    @pytest.mark.parametrize("name", ["synthetic_two_category", "synthetic_translations"])
    def test_attribution_hits_are_the_nulls_observed_hits(self, configs_dir, tmp_path, name):
        config = load_config(configs_dir / f"{name}.json", permutations=300,
                             output_dir=str(tmp_path / "out"))
        for section in run_experiment(config)["modes"].values():
            observed = section["attribution_null"]["observed"]
            assert list(observed) == [c["category"] for c in section["categories"]]
            for category in section["categories"]:
                assert category["attribution_hits"] == observed[category["category"]]

    def test_run_meta_records_stage_timings_and_sizes(self, configs_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path))
        out = tmp_path / "out" / "synthetic_two_category"
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        # the warnings live in report.json only
        assert set(meta) == {
            "written_at", "timings", "sizes", "encoding_fallbacks", "eligibility", "token_totals",
        }
        assert set(meta["timings"]) == {
            "ingest", "extract", "segmentation", "permutation_orders",
            "analysis:letter_unigram", "analysis:word_unigram", "report",
        }
        assert all(secs >= 0 for secs in meta["timings"].values())
        assert set(meta["sizes"]) == {"letter_unigram", "word_unigram"}
        for sizes in meta["sizes"].values():
            assert set(sizes) == {
                "chunks", "pairs", "vocabulary", "support_mean", "token_total_min",
                "token_total_max", "permutations",
            }
            assert sizes["pairs"] == sizes["chunks"] * (sizes["chunks"] - 1) // 2
            assert 1 <= sizes["support_mean"] <= sizes["vocabulary"]
            assert 0 < sizes["token_total_min"] <= sizes["token_total_max"]
            assert sizes["permutations"] == 300
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert "timings" not in report and "sizes" not in report

    def test_run_meta_records_eligibility_decisions(self, configs_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path, permutations=50))
        out = tmp_path / "out" / "synthetic_two_category"
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["eligibility"] == [
            {"play_id": "synthia", "translator": "original", "speaker": speaker,
             "chars": chars, "kept": True}
            for speaker, chars in (("alfa", 3410), ("bravo", 3409))
        ]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(report) == {"experiment_id", "config", "modes", "warnings", "settings"}

    def test_eligibility_records_excluded_speakers_and_skipped_plays(self):
        _, eligibility = prepare_chunks(
            [_play("p", [("ALFA", 300), ("CHARLIE", 199), ("BRAVO", 200)]),
             _play("q", [("DELTA", 50)])],
            "character", 200, 2, 100,
        )
        assert eligibility == [
            {"play_id": "p", "translator": "original", "speaker": "ALFA", "chars": 300,
             "kept": True},
            {"play_id": "p", "translator": "original", "speaker": "CHARLIE", "chars": 199,
             "kept": False},
            {"play_id": "p", "translator": "original", "speaker": "BRAVO", "chars": 200,
             "kept": True},
            {"play_id": "q", "translator": "original", "speaker": "DELTA", "chars": 50,
             "kept": False},
        ]

    def test_speaker_at_min_size_is_kept(self):
        chunks, _ = prepare_chunks([_play("p", [("ALFA", 200), ("BRAVO", 201)])],
                                   "character", 200, 2, 100)
        assert sorted({c.category for c in chunks}) == ["ALFA", "BRAVO"]

    @pytest.mark.parametrize("plays", [[], [_play("p", [("ALFA", 199), ("BRAVO", 50)])]],
                             ids=["no_plays", "all_too_short"])
    def test_no_speaker_reaching_min_size_fails(self, plays):
        with pytest.raises(PipelineError) as err:
            prepare_chunks(plays, "character", 200, 2, 100)
        assert err.value.stage == "segmentation"
        assert isinstance(err.value.cause, NoEligibleCharacters)

    def test_play_without_eligible_speaker_is_skipped(self):
        chunks, _ = prepare_chunks(
            [_play("p", [("ALFA", 200), ("BRAVO", 200)]), _play("q", [("DELTA", 199)])],
            "character", 200, 2, 100,
        )
        assert {c.source for c in chunks} == {("p", "original", "ALFA"),
                                              ("p", "original", "BRAVO")}

    def test_each_shuffle_drawn_once_per_run(self, configs_dir, tmp_path, monkeypatch):
        calls, draw_orders = [], experiment.draw_orders

        def recording(n, permutations, seed):
            calls.append((n, permutations, seed))
            return draw_orders(n, permutations, seed)

        monkeypatch.setattr(experiment, "draw_orders", recording)
        config = synthetic_config(configs_dir, tmp_path, permutations=130, seed=5)
        assert config.modes == ("letter_unigram", "word_unigram")
        report = run_experiment(config)
        n = sum(c["attribution_total"] for c in report["modes"]["letter_unigram"]["categories"])
        assert calls == [(n, 130, 5)]

    def test_one_homogeneity_call_per_mode(self, configs_dir, tmp_path, monkeypatch):
        calls, permutation_baselines = [], experiment.permutation_baselines

        def recording(matrix, labels, orders):
            calls.append(len(orders))
            return permutation_baselines(matrix, labels, orders)

        def unused(matrix, labels):
            raise AssertionError("attribute_chunks called by run_experiment")

        monkeypatch.setattr(experiment, "permutation_baselines", recording)
        monkeypatch.setattr(experiment, "attribute_chunks", unused)
        config = synthetic_config(configs_dir, tmp_path, permutations=130)
        assert len(run_experiment(config)["modes"]) == 2
        assert calls == [130, 130]

    @pytest.mark.parametrize("command, config_name", [
        (run_experiment, "synthetic_two_category"),
        (compare_translations, "synthetic_translations"),
    ], ids=["run", "compare_translations"])
    def test_stages_are_never_nested_or_timed_twice(self, configs_dir, tmp_path, monkeypatch,
                                                    command, config_name):
        # a stage's seconds are its own and written once only if this holds
        stage, open_stages, nested, timed, opened = experiment._stage, [], [], [], []

        @contextmanager
        def recording(name, timings=None):
            opened.append(name)
            if open_stages:
                nested.append((open_stages[-1], name))
            if timings is not None:
                timed.append(name)
            open_stages.append(name)
            try:
                with stage(name, timings):
                    yield
            finally:
                open_stages.pop()

        monkeypatch.setattr(experiment, "_stage", recording)
        command(load_config(configs_dir / f"{config_name}.json", permutations=50,
                            output_dir=str(tmp_path / "out")))
        meta = json.loads((tmp_path / "out" / config_name / "run_meta.json").read_text())
        assert nested == []
        assert timed == list(meta["timings"])
        assert len(set(opened)) == len(opened), opened

    def test_speaker_aliases_match_case_folded_names(self):
        # raw names, as parse_play leaves them with name_normalization off
        turns = tuple(SpeechTurn(speaker, text * 100, i) for i, (speaker, text) in enumerate([
            ("ALFA.", "a "), ("STRAßE.", "b "), ("BRAVO.", "c "),
        ]))
        play = PlayScript("p", "x", "original", turns)
        aliases = {("p", "original"): {"alfa.": "strasse", "STRASSE.": "Straße"}}
        chunks, _ = prepare_chunks([play], "character", 200, 2, 100, aliases)
        assert sorted({c.source[2] for c in chunks}) == ["BRAVO.", "strasse"]

    def test_latin1_fallback_is_reported(self, configs_dir, data_dir, tmp_path):
        play = tmp_path / "latin1.txt"
        text = (data_dir / "synthetic" / "two_category.txt").read_text(encoding="utf-8")
        play.write_bytes(f"édition de 1901\n\n{text}".encode("latin-1"))
        config = synthetic_config(configs_dir, tmp_path, permutations=10)
        entry = CorpusEntry(path=str(play), play_id="synthia", language="synthetic",
                            latin1_fallback=True)
        config = replace(config, corpus=(entry,))
        report = run_experiment(config)
        assert report["warnings"] == ["synthia/original: latin-1 fallback"]

    def test_no_eligible_characters_reports_segmentation_stage(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path, min_size=10**6,
                                  chunk_count=2, chunk_size=100)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "segmentation"
        assert isinstance(err.value.cause, NoEligibleCharacters)

    @pytest.mark.parametrize("command", [run_experiment, compare_translations],
                             ids=["run", "compare_translations"])
    @pytest.mark.parametrize("experiment_id", ["", ".", "..", "a/b", "a\\b"])
    def test_experiment_id_must_be_one_path_component(self, configs_dir, tmp_path, command,
                                                      experiment_id):
        sibling = tmp_path / "out" / "other_experiment"
        sibling.mkdir(parents=True)
        (sibling / "report.json").write_text("{}")
        config = load_config(configs_dir / "synthetic_translations.json",
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="experiment_id"):
            command(replace(config, experiment_id=experiment_id))
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == [sibling.name]
        assert (sibling / "report.json").read_text() == "{}"

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

    @pytest.mark.parametrize("command, experiment", [
        (run_experiment, "synthetic_two_category"),
        (compare_translations, "synthetic_translations"),
    ], ids=["run", "compare_translations"])
    def test_failed_rerun_keeps_previous_results(self, configs_dir, tmp_path, command,
                                                 experiment):
        def config(**overrides):
            return load_config(configs_dir / f"{experiment}.json", permutations=300,
                               output_dir=str(tmp_path / "out"), **overrides)

        command(config())
        out = tmp_path / "out" / experiment
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(PipelineError):
            command(config(min_size=10**6, chunk_count=2, chunk_size=100))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in (tmp_path / "out").iterdir()] == [out.name]

    def test_jobs_do_not_change_output_bytes(self, configs_dir, tmp_path):
        files = {}
        for jobs in (1, 8):
            config = synthetic_config(
                configs_dir, tmp_path, output_dir=str(tmp_path / f"out{jobs}")
            )
            run_experiment(config)
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

    @pytest.mark.parametrize("mode", ["letter_unigram", "word_unigram"])
    def test_matrix_matches_golden(self, configs_dir, data_dir, tmp_path, mode):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        matrix = tmp_path / "out" / "synthetic_two_category" / f"matrix_{mode}.csv"
        golden = data_dir / "golden" / f"synthetic_two_category_matrix_{mode}.csv"
        assert matrix.read_bytes() == golden.read_bytes()

    def test_report_matches_golden(self, configs_dir, data_dir, tmp_path):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        report = json.loads(
            (tmp_path / "out" / "synthetic_two_category" / "report.json").read_text("utf-8")
        )
        # `config` is left out: it echoes absolute paths
        pinned = {key: report[key] for key in ("modes", "warnings", "settings")}
        golden = data_dir / "golden" / "synthetic_two_category_report.json"
        text = json.dumps(pinned, ensure_ascii=False, indent=2) + "\n"
        assert text == golden.read_text(encoding="utf-8")

    def test_chunk_manifest_matches_golden(self, configs_dir, data_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path))
        manifest = tmp_path / "out" / "synthetic_two_category" / "chunk_manifest.csv"
        golden = data_dir / "golden" / "synthetic_two_category_chunk_manifest.csv"
        assert manifest.read_bytes() == golden.read_bytes()

    def test_letter_ngram_matrix_matches_golden(self, data_dir, tmp_path):
        play = tmp_path / "two.json"
        assert main([
            "parse", str(data_dir / "synthetic" / "two_category.txt"), "--play-id", "synthia",
            "--language", "synthetic", "--out", str(play),
        ]) == 0
        matrix = tmp_path / "matrix.csv"
        assert main([
            "matrix", str(play), "--mode", "letter_ngram:3", "--min-size", "3000",
            "--chunk-count", "5", "--chunk-size", "600", "--out", str(matrix),
        ]) == 0
        golden = data_dir / "golden" / "synthetic_two_category_matrix_letter_ngram3.csv"
        assert matrix.read_bytes() == golden.read_bytes()

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


class TestRunMetaRecords:
    @pytest.mark.parametrize("command, config_name, labeling, fallback", [
        (run_experiment, "synthetic_two_category", "character", "original"),
        (compare_translations, "synthetic_translations", "character_by_translator", "beta"),
    ], ids=["run", "compare_translations"])
    def test_token_totals_and_encoding_fallbacks(self, configs_dir, tmp_path, command,
                                                 config_name, labeling, fallback):
        config = load_config(configs_dir / f"{config_name}.json", permutations=20,
                             output_dir=str(tmp_path / "out"))
        corpus = []
        for e in config.corpus:
            if e.translator == fallback:
                latin1 = tmp_path / f"{e.play_id}_{e.translator}.txt"
                text = Path(e.path).read_text(encoding="utf-8")
                latin1.write_bytes(f"édition de 1901\n\n{text}".encode("latin-1"))
                e = replace(e, path=str(latin1), latin1_fallback=True)
            corpus.append(e)
        config = replace(config, corpus=tuple(corpus))
        command(config)
        meta = json.loads(
            (tmp_path / "out" / config_name / "run_meta.json").read_text(encoding="utf-8")
        )
        assert meta["encoding_fallbacks"] == [f"synthia/{fallback}"]
        chunks = experiment._chunk_corpus(replace(config, labeling=labeling), {})[0]
        modes = [TokenizationMode.parse(spec) for spec in config.modes]
        assert meta["token_totals"] == {
            mode.name: {c.chunk_id: sum(_ref_tokenize(c.text, mode).values()) for c in chunks}
            for mode in modes
        }
        for mode in modes:
            totals = meta["token_totals"][mode.name].values()
            assert meta["sizes"][mode.name]["token_total_min"] == min(totals)
            assert meta["sizes"][mode.name]["token_total_max"] == max(totals)

    @pytest.mark.parametrize("command, config_name", [
        (run_experiment, "synthetic_two_category"),
        (compare_translations, "synthetic_translations"),
    ], ids=["run", "compare_translations"])
    def test_utf8_corpus_has_no_encoding_fallbacks(self, configs_dir, tmp_path, command,
                                                   config_name):
        command(load_config(configs_dir / f"{config_name}.json", permutations=20,
                            output_dir=str(tmp_path / "out")))
        meta = json.loads(
            (tmp_path / "out" / config_name / "run_meta.json").read_text(encoding="utf-8")
        )
        assert meta["encoding_fallbacks"] == []

    @pytest.mark.parametrize("command, config_name", [
        (run_experiment, "synthetic_two_category"),
        (compare_translations, "synthetic_translations"),
    ], ids=["run", "compare_translations"])
    def test_token_totals_are_chunk_matrix_row_sums(self, configs_dir, tmp_path, command,
                                                    config_name):
        config = load_config(configs_dir / f"{config_name}.json", permutations=20,
                             output_dir=str(tmp_path / "out"))
        command(config)
        meta = json.loads(
            (tmp_path / "out" / config_name / "run_meta.json").read_text(encoding="utf-8")
        )
        chunks = sorted(experiment._chunk_corpus(config, {})[0], key=lambda c: c.chunk_id)
        for spec in config.modes:
            mode = TokenizationMode.parse(spec)
            matrix, _, totals = experiment.chunk_matrix(chunks, mode)
            rows = count_matrix([c.text for c in chunks], mode).sum(axis=1)
            assert totals == dict(zip(matrix.chunk_ids, rows.tolist()))
            assert all(type(total) is int for total in totals.values())
            assert totals == meta["token_totals"][mode.name]


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

    def test_run_meta_records_timings_sizes_and_warnings(self, configs_dir, data_dir, tmp_path):
        config = load_config(
            configs_dir / "synthetic_translations.json",
            permutations=100, output_dir=str(tmp_path / "out"),
        )
        beta = tmp_path / "translation_b.txt"
        text = (data_dir / "synthetic" / "translation_b.txt").read_text(encoding="utf-8")
        beta.write_bytes(f"édition de 1901\n\n{text}".encode("latin-1"))
        corpus = tuple(
            replace(e, path=str(beta), latin1_fallback=True) if e.translator == "beta" else e
            for e in config.corpus
        )
        compare_translations(replace(config, corpus=corpus))
        out = tmp_path / "out" / "synthetic_translations"
        assert (out / "cross_attribution.csv").exists()
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert set(meta["timings"]) == {
            "ingest", "extract", "segmentation", "cross:letter_unigram", "report",
        }
        assert set(meta["sizes"]) == {"letter_unigram"}
        assert set(meta["sizes"]["letter_unigram"]) == {
            "chunks", "pairs", "vocabulary", "support_mean", "token_total_min",
            "token_total_max",
        }
        assert meta["warnings"] == ["synthia/beta: latin-1 fallback"]

    def test_run_meta_records_eligibility_per_translator(self, configs_dir, tmp_path):
        config = load_config(configs_dir / "synthetic_translations.json",
                             output_dir=str(tmp_path / "out"))
        rows = compare_translations(config)
        out = tmp_path / "out" / "synthetic_translations"
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["eligibility"] == [
            {"play_id": "synthia", "translator": translator, "speaker": speaker,
             "chars": chars, "kept": True}
            for translator in ("alpha", "beta")
            for speaker, chars in (("ola", 3408), ("kari", 3412))
        ]
        assert {(r["translator"], r["speaker"]) for r in rows} == {
            (e["translator"], e["speaker"]) for e in meta["eligibility"]
        }

    def test_cross_table_matches_golden(self, configs_dir, data_dir, tmp_path):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_translations.json"),
            "--compare-translations", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        table = tmp_path / "out" / "synthetic_translations" / "cross_attribution.csv"
        golden = data_dir / "golden" / "synthetic_translations_cross.csv"
        assert table.read_bytes() == golden.read_bytes()

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

    def test_precondition_failed_in_a_stage_is_2(self, configs_dir, tmp_path, capsys,
                                                 monkeypatch):
        def failing(*args):
            raise PreconditionFailed("no orders")

        monkeypatch.setattr(experiment, "draw_orders", failing)
        rc = main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == "error: [permutation_orders] no orders\n"
        assert not (tmp_path / "out" / "synthetic_two_category").exists()

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

    def test_matrix_repeated_play_and_translator_is_2(self, data_dir, tmp_path, capsys):
        # a run's config rejects such files; matrix learns the keys by reading them
        plays = []
        for name, language in (("translation_a", "en"), ("translation_b", "de")):
            play = tmp_path / f"{name}.json"
            assert main(["parse", str(data_dir / "synthetic" / f"{name}.txt"),
                         "--play-id", "synthia", "--language", language, "--translator", "t",
                         "--out", str(play)]) == 0
            plays.append(str(play))
        capsys.readouterr()
        out = tmp_path / "matrix.csv"
        rc = main(["matrix", *plays, "--min-size", "3000", "--chunk-count", "5",
                   "--chunk-size", "600", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: [extract] each (play_id, translator) must name one play: ('synthia', 't')\n"
        )
        assert not out.exists()

    def test_matrix_defaults_are_the_configs(self):
        args = build_parser().parse_args(["matrix", "f.json", "--out", "o"])
        assert args.mode == ExperimentConfig.modes[0]
        assert args.labeling == ExperimentConfig.labeling
        assert args.min_size == ExperimentConfig.min_size
        assert args.chunk_count == ExperimentConfig.chunk_count
        assert args.chunk_size == ExperimentConfig.chunk_size

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
        ("seed", -1),
        ("seed", 2**64),
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

    def test_negative_seed_option_is_2(self, configs_dir, tmp_path):
        rc = main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                   "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", ["[]", '"x"'])
    def test_config_that_is_not_an_object_is_2(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: top level must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("permutations", 1.5),
        ("permutations", True),
        ("min_size", "10000"),
        ("chunk_count", "5"),
        ("chunk_size", 2000.0),
        ("seed", "42"),
        ("seed", 4.2),
        ("significance", "0.05"),
        ("significance", True),
        ("experiment_id", 5),
        ("output_dir", 5),
        ("modes", "letter_unigram"),
        ("modes", [5]),
        ("corpus.path", 5),
        ("corpus.play_id", 5),
        ("corpus.translator", ["a"]),
        ("corpus.latin1_fallback", "no"),
        ("labeling", 5),
        ("labeling", ["character"]),
    ])
    def test_wrongly_typed_setting_is_2(self, configs_dir, tmp_path, capsys, monkeypatch,
                                        field, value):
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        config["output_dir"] = str(tmp_path / "out")
        target = config["corpus"][0] if field.startswith("corpus.") else config
        target[field.removeprefix("corpus.")] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)  # where an output_dir of 5 would go
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field.replace('.', ' ')} must be ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("parse_rules", [
        {"delimiters": []},
        {"delimiter": ["."]},
        {"stage_direction_brackets": [["[", "]"], ["(", "["]]},
        {"max_heading_words": 0},
        {"max_heading_words": -1},
        {"max_heading_words": True},
    ])
    def test_bad_parse_rules_is_2(self, configs_dir, tmp_path, parse_rules):
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
            entry["parse_rules"] = parse_rules
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        *((marker, value) for marker in ("boilerplate_start", "boilerplate_end")
          for value in ("", 5, None, ["***"], "*** START\nOF", "*** END\r", "***\u2028",
                        "\x1c***", "**\x85*")),
        ("name_normalization", "yes"),
        ("name_normalization", 1),
        ("name_normalization", None),
    ])
    def test_bad_marker_or_name_normalization_is_2(self, tmp_path, capsys, key, value):
        # the corpus file does not exist: only a check made before it is read exits 2
        config = {
            "experiment_id": "x",
            "corpus": [{"path": str(tmp_path / "missing.txt"), "play_id": "p",
                        "language": "en", "translator": "t", "parse_rules": {key: value}}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: p/t: parse_rules: {key} must be ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("compare", [[], ["--compare-translations"]],
                             ids=["run", "compare_translations"])
    @pytest.mark.parametrize("modes, aliases", [
        ([], {}),
        (["letter_ngram:3", "word_unigram", "letter_ngram:3"], {}),
        (["letter_unigram"], ["x"]),
        (["letter_unigram"], {"kari": 1}),
        (["letter_unigram:3"], {}),
        (["letter_ngram"], {}),
        (["letter_ngram:1"], {}),
        (["letter_ngram:03"], {}),
        (["word_ngram"], {}),
    ], ids=["no_modes", "same_mode_name", "aliases_not_mapping", "alias_not_string",
            "unigram_with_n", "ngram_without_n", "ngram_of_one", "padded_n",
            "word_ngram_without_n"])
    def test_bad_modes_or_speaker_aliases_is_2(self, configs_dir, tmp_path, compare,
                                               modes, aliases):
        config = json.loads((configs_dir / "synthetic_translations.json").read_text())
        config["modes"] = modes
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
            entry["speaker_aliases"] = aliases
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *compare])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    # matrix takes no --jobs at all
    @pytest.mark.parametrize("jobs, command", [("0", "run"), ("-1", "run"), ("1", "matrix")])
    def test_jobs_below_one_is_2(self, configs_dir, tmp_path, command, jobs):
        if command == "run":
            args = ["run", "--config", str(configs_dir / "synthetic_two_category.json")]
        else:
            args = ["matrix", str(tmp_path / "play.json")]
        with pytest.raises(SystemExit) as exit_:
            main([*args, "--jobs", jobs, "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_compare_translations_needs_two_translators_is_2(self, configs_dir, tmp_path,
                                                             capsys):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--compare-translations", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: two translators of one play required\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, problem", [
        (["--mode", "bogus"], "unknown"),
        (["--labeling", "bogus"], "unknown"),
        (["--mode", "letter_unigram:3"], "unknown tokenization mode 'letter_unigram:3'"),
        (["--mode", "letter_ngram"], "unknown tokenization mode 'letter_ngram'"),
        (["--mode", "letter_ngram:1"], "unknown tokenization mode 'letter_ngram:1'"),
        (["--mode", "letter_ngram:03"], "unknown tokenization mode 'letter_ngram:03'"),
        (["--mode", "word_ngram"], "unknown tokenization mode 'word_ngram'"),
    ], ids=["mode", "labeling", "unigram_with_n", "ngram_without_n", "ngram_of_one",
            "padded_n", "word_ngram_without_n"])
    def test_matrix_bad_mode_or_labeling_is_2(self, data_dir, tmp_path, capsys, option,
                                              problem):
        out = tmp_path / "matrix.csv"
        rc = main(["matrix", str(data_dir / "golden" / "miniature_play.json"), *option,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert problem in err
        assert not out.exists()

    @pytest.mark.parametrize("compare", [[], ["--compare-translations"]],
                             ids=["run", "compare_translations"])
    @pytest.mark.parametrize("spec", [
        "letter_unigram:3", "letter_ngram", "letter_ngram:1", "word_ngram", "letter_ngram:03",
    ])
    def test_run_mode_of_another_spelling_is_2(self, configs_dir, tmp_path, capsys, compare,
                                               spec):
        rc = main(["run", "--config", str(configs_dir / "synthetic_translations.json"),
                   "--mode", spec, "--out", str(tmp_path / "out"), *compare])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: unknown tokenization mode {spec!r}; expected letter_unigram, word_unigram, "
            "letter_ngram:N or word_ngram:N with N in 2..5\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("chunking", [
        ["--min-size", "100", "--chunk-count", "1", "--chunk-size", "50"],
        ["--min-size", "0"],
        ["--min-size", "100", "--chunk-count", "2", "--chunk-size", "0"],
        ["--min-size", "100", "--chunk-count", "2", "--chunk-size", "200"],
    ], ids=["one_chunk", "zero_min_size", "zero_chunk_size", "over_min_size"])
    def test_matrix_bad_chunking_is_2(self, data_dir, tmp_path, capsys, chunking):
        out = tmp_path / "matrix.csv"
        rc = main(["matrix", str(data_dir / "golden" / "miniature_play.json"), *chunking,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: chunk_") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content, problem", [
        ('{"play_id": "x", "language"', "invalid interchange JSON"),
        ('{"play_id": "x"}', "interchange JSON lacks key 'language'"),
    ], ids=["truncated", "missing_key"])
    def test_matrix_bad_interchange_json_is_3(self, tmp_path, capsys, content, problem):
        play = tmp_path / "play.json"
        play.write_text(content)
        out = tmp_path / "matrix.csv"
        assert main(["matrix", str(play), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {play}: {problem}") and err.count("\n") == 1
        assert not out.exists()

    def test_matrix_checks_chunking_before_reading(self, tmp_path, capsys):
        rc = main(["matrix", str(tmp_path / "missing.json"), "--chunk-size", "0",
                   "--out", str(tmp_path / "matrix.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: chunk_size must be at least 1\n"

    def test_bad_labeling_in_config_is_2(self, configs_dir, tmp_path, capsys):
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        config["labeling"] = "bogus"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: unknown labeling mode 'bogus'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("permutations", ["0", "1000001", "1000000000000"])
    def test_permutations_override_is_validated(self, configs_dir, tmp_path, capsys,
                                                permutations):
        rc = main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--permutations", permutations, "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: permutations must lie in [1, 1000000]\n"
        assert not (tmp_path / "out").exists()

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


    @pytest.mark.parametrize("content", ['{"experiment_id": "x", "settings"',
                                         '{"experiment_id": "x", "modes": {}}'],
                             ids=["invalid_json", "missing_settings"])
    def test_report_of_non_report_is_3(self, tmp_path, capsys, content):
        report = tmp_path / "report.json"
        report.write_text(content)
        assert main(["report", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {report}: not a report: ")
        assert captured.err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    """The runtime needs NumPy only; SciPy is a test-time oracle."""
    probe = (
        "import sys, dramastyle.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_loads_no_numpy_random(configs_dir, tmp_path):
    """The shuffle is plain NumPy integer arithmetic: a run never imports
    `numpy.random`, whose import alone costs megabytes of resident memory."""
    config = configs_dir / "synthetic_two_category.json"
    probe = (
        "import sys; from dramastyle.cli import main; "
        f"rc = main(['run', '--config', {str(config)!r}, '--permutations', '20', "
        f"'--out', {str(tmp_path / 'out')!r}]); "
        "print(rc, sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
