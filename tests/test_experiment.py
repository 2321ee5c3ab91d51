import copy
import csv
import gc
import itertools
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dramastyle import (
    ConfigError,
    DissimilarityMatrix,
    PipelineError,
    PreconditionFailed,
    RawDocument,
    StatisticsError,
    compare_translations,
    draw_orders,
    load_config,
    load_document,
    parse_play,
    permutation_baselines,
    rank_pairs,
    run_experiment,
    strip_boilerplate,
)
from dramastyle import experiment
from dramastyle.cli import build_parser, main
from dramastyle.experiment import CorpusEntry, ExperimentConfig, prepare_chunks
from dramastyle.homogeneity import attribute_chunks
from dramastyle.ingest import ParseRules, PlayScript
from dramastyle.tokenization import TokenizationMode, count_matrix
from chunk_config import chunk_config
from reference_counts import _ref_tokenize


def _play(play_id, speakers):
    """A play in which each (name, chars) speaker has one turn of `chars` characters;
    names are as parse_play writes them."""
    return PlayScript(play_id, "x", "original", [name for name, _ in speakers],
                      ["x" * chars for _, chars in speakers])


def synthetic_config(configs_dir, tmp_path, **overrides):
    overrides.setdefault("permutations", 300)
    overrides.setdefault("output_dir", str(tmp_path / "out"))
    return load_config(configs_dir / "synthetic_two_category.json", **overrides)


def _exact_rank_sum_moments(ranks, codes):
    """Each category's exact rank-sum mean and variance under uniform orders.

    A category of m of the n chunks is a uniform m-subset, which holds a
    given set of k chunks with probability p_k = C(n-k, m-k)/C(n, m). With
    sums over the unordered pairs and s_i the row sums of `ranks`,
    E[R] = p2 Σr and E[R²] = p2 Σr² + p3 (Σs² - 2Σr²) + p4 ((Σr)² + Σr² - Σs²):
    a pair with itself, two pairs that share a chunk, two disjoint pairs.
    """
    n = len(codes)
    total, squares = ranks.sum() / 2, (ranks ** 2).sum() / 2
    rows = (ranks.sum(axis=1) ** 2).sum()
    moments = []
    for m in np.bincount(codes).tolist():
        p2, p3, p4 = (math.comb(n - k, m - k) / math.comb(n, m) if k <= m else 0.0
                      for k in (2, 3, 4))
        mean = p2 * total
        second = (p2 * squares + p3 * (rows - 2 * squares)
                  + p4 * (total ** 2 + squares - rows))
        moments.append((mean, second - mean ** 2))
    return moments


def test_exact_rank_sum_moments_match_enumeration():
    rng = np.random.default_rng(7)
    n, codes = 7, np.array([0, 0, 0, 1, 1, 2, 2])
    scores = np.zeros((n, n))
    scores[np.triu_indices(n, 1)] = np.round(rng.random(n * (n - 1) // 2), 1)  # ties
    ranks = rank_pairs(DissimilarityMatrix(tuple("abcdefg"), scores + scores.T))
    for m, (mean, variance) in zip(np.bincount(codes), _exact_rank_sum_moments(ranks, codes)):
        sums = [sum(ranks[a, b] for a, b in itertools.combinations(subset, 2))
                for subset in itertools.combinations(range(n), m)]
        assert mean == pytest.approx(np.mean(sums), rel=1e-12)
        assert variance == pytest.approx(np.var(sums), rel=1e-12)


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
        ("chunk_count", 1), ("chunk_count", 0), ("chunk_size", 0), ("chunk_size", -1),
        # 5 chunks of 600 need a min_size of at least 3000
        ("min_size", 100), ("min_size", 2999), ("min_size", "10000"),
        ("significance", 0.0), ("significance", 1.0), ("significance", True),
        ("seed", -1), ("seed", 2**64), ("seed", "42"),
        ("experiment_id", ".."), ("experiment_id", 5), ("output_dir", 5),
        ("modes", ()), ("modes", "letter_unigram"), ("modes", (5,)),
        ("modes", ("letter_ngram:3", "letter_ngram:3")), ("modes", ("letter_ngram",)),
        ("labeling", "x"), ("labeling", 5), ("corpus", ({"path": "a"},)),
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
        ("speaker_aliases", (("kari",),)), ("speaker_aliases", [("kari", "k")]),
        # ambiguous tables: two targets for one normalized name, a renamed
        # target, a name that normalizes to nothing
        ("speaker_aliases", {"Nora": "a", "nora.": "b"}),
        ("speaker_aliases", {"a": "b", "b": "c"}), ("speaker_aliases", {"a": "b", "B.": "a"}),
        ("speaker_aliases", {" .": "x"}), ("speaker_aliases", {"x": ";"}),
        ("parse_rules", {"delimiters": []}), ("parse_rules", {"max_heading_words": 0}),
        ("parse_rules", ["x"]),
    ])
    def test_corpus_entry_is_checked_when_built(self, field, value):
        with pytest.raises(ConfigError):
            CorpusEntry(**{"path": "p.txt", "play_id": "p", "language": "en", field: value})
        with pytest.raises(ConfigError):
            replace(CorpusEntry(path="p.txt", play_id="p", language="en"), **{field: value})

    # each of the next two reached a stage unchecked when fields were mutable
    def test_speaker_aliases_are_read_only(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path)
        with pytest.raises(TypeError):
            config.corpus[0].speaker_aliases["alfa"] = 5
        entry = CorpusEntry(path="p.txt", play_id="p", language="en",
                            speaker_aliases={"Kari": "kari", "a": "b"})
        assert entry.speaker_aliases == (("kari", "kari"), ("a", "b"))
        assert replace(entry, path="q.txt").speaker_aliases == entry.speaker_aliases
        assert copy.deepcopy(entry) == pickle.loads(pickle.dumps(entry)) == entry

    def test_speaker_aliases_are_stored_normalized_once_per_name(self):
        # as parse_play writes speakers; names that normalize alike and agree are one
        entry = CorpusEntry(path="p.txt", play_id="p", language="en", speaker_aliases={
            "MRS.  ALVING.": "Mrs Alving", "mrs. alving": "mrs alving:", "X .": "x",
            "Solness": "solness",
        })
        assert entry.speaker_aliases == (
            ("mrs. alving", "mrs alving"), ("x", "x"), ("solness", "solness"),
        )
        # built again, as load_config and replace do, the pairs stay the same
        assert replace(entry, path="q.txt").speaker_aliases == entry.speaker_aliases

    def test_config_with_byte_order_mark_loads(self, configs_dir, tmp_path):
        # as a play file does
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(json.dumps(config), encoding="utf-8")
        bom.write_text(json.dumps(config), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(bom) == load_config(plain)

    def test_replaced_modes_and_corpus_are_tuples(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path)
        config = replace(config, modes=["letter_unigram"], corpus=list(config.corpus))
        assert config.modes == ("letter_unigram",)
        assert type(config.corpus) is tuple
        with pytest.raises(AttributeError):
            config.modes.append("letter_unigram")


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
    def test_report_layout(self, configs_dir, tmp_path, name):
        # each value is written once; a new field is a deliberate edit here
        config = load_config(configs_dir / f"{name}.json", permutations=300,
                             output_dir=str(tmp_path / "out"))
        run_experiment(config)
        out = tmp_path / "out" / name
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert list(report) == ["config", "modes", "warnings"]
        assert list(report["modes"]) == [TokenizationMode.parse(m).name for m in config.modes]
        for section in report["modes"].values():
            assert list(section) == ["categories", "attribution"]
            for cat in section["categories"]:
                assert list(cat) == [
                    "category", "rank_sum", "rank_sum_p", "attribution_hits",
                    "attribution_total", "attribution_p", "rank_sum_null", "attribution_null",
                ]
                assert list(cat["rank_sum_null"]) == ["null_mean", "null_sd", "null_min",
                                                      "null_max"]
                assert list(cat["attribution_null"]) == ["null_mean"]
            for record in section["attribution"]:
                assert list(record) == ["chunk_id", "attributed_category"]

    @pytest.mark.parametrize("name", ["synthetic_two_category", "synthetic_translations"])
    def test_returned_report_is_report_json(self, configs_dir, tmp_path, name):
        config = load_config(configs_dir / f"{name}.json", permutations=50,
                             output_dir=str(tmp_path / "out"))
        report = run_experiment(config)
        text = (tmp_path / "out" / name / "report.json").read_text(encoding="utf-8")
        assert report == json.loads(text)
        assert text == json.dumps(report, ensure_ascii=False, indent=2) + "\n"

    @pytest.mark.parametrize("name", ["synthetic_two_category", "synthetic_translations"])
    def test_category_means_follow_from_the_csvs(self, configs_dir, tmp_path, name):
        # Each chunk's category means, leave-one-out in its own category, and
        # its true category and hit, from chunk_manifest.csv and
        # matrix_<mode>.csv alone. A 6-decimal entry is within 5e-7 of the
        # score, so the mean is too; a gap above 1e-6 between the two least
        # means cannot flip. Bounds fixed in advance.
        config = load_config(configs_dir / f"{name}.json", permutations=20,
                             output_dir=str(tmp_path / "out"))
        report = run_experiment(config)
        out = tmp_path / "out" / name
        with open(out / "chunk_manifest.csv", newline="", encoding="utf-8") as f:
            category = {row["chunk_id"]: row["category"] for row in csv.DictReader(f)}
        chunks, _, _ = experiment._chunk_corpus(config, {})
        for spec in config.modes:
            mode = TokenizationMode.parse(spec)
            section = report["modes"][mode.name]
            with open(out / f"matrix_{mode.name}.csv", newline="", encoding="utf-8") as f:
                (_, *ids), *rows = csv.reader(f)
            scores = np.array([[float(v) for v in row[1:]] for row in rows])
            assert [row[0] for row in rows] == ids
            names = sorted(set(category.values()))
            member = np.array([[category[cid] == c for c in names] for cid in ids])
            sizes = member.sum(axis=0) - member  # leave the chunk itself out
            means = np.array([[scores[i, member[:, k]].sum() / sizes[i, k]
                               for k in range(len(names))] for i in range(len(ids))])
            matrix = experiment.chunk_matrix(chunks, mode)[0]
            exact = attribute_chunks(matrix, category).means
            assert list(matrix.chunk_ids) == ids
            assert np.all(np.abs(means - exact) <= 5e-7 + 1e-12 * np.abs(exact))
            assert [r["chunk_id"] for r in section["attribution"]] == ids
            # the manifest's category is the matrix row's own, and a hit is
            # that category equal to the attributed one
            own = [category[cid] for cid in ids]
            assert own == [c.category for c in sorted(chunks, key=lambda c: c.chunk_id)]
            attributed = [r["attributed_category"] for r in section["attribution"]]
            assert [(c["category"], c["attribution_hits"], c["attribution_total"])
                    for c in section["categories"]] == [
                (c, sum(o == a == c for o, a in zip(own, attributed)), own.count(c))
                for c in names
            ]
            ordered = np.sort(means, axis=1)
            clear = (ordered[:, 1] - ordered[:, 0] > 1e-6).tolist()
            for record, k, is_clear in zip(section["attribution"], means.argmin(axis=1), clear):
                assert not is_clear or record["attributed_category"] == names[k]

    def test_run_meta_records_stage_timings_and_sizes(self, configs_dir, data_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path))
        out = tmp_path / "out" / "synthetic_two_category"
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        # the warnings live in report.json only
        assert set(meta) == {
            "written_at", "timings", "sizes", "blas", "corpus_paths", "turns",
            "encoding_fallbacks", "eligibility", "token_totals",
        }
        assert meta["corpus_paths"] == [str(data_dir / "synthetic" / "two_category.txt")]
        assert meta["turns"] == [32]
        assert set(meta["timings"]) == {
            "ingest", "extract", "segmentation", "permutation_orders",
            *(f"{stage}:{mode}" for stage in ("tokenize", "matrix", "statistics")
              for mode in ("letter_unigram", "word_unigram")),
            "report",
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

    def test_run_meta_records_numpys_blas(self, configs_dir, tmp_path, monkeypatch):
        run_experiment(synthetic_config(configs_dir, tmp_path, permutations=20))
        meta = json.loads(
            (tmp_path / "out" / "synthetic_two_category" / "run_meta.json").read_text()
        )
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        keys = ["name", "version", "openblas configuration"]
        assert meta["blas"] == {key: blas.get(key) for key in keys}
        assert meta["blas"]["name"] and meta["blas"]["version"]
        # a build configuration without the keys gives nulls, not a failed run
        monkeypatch.setattr(np, "show_config", lambda mode: {})
        assert experiment._blas() == dict.fromkeys(keys)

    def test_run_meta_records_eligibility_decisions(self, configs_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path, permutations=50))
        out = tmp_path / "out" / "synthetic_two_category"
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["eligibility"] == [
            {"play_id": "synthia", "translator": "original", "speaker": speaker,
             "chars": chars, "chars_used": 5 * 600, "kept": True}
            for speaker, chars in (("alfa", 3410), ("bravo", 3409))
        ]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(report) == {"config", "modes", "warnings"}

    def test_eligibility_records_excluded_speakers_and_skipped_plays(self):
        plays = [_play("p", [("alfa", 300), ("charlie", 199), ("bravo", 200)]),
                 _play("q", [("delta", 50)])]
        _, eligibility = prepare_chunks(plays, chunk_config(plays, "character", 200, 2, 100))
        assert eligibility == [
            {"play_id": "p", "translator": "original", "speaker": "alfa", "chars": 300,
             "chars_used": 200, "kept": True},
            {"play_id": "p", "translator": "original", "speaker": "charlie", "chars": 199,
             "chars_used": 0, "kept": False},
            {"play_id": "p", "translator": "original", "speaker": "bravo", "chars": 200,
             "chars_used": 200, "kept": True},
            {"play_id": "q", "translator": "original", "speaker": "delta", "chars": 50,
             "chars_used": 0, "kept": False},
        ]

    def test_speaker_at_min_size_is_kept(self):
        plays = [_play("p", [("alfa", 200), ("bravo", 201)])]
        chunks, _ = prepare_chunks(plays, chunk_config(plays, "character", 200, 2, 100))
        assert sorted({c.category for c in chunks}) == ["alfa", "bravo"]

    @pytest.mark.parametrize("plays", [[], [_play("p", [("alfa", 199), ("bravo", 50)])]],
                             ids=["no_plays", "all_too_short"])
    def test_no_speaker_reaching_min_size_fails(self, plays):
        with pytest.raises(PipelineError) as err:
            prepare_chunks(plays, chunk_config(plays, "character", 200, 2, 100))
        assert err.value.stage == "segmentation"
        assert isinstance(err.value.cause, StatisticsError)
        assert str(err.value.cause) == "no character in any play reaches 200 characters"

    def test_repeated_play_and_translator_fails(self):
        # a config rejects two files of one pair; the plays come from the caller
        plays = [_play("p", [("alfa", 200)]), _play("p", [("bravo", 200)])]
        with pytest.raises(PipelineError) as err:
            prepare_chunks(plays, chunk_config(plays, "character", 200, 2, 100))
        assert err.value.stage == "extract"
        assert isinstance(err.value.cause, PreconditionFailed)
        assert str(err.value.cause) == (
            "each (play_id, translator) must name one play: ('p', 'original')"
        )

    def test_play_without_eligible_speaker_is_skipped(self):
        plays = [_play("p", [("alfa", 200), ("bravo", 200)]), _play("q", [("delta", 199)])]
        chunks, _ = prepare_chunks(plays, chunk_config(plays, "character", 200, 2, 100))
        assert {c.source for c in chunks} == {("p", "original", "alfa"),
                                              ("p", "original", "bravo")}

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

    @pytest.mark.parametrize("name", ["synthetic_two_category", "synthetic_translations", None],
                             ids=["synthetic_two_category", "synthetic_translations",
                                  "80_chunks_16_categories"])
    def test_rank_sum_null_centres_on_its_exact_mean(self, configs_dir, tmp_path, monkeypatch,
                                                     name):
        # The bounds, 4 Monte-Carlo standard errors for the mean and 5 for the
        # variance, are fixed in advance: do not change a seed to pass.
        permutations = 10_000
        if name is None:
            # the scale_perm shape, fed straight to the engine: 16 categories of
            # 5 chunks and scores of 2 decimals, so that many pair ranks tie
            rng = np.random.default_rng(2006)
            n = 80
            scores = np.zeros((n, n))
            scores[np.triu_indices(n, 1)] = np.round(rng.random(n * (n - 1) // 2), 2)
            ids = tuple(f"c{i:02d}" for i in range(n))
            matrix = DissimilarityMatrix(ids, scores + scores.T)
            labels = dict(zip(ids, rng.permutation(np.arange(n) % 16).astype(str).tolist()))
            runs = [(matrix, labels, permutation_baselines(
                matrix, labels, draw_orders(n, permutations, 42)))]
        else:
            runs, engine = [], experiment.permutation_baselines

            def recording(matrix, labels, orders):
                runs.append((matrix, labels, engine(matrix, labels, orders)))
                return runs[-1][2]

            monkeypatch.setattr(experiment, "permutation_baselines", recording)
            run_experiment(load_config(configs_dir / f"{name}.json", permutations=permutations,
                                       output_dir=str(tmp_path / "out")))
        assert runs
        for matrix, labels, baselines in runs:
            moments = _exact_rank_sum_moments(rank_pairs(matrix), baselines.attribution.codes)
            for cat, null, (mean, variance) in zip(baselines.attribution.categories,
                                                   baselines.rank_sum_null, moments):
                centred = null - null.mean()
                sample_variance = float((centred ** 2).mean())
                fourth = float((centred ** 4).mean())
                assert abs(null.mean() - mean) <= 4 * (sample_variance / permutations) ** 0.5, cat
                assert abs(sample_variance - variance) <= 5 * (
                    (fourth - sample_variance ** 2) / permutations) ** 0.5, cat

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
    def test_stages_are_never_nested_and_open_once_per_file_or_run(
            self, configs_dir, tmp_path, monkeypatch, command, config_name):
        # a stage's seconds are its own only if no stage is nested in another;
        # the per-file stages sum their seconds over the corpus files
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
        config = load_config(configs_dir / f"{config_name}.json", permutations=50,
                             output_dir=str(tmp_path / "out"))
        command(config)
        meta = json.loads((tmp_path / "out" / config_name / "run_meta.json").read_text())
        assert nested == []
        assert list(dict.fromkeys(timed)) == list(meta["timings"])
        # ingest, extract and segmentation once per file, and segmentation once
        # more to number the chunks; every other stage once
        files = len(config.corpus)
        per_file = {"ingest": files, "extract": files, "segmentation": files + 1}
        assert Counter(opened) == {name: per_file.get(name, 1) for name in opened}, opened

    def test_speaker_aliases_are_normalized_as_headings_are(self):
        # names as parse_play writes the headings ALFA., STRAßE. and BRAVO.
        play = PlayScript("p", "x", "original", ["alfa", "strasse", "bravo"],
                          ["a " * 100, "b " * 100, "c " * 100])
        aliases = {("p", "original"): {"ALFA.": "strasse", "STRASSE.": "Straße"}}
        chunks, _ = prepare_chunks([play], chunk_config([play], "character", 200, 2, 100, aliases))
        assert sorted({c.source[2] for c in chunks}) == ["bravo", "strasse"]

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

    @pytest.mark.parametrize("compare, record", [
        ([], "report.json"), (["--compare-translations"], "run_meta.json"),
    ], ids=["run", "compare_translations"])
    @pytest.mark.parametrize("aliases, expected", [
        ({"karri": "kari"}, ["synthia/alpha: speaker alias 'karri' names no speaker",
                             "synthia/beta: speaker alias 'karri' names no speaker"]),
        ({"kari": "kari"}, []),
    ], ids=["misspelt", "used"])
    def test_alias_naming_no_speaker_is_a_warning(self, configs_dir, tmp_path, compare,
                                                  record, aliases, expected):
        config = json.loads((configs_dir / "synthetic_translations.json").read_text())
        config["permutations"] = 10
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
            entry["speaker_aliases"] = aliases
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *compare]) == 0
        out = tmp_path / "out" / "synthetic_translations"
        assert json.loads((out / record).read_text())["warnings"] == expected

    def test_no_eligible_characters_reports_segmentation_stage(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path, min_size=10**6,
                                  chunk_count=2, chunk_size=100)
        with pytest.raises(PipelineError) as err:
            run_experiment(config)
        assert err.value.stage == "segmentation"
        assert isinstance(err.value.cause, StatisticsError)
        assert str(err.value.cause) == "no character in any play reaches 1000000 characters"

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

    def test_rerun_into_another_directory_gives_same_bytes(self, configs_dir, tmp_path):
        files = {}
        for name in ("out1", "out2"):
            run_experiment(synthetic_config(configs_dir, tmp_path,
                                            output_dir=str(tmp_path / name)))
            out = tmp_path / name / "synthetic_two_category"
            files[name] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"
            }
        assert files["out1"] == files["out2"]

    def test_report_is_the_same_from_two_checkouts(self, configs_dir, data_dir, tmp_path):
        config = configs_dir / "synthetic_two_category.json"
        play = data_dir / "synthetic" / "two_category.txt"
        reports = []
        for root, out in (("a", "out"), ("b", "out/nested")):
            for source in (config, play):
                copy = tmp_path / root / source.relative_to(configs_dir.parent)
                copy.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(source, copy)
            assert main([
                "run", "--config", str(tmp_path / root / "configs" / config.name),
                "--permutations", "200", "--out", str(tmp_path / root / out),
            ]) == 0
            reports.append(
                (tmp_path / root / out / "synthetic_two_category" / "report.json").read_bytes()
            )
        assert reports[0] == reports[1]

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
        report = tmp_path / "out" / "synthetic_two_category" / "report.json"
        golden = data_dir / "golden" / "synthetic_two_category_report.json"
        assert report.read_bytes() == golden.read_bytes()

    def test_chunk_manifest_matches_golden(self, configs_dir, data_dir, tmp_path):
        run_experiment(synthetic_config(configs_dir, tmp_path))
        manifest = tmp_path / "out" / "synthetic_two_category" / "chunk_manifest.csv"
        golden = data_dir / "golden" / "synthetic_two_category_chunk_manifest.csv"
        assert manifest.read_bytes() == golden.read_bytes()

    def test_letter_ngram_matrix_matches_golden(self, configs_dir, data_dir, tmp_path):
        assert main([
            "run", "--config", str(configs_dir / "synthetic_two_category.json"),
            "--mode", "letter_ngram:3", "--permutations", "20", "--out", str(tmp_path / "out"),
        ]) == 0
        matrix = tmp_path / "out" / "synthetic_two_category" / "matrix_letter_ngram3.csv"
        golden = data_dir / "golden" / "synthetic_two_category_matrix_letter_ngram3.csv"
        assert matrix.read_bytes() == golden.read_bytes()

    def test_config_echo_reproduces_run(self, configs_dir, tmp_path):
        config = synthetic_config(configs_dir, tmp_path)
        run_experiment(config)
        out = tmp_path / "out" / "synthetic_two_category"
        echoed = json.loads((out / "report.json").read_text())["config"]
        paths = json.loads((out / "run_meta.json").read_text())["corpus_paths"]
        first = (out / "report.json").read_bytes()
        rerun = ExperimentConfig(**{
            **echoed, "output_dir": str(tmp_path / "rerun"), "modes": tuple(echoed["modes"]),
            "corpus": tuple(CorpusEntry(path=p, **e) for p, e in zip(paths, echoed["corpus"])),
        })
        assert rerun == replace(config, output_dir=str(tmp_path / "rerun"))
        run_experiment(rerun)
        assert (tmp_path / "rerun" / out.name / "report.json").read_bytes() == first

    def test_corpus_entry_keeps_its_parse_rules(self, configs_dir, tmp_path):
        entry = synthetic_config(configs_dir, tmp_path).corpus[0]
        assert entry.parse_rules == ParseRules()
        moved = replace(entry, path="elsewhere.txt")
        assert moved.parse_rules is entry.parse_rules
        built = CorpusEntry(path="p.txt", play_id="p", language="en",
                            parse_rules={"delimiters": [":"], "max_heading_words": 2})
        assert built.parse_rules == ParseRules(delimiters=(":",), max_heading_words=2)
        assert replace(built, play_id="q").parse_rules == built.parse_rules
        # built and frozen: no later change can reach a stage unchecked
        with pytest.raises(TypeError):
            entry.parse_rules["delimiters"] = []


def _live(kind) -> int:
    gc.collect()
    return sum(isinstance(o, kind) for o in gc.get_objects())


def test_each_file_is_freed_before_the_next_is_loaded(configs_dir, monkeypatch):
    # a run holds one corpus file at a time: when a file is loaded, no
    # earlier file's document and no earlier file's PlayScript is alive
    live = []
    load = experiment.load_document

    def spy(*args, **kwargs):
        live.append((_live(RawDocument), _live(PlayScript) - plays_before))
        return load(*args, **kwargs)

    monkeypatch.setattr(experiment, "load_document", spy)
    # other tests' module-level plays stay alive
    plays_before = _live(PlayScript)
    config = load_config(configs_dir / "synthetic_translations.json")
    experiment._chunk_corpus(config, {})
    assert live == [(0, 0)] * len(config.corpus)


def _parsed_plays(config):
    """Each corpus file of `config` parsed to a PlayScript, as `parse` does."""
    return [
        parse_play(strip_boilerplate(load_document(e.path, latin1_fallback=e.latin1_fallback),
                                     e.parse_rules),
                   e.parse_rules, e.play_id, e.language, e.translator)
        for e in config.corpus
    ]


@pytest.mark.parametrize("config_name", ["synthetic_two_category", "synthetic_translations"])
def test_prepare_chunks_of_parsed_plays_equals_chunk_corpus(configs_dir, config_name):
    config = load_config(configs_dir / f"{config_name}.json")
    chunks, _, records = experiment._chunk_corpus(config, {})
    assert prepare_chunks(_parsed_plays(config), config) == (chunks, records["eligibility"])


@pytest.mark.parametrize("command, outputs", [
    (run_experiment, ("chunk_manifest.csv", "matrix_letter_unigram.csv")),
    (compare_translations, ("cross_attribution.csv",)),
], ids=["run", "compare_translations"])
def test_corpus_order_changes_no_chunk_or_output(configs_dir, tmp_path, command, outputs):
    # the files of both bundled configs: ola and kari speak in two of them, so
    # each of their categories numbers chunks from two files
    two = load_config(configs_dir / "synthetic_two_category.json")
    config = load_config(configs_dir / "synthetic_translations.json", permutations=20,
                         labeling="character")
    config = replace(config, corpus=two.corpus + config.corpus)
    seen = []
    for name, corpus in (("forward", config.corpus), ("reversed", config.corpus[::-1])):
        ordered = replace(config, corpus=corpus, output_dir=str(tmp_path / name))
        chunks, _, records = experiment._chunk_corpus(ordered, {})
        command(ordered)
        out = tmp_path / name / config.experiment_id
        seen.append((chunks, records["eligibility"], [(out / f).read_bytes() for f in outputs]))
    assert {c.category for c in seen[0][0]} == {"alfa", "bravo", "kari", "ola"}
    assert seen[0] == seen[1]


def test_empty_turn_counts_in_its_speakers_chars(data_dir):
    # regina's last turn (ordinal 12) is empty: her dialogue is 32 + 1 + 92 + 1
    # characters, and a window of all of them ends in the empty turn's space
    entry = CorpusEntry(path=str(data_dir / "ingest_edge_cases.txt"), play_id="edge_cases",
                        language="english")
    config = ExperimentConfig(experiment_id="edge_cases", corpus=(entry,), min_size=126,
                              chunk_count=2, chunk_size=63)
    [play] = _parsed_plays(config)
    said = [text for speaker, text in zip(play.speakers, play.texts) if speaker == "regina"]
    joined = " ".join(said)
    assert play.speakers[12] == "regina" and said[-1] == "" and len(joined) == 126
    chunks, _, records = experiment._chunk_corpus(config, {})
    assert [r for r in records["eligibility"] if r["speaker"] == "regina"] == [
        {"play_id": "edge_cases", "translator": "original", "speaker": "regina",
         "chars": 126, "chars_used": 126, "kept": True},
    ]
    assert "".join(c.text for c in chunks if c.category == "regina") == joined
    assert prepare_chunks([play], config) == (chunks, records["eligibility"])


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
        assert set(meta) == {
            "written_at", "timings", "sizes", "blas", "warnings", "corpus_paths", "turns",
            "encoding_fallbacks", "eligibility", "token_totals",
        }
        assert meta["corpus_paths"] == [e.path for e in corpus]
        assert meta["turns"] == [32, 32]
        assert set(meta["timings"]) == {
            "ingest", "extract", "segmentation", "tokenize:letter_unigram",
            "matrix:letter_unigram", "cross:letter_unigram", "report",
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
             "chars": chars, "chars_used": 5 * 600, "kept": True}
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

    def test_nearest_foreign_is_the_reports_least_foreign_mean(self, configs_dir, tmp_path):
        # both commands read one attribution; a tie goes to the smallest name
        config = load_config(configs_dir / "synthetic_translations.json", permutations=10,
                             output_dir=str(tmp_path / "out"))
        rows = compare_translations(config)
        config = replace(config, labeling="character_by_translator")
        report = run_experiment(config)
        manifest = tmp_path / "out" / "synthetic_translations" / "chunk_manifest.csv"
        with open(manifest, newline="", encoding="utf-8") as f:
            own_category = {row["chunk_id"]: row["category"] for row in csv.DictReader(f)}
        chunks, _, _ = experiment._chunk_corpus(config, {})
        labels = {c.chunk_id: c.category for c in chunks}
        expected = []
        for spec in config.modes:
            mode = TokenizationMode.parse(spec)
            attribution = attribute_chunks(experiment.chunk_matrix(chunks, mode)[0], labels)
            names = attribution.categories
            records = report["modes"][mode.name]["attribution"]
            for record, own, means in zip(records, attribution.codes, attribution.means.tolist()):
                assert own_category[record["chunk_id"]] == names[own]
                assert record["attributed_category"] == min(zip(means, names))[1]
                score, category = min((s, c) for k, (s, c) in enumerate(zip(means, names))
                                      if k != own)
                expected.append((mode.name, record["chunk_id"], names[own], category, score))
        assert [
            (r["mode"], r["chunk_id"], r["own_category"], r["nearest_foreign_category"],
             r["nearest_foreign_score"]) for r in rows
        ] == expected

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

    def test_latin1_flag_decodes_and_warns(self, data_dir, tmp_path, capsys):
        text = (data_dir / "miniature_play.txt").read_text(encoding="utf-8")
        text = text.replace("coffee", "café")
        utf8, latin1 = tmp_path / "utf8.txt", tmp_path / "latin1.txt"
        utf8.write_text(text, encoding="utf-8")
        latin1.write_bytes(text.encode("latin-1"))
        args = ["--play-id", "miniature", "--language", "english"]
        assert main(["parse", str(utf8), *args, "--out", str(tmp_path / "utf8.json")]) == 0
        assert main(["parse", str(latin1), *args, "--out", str(tmp_path / "no.json")]) == 3
        capsys.readouterr()
        out = tmp_path / "latin1.json"
        assert main(["parse", str(latin1), *args, "--latin1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: latin1.txt: latin-1 fallback\n"
        assert out.read_bytes() == (tmp_path / "utf8.json").read_bytes()
        assert "café" in out.read_text(encoding="utf-8")

    def test_no_strip_flag_keeps_a_lone_start_marker(self, tmp_path):
        play = tmp_path / "truncated.txt"
        play.write_text("*** START OF THE PLAY ***\n\nNORA. Good morning.\n", encoding="utf-8")
        args = ["parse", str(play), "--play-id", "p", "--language", "english"]
        assert main([*args, "--out", str(tmp_path / "strip.json")]) == 3
        out = tmp_path / "kept.json"
        assert main([*args, "--no-strip", "--out", str(out)]) == 0
        turns = json.loads(out.read_text(encoding="utf-8"))["turns"]
        assert turns == [{"speaker": "nora", "text": "Good morning.", "ordinal": 0}]


# the config echo of a report, as `dramastyle report` reads it
_CONFIG_ECHO = '"config": {"experiment_id": "x", "significance": 0.05, "permutations": 1, "seed": 1}'


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

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"experiment_id": "x\xff", "corpus": []}')
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "utf-8" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    def test_program_fault_in_a_stage_propagates(self, configs_dir, tmp_path, monkeypatch):
        # a fault of the program is neither a corpus error nor hidden in a message
        def failing(*args):
            raise TypeError("a fault")

        monkeypatch.setattr(experiment, "draw_orders", failing)
        with pytest.raises(TypeError, match="a fault"):
            main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                  "--out", str(tmp_path / "out")])
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_non_directory_at_output_path_is_3(self, configs_dir, tmp_path, capsys, kind):
        # moved aside by the swap, it would be left behind as a hidden .old entry
        out = tmp_path / "out"
        out.mkdir()
        final = out / "synthetic_two_category"
        target = tmp_path / "elsewhere"
        if kind == "file":
            final.write_text("kept")
        else:
            target.mkdir()
            (target / "kept.txt").write_text("kept")
            final.symlink_to(target, target_is_directory=True)
        rc = main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                   "--permutations", "20", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {final}: a file or symlink is where the output directory goes\n"
        )
        assert [p.name for p in out.iterdir()] == [final.name]
        if kind == "file":
            assert final.read_text() == "kept"
        else:
            assert os.readlink(final) == str(target)
            assert [(p.name, p.read_text()) for p in target.iterdir()] == [("kept.txt", "kept")]

    def test_run_mode_writes_one_matrix_and_no_matrix_command(
            self, configs_dir, data_dir, tmp_path):
        # argparse rejects `matrix` as an unknown command; run --mode builds one matrix
        with pytest.raises(SystemExit) as exit_:
            main(["matrix", str(data_dir / "golden" / "miniature_play.json"),
                  "--out", str(tmp_path / "matrix.csv")])
        assert exit_.value.code == 2
        assert main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                     "--permutations", "20", "--mode", "letter_unigram",
                     "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / "synthetic_two_category"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert sorted(p.name for p in out.iterdir()) == [
            "chunk_manifest.csv", "matrix_letter_unigram.csv", "report.json", "run_meta.json",
        ]
        golden = data_dir / "golden" / "synthetic_two_category_matrix_letter_unigram.csv"
        assert (out / "matrix_letter_unigram.csv").read_bytes() == golden.read_bytes()

    def test_run_repeated_play_and_translator_is_2(self, configs_dir, tmp_path, capsys):
        # two files of one (play_id, translator), whatever their languages
        config = json.loads((configs_dir / "synthetic_translations.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
            entry["translator"] = "t"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: each (play_id, translator) must name one corpus file\n"
        )
        assert not (tmp_path / "out").exists()

    def test_run_options_default_to_the_configs(self):
        # unset, run's options leave the config's own seed, permutations and modes
        args = build_parser().parse_args(["run", "--config", "c.json"])
        assert args.seed is args.permutations is args.mode is args.out is None

    def test_run_skips_play_without_eligible_speaker(self, configs_dir, data_dir, tmp_path):
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        alone = tmp_path / "alone.json"
        alone.write_text(json.dumps(config))
        # no speaker of the miniature play reaches min_size
        config["corpus"].append({"path": str(data_dir / "miniature_play.txt"),
                                 "play_id": "miniature", "language": "en"})
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(config))
        for cfg in (alone, mixed):
            assert main(["run", "--config", str(cfg), "--permutations", "20",
                         "--out", str(tmp_path / cfg.stem)]) == 0
        written = ["chunk_manifest.csv", "matrix_letter_unigram.csv", "matrix_word_unigram.csv"]
        for name in written:
            path = Path("synthetic_two_category") / name
            assert (tmp_path / "mixed" / path).read_bytes() == \
                (tmp_path / "alone" / path).read_bytes()
        meta = json.loads((tmp_path / "mixed" / "synthetic_two_category" / "run_meta.json")
                          .read_text())
        read = [r["kept"] for r in meta["eligibility"] if r["play_id"] == "miniature"]
        assert read and not any(read)

    @pytest.mark.parametrize("field, value", [
        ("permutations", 0),
        ("min_size", 0),
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
        # a string is not split into characters
        {"delimiters": ".:"},
        {"delimiters": "--"},
        {"stage_direction_brackets": ["[]", "()"]},
        # a heading word is a `str.split` run: no whitespace ends one
        {"delimiters": [" "]},
        {"delimiters": [".", ". "]},
        {"delimiters": ["\t"]},
        {"delimiters": ["a b"]},
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
        # a retired key, now unknown whatever its value: headings are always normalized
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
        err = capsys.readouterr().err
        assert err.startswith("error: p/t: parse_rules: ")
        assert (f"unexpected keyword argument {key!r}" if key == "name_normalization"
                else f"parse_rules: {key} must be ") in err
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
        (["letter_unigram"], {"Nora": "a", "nora": "b"}),
        (["letter_unigram"], {"a": "b", "b": "c"}),
        (["letter_unigram"], {"...": "a"}),
    ], ids=["no_modes", "same_mode_name", "aliases_not_mapping", "alias_not_string",
            "unigram_with_n", "ngram_without_n", "ngram_of_one", "padded_n",
            "word_ngram_without_n", "alias_with_two_targets", "alias_target_renamed",
            "alias_normalizes_to_nothing"])
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

    @pytest.mark.parametrize("jobs, command", [("0", "run"), ("-1", "run")])
    def test_jobs_below_one_is_2(self, configs_dir, tmp_path, command, jobs):
        args = [command, "--config", str(configs_dir / "synthetic_two_category.json")]
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

    @pytest.mark.parametrize("compare", [[], ["--compare-translations"]],
                             ids=["run", "compare_translations"])
    @pytest.mark.parametrize("spec", [
        "bogus", "letter_unigram:3", "letter_ngram", "letter_ngram:1", "word_ngram",
        "letter_ngram:03",
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

    # the corpus file does not exist: only a check made before it is read exits 2
    @pytest.mark.parametrize("option, labeling, problem", [
        (["--mode", "bogus"], "character", "unknown tokenization mode 'bogus'"),
        ([], "bogus", "unknown labeling mode 'bogus'"),
        (["--mode", "letter_unigram:3"], "character",
         "unknown tokenization mode 'letter_unigram:3'"),
        (["--mode", "letter_ngram"], "character", "unknown tokenization mode 'letter_ngram'"),
        (["--mode", "letter_ngram:1"], "character", "unknown tokenization mode 'letter_ngram:1'"),
        (["--mode", "letter_ngram:03"], "character",
         "unknown tokenization mode 'letter_ngram:03'"),
        (["--mode", "word_ngram"], "character", "unknown tokenization mode 'word_ngram'"),
    ], ids=["mode", "labeling", "unigram_with_n", "ngram_without_n", "ngram_of_one",
            "padded_n", "word_ngram_without_n"])
    def test_run_bad_mode_or_labeling_is_2(self, tmp_path, capsys, option, labeling, problem):
        config = {
            "experiment_id": "x", "labeling": labeling,
            "corpus": [{"path": str(tmp_path / "missing.txt"), "play_id": "p", "language": "en"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), *option, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problem}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("chunking", [
        {"min_size": 100, "chunk_count": 1, "chunk_size": 50},
        {"min_size": 0},
        {"min_size": 100, "chunk_count": 2, "chunk_size": 0},
        {"min_size": 100, "chunk_count": 2, "chunk_size": 200},
    ], ids=["one_chunk", "zero_min_size", "zero_chunk_size", "over_min_size"])
    def test_run_bad_chunking_is_2(self, configs_dir, tmp_path, capsys, chunking):
        config = json.loads((configs_dir / "synthetic_two_category.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        del config["min_size"], config["chunk_count"], config["chunk_size"]
        config.update(chunking)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: chunk_") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [[], ["--compare-translations"]], ids=["run", "compare"])
    def test_translator_with_at_sign_is_2(self, configs_dir, tmp_path, capsys, command):
        # else speaker a@x of translator y and speaker a of translator x@y share category a@x@y
        config = json.loads((configs_dir / "synthetic_translations.json").read_text())
        for entry in config["corpus"]:
            entry["path"] = str((configs_dir / entry["path"]).resolve())
        config["corpus"][1]["translator"] = "x@y"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), *command, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: corpus translator must not contain '@', got 'x@y'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_run_checks_chunking_before_reading(self, tmp_path, capsys):
        config = {
            "experiment_id": "x", "chunk_size": 0,
            "corpus": [{"path": str(tmp_path / "missing.txt"), "play_id": "p", "language": "en"}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
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

    def test_report_subcommand(self, configs_dir, data_dir, tmp_path, capsys):
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
        golden = data_dir / "golden" / "synthetic_two_category_report"
        assert main(["report", str(golden.with_suffix(".json"))]) == 0
        rendered = capsys.readouterr().out
        assert rendered.encode() == golden.with_suffix(".txt").read_bytes()
        # an unflagged row has an empty flag column, and no spaces before it at the end
        for out in (shown, rendered):
            assert all(line == line.rstrip() for line in out.splitlines())

    def test_report_renders_reports_with_the_removed_fields(self, data_dir, tmp_path, capsys):
        # a report written before its per-chunk copies, ties and file names
        # were dropped renders as the golden does
        golden = data_dir / "golden" / "synthetic_two_category_report"
        report = json.loads(golden.with_suffix(".json").read_text(encoding="utf-8"))
        with open(data_dir / "golden" / "synthetic_two_category_chunk_manifest.csv",
                  newline="", encoding="utf-8") as f:
            category = {row["chunk_id"]: row["category"] for row in csv.DictReader(f)}
        old = copy.deepcopy(report)
        for mode, section in old["modes"].items():
            section["attribution"] = [
                {"chunk_id": r["chunk_id"], "true_category": category[r["chunk_id"]],
                 "attributed_category": r["attributed_category"],
                 "hit": category[r["chunk_id"]] == r["attributed_category"]}
                for r in section["attribution"]
            ]
            old["modes"][mode] = {"chunk_manifest_ref": "chunk_manifest.csv",
                                  "matrix_ref": f"matrix_{mode}.csv", **section,
                                  "ties_logged": []}
        for name, data in (("new.json", report), ("old.json", old)):
            (tmp_path / name).write_text(json.dumps(data, indent=2), encoding="utf-8")
            assert main(["report", str(tmp_path / name)]) == 0
            assert capsys.readouterr().out.encode() == golden.with_suffix(".txt").read_bytes()


    @pytest.mark.parametrize("content, reason", [
        ('{"config": {"experiment_id": "x"', "JSONDecodeError: "),
        ('{"modes": {}, "warnings": []}', "KeyError: 'config'"),
        (f'{{{_CONFIG_ECHO}, "modes": [], "warnings": []}}', "AttributeError: "),
        (f'{{{_CONFIG_ECHO}, "modes": {{}}, "warnings": "abc"}}',
         "TypeError: warnings must be a list, got str"),
        (f'{{{_CONFIG_ECHO}, "modes": {{}}, "warnings": {{"a": 1}}}}',
         "TypeError: warnings must be a list, got dict"),
        (f'{{{_CONFIG_ECHO}, "modes": {{"m": {{"categories": ""}}}}, "warnings": []}}',
         "TypeError: categories must be a list, got str"),
        (f'{{{_CONFIG_ECHO}, "modes": {{"m": {{"categories": {{}}}}}}, "warnings": []}}',
         "TypeError: categories must be a list, got dict"),
    ], ids=["invalid_json", "missing_config", "modes_not_an_object", "warnings_not_a_list-str",
            "warnings_not_a_list-object", "categories_not_a_list-str",
            "categories_not_a_list-object"])
    def test_report_of_non_report_is_3(self, tmp_path, capsys, content, reason):
        report = tmp_path / "report.json"
        report.write_text(content)
        assert main(["report", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {report}: not a report: {reason}")
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


@pytest.mark.parametrize("command", ["run", "compare", "parse"])
def test_run_loads_no_numpy_random(configs_dir, data_dir, tmp_path, command):
    """The shuffle is plain NumPy integer arithmetic: no command imports
    `numpy.random`, whose import alone costs megabytes of resident memory.
    Nor `logging` (warnings are data) or `secrets` and its hash modules
    (temporary directories are named from `os.urandom`)."""
    argv = {
        "run": ["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                "--permutations", "20", "--out", str(tmp_path / "out")],
        "compare": ["run", "--config", str(configs_dir / "synthetic_translations.json"),
                    "--compare-translations", "--out", str(tmp_path / "out")],
        "parse": ["parse", str(data_dir / "ingest_edge_cases.txt"), "--play-id", "e",
                  "--language", "english", "--out", str(tmp_path / "e.json")],
    }[command]
    banned = ("numpy.random", "logging", "secrets", "hmac", "hashlib", "_hashlib")
    probe = (
        f"import sys; from dramastyle.cli import main; rc = main({argv!r}); "
        f"print(rc, sorted(m for m in sys.modules if m.startswith({banned!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_no_command_reaches_np_unique(configs_dir, data_dir, tmp_path, monkeypatch):
    """Sorted codes, tied ranks and category codes all come from sorting and
    counting runs: the first `np.unique` call of a process would page in
    about 0.6 MB of NumPy code."""
    def unreachable(*args, **kwargs):
        raise AssertionError("np.unique reached")

    monkeypatch.setattr(np, "unique", unreachable)
    golden = data_dir / "golden"
    assert main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                 "--out", str(tmp_path / "out")]) == 0
    report = tmp_path / "out" / "synthetic_two_category" / "report.json"
    assert report.read_bytes() == (golden / "synthetic_two_category_report.json").read_bytes()
    assert main(["run", "--config", str(configs_dir / "synthetic_translations.json"),
                 "--compare-translations", "--out", str(tmp_path / "out")]) == 0
    assert main(["run", "--config", str(configs_dir / "synthetic_two_category.json"),
                 "--mode", "letter_ngram:3", "--permutations", "20",
                 "--out", str(tmp_path / "ngram")]) == 0
    matrix = tmp_path / "ngram" / "synthetic_two_category" / "matrix_letter_ngram3.csv"
    assert matrix.read_bytes() == (
        golden / "synthetic_two_category_matrix_letter_ngram3.csv"
    ).read_bytes()
