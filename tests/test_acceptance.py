"""Acceptance suite: one test per release criterion, stated tolerances.

Each test prints a PASS line on success (run with `pytest -v -s
tests/test_acceptance.py` to see them); a failing criterion fails the
suite.
"""
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from dramastyle import (
    DissimilarityMatrix,
    PlayScript,
    SpeechTurn,
    matrix_from_counts,
    rank_pairs,
    draw_orders,
    permutation_baselines,
)
from dramastyle.cli import main
from dramastyle.experiment import load_config, prepare_chunks, run_experiment
from chunk_config import chunk_config
from reference_counts import _rows

REPO = Path(__file__).resolve().parent.parent


def score(ca, cb):
    """The score of one pair of token -> count maps: a 2-row matrix."""
    return float(matrix_from_counts(["a", "b"], _rows([ca, cb])).scores[0, 1])


def oracle_chi_square(counts_a, counts_b):
    """Independent brute-force transcription of the pooled formula."""
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    union = set(counts_a) | set(counts_b)
    total = 0.0
    for token in union:
        a = counts_a.get(token, 0)
        b = counts_b.get(token, 0)
        ea = na * (a + b) / (na + nb)
        eb = nb * (a + b) / (na + nb)
        total += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
    return total / len(union)


def random_counts(rng, max_tokens=20, max_count=50):
    tokens = rng.choice(list("abcdefghijklmnopqrstuvwxyz"),
                        size=rng.integers(1, max_tokens + 1), replace=False)
    return {t: int(rng.integers(1, max_count + 1)) for t in tokens}


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    for _ in range(200):
        ca, cb = random_counts(rng), random_counts(rng)
        got = score(ca, cb)
        want = oracle_chi_square(ca, cb)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS metric oracle equivalence (200 pairs, {elapsed:.3f}s)")


def test_hand_computed_values():
    got = score({"a": 2, "b": 2}, {"a": 1, "b": 3})
    assert abs(got - 4 / 15) <= 1e-12
    got = score({"a": 2}, {"b": 2})
    assert abs(got - 2.0) <= 1e-12
    assert score({"x": 3, "y": 9}, {"x": 3, "y": 9}) == 0.0
    print("\nPASS hand-computed metric values")


def test_count_scaling_law():
    rng = np.random.default_rng(777)
    for _ in range(50):
        ca, cb = random_counts(rng), random_counts(rng)
        base = score(ca, cb)
        for k in (2, 3, 10):
            scaled = score({t: k * v for t, v in ca.items()}, {t: k * v for t, v in cb.items()})
            assert abs(scaled - k * base) <= 1e-9 * max(abs(k * base), 1e-30)
    print("\nPASS count scaling law (50 pairs, k in {2,3,10})")


def _four_chunk_instance(rng):
    ids = ("x1", "x2", "y1", "y2")
    while True:
        vals = rng.random(6)
        if len(set(vals)) == 6:
            break
    scores = np.zeros((4, 4))
    scores[np.triu_indices(4, 1)] = vals
    return DissimilarityMatrix(ids, scores + scores.T)


def test_permutation_exactness_four_chunks():
    labels = {"x1": "x", "x2": "x", "y1": "y", "y2": "y"}
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    orders = draw_orders(4, 10000, seed=42)
    for _ in range(20):
        matrix = _four_chunk_instance(rng)
        rank_matrix = rank_pairs(matrix)
        label_list = [labels[c] for c in matrix.chunk_ids]
        own = [i for i, lab in enumerate(label_list) if lab == "x"]
        observed = rank_matrix[np.ix_(own, own)].sum() / 2
        arrangements = sorted(set(itertools.permutations(label_list)))
        hits = 0
        for arr in arrangements:
            members = [i for i, lab in enumerate(arr) if lab == "x"]
            stat = rank_matrix[np.ix_(members, members)].sum() / 2
            hits += stat <= observed
        exact = hits / len(arrangements)
        baselines = permutation_baselines(matrix, labels, orders)
        mc = baselines.rank_sum_p[baselines.attribution.categories.index("x")]
        assert abs(mc - exact) <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS permutation exactness (20 instances, {elapsed:.2f}s)")


def test_null_calibration():
    rng = np.random.default_rng(99)
    probs = np.full(15, 1 / 15)
    tokens = list("abcdefghijklmno")
    start = time.perf_counter()
    orders = draw_orders(10, 499, seed=7)
    low = 0
    for _ in range(200):
        maps = []
        for i in range(10):
            draws = rng.multinomial(400, probs)
            maps.append({t: int(c) for t, c in zip(tokens, draws) if c > 0})
        matrix = matrix_from_counts([f"c{i}" for i in range(10)], _rows(maps))
        labels = {f"c{i}": ("a" if i < 5 else "b") for i in range(10)}
        baselines = permutation_baselines(matrix, labels, orders)
        p = baselines.rank_sum_p[baselines.attribution.categories.index("a")]
        low += p < 0.05
    elapsed = time.perf_counter() - start
    fraction = low / 200
    assert 0.01 <= fraction <= 0.12, fraction
    assert elapsed < 60.0
    print(f"\nPASS null calibration (fraction {fraction:.3f}, {elapsed:.1f}s)")


def test_separation_power():
    # two disjoint-support categories: total-variation distance 1 >= 0.3
    rng = np.random.default_rng(5)
    tokens_a = list("abcdefgh")
    tokens_b = list("ijklmnop")
    ids, maps = [], []
    for cat, tokens in (("a", tokens_a), ("b", tokens_b)):
        for i in range(5):
            draws = rng.multinomial(1500, np.full(8, 1 / 8))
            ids.append(f"{cat}#{i}")
            maps.append({t: int(c) for t, c in zip(tokens, draws) if c})
    matrix = matrix_from_counts(ids, _rows(maps))
    labels = {cid: cid[0] for cid in ids}
    baselines = permutation_baselines(matrix, labels, draw_orders(10, 40000, seed=42))
    assert baselines.attribution.categories == ("a", "b")
    assert baselines.hits.tolist() == [5, 5]
    for cat, rs_p, attr_p in zip("ab", baselines.rank_sum_p, baselines.attribution_p):
        assert rs_p <= 0.01, (cat, rs_p)
        assert attr_p <= 0.01, (cat, attr_p)
    print("\nPASS separation power (10/10 hits, p <= 0.01 both categories)")


def test_chunking_conformance():
    text = "".join(chr(97 + i % 26) for i in range(10000))
    # turns joined with a space; a speaker one character short is not kept
    turns = [("a", text[:4000]), ("b", "y" * 10000), ("a", text[4001:]), ("c", text[:9998])]
    play = PlayScript("p", "x", "original",
                      tuple(SpeechTurn(s, t, i) for i, (s, t) in enumerate(turns)))
    chunks, eligibility = prepare_chunks([play], chunk_config([play], "character", 10000, 5, 2000))
    mine = [c.text for c in chunks if c.category == "a"]
    assert len(mine) == 5
    assert all(len(c) == 2000 for c in mine)
    assert "".join(mine) == text[:4000] + " " + text[4001:]
    assert [(r["speaker"], r["kept"]) for r in eligibility] == [
        ("a", True), ("b", True), ("c", False)
    ]
    print("\nPASS chunking conformance")


def test_parser_golden_file(tmp_path):
    out = tmp_path / "parsed.json"
    rc = main([
        "parse", str(REPO / "data" / "miniature_play.txt"),
        "--play-id", "miniature", "--language", "english",
        "--translator", "original", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_bytes() == (REPO / "data" / "golden" / "miniature_play.json").read_bytes()
    print("\nPASS parser golden file (byte-for-byte)")


def test_run_determinism_across_jobs(tmp_path):
    outputs = {}
    for jobs in (1, 8):
        out_dir = tmp_path / f"jobs{jobs}"
        rc = main([
            "run", "--config", str(REPO / "configs" / "synthetic_two_category.json"),
            "--permutations", "500", "--jobs", str(jobs), "--out", str(out_dir),
        ])
        assert rc == 0
        run = out_dir / "synthetic_two_category"
        outputs[jobs] = {p.name: p.read_bytes() for p in run.iterdir()
                         if p.name != "run_meta.json"}
    assert outputs[1].keys() == outputs[8].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[8][name], name
    print("\nPASS determinism across --jobs 1/8 (byte-identical)")


CORPORA = REPO / "corpora"


@pytest.mark.skipif(not CORPORA.exists(), reason="user-downloaded corpora not present")
def test_full_corpus_eleven_characters(tmp_path):
    config = load_config(
        REPO / "configs" / "ibsen_translations.json",
        output_dir=str(tmp_path / "out"), permutations=1000,
    )
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    for mode in ("letter_unigram", "word_unigram"):
        assert mode in report["modes"]
        categories = {c["category"] for c in report["modes"][mode]["categories"]}
        # requires the alias tables in the config to map each language's
        # speaker names onto the canonical character names
        assert len(categories) == 11, sorted(categories)
    assert elapsed < 120.0
    print(f"\nPASS full-corpus run: 11 characters, both modes ({elapsed:.1f}s)")
