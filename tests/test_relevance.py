import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasmsmell.relevance import (
    LemmaGraph,
    build_graph,
    extract_candidates,
    is_relevant,
    pagerank,
    rank,
    top_ranked,
)


def numpy_pagerank(nodes, adj, damping=0.85, eps=1e-6, max_iter=100):
    """Independent dense power-iteration oracle for the weighted walk."""
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    m = np.zeros((n, n))
    for v in nodes:
        deg = sum(adj[v].values())
        for u, w in adj[v].items():
            if deg > 0:
                m[idx[u], idx[v]] = w / deg  # column-stochastic: mass out of v
    scores = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        new = teleport + damping * (m @ scores)
        if np.abs(new - scores).sum() < eps:
            scores = new
            break
        scores = new
    return scores / scores.sum()


def dict_loop_pagerank(graph, damping=0.85, eps=1e-6, max_iter=100):
    """The power iteration as it once was: dicts keyed by word, and each
    edge's share of its source's degree computed inside the loop."""
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return {}
    degree = {v: sum(graph.adj[v].values()) for v in nodes}
    scores = {v: 1.0 / n for v in nodes}
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        new = {}
        for v in nodes:
            rank = teleport
            for u, w in graph.adj[v].items():
                if degree[u] > 0:
                    rank += damping * scores[u] * (w / degree[u])
            new[v] = rank
        residual = sum(abs(new[v] - scores[v]) for v in nodes)
        scores = new
        if residual < eps:
            break
    total = sum(scores.values())
    if total > 0:
        scores = {v: s / total for v, s in scores.items()}
    return scores


README_TEXTS = [
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
    "This library compiles C code to wasm modules. The wasm output runs in"
    " browsers and servers. Use wasm for portable sandboxed execution.",
    "A sorting library for integers and floats. Includes quicksort, mergesort,"
    " heapsort and insertion sort with extensive benchmarks across compilers.",
    "Web assembly tooling: this project targets web assembly runtimes and"
    " provides web assembly loaders plus assembly helpers for the web.",
    " ".join(f"topic{i} detail{i} notes{i}" for i in range(60)) + " wasm",
]


@pytest.mark.parametrize("text", README_TEXTS)
@pytest.mark.parametrize("window", [2, 3, 5])
def test_pagerank_bit_identical_to_dict_loop_on_readmes(text, window):
    graph = build_graph(extract_candidates(text), window)
    assert pagerank(graph) == dict_loop_pagerank(graph)
    assert pagerank(graph, damping=0.5, eps=1e-12) == dict_loop_pagerank(graph, 0.5, 1e-12)


@pytest.mark.parametrize("seed", range(40))
def test_pagerank_bit_identical_to_dict_loop_on_random_graphs(seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(1, 60))]
    graph = LemmaGraph(nodes=list(words), adj={w: {} for w in words})
    for _ in range(rng.randint(0, 4 * len(words))):
        a, b = rng.sample(words, 2) if len(words) > 1 else (words[0], words[0])
        if a != b:
            w = rng.choice([1.0, 2.0, 0.5, rng.random() + 0.01])
            graph.adj[a][b] = graph.adj[a].get(b, 0.0) + w
            graph.adj[b][a] = graph.adj[b].get(a, 0.0) + w
    damping = rng.uniform(0.05, 0.95)
    max_iter = rng.choice([1, 5, 100])
    assert pagerank(graph, damping, 1e-9, max_iter) == dict_loop_pagerank(graph, damping, 1e-9, max_iter)


def test_single_node_rank_is_exactly_one():
    graph = build_graph(["wasm"])
    scores = pagerank(graph)
    assert scores == {"wasm": 1.0}


def test_two_node_symmetric_ranks_equal():
    graph = build_graph(["alpha", "beta"])
    scores = pagerank(graph)
    assert abs(scores["alpha"] - scores["beta"]) < 1e-9
    assert abs(sum(scores.values()) - 1.0) < 1e-9


def test_three_node_path_matches_numpy_oracle():
    # tokens "aa bb cc" with window 2 give the path graph aa - bb - cc
    graph = build_graph(["aa", "bb", "cc"], window=2)
    scores = pagerank(graph)
    oracle = numpy_pagerank(graph.nodes, graph.adj)
    for node, expected in zip(graph.nodes, oracle):
        assert scores[node] == pytest.approx(expected, abs=1e-6)
    assert scores["bb"] > scores["aa"]  # the middle node is best connected


def test_weighted_repetition_matches_numpy_oracle():
    tokens = "wasm speed wasm speed wasm other".split()
    graph = build_graph(tokens)
    scores = pagerank(graph)
    oracle = numpy_pagerank(graph.nodes, graph.adj)
    for node, expected in zip(graph.nodes, oracle):
        assert scores[node] == pytest.approx(expected, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from("aa bb cc dd ee ff gg hh".split()),
        min_size=1,
        max_size=40,
    )
)
def test_rank_vector_sums_to_one(tokens):
    scores = rank(tokens)
    assert abs(sum(scores.values()) - 1.0) < 1e-9
    assert all(s >= 0 for s in scores.values())


def test_extract_candidates_filters():
    tokens = extract_candidates("The Quick module, a wasm thing! It is fast.")
    assert "the" not in tokens
    assert "a" not in tokens
    assert "it" not in tokens
    assert "quick" in tokens
    assert "wasm" in tokens


def test_extract_candidates_drops_single_letters():
    assert extract_candidates("x y module") == ["module"]


def test_build_graph_no_self_edges():
    graph = build_graph(["aa", "aa", "bb"])
    assert "aa" not in graph.adj["aa"]


def test_window_must_be_at_least_two():
    with pytest.raises(ValueError):
        build_graph(["aa"], window=1)


def test_empty_text_not_relevant():
    verdict = is_relevant("")
    assert not verdict.relevant
    assert verdict.top_words == []


def test_wasm_heavy_readme_relevant():
    text = """
    This library compiles C code to wasm modules. The wasm output runs in
    browsers and servers. Use wasm for portable sandboxed execution.
    """
    verdict = is_relevant(text)
    assert verdict.relevant
    assert verdict.matched_keyword == "wasm"


def test_prose_readme_not_relevant():
    text = """
    A sorting library for integers and floats. Includes quicksort, mergesort,
    heapsort and insertion sort with extensive benchmarks across compilers.
    """
    assert not is_relevant(text).relevant


def test_keyword_buried_in_long_text_not_relevant():
    filler = " ".join(f"topic{i} detail{i} notes{i}" for i in range(60))
    text = filler + " wasm " + filler
    assert not is_relevant(text, top_k=5).relevant


def test_two_word_spelling_matches():
    text = """
    Web assembly tooling: this project targets web assembly runtimes and
    provides web assembly loaders plus assembly helpers for the web.
    """
    verdict = is_relevant(text)
    assert verdict.relevant
    assert verdict.matched_keyword == "web assembly"


def test_custom_keywords():
    text = "cheerp cheerp compiler output for cheerp users"
    assert is_relevant(text, keywords=["cheerp"]).relevant
    assert not is_relevant(text, keywords=["wasm"]).relevant


def test_top_ranked_tie_break_is_alphabetical():
    scores = {"bb": 0.5, "aa": 0.5}
    assert [w for w, _ in top_ranked(scores, 2)] == ["aa", "bb"]
