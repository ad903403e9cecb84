"""README keyword relevance via PageRank over a word co-occurrence graph.

A repository description is considered relevant when one of the target
keywords ranks among the top-K words of its co-occurrence graph (or the
two-word spelling "web assembly" appears with both halves ranked well).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

DEFAULT_KEYWORDS = ("wasm", "webassembly", "web assembly", "emscripten")
DEFAULT_WINDOW = 3
DEFAULT_DAMPING = 0.85
DEFAULT_EPS = 1e-6
DEFAULT_MAX_ITER = 100
DEFAULT_TOP_K = 15

# Fixed English stopword list (~120 words).
STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he her here hers
    herself him himself his how i if in into is isn't it its itself just let
    me more most mustn't my myself no nor not of off on once only or other
    ought our ours ourselves out over own same shan't she should shouldn't so
    some such than that the their theirs them themselves then there these
    they this those through to too under until up very was wasn't we were
    weren't what when where which while who whom why with won't would
    wouldn't you your yours yourself yourselves
    """.split()
)

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_'-]*")


def extract_candidates(text: str) -> list[str]:
    """Lowercased content words, markdown stripped, stopwords removed."""
    tokens = []
    for m in _WORD_RE.finditer(text):
        tok = m.group().lower().strip("'-_")
        if len(tok) < 2 or tok in STOPWORDS:
            continue
        tokens.append(tok)
    return tokens


@dataclass
class LemmaGraph:
    nodes: list[str] = field(default_factory=list)
    # undirected weighted adjacency: node -> {neighbor: weight}
    adj: dict[str, dict[str, float]] = field(default_factory=dict)


def build_graph(tokens: list[str], window: int = DEFAULT_WINDOW) -> LemmaGraph:
    if window < 2:
        raise ValueError("window must be >= 2")
    graph = LemmaGraph()
    seen = set()
    for tok in tokens:
        if tok not in seen:
            seen.add(tok)
            graph.nodes.append(tok)
            graph.adj[tok] = {}
    for i, tok in enumerate(tokens):
        for j in range(i + 1, min(i + window, len(tokens))):
            other = tokens[j]
            if other == tok:
                continue
            graph.adj[tok][other] = graph.adj[tok].get(other, 0.0) + 1.0
            graph.adj[other][tok] = graph.adj[other].get(tok, 0.0) + 1.0
    return graph


def pagerank(
    graph: LemmaGraph,
    damping: float = DEFAULT_DAMPING,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, float]:
    """Weighted PageRank by power iteration; scores normalized to sum 1."""
    if not (0.0 < damping < 1.0):
        raise ValueError("damping must be in (0, 1)")
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return {}
    position = {v: i for i, v in enumerate(nodes)}
    degree = {v: sum(graph.adj[v].values()) for v in nodes}
    # Each node's in-links as (source position, share of the source's weight);
    # a neighbour's degree is at least the weight of this edge, so never 0.
    inbound = [
        [(position[u], w / degree[u]) for u, w in graph.adj[v].items()] for v in nodes
    ]
    scores = [1.0 / n] * n
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        new = []
        for links in inbound:
            rank = teleport
            for u, share in links:
                rank += damping * scores[u] * share
            new.append(rank)
        residual = sum(abs(a - b) for a, b in zip(new, scores))
        scores = new
        if residual < eps:
            break
    scores = dict(zip(nodes, scores))
    total = sum(scores.values())
    if total > 0:
        scores = {v: s / total for v, s in scores.items()}
    return scores


def rank(
    tokens: list[str],
    window: int = DEFAULT_WINDOW,
    damping: float = DEFAULT_DAMPING,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> dict[str, float]:
    if not tokens:
        return {}
    return pagerank(build_graph(tokens, window), damping, eps, max_iter)


def top_ranked(scores: dict[str, float], k: int) -> list[tuple[str, float]]:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]


@dataclass
class RelevanceVerdict:
    relevant: bool
    top_words: list[tuple[str, float]]
    matched_keyword: str | None = None

    def to_dict(self) -> dict:
        return {
            "relevant": self.relevant,
            "matched_keyword": self.matched_keyword,
            "top_words": [
                {"word": w, "score": round(s, 6)} for w, s in self.top_words
            ],
        }


def is_relevant(
    text: str,
    keywords=DEFAULT_KEYWORDS,
    top_k: int = DEFAULT_TOP_K,
    window: int = DEFAULT_WINDOW,
    damping: float = DEFAULT_DAMPING,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RelevanceVerdict:
    tokens = extract_candidates(text)
    scores = rank(tokens, window, damping, eps, max_iter)
    top = top_ranked(scores, top_k)
    top_words = {w for w, _ in top}

    singles = [k.lower() for k in keywords if " " not in k]
    bigrams = [tuple(k.lower().split()) for k in keywords if " " in k]

    for kw in singles:
        if kw in top_words:
            return RelevanceVerdict(True, top, matched_keyword=kw)
    wide_top = {w for w, _ in top_ranked(scores, 2 * top_k)}
    for first, second in bigrams:
        occurs = any(
            tokens[i] == first and tokens[i + 1] == second
            for i in range(len(tokens) - 1)
        )
        if occurs and first in wide_top and second in wide_top:
            return RelevanceVerdict(True, top, matched_keyword=f"{first} {second}")
    return RelevanceVerdict(False, top)
