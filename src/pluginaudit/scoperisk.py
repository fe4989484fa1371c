"""OAuth scope-string risk categorization via TF-IDF and cosine similarity.

Scope strings are tokenized, vectorized with smoothed TF-IDF over the
whole corpus, and assigned to one of six risk categories by maximum cosine
similarity against per-category seed documents (the category's
characteristic tokens plus known exemplar scope strings). Plugins that do
not mark a scope fall into "unspecified".
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence
from urllib.parse import urlsplit

from .config import StageError
from .jsonfile import read_json
from .numfmt import render_ratio_pct
from .urlnorm import is_absolute_http

CATEGORY_GLOBAL_ACCESS = "global_access"
CATEGORY_READ_WRITE = "read_write"
CATEGORY_OPENAI_PLATFORM = "openai_platform"
CATEGORY_IDENTITY_EMAIL = "identity_email"
CATEGORY_PROJECT_TASK = "project_task"
CATEGORY_EXECUTE_ACTIONS = "execute_actions"
CATEGORY_UNSPECIFIED = "unspecified"

ALL_CATEGORIES = (
    CATEGORY_GLOBAL_ACCESS,
    CATEGORY_READ_WRITE,
    CATEGORY_OPENAI_PLATFORM,
    CATEGORY_IDENTITY_EMAIL,
    CATEGORY_PROJECT_TASK,
    CATEGORY_EXECUTE_ACTIONS,
    CATEGORY_UNSPECIFIED,
)

# Tie-break order for equal similarities: severity first.
CATEGORY_PRIORITY = (
    CATEGORY_GLOBAL_ACCESS,
    CATEGORY_EXECUTE_ACTIONS,
    CATEGORY_IDENTITY_EMAIL,
    CATEGORY_READ_WRITE,
    CATEGORY_PROJECT_TASK,
    CATEGORY_OPENAI_PLATFORM,
)

# Seed documents per category: characteristic tokens plus full exemplar
# scope strings observed in the wild. Loadable from JSON config so the
# lexicon can be extended without a rebuild.
DEFAULT_SEED_LEXICON: dict[str, tuple[str, ...]] = {
    CATEGORY_GLOBAL_ACCESS: ("all", "full-access", "baas-full-access", "global"),
    CATEGORY_READ_WRITE: ("read", "write", "offline_access", "read+write", "read write read offline_access"),
    CATEGORY_OPENAI_PLATFORM: (
        "openai",
        "oai11",
        "chatgpt",
        "oai11/global",
        "openid email https://openai.videoinsights.io/all",
    ),
    CATEGORY_IDENTITY_EMAIL: (
        "email",
        "profile",
        "openid",
        "w_member_social",
        "user-read-email",
        "w_member_social openid profile email",
        "openid offline_access",
        "playlist-modify-public user-read-email",
    ),
    CATEGORY_PROJECT_TASK: (
        "project",
        "manage_library",
        "basic_access",
        "basic_access email offline_access manage_library",
    ),
    CATEGORY_EXECUTE_ACTIONS: ("nla:exposed_actions", "actions"),
}


@dataclass(frozen=True)
class ScopeDocument:
    plugin_id: str
    tokens: tuple[str, ...]


def tokenize_scope(raw: str) -> list[str]:
    """Lowercased tokens of a scope string.

    Split on whitespace, "+" and ","; a piece that is an absolute http(s)
    URL contributes its host and last path segment; other pieces
    additionally split on "/". Duplicates are preserved for term frequency.
    """
    tokens: list[str] = []
    for piece in raw.split():
        if piece.startswith(("http://", "https://")) and is_absolute_http(piece):
            parts = urlsplit(piece)
            if parts.hostname:
                tokens.append(parts.hostname.lower())
            last = [seg for seg in parts.path.split("/") if seg]
            if last:
                tokens.append(last[-1].lower())
            continue
        for chunk in piece.replace("+", " ").replace(",", " ").replace("/", " ").split():
            tokens.append(chunk.lower())
    return tokens


def make_scope_document(plugin_id: str, raw_scope: str | None) -> ScopeDocument:
    return ScopeDocument(plugin_id=plugin_id, tokens=tuple(tokenize_scope(raw_scope or "")))


def fit_tfidf(token_docs: list[tuple[str, ...]]) -> Callable[[Sequence[str]], dict[str, float]]:
    """Smoothed TF-IDF fit over a corpus: a function from a token list to its
    vector, token -> weight.

    tf = raw count / document length; idf = ln((1+N)/(1+df)) + 1; vectors
    are L2-normalized unless zero. Tokens unseen at fit time get df = 0.
    """
    n_docs = len(token_docs)
    df = Counter(t for tokens in token_docs for t in set(tokens))

    def vectorize(tokens: Sequence[str]) -> dict[str, float]:
        length = len(tokens)
        weights = {t: (c / length) * (math.log((1 + n_docs) / (1 + df[t])) + 1.0) for t, c in Counter(tokens).items()}
        norm = _norm(weights)
        return {t: w / norm for t, w in weights.items()} if norm > 0 else weights

    return vectorize


def _norm(vector: dict[str, float]) -> float:
    return math.sqrt(sum(w * w for w in vector.values()))


def cosine_similarity(a: dict[str, float], b: dict[str, float]) -> float:
    """dot(a,b)/(|a||b|); 0.0 when either vector is zero. Weights are
    non-negative so the result lies in [0, 1]."""
    smaller, larger = (a, b) if len(a) <= len(b) else (b, a)
    dot = sum(w * larger[t] for t, w in smaller.items() if t in larger)
    denom = _norm(a) * _norm(b)
    return dot / denom if denom else 0.0


def categorize_corpus(
    docs: list[ScopeDocument], seed_lexicon: dict[str, tuple[str, ...]] | None = None
) -> list[tuple[str, str]]:
    """(plugin_id, category) assignments over a whole scope corpus.

    The TF-IDF is fit over `docs`, and the seeds of each category are
    vectorized with that fit. A document goes to the category of its most
    similar seed; equal similarities go to the first category in
    CATEGORY_PRIORITY. A document without tokens, or whose best similarity
    is 0 because it shares no token with any seed, is unspecified.
    """
    vectorize = fit_tfidf([d.tokens for d in docs])
    seed_vectors = {
        category: [vectorize(tokenize_scope(seed)) for seed in seeds]
        for category, seeds in (seed_lexicon or DEFAULT_SEED_LEXICON).items()
    }
    assignments = []
    for doc in docs:
        category = CATEGORY_UNSPECIFIED
        if doc.tokens:
            vector = vectorize(doc.tokens)
            sims = {
                name: max((cosine_similarity(vector, seed) for seed in seeds), default=0.0)
                for name, seeds in seed_vectors.items()
            }
            best = max(sims.values())
            if best > 0.0:
                category = next((c for c in CATEGORY_PRIORITY if sims.get(c, 0.0) == best), CATEGORY_UNSPECIFIED)
        assignments.append((doc.plugin_id, category))
    return assignments


def distribution_report(categories: list[str]) -> dict[str, dict]:
    """category -> {count, share} over the categories of all OAuth-scoped
    plugins; shares are rendered to three decimals."""
    if not categories:
        return {}
    total = len(categories)
    counts = Counter(categories)
    return {
        category: {"count": counts[category], "share": render_ratio_pct(counts[category], total, decimals=3)}
        for category in ALL_CATEGORIES
        if counts[category]
    }


class LexiconError(StageError):
    """A seed lexicon file that cannot be read, is not a category -> seed
    list object, or names a category the report does not count."""


def load_seed_lexicon(path) -> dict[str, tuple[str, ...]]:
    """Seed lexicon from a JSON config: {category: [seed strings]}."""
    lexicon = read_json(path, LexiconError, "seed lexicon", dict[str, tuple[str, ...]])
    unknown = set(lexicon) - set(ALL_CATEGORIES)
    if unknown:
        raise LexiconError(f"unknown scope categories in lexicon {path}: {sorted(unknown)}")
    return lexicon
