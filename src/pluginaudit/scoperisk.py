"""OAuth scope-string risk categorization via TF-IDF and cosine similarity.

Scope strings are tokenized, vectorized with smoothed TF-IDF over the
whole corpus, and assigned to one of six risk categories by maximum cosine
similarity against per-category seed documents (the category's
characteristic tokens plus known exemplar scope strings). Plugins that do
not mark a scope fall into "unspecified".
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from .numfmt import render_ratio_pct

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


@dataclass(frozen=True)
class TfidfVector:
    weights: dict[str, float] = field(default_factory=dict)

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights.values()))

    def is_zero(self) -> bool:
        return not self.weights


def tokenize_scope(raw: str) -> list[str]:
    """Lowercased tokens of a scope string.

    Split on whitespace, "+" and ","; URL pieces contribute their host and
    last path segment; other pieces additionally split on "/". Duplicates
    are preserved for term frequency.
    """
    tokens: list[str] = []
    for piece in raw.split():
        piece = piece.strip()
        if not piece:
            continue
        if piece.startswith(("http://", "https://")):
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


class VectorContext:
    """Smoothed TF-IDF fit over a corpus; vectorizes corpus and new docs.

    tf = raw count / document length; idf = ln((1+N)/(1+df)) + 1; vectors
    are L2-normalized unless zero. Tokens unseen at fit time get df = 0.
    """

    def __init__(self, token_docs: list[tuple[str, ...]]):
        self.n_docs = len(token_docs)
        df: Counter[str] = Counter()
        for tokens in token_docs:
            df.update(set(tokens))
        self._df = dict(df)

    def idf(self, token: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self._df.get(token, 0))) + 1.0

    def vectorize_tokens(self, tokens: tuple[str, ...] | list[str]) -> TfidfVector:
        if not tokens:
            return TfidfVector()
        counts = Counter(tokens)
        length = len(tokens)
        weights = {t: (c / length) * self.idf(t) for t, c in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            weights = {t: w / norm for t, w in weights.items()}
        return TfidfVector(weights=weights)


def tfidf_vectorize(docs: list[ScopeDocument]) -> list[TfidfVector]:
    """Vectorize a scope corpus (fit + transform in one pass)."""
    if not docs:
        raise ValueError("tfidf_vectorize needs at least one document")
    context = VectorContext([d.tokens for d in docs])
    return [context.vectorize_tokens(d.tokens) for d in docs]


def cosine_similarity(a: TfidfVector, b: TfidfVector) -> float:
    """dot(a,b)/(|a||b|); 0.0 when either vector is zero. Weights are
    non-negative so the result lies in [0, 1]."""
    if a.is_zero() or b.is_zero():
        return 0.0
    smaller, larger = (a.weights, b.weights) if len(a.weights) <= len(b.weights) else (b.weights, a.weights)
    dot = sum(w * larger[t] for t, w in smaller.items() if t in larger)
    denom = a.norm() * b.norm()
    return dot / denom if denom else 0.0


class ScopeClassifier:
    """Nearest-seed-document categorizer over a fixed vectorization context."""

    def __init__(self, docs: list[ScopeDocument], seed_lexicon: dict[str, tuple[str, ...]] | None = None):
        lexicon = seed_lexicon or DEFAULT_SEED_LEXICON
        self.context = VectorContext([d.tokens for d in docs])
        self._seeds: dict[str, list[TfidfVector]] = {}
        for category, seeds in lexicon.items():
            self._seeds[category] = [
                self.context.vectorize_tokens(tokenize_scope(seed)) for seed in seeds
            ]

    def similarities(self, doc: ScopeDocument) -> dict[str, float]:
        vector = self.context.vectorize_tokens(doc.tokens)
        return {
            category: max((cosine_similarity(vector, seed) for seed in seeds), default=0.0)
            for category, seeds in self._seeds.items()
        }

    def categorize(self, doc: ScopeDocument) -> str:
        if not doc.tokens:
            return CATEGORY_UNSPECIFIED
        sims = self.similarities(doc)
        best = max(sims.values())
        for category in CATEGORY_PRIORITY:
            if sims.get(category, 0.0) == best:
                return category
        return CATEGORY_UNSPECIFIED


def categorize_corpus(
    docs: list[ScopeDocument], seed_lexicon: dict[str, tuple[str, ...]] | None = None
) -> list[tuple[str, str]]:
    """(plugin_id, category) assignments over a whole scope corpus."""
    if not docs:
        return []
    classifier = ScopeClassifier(docs, seed_lexicon)
    return [(doc.plugin_id, classifier.categorize(doc)) for doc in docs]


def distribution_report(assignments: list[tuple[str, str]]) -> dict[str, dict]:
    """category -> {count, share} over all OAuth-scoped plugins; shares are
    rendered to three decimals."""
    if not assignments:
        return {}
    total = len(assignments)
    counts = Counter(category for _pid, category in assignments)
    return {
        category: {"count": counts[category], "share": render_ratio_pct(counts[category], total, decimals=3)}
        for category in ALL_CATEGORIES
        if counts[category]
    }


class LexiconError(Exception):
    """A seed lexicon file that cannot be read, is not a category -> seed
    list object, or names a category the report does not count."""


def load_seed_lexicon(path) -> dict[str, tuple[str, ...]]:
    """Seed lexicon from a JSON config: {category: [seed strings]}."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise LexiconError(f"cannot read seed lexicon {path}: {exc}") from exc
    if not isinstance(doc, dict) or not all(isinstance(seeds, list) for seeds in doc.values()):
        raise LexiconError(f"seed lexicon {path} must be a JSON object of category -> seed list")
    unknown = set(doc) - set(ALL_CATEGORIES)
    if unknown:
        raise LexiconError(f"unknown scope categories in lexicon {path}: {sorted(unknown)}")
    return {category: tuple(str(s) for s in seeds) for category, seeds in doc.items()}

