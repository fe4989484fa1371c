from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pluginaudit.scoperisk import (
    CATEGORY_EXECUTE_ACTIONS,
    CATEGORY_GLOBAL_ACCESS,
    CATEGORY_IDENTITY_EMAIL,
    CATEGORY_OPENAI_PLATFORM,
    CATEGORY_PROJECT_TASK,
    CATEGORY_READ_WRITE,
    CATEGORY_UNSPECIFIED,
    ScopeClassifier,
    TfidfVector,
    VectorContext,
    categorize_corpus,
    cosine_similarity,
    distribution_report,
    make_scope_document,
    tokenize_scope,
)


def test_tokenize_plus_separator():
    assert tokenize_scope("read+write") == ["read", "write"]


def test_tokenize_empty():
    assert tokenize_scope("") == []
    assert tokenize_scope("   ") == []


def test_tokenize_url_contributes_host_and_last_segment():
    assert tokenize_scope("openid email https://openai.videoinsights.io/all") == [
        "openid",
        "email",
        "openai.videoinsights.io",
        "all",
    ]


def test_tokenize_url_that_cannot_be_split_as_a_plain_piece():
    assert tokenize_scope("https://[::1/all read") == ["https:", "[::1", "all", "read"]


def test_tokenize_slash_comma_and_case():
    assert tokenize_scope("OAI11/Global") == ["oai11", "global"]
    assert tokenize_scope("read,write") == ["read", "write"]
    assert tokenize_scope("read write read offline_access") == ["read", "write", "read", "offline_access"]


# ---------------------------------------------------------------------------
# TF-IDF toy-corpus oracle: tf = count/len, idf = ln((1+N)/(1+df)) + 1,
# weights L2-normalized. Hand computation for ["read write", "read", "email"]:
#   idf(read)  = ln(4/3) + 1
#   idf(write) = idf(email) = ln(4/2) + 1
#   doc1 raw = (idf(read)/2, idf(write)/2), then normalized.
IDF_READ = math.log(4 / 3) + 1
IDF_WRITE = math.log(4 / 2) + 1
_RAW1 = (IDF_READ / 2, IDF_WRITE / 2)
_NORM1 = math.sqrt(_RAW1[0] ** 2 + _RAW1[1] ** 2)
ORACLE_DOC1 = {"read": _RAW1[0] / _NORM1, "write": _RAW1[1] / _NORM1}

# Frozen values from the hand computation above.
FROZEN_DOC1_READ = 0.6053485081062916
FROZEN_DOC1_WRITE = 0.7959605415681652
FROZEN_COS_12 = 0.6053485081062916


def _toy_docs():
    return [make_scope_document(f"p{i}", raw) for i, raw in enumerate(["read write", "read", "email"])]


def _vectorize(docs):
    """Each document's vector in the context fit over all of them, as ScopeClassifier builds it."""
    context = VectorContext([doc.tokens for doc in docs])
    return [context.vectorize_tokens(doc.tokens) for doc in docs]


def test_tfidf_toy_corpus_matches_hand_oracle():
    v1, v2, v3 = _vectorize(_toy_docs())
    assert v1.weights["read"] == pytest.approx(ORACLE_DOC1["read"], abs=1e-9)
    assert v1.weights["write"] == pytest.approx(ORACLE_DOC1["write"], abs=1e-9)
    assert v1.weights["read"] == pytest.approx(FROZEN_DOC1_READ, abs=1e-9)
    assert v1.weights["write"] == pytest.approx(FROZEN_DOC1_WRITE, abs=1e-9)
    assert v2.weights == {"read": 1.0}
    assert v3.weights == {"email": 1.0}
    assert cosine_similarity(v1, v2) == pytest.approx(FROZEN_COS_12, abs=1e-9)
    assert cosine_similarity(v1, v3) == 0.0
    assert cosine_similarity(v2, v3) == 0.0


def test_identical_docs_identical_vectors():
    docs = [make_scope_document("a", "read write"), make_scope_document("b", "read write")]
    va, vb = _vectorize(docs)
    assert va.weights == vb.weights


def test_idf_unique_token_outweighs_common():
    docs = [make_scope_document(str(i), raw) for i, raw in enumerate(["common rare", "common", "common x"])]
    vectors = _vectorize(docs)
    assert vectors[0].weights["rare"] > vectors[0].weights["common"]


def test_empty_document_is_zero_vector():
    docs = [make_scope_document("a", ""), make_scope_document("b", "read")]
    vectors = _vectorize(docs)
    assert vectors[0].is_zero()
    assert cosine_similarity(vectors[0], vectors[1]) == 0.0


def test_cosine_self_similarity_and_hand_value():
    v = TfidfVector(weights={"a": 0.6, "b": 0.8})
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)
    u = TfidfVector(weights={"a": 1.0})
    # dot = 0.6; |v| = 1.0, |u| = 1.0 -> 0.6 by hand.
    assert cosine_similarity(v, u) == pytest.approx(0.6, abs=1e-9)


@given(
    st.dictionaries(st.sampled_from("abcdef"), st.floats(0.01, 5.0), min_size=1, max_size=5),
    st.dictionaries(st.sampled_from("abcdef"), st.floats(0.01, 5.0), min_size=1, max_size=5),
)
@settings(deadline=None)
def test_cosine_bounds_and_symmetry(wa, wb):
    a, b = TfidfVector(weights=wa), TfidfVector(weights=wb)
    sim = cosine_similarity(a, b)
    assert 0.0 <= sim <= 1.0 + 1e-12
    assert sim == pytest.approx(cosine_similarity(b, a), abs=1e-12)


# Every scope string quoted in the OAuth permission case study, with its
# stated category.
QUOTED_SCOPE_TABLE = [
    ("all", CATEGORY_GLOBAL_ACCESS),
    ("baas-full-access", CATEGORY_GLOBAL_ACCESS),
    ("read+write", CATEGORY_READ_WRITE),
    ("read write read offline_access", CATEGORY_READ_WRITE),
    ("openai", CATEGORY_OPENAI_PLATFORM),
    ("oai11/global", CATEGORY_OPENAI_PLATFORM),
    ("openid email https://openai.videoinsights.io/all", CATEGORY_OPENAI_PLATFORM),
    ("email", CATEGORY_IDENTITY_EMAIL),
    ("profile", CATEGORY_IDENTITY_EMAIL),
    ("w_member_social openid profile email", CATEGORY_IDENTITY_EMAIL),
    ("openid offline_access", CATEGORY_IDENTITY_EMAIL),
    ("playlist-modify-public user-read-email", CATEGORY_IDENTITY_EMAIL),
    ("project", CATEGORY_PROJECT_TASK),
    ("basic_access email offline_access manage_library", CATEGORY_PROJECT_TASK),
    ("nla:exposed_actions", CATEGORY_EXECUTE_ACTIONS),
]


def _classifier_corpus():
    docs = [make_scope_document(f"q{i}", raw) for i, (raw, _cat) in enumerate(QUOTED_SCOPE_TABLE)]
    docs += [make_scope_document(f"empty{i}", "") for i in range(5)]
    return docs


@pytest.mark.parametrize("raw,expected", QUOTED_SCOPE_TABLE)
def test_quoted_scopes_map_to_stated_categories(raw, expected):
    docs = _classifier_corpus()
    classifier = ScopeClassifier(docs)
    assert classifier.categorize(make_scope_document("x", raw)) == expected


def test_empty_scope_is_unspecified():
    classifier = ScopeClassifier(_classifier_corpus())
    assert classifier.categorize(make_scope_document("x", "")) == CATEGORY_UNSPECIFIED


def test_categorization_is_total():
    docs = _classifier_corpus()
    assignments = dict(categorize_corpus(docs))
    assert set(assignments) == {d.plugin_id for d in docs}
    assert all(isinstance(cat, str) and cat for cat in assignments.values())


def test_distribution_report_shares():
    assignments = [(f"g{i}", CATEGORY_GLOBAL_ACCESS) for i in range(9)]
    assignments += [(f"u{i}", CATEGORY_UNSPECIFIED) for i in range(34)]
    assignments += [(f"i{i}", CATEGORY_IDENTITY_EMAIL) for i in range(28)]
    table = distribution_report(assignments)
    assert len(assignments) == 71
    assert table[CATEGORY_GLOBAL_ACCESS] == {"count": 9, "share": "12.676"}
    assert abs(float(table[CATEGORY_GLOBAL_ACCESS]["share"]) - 12.675) <= 0.01
    assert table[CATEGORY_UNSPECIFIED]["share"] == "47.887"


def test_distribution_report_boundaries():
    assert distribution_report([]) == {}
    table = distribution_report([("a", CATEGORY_UNSPECIFIED), ("b", CATEGORY_UNSPECIFIED)])
    assert table[CATEGORY_UNSPECIFIED] == {"count": 2, "share": "100.000"}


def test_argmax_invariant_under_count_scaling_100_corpora():
    vocab = ["all", "read", "write", "email", "profile", "openai", "project", "actions", "custom", "data"]
    rng = random.Random(20260810)
    for _ in range(100):
        docs = []
        for d in range(rng.randint(2, 8)):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
            docs.append(make_scope_document(f"d{d}", " ".join(tokens)))
        scale = rng.randint(2, 5)
        scaled = [make_scope_document(d.plugin_id, " ".join(list(d.tokens) * scale)) for d in docs]
        assert categorize_corpus(docs) == categorize_corpus(scaled)


_scope_pieces = st.one_of(st.text(max_size=20), st.sampled_from(["http://", "https://", "+", ",", "/", " ", "[", ":"]))


@settings(max_examples=150, deadline=None)
@given(st.lists(_scope_pieces, max_size=6).map("".join))
def test_tokenize_scope_never_raises(raw):
    assert "" not in tokenize_scope(raw)
