"""URL normalization helpers shared by discovery and consistency checks."""

from __future__ import annotations

from urllib.parse import urlsplit, urlunsplit

# Common two-level public suffixes; enough for plugin-store legal links.
# Anything else falls back to the last two labels.
_TWO_LEVEL_SUFFIXES = {
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
    "com.au", "net.au", "org.au",
    "co.jp", "ne.jp", "or.jp",
    "co.nz", "co.za", "co.in", "co.kr", "co.il",
    "com.br", "com.cn", "com.mx", "com.tw", "com.sg", "com.hk", "com.tr",
}


def registrable_domain(host: str) -> str:
    """Registrable domain of a host: "chat.openai.com" -> "openai.com".

    IP literals and single-label hosts are returned unchanged. Always
    lowercase.
    """
    host = host.lower().rstrip(".")
    labels = host.split(".")
    if len(labels) <= 2 or ":" in host or all(p.isdigit() for p in labels):
        return host
    if ".".join(labels[-2:]) in _TWO_LEVEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def host_of(url: str) -> str:
    return (urlsplit(url).hostname or "").lower()


def origin_of(url: str) -> str:
    """Scheme://netloc of an absolute URL, lowercased host, port preserved."""
    parts = urlsplit(url)
    return f"{parts.scheme.lower()}://{parts.netloc.lower()}"


def is_absolute_http(url: str) -> bool:
    try:
        parts = urlsplit(url)
    except ValueError:  # cannot be split, e.g. an unclosed "[" in the host
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


def strip_query_fragment(url: str) -> str:
    parts = urlsplit(url)
    return urlunsplit((parts.scheme, parts.netloc, parts.path, "", ""))


def normalize_url_loose(url: str) -> str:
    """Scheme-insensitive, trailing-slash-insensitive form for URL equality.

    Used when comparing legal_info_url between store listing and manifest:
    "http://a.io/legal/" and "https://a.io/legal" compare equal.
    """
    url = url.strip()
    try:
        parts = urlsplit(url if "//" in url else "//" + url)
    except ValueError:  # cannot be split: compare the text itself
        return url.lower()
    host = (parts.hostname or "").lower()
    path = parts.path.rstrip("/")
    query = f"?{parts.query}" if parts.query else ""
    return f"{host}{path}{query}"
