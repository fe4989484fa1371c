"""SHA-256 for plugin ids, manifest fingerprints, transcripts and cache keys.

`hashlib` maps OpenSSL's libcrypto (about 3.3 MB of resident memory) to
offer a hash that CPython also builds in: `_sha2` from 3.12, `_sha256`
before. `sha256` is the built-in one; only an interpreter built without it
falls back to `hashlib`. The digests are the same either way.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter without its own SHA-256
        from hashlib import sha256
