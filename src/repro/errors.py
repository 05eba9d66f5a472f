"""Exception hierarchy for the repro (Caldera) package.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch everything from this package with a single handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class StorageError(ReproError):
    """A low-level storage failure (pager, buffer pool, B+ tree)."""


class PageError(StorageError):
    """An invalid page id, corrupt page image, or page-size violation."""


class CorruptPageError(PageError):
    """A page image failed its checksum or structural validation.

    Raised on every physical read whose frame checksum does not match,
    and by the node codec / fsck when a page decodes to an impossible
    structure — torn and corrupt pages are reported, never silently
    decoded into garbage.
    """


class TornWriteError(StorageError):
    """A write-ahead-log record was found incomplete or mis-checksummed.

    Recovery treats the first torn record as the end of the log: the
    record and everything after it are discarded (they were never
    committed).
    """


class RecoveryError(StorageError):
    """Write-ahead-log recovery could not restore a consistent state
    (mismatched log geometry, unreadable log header, failed replay)."""


class KeyEncodingError(StorageError):
    """A value could not be encoded into an order-preserving key, or a
    stored key could not be decoded back into a complete tuple."""


class CatalogError(ReproError):
    """A named stream, index, or dimension table was missing or duplicated."""


class QueryError(ReproError):
    """A malformed Regular query or predicate."""


class PlanningError(ReproError):
    """No access method can execute the requested query (e.g., missing indexes)."""


class StreamError(ReproError):
    """A malformed Markovian stream (bad distribution, misaligned CPTs)."""


class InferenceError(ReproError):
    """HMM inference failed (e.g., impossible evidence)."""
