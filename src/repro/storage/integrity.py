"""Checksummed payload envelopes — corruption is detected, not unpickled.

A checkpoint payload is an opaque pickle; before this module it was
trusted byte-for-byte. A torn write (payload truncated at byte k), a
lost fsync tail, or a single flipped bit could either crash resume
with an arbitrary ``UnpicklingError`` deep inside the pickle machinery
or — far worse — unpickle *successfully* into silently-wrong session
state. :func:`seal_payload` frames every payload with a magic tag and
a SHA-256 digest; :func:`open_payload` verifies the frame and raises
:class:`~repro.storage.backend.CorruptStoreError` on any mismatch, so
a damaged checkpoint is diagnosed as *storage corruption* (with a
``--repair`` recovery path) before a single pickled byte is executed.

Envelope layout (43 bytes of framing)::

    b"RPROSEAL" + version(1) + length(8, big-endian) + sha256(payload) + payload

An unsealed payload is corrupt: the payloads written before sealing
existed carry a checkpoint format that this build refuses anyway.
"""

from __future__ import annotations

import hashlib
import struct

from repro.storage.backend import CorruptStoreError

#: Magic tag opening every sealed payload.
SEAL_MAGIC = b"RPROSEAL"

#: Version byte of the seal envelope layout.
SEAL_VERSION = 1

_HEADER = struct.Struct(">8sBQ")  # magic, version, payload length
_DIGEST_SIZE = hashlib.sha256().digest_size


def seal_payload(payload: bytes) -> bytes:
    """Wrap ``payload`` in the checksummed envelope."""
    header = _HEADER.pack(SEAL_MAGIC, SEAL_VERSION, len(payload))
    return header + hashlib.sha256(payload).digest() + payload


def open_payload(blob: bytes, *, what: str = "checkpoint") -> bytes:
    """Verify one sealed blob and return the inner payload.

    Raises :class:`CorruptStoreError` on a blob without the seal magic,
    a truncated envelope, a payload shorter or longer than the header
    claims (torn write / trailing garbage), or a digest mismatch (bit
    rot).
    """
    if blob[: len(SEAL_MAGIC)] != SEAL_MAGIC:
        raise CorruptStoreError(
            f"{what} payload is not sealed (leading bytes {blob[:8]!r})"
        )
    if len(blob) < _HEADER.size + _DIGEST_SIZE:
        raise CorruptStoreError(f"{what} payload envelope truncated at {len(blob)} bytes")
    _magic, version, length = _HEADER.unpack_from(blob)
    if version != SEAL_VERSION:
        raise CorruptStoreError(
            f"unsupported {what} seal version {version} "
            f"(this build writes version {SEAL_VERSION})"
        )
    digest = blob[_HEADER.size : _HEADER.size + _DIGEST_SIZE]
    payload = blob[_HEADER.size + _DIGEST_SIZE :]
    if len(payload) != length:
        raise CorruptStoreError(
            f"{what} payload torn: header promises {length} bytes, "
            f"found {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptStoreError(f"{what} payload failed its checksum (bit rot or torn write)")
    return payload
