"""Persistent, crash-resumable session storage.

The knowledge base historically lived and died in process memory: every
E-series run restarted from zero and KB size was RAM-bound. This
package is the durability layer closing that gap (ROADMAP:
"Persistent, resumable knowledge base on a columnar/SQL backend"):

- :class:`StorageBackend` — the pluggable persistence protocol, with
  two implementations: :class:`MemoryBackend` (the default:
  everything in process memory, optionally mirrored to a single pickle
  file) and :class:`SQLiteBackend` (a WAL-mode SQLite database holding
  the answer log and the checkpoint history);
- a **write-ahead answer log** — every ingested question/answer lands
  in the backend as it happens, giving an auditable trail that
  survives the process;
- **whole-session checkpoints** (:func:`capture_session` /
  :func:`load_session`) — a checkpoint captures everything
  replay-determinism needs (KB rules/samples/decisions, RNG streams,
  EventClock time, dispatcher in-flight books, latent-trust state),
  so a run killed at any round and resumed produces a final summary
  byte-identical to the uninterrupted run.

See ``docs/persistence.md`` for the schema, the checkpoint format and
the resume semantics.
"""

from repro.storage.backend import (
    AnswerRecord,
    CheckpointInfo,
    CorruptStoreError,
    MemoryBackend,
    StorageBackend,
    StorageError,
    open_backend,
)
from repro.storage.checkpoint import (
    CHECKPOINT_FORMAT,
    capture_session,
    load_session,
    restore_session,
    scrub_store,
    verify_payload,
)
from repro.storage.integrity import open_payload, seal_payload
from repro.storage.records import (
    latent_from_doc,
    latent_to_doc,
    rule_from_key,
    rule_key,
    samples_from_doc,
    samples_to_doc,
    summary_from_doc,
    summary_to_doc,
)
from repro.storage.sqlite import SQLiteBackend

__all__ = [
    "AnswerRecord",
    "CHECKPOINT_FORMAT",
    "CheckpointInfo",
    "CorruptStoreError",
    "MemoryBackend",
    "SQLiteBackend",
    "StorageBackend",
    "StorageError",
    "capture_session",
    "latent_from_doc",
    "latent_to_doc",
    "load_session",
    "open_backend",
    "open_payload",
    "restore_session",
    "rule_from_key",
    "rule_key",
    "samples_from_doc",
    "scrub_store",
    "seal_payload",
    "samples_to_doc",
    "summary_from_doc",
    "summary_to_doc",
    "verify_payload",
]
