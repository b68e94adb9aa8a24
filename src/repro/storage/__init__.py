"""Persistent, crash-resumable session storage.

The knowledge base historically lived and died in process memory: every
E-series run restarted from zero and KB size was RAM-bound. This
package is the durability layer closing that gap (ROADMAP:
"Persistent, resumable knowledge base on a columnar/SQL backend"):

- :class:`SQLiteBackend` — the one session store: a SQLite database
  holding the answer log and the checkpoint history, in a WAL-mode
  file for a durable session or ``":memory:"`` for one that keeps
  nothing past its process; :class:`StorageBackend` is the protocol it
  implements, and which the chaos layer's fault-injecting wrapper
  implements around it;
- a **write-ahead answer log** — every ingested question/answer lands
  in the backend as it happens, giving an auditable trail that
  survives the process;
- **whole-session checkpoints** (:func:`capture_session` /
  :func:`load_session`) — one pickle of the miner (KB
  rules/samples/decisions, RNG streams, latent-trust state) and the
  live dispatcher or serve session in its dispatcher seat (event
  clocks with every pending event, in-flight books), so a run killed
  at any round and resumed produces a final summary byte-identical to
  the uninterrupted run.

See ``docs/persistence.md`` for the schema, the checkpoint format and
the resume semantics.
"""

from repro.storage.backend import (
    AnswerRecord,
    CheckpointInfo,
    CorruptStoreError,
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
from repro.storage.records import rule_from_key, rule_key
from repro.storage.sqlite import SQLiteBackend

__all__ = [
    "AnswerRecord",
    "CHECKPOINT_FORMAT",
    "CheckpointInfo",
    "CorruptStoreError",
    "SQLiteBackend",
    "StorageBackend",
    "StorageError",
    "capture_session",
    "load_session",
    "open_backend",
    "open_payload",
    "restore_session",
    "rule_from_key",
    "rule_key",
    "scrub_store",
    "seal_payload",
    "verify_payload",
]
