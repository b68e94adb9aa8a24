"""Benchmark of the crowd-mining system: one run, one workload, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sync_open --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``sync_open``, ``sharded_closed`` and
``served_durable``. A run sets sessions up, drives them for at least
``--seconds`` of busy time (finishing the round of worlds it started),
checks every output, and prints as its last stdout line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts questions answered; ``failed`` counts client
exchanges the server refused. With ``--trace 0`` the metrics are the
end-to-end ones, measured with no tracing installed. A run is a series
of rounds (one pass over the workload's world catalogue, 1–3 s and
over a thousand questions each); each timing below is the median of
its per-round values, which keeps a transient slowdown of the machine
from moving the run's figure:

- ``questions_per_s`` — questions answered per second of busy time;
- ``question_p50_ms`` / ``question_p99_ms`` — per-question wall latency:
  one ``step()`` (sync), the gap between consecutive answer deliveries
  to the miner in the merge loop (sharded), one fetch+answer HTTP
  exchange as the client sees it (served);
- ``peak_rss_mb`` — the process's peak resident set;
- ``setup_s`` — median time to set one session (sync, sharded) or one
  server round of sessions (served) up, before its first question.

With ``--trace 1`` the run installs the layer tracer (``tracing.py``)
and reports, per layer, self microseconds per question, plus the
unattributed remainder and a few ratios from the sessions' own
``repro.obs`` counters. A run exits non-zero, printing no result, when
the ``repro`` package is not importable from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sync_open", "sharded_closed", "served_durable")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ranked = sorted(samples)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(m) -> dict[str, dict]:
    """Each timing is the median over the run's rounds (see module doc)."""
    rounds = m.rounds
    median = statistics.median
    qps = median(r.questions / r.seconds for r in rounds)
    p50 = median(percentile(r.latencies, 0.50) for r in rounds)
    p99 = median(percentile(r.latencies, 0.99) for r in rounds)
    return {
        "questions_per_s": {"value": qps, "unit": "1/s"},
        "question_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "question_p99_ms": {"value": 1e3 * p99, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": median(m.setups), "unit": "s"},
    }


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def per_layer(m, layers) -> dict[str, dict]:
    per_q = 1e6 / m.questions
    metrics = {
        f"{layer}_us_per_q": {"value": m.layer_seconds[layer] * per_q, "unit": "us"}
        for layer in layers
    }
    attributed = sum(m.layer_seconds.values())
    metrics["unattributed_us_per_q"] = {
        "value": (m.busy_seconds - attributed) * per_q,
        "unit": "us",
    }
    metrics["attributed_pct"] = {"value": _pct(attributed, m.busy_seconds), "unit": "%"}
    c = m.counters.get
    hits, misses = c("kb.summary_hits", 0), c("kb.summary_misses", 0)
    stale = c("dispatch.stale", 0)
    metrics["summary_hit_pct"] = {"value": _pct(hits, hits + misses), "unit": "%"}
    metrics["open_pct"] = {"value": _pct(c("miner.open", 0), m.questions), "unit": "%"}
    metrics["stale_pct"] = {"value": _pct(stale, m.questions + stale), "unit": "%"}
    metrics["checkpoints_per_kq"] = {
        "value": 1e3 * c("storage.checkpoints", 0) / m.questions,
        "unit": "count",
    }
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.LayerTracer()
        tracer.install()
        for probe in tracer.missing:
            print(f"perfbench: probe target missing: {probe}", file=sys.stderr)
    try:
        if args.workload == "served_durable":
            scratch = ROOT / ".perfbench_tmp"
            measured = workloads.served_durable(args.seed, args.seconds, tracer, scratch)
        else:
            run = getattr(workloads, args.workload)
            measured = run(args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for problem in measured.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(measured, tracing.LAYERS)
    else:
        metrics = end_to_end(measured)
    print(
        json.dumps(
            {
                "correct": not measured.problems,
                "attempted": measured.questions,
                "failed": measured.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
