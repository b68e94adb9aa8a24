"""Command-line interface: ``python -m repro <command>``.

Three commands covering the library's three hats:

- ``mine`` — run a crowd-mining session on one of the named example
  domains (folk_remedies / travel / culinary) against a simulated
  crowd, printing the mined rules and ground-truth score; with
  ``--save-cache`` the collected answers persist to JSON,
  ``--adversary-mix`` / ``--quarantine`` plant adversaries and
  enable the quality-control loop
  (``docs/robustness.md``), and ``--checkpoint`` makes the session
  durable — checkpointed every ``--checkpoint-every`` questions and
  resumable after a crash with ``--resume``
  (``docs/persistence.md``);
- ``kb`` — inspect a saved knowledge base: rule counts by decision,
  the strongest significant rules, per-member evidence totals, with
  ``--export`` for CSV/JSON dumps;
- ``replay`` — re-evaluate a saved answer cache at new thresholds
  without asking a single question;
- ``experiment`` — run one of the canonical experiments (e1, e2, e3,
  e4, e5, e8, e8r, e9) at smoke or full scale and print its figure;
- ``classic`` — classic association-rule mining over a Quest-generated
  database (the library as a plain itemset miner);
- ``serve`` — run the real-time HTTP serving surface: live sessions
  over a JSON API, durable under ``--data-dir`` and resumable with
  ``--resume`` (``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.crowd import standard_answer_model
from repro.estimation import Thresholds
from repro.eval import EXPERIMENTS, ascii_chart, format_experiment, run_variants
from repro.miner import compute_ground_truth
from repro.synth import NAMED_MODELS, QuestConfig, QuestGenerator, build_population


def _detect_backend_kind(path: str) -> str:
    """Which backend wrote ``path`` — by file magic, not by flag."""
    try:
        with open(path, "rb") as handle:
            magic = handle.read(16)
    except OSError:
        return "sqlite"  # let open_backend produce the real error
    return "sqlite" if magic == b"SQLite format 3\x00" else "memory"


def _resume_mine(args: argparse.Namespace) -> int:
    """The ``mine --resume`` path: reload the session and finish it."""
    from repro.storage import CorruptStoreError, StorageError, load_session, open_backend

    try:
        storage = open_backend(
            args.checkpoint, _detect_backend_kind(args.checkpoint), resume=True
        )
        miner, dispatcher, info = load_session(storage, repair=args.repair)
    except CorruptStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not args.repair:
            print(
                "hint: --repair falls back to the last verified checkpoint",
                file=sys.stderr,
            )
        return 2
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dropped = miner.obs.snapshot().counters.get("storage.repaired", 0)
    if dropped:
        print(f"repair: dropped {dropped} corrupt checkpoint(s)")
    from repro.serve.session import ServeSnapshot

    if isinstance(dispatcher, ServeSnapshot):
        storage.close()
        print(
            f"error: {args.checkpoint} holds a serve session with "
            "outstanding questions; resume it with "
            "`repro serve --data-dir DIR --resume` instead",
            file=sys.stderr,
        )
        return 2
    print(
        f"resumed {storage.describe()} at question {info.questions} "
        f"({info.kb_rules} rules known)"
    )
    result = dispatcher.run() if dispatcher is not None else miner.run()
    miner.checkpoint()
    storage.close()
    print(result.summary())
    print(f"fingerprint: {result.fingerprint()}")
    print("\nground truth: skipped on resume (world not rebuilt)")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.resume:
        if not args.checkpoint:
            print("error: --resume requires --checkpoint PATH", file=sys.stderr)
            return 2
        return _resume_mine(args)
    model = NAMED_MODELS[args.domain](seed=args.seed)
    if args.population_backend == "array":
        if args.adversary_mix:
            print(
                "error: --adversary-mix needs per-member objects; "
                "drop it or use --population-backend object",
                file=sys.stderr,
            )
            return 2
        from repro.crowd import ArrayCrowd
        from repro.synth import ArrayPopulation

        population = ArrayPopulation(
            model, n_members=args.members,
            transactions_per_member=200, seed=args.seed + 1,
        )
        crowd = ArrayCrowd(
            population, answer_model=standard_answer_model(), seed=args.seed + 2
        )
    else:
        population = build_population(
            model, n_members=args.members,
            transactions_per_member=200, seed=args.seed + 1,
        )
        from repro.faults import build_adversarial_crowd, parse_adversary_mix

        mix = parse_adversary_mix(args.adversary_mix)
        crowd, roles = build_adversarial_crowd(
            population, mix, answer_model=standard_answer_model(), seed=args.seed + 2
        )
        adversaries = {mid for mid, role in roles.items() if role != "honest"}
        if adversaries:
            print(
                f"adversary mix: {args.adversary_mix} "
                f"({len(adversaries)} members)"
            )
    cache = None
    if args.save_cache:
        from repro.miner import AnswerCache, CachingCrowd

        cache = AnswerCache()
        crowd = CachingCrowd(crowd, cache)
    thresholds = Thresholds(args.support, args.confidence)
    storage = None
    if args.checkpoint:
        from repro.storage import open_backend

        storage = open_backend(args.checkpoint, args.storage)
        print(f"checkpointing to {storage.describe()}")
    from repro.miner import CrowdMiner, CrowdMinerConfig

    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=thresholds,
            budget=args.budget,
            quarantine=args.quarantine,
            reestimate_every=args.reestimate_every,
            checkpoint_every=args.checkpoint_every if storage is not None else 0,
            seed=args.seed + 3,
        ),
        storage=storage,
    )
    use_dispatch = (
        args.shards > 1
        or args.in_flight > 1
        or args.latency != "0"
        or args.timeout is not None
    )
    if use_dispatch:
        import math

        from repro.dispatch import (
            DispatchConfig,
            Dispatcher,
            ShardedDispatcher,
            parse_latency,
        )

        dispatch_config = DispatchConfig(
            window=args.in_flight,
            latency=parse_latency(args.latency),
            timeout=math.inf if args.timeout is None else args.timeout,
            max_retries=args.retries,
            seed=args.seed + 4,
        )
        if args.shards > 1:
            dispatcher = ShardedDispatcher(
                miner, dispatch_config, shards=args.shards
            )
        else:
            dispatcher = Dispatcher(miner, dispatch_config)
        result = dispatcher.run()
    else:
        result = miner.run()
    if storage is not None:
        # One final checkpoint so `repro kb` and a later --resume see
        # the finished session, not the last mid-run snapshot.
        miner.checkpoint()
        storage.close()
    print(result.summary())
    if storage is not None:
        print(f"fingerprint: {result.fingerprint()}")
    if cache is not None:
        from repro.io import cache_to_json, save_json

        save_json(cache_to_json(cache), args.save_cache)
        print(f"\nsaved {len(cache)} answers to {args.save_cache}")
    if args.members > 1_000:
        # Exact scoring mines the union of every member's transactions
        # — superlinear in crowd size and the very cost the array
        # backend avoids (minutes beyond a few thousand members).
        print("\nground truth: skipped (crowd too large to scan exactly)")
        return 0
    truth = compute_ground_truth(population, thresholds)
    mined = set(result.significant)
    tp = len(mined & truth.significant)
    precision = tp / len(mined) if mined else 1.0
    recall = tp / len(truth.significant) if truth.significant else 1.0
    print(
        f"\nground truth: {len(truth.significant)} rules | "
        f"precision {precision:.2f}, recall {recall:.2f}"
    )
    return 0


def _cmd_kb(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.estimation.significance import Decision
    from repro.storage import (
        CorruptStoreError,
        StorageError,
        load_session,
        open_backend,
        scrub_store,
    )

    try:
        # Read-only inspection: a WAL-mode reader sees a consistent
        # snapshot even while a live `repro serve` process writes, and
        # rollback=False leaves the dangling answer log untouched.
        storage = open_backend(
            args.path, _detect_backend_kind(args.path), readonly=True
        )
        verified, corrupt = scrub_store(storage)
        if corrupt:
            ids = sorted(info.checkpoint_id for info in corrupt)
            print(
                f"integrity: {len(corrupt)} corrupt checkpoint(s) {ids}, "
                f"{len(verified)} verified "
                "(resume with --repair to fall back past them)",
            )
        miner, dispatcher, info = load_session(storage, rollback=False, repair=True)
    except CorruptStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: every checkpoint failed verification; the store is "
            "beyond repair",
            file=sys.stderr,
        )
        return 2
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state = miner.state
    history = storage.checkpoints()
    print(storage.describe())
    print(
        f"checkpoint #{info.checkpoint_id} of {len(history)}: "
        f"{info.questions} questions asked, {info.answers_logged} answers "
        f"logged, {storage.bytes_on_disk()} bytes on disk"
    )
    if dispatcher is not None:
        if getattr(dispatcher, "kind", None) == "serve":
            print("serve session (resume with `repro serve --resume`)")
        else:
            print("dispatched session (in-flight questions resume with it)")
    counts = Counter(knowledge.decision for knowledge in state.rules())
    inferred = sum(1 for knowledge in state.rules() if knowledge.inferred)
    by_decision = ", ".join(
        f"{counts.get(decision, 0)} {decision.value}" for decision in Decision
    )
    print(f"rules: {len(state)} known — {by_decision} ({inferred} by inference)")
    significant = state.significant_rules(mode="decided")
    ranked = sorted(
        significant.items(),
        key=lambda kv: (-kv[1].support, -kv[1].confidence, str(kv[0])),
    )
    print(f"top {min(args.top, len(ranked))} significant rules (of {len(ranked)}):")
    for rule, stats in ranked[: args.top]:
        print(f"  {rule}  {stats}")
    evidence: Counter[str] = Counter()
    for knowledge in state.rules():
        for member_id, _ in knowledge.samples.observations():
            evidence[member_id] += 1
    print(f"evidence: {sum(evidence.values())} observations from "
          f"{len(evidence)} members")
    for member_id, total in sorted(evidence.items(), key=lambda kv: (-kv[1], kv[0]))[
        : args.top
    ]:
        print(f"  {member_id}: {total}")
    if args.export:
        from repro.eval.export import save_kb

        csv_path, json_path = save_kb(state, args.export)
        print(f"\nexported {csv_path} and {json_path}")
    storage.close()
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.io import cache_from_json, load_json
    from repro.miner import reevaluate

    cache = cache_from_json(load_json(args.cache))
    thresholds = Thresholds(args.support, args.confidence)
    significant = reevaluate(cache, thresholds)
    print(
        f"{len(cache)} cached answers; at thresholds "
        f"({args.support}, {args.confidence}): {len(significant)} significant rules"
    )
    for rule, stats in sorted(significant.items(), key=lambda kv: -kv[1].support):
        print(f"  {rule}  {stats}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    base, variants = EXPERIMENTS[args.name](args.scale)
    results = run_variants(base, variants)
    print(format_experiment(f"{args.name} ({args.scale})", results))
    print()
    print(ascii_chart({label: r.curve for label, r in results.items()}))
    print()
    print("per-phase timings (first repetition of each variant):")
    for label, result in results.items():
        obs = result.repetitions[0].obs
        if obs is None:
            continue
        phases = ", ".join(
            f"{name.split('.', 1)[1]} {stats.total_seconds:.2f}s"
            for name, stats in sorted(obs.timers.items())
            if name.startswith("runner.")
        )
        hits = obs.counters.get("kb.summary_hits", 0)
        misses = obs.counters.get("kb.summary_misses", 0)
        print(
            f"  {label}: {phases} | summary cache {hits} hits / {misses} misses"
        )
    if args.export:
        from repro.eval import save_results

        csv_path, json_path = save_results(
            results, args.export, f"{args.name}_{args.scale}"
        )
        print(f"\nexported {csv_path} and {json_path}")
    return 0


def _cmd_classic(args: argparse.Namespace) -> int:
    from repro.classic import fpgrowth_frequent_itemsets, rules_from_itemsets

    generator = QuestGenerator(
        QuestConfig(n_items=args.items, n_transactions=args.transactions),
        seed=args.seed,
    )
    db = generator.generate()
    supports = fpgrowth_frequent_itemsets(db, args.support, max_size=4)
    rules = rules_from_itemsets(supports, args.confidence)
    print(
        f"{len(db)} transactions, {len(supports)} frequent itemsets, "
        f"{len(rules)} rules"
    )
    for rule, stats in sorted(rules.items(), key=lambda kv: -kv[1].support)[:args.top]:
        print(f"  {rule}  {stats}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve import ServeError, serve_forever

    data_dir = Path(args.data_dir) if args.data_dir else None
    if args.resume and data_dir is None:
        print("error: --resume requires --data-dir DIR", file=sys.stderr)
        return 2
    storage_wrapper = None
    request_hook = None
    if args.chaos_kill:
        # The cross-process half of the chaos matrix: this very server
        # SIGKILLs itself at the named point, and the harness (or an
        # operator) resumes what is on disk.
        from repro.chaos import FaultyBackend, KillSwitch

        try:
            kill = KillSwitch.parse(args.chaos_kill)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if kill.phase == "request":
            request_hook = lambda request: kill.tick("request")  # noqa: E731
        else:
            storage_wrapper = lambda backend: FaultyBackend(  # noqa: E731
                backend, kill=kill
            )

    def ready(server) -> None:
        print(f"serving on http://{server.host}:{server.port}", flush=True)

    try:
        drained = asyncio.run(
            serve_forever(
                args.host,
                args.port,
                data_dir=data_dir,
                resume=args.resume,
                repair=args.repair,
                ready=ready,
                storage_wrapper=storage_wrapper,
                request_hook=request_hook,
            )
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        return 0
    print(f"drained {drained} session(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crowd mining (SIGMOD 2013 reproduction) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine a simulated crowd on a named domain")
    mine.add_argument("--domain", choices=sorted(NAMED_MODELS), default="folk_remedies")
    mine.add_argument("--members", type=int, default=40)
    mine.add_argument("--budget", type=int, default=1_000)
    mine.add_argument("--support", type=float, default=0.10)
    mine.add_argument("--confidence", type=float, default=0.50)
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument(
        "--save-cache", metavar="PATH", default=None,
        help="persist collected answers to a JSON cache file",
    )
    mine.add_argument(
        "--in-flight", type=int, default=1, metavar="N",
        help="questions kept in flight at once (>1 enables the "
        "asynchronous dispatcher; default 1 = synchronous)",
    )
    mine.add_argument(
        "--latency", default="0", metavar="SPEC",
        help="simulated answer latency, e.g. 0, const:30, "
        "lognormal:60:1.0, pareto:30:1.5, heavytail:60:0.8:1.3; "
        "append :drop=P for mid-flight dropout",
    )
    mine.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="simulated seconds to wait for an answer before "
        "reassigning it (default: wait forever)",
    )
    mine.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="reissues of a timed-out question before dropping it",
    )
    mine.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="split dispatch over N crowd partitions feeding one "
        "merged ingest stream (>1 implies the asynchronous "
        "dispatcher; see docs/scaling.md)",
    )
    mine.add_argument(
        "--population-backend", choices=("object", "array"),
        default="object",
        help="member-state backend: 'object' (default) builds one "
        "member object each; 'array' keeps columnar state and scales "
        "to millions of members (honest crowds only)",
    )
    mine.add_argument(
        "--adversary-mix", default="", metavar="SPEC",
        help="plant adversaries in the crowd as name:fraction pairs, "
        "e.g. spammer:0.2,garbled:0.1 (roles: spammer, colluder, "
        "drifter, lazy, garbled)",
    )
    mine.add_argument(
        "--quarantine", action="store_true",
        help="enable the quality-control loop: estimate per-member "
        "trust, quarantine low-trust members and purge their evidence",
    )
    mine.add_argument(
        "--reestimate-every", type=int, default=10, metavar="N",
        help="answers between latent-trust re-estimations "
        "(with --quarantine)",
    )
    mine.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="make the session durable: log every answer and "
        "checkpoint the whole session to PATH (also prints the "
        "deterministic session fingerprint)",
    )
    mine.add_argument(
        "--checkpoint-every", type=int, default=100, metavar="N",
        help="questions between checkpoints (default 100; the final "
        "state is always checkpointed)",
    )
    mine.add_argument(
        "--resume", action="store_true",
        help="resume the session saved at --checkpoint PATH instead "
        "of starting fresh; the finished run's fingerprint is "
        "byte-identical to an uninterrupted one",
    )
    mine.add_argument(
        "--repair", action="store_true",
        help="with --resume: scrub the store on open, drop corrupt "
        "checkpoints and fall back to the last verified one "
        "(docs/robustness.md)",
    )
    mine.add_argument(
        "--storage", choices=("sqlite", "memory"), default="sqlite",
        help="storage backend behind --checkpoint (default sqlite; "
        "--resume and `repro kb` auto-detect from the file)",
    )
    mine.set_defaults(func=_cmd_mine)

    kb = sub.add_parser(
        "kb", help="inspect a knowledge base saved via mine --checkpoint"
    )
    kb.add_argument("path", help="path to a saved session store")
    kb.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="how many rules/members to list (default 10)",
    )
    kb.add_argument(
        "--export", metavar="DIR", default=None,
        help="also write the full KB as CSV and JSON into DIR",
    )
    kb.set_defaults(func=_cmd_kb)

    replay = sub.add_parser(
        "replay", help="re-evaluate a saved answer cache at new thresholds"
    )
    replay.add_argument("cache", help="path to a JSON answer cache")
    replay.add_argument("--support", type=float, default=0.10)
    replay.add_argument("--confidence", type=float, default=0.50)
    replay.set_defaults(func=_cmd_replay)

    experiment = sub.add_parser("experiment", help="run a canonical experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", choices=("smoke", "full"), default="smoke")
    experiment.add_argument(
        "--export", metavar="DIR", default=None,
        help="also write CSV/JSON result files into DIR",
    )
    experiment.set_defaults(func=_cmd_experiment)

    serve = sub.add_parser(
        "serve", help="run the real-time HTTP serving surface"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port to bind (0 picks a free one; the bound address "
        "is printed once the server accepts connections)",
    )
    serve.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="make sessions durable: one SQLite store per session in "
        "DIR, checkpointed live and drained on shutdown",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="reload every session found in --data-dir before "
        "accepting traffic; outstanding questions are re-offered",
    )
    serve.add_argument(
        "--repair", action="store_true",
        help="with --resume: scrub each store on open and fall back "
        "past corrupt checkpoints instead of refusing to start",
    )
    serve.add_argument(
        "--chaos-kill", metavar="PHASE:COUNT", default=None,
        help="chaos testing: SIGKILL this process at the Nth hit of a "
        "kill-point (append, commit, checkpoint, request) — e.g. "
        "commit:3; used by the crash-schedule tests, not for "
        "production",
    )
    serve.set_defaults(func=_cmd_serve)

    classic = sub.add_parser("classic", help="classic mining on Quest data")
    classic.add_argument("--items", type=int, default=100)
    classic.add_argument("--transactions", type=int, default=4_000)
    classic.add_argument("--support", type=float, default=0.05)
    classic.add_argument("--confidence", type=float, default=0.6)
    classic.add_argument("--top", type=int, default=10)
    classic.add_argument("--seed", type=int, default=0)
    classic.set_defaults(func=_cmd_classic)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
