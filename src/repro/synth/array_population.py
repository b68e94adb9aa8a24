"""Vectorized populations: member state as columns of shared arrays.

:class:`~repro.synth.population.Population` materializes every member
as a Python object holding a personal :class:`TransactionDB` — perfect
for paper-scale crowds, hopeless at a million members. An
:class:`ArrayPopulation` stores the same latent state *columnar*:
habit membership, per-member antecedent/conditional rates, and trust
priors are columns of shared numpy arrays, generated lazily in fixed
blocks, and individual :class:`Member` facades (with a genuinely
materialized database) are built on demand for the call sites that
need an object.

Determinism contract (see ``docs/scaling.md``): every random stream is
keyed by ``(root_entropy, kind, index...)`` — profile blocks by
``(root, 0, block)`` on a seeded generator, habit occasion draws by
``(root, 1, member, 2·pattern[+1])`` and background item draws by
``(root, 2, member, item)`` on counter-based splitmix64 streams — so
any member's state is a pure function of the root entropy, independent
of access order, crowd size paging, or shard layout. Pickling stores
only the recipe ``(model, n, transactions, entropy)``; state is
regenerated on demand after a restore.

Queries answer from occasion *bitsets*: one Python int per stream, one
bit per transaction. A query plans the streams its items need (the
member-independent part of the plan and of every key is precomputed
per population), hashes them all in one numpy pass, packs each row
with ``np.packbits``, ORs rows into item presence, ANDs items into a
rule's body and antecedent, and counts with ``int.bit_count``.
:meth:`~ArrayPopulation.rule_stats_at`,
:meth:`~ArrayPopulation.item_matrix` and
:meth:`~ArrayPopulation.mean_itemset_support` share that one kernel,
so a closed answer costs one hashing pass and a few integer
operations.

The layout is *not* stream-compatible with
:func:`~repro.synth.population.build_population` (which interleaves
data-dependent draws on one generator); equivalence tests therefore
compare the array path against the object path run on
:meth:`ArrayPopulation.materialize`, which shares these columns
exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro._util import check_positive
from repro.core.items import ItemDomain
from repro.core.measures import RuleStats
from repro.core.rule import Rule
from repro.core.transactions import TransactionDB
from repro.errors import ConfigurationError
from repro.synth.latent import LatentHabitModel, UserHabit, UserProfile
from repro.synth.population import Member, Population

#: Members per lazily-generated profile block.
BLOCK_SIZE = 4096

#: Default number of member facades / item matrices kept alive.
FACADE_CACHE = 1024

_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def _absorb(h: int, value: int) -> int:
    """Fold ``value`` into hash state ``h`` (splitmix64 finalizer)."""
    h = (h + value + _SM_GAMMA) & _MASK64
    h ^= h >> 30
    h = (h * _SM_MIX1) & _MASK64
    h ^= h >> 27
    h = (h * _SM_MIX2) & _MASK64
    return h ^ (h >> 31)


_U64_GAMMA = np.uint64(_SM_GAMMA)
_U64_MIX1 = np.uint64(_SM_MIX1)
_U64_MIX2 = np.uint64(_SM_MIX2)
_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)


def _pack_rows(rows: np.ndarray) -> list[int]:
    """Each boolean row as a Python-int bitset (``np.packbits`` order).

    Padding bits are 0, so ANDs, ORs and ``int.bit_count`` over the
    bitsets count exactly the row's true elements.
    """
    packed = np.packbits(rows, axis=1)
    width = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + width], "big") for i in range(0, len(buf), width)]


def _threshold(rate: float) -> int:
    """A stream fires where its top 53 hash bits fall below this:
    P(true) = ``rate`` to within 2⁻⁵³."""
    return int(rate * (1 << 53))


def _bernoulli_streams(
    keys: list[int], steps: np.ndarray, thresholds: list[int]
) -> np.ndarray:
    """Deterministic Bernoulli columns, one row per ``(key, threshold)``
    pair (thresholds from :func:`_threshold`).

    Counter-based splitmix64 streams: element ``(r, i)`` is a pure
    function of ``(keys[r], i)``, so columns never depend on access
    order and need no generator objects — per-call ``default_rng``
    seed hashing was the dominant cost of materializing occasion
    columns at the 100k-member scale. ``steps`` is the counter axis
    times the splitmix64 increment (``counter · γ``, fixed per
    population). All of a question's streams hash in one 2-d pass to
    amortize ufunc dispatch.
    """
    x = np.asarray(keys, dtype=np.uint64)[:, None] + steps[None, :]
    x ^= x >> _U64_30
    x *= _U64_MIX1
    x ^= x >> _U64_27
    x *= _U64_MIX2
    x ^= x >> _U64_31
    return (x >> _U64_11) < np.array(thresholds, dtype=np.uint64)[:, None]


class ArrayPopulation:
    """A crowd of ``n_members`` sampled from ``model``, stored columnar.

    Parameters
    ----------
    model:
        The latent habit model to sample from.
    n_members:
        Crowd size; member ids are ``u0000``-style, same scheme as
        :func:`~repro.synth.population.build_population`.
    transactions_per_member:
        Personal database size (equal for everyone, keeping the
        ground-truth oracle exact).
    seed:
        Root entropy. An int is used directly; a generator contributes
        one draw; ``None`` samples fresh OS entropy.
    """

    def __init__(
        self,
        model: LatentHabitModel,
        n_members: int,
        transactions_per_member: int = 200,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_positive(n_members, "n_members")
        check_positive(transactions_per_member, "transactions_per_member")
        self.model = model
        self.n_members = int(n_members)
        self.transactions_per_member = int(transactions_per_member)
        if isinstance(seed, np.random.Generator):
            self.entropy = int(seed.integers(2**63))
        elif seed is None:
            self.entropy = int(np.random.SeedSequence().entropy)
        else:
            self.entropy = int(seed)
        self._init_layout()

    def _init_layout(self) -> None:
        model = self.model
        self.domain: ItemDomain = model.domain
        self._items: tuple[str, ...] = tuple(model.domain.items)
        patterns = model.patterns
        self._n_patterns = len(patterns)
        self._prevalence = np.array([p.prevalence for p in patterns])
        self._ant_mean = np.array([p.antecedent_rate for p in patterns])
        self._cond_mean = np.array([p.conditional_rate for p in patterns])
        self._rate_std = np.array([p.rate_std for p in patterns])
        self._is_itemset = [p.rule.is_itemset_rule for p in patterns]
        # The occasion-stream plan, everything in it independent of the
        # member: per item, its column and the patterns whose draws can
        # place it, each with whether the item is in that pattern's
        # (non-empty) antecedent — then the pattern's antecedent draws
        # place it, otherwise only its full-body draws do.
        touches: dict[str, list[tuple[int, bool]]] = {}
        for p, pattern in enumerate(patterns):
            rule = pattern.rule
            for item in rule.body:
                touches.setdefault(item, []).append((p, item in rule.antecedent))
        self._item_plan: dict[str, tuple[int, tuple[tuple[int, bool], ...]]] = {
            item: (j, tuple(touches.get(item, ()))) for j, item in enumerate(self._items)
        }
        # Stream keys hash (entropy, kind, member, stream); the
        # member-independent (entropy, kind) prefix is absorbed once.
        entropy = self.entropy & _MASK64
        self._habit_prefix = _absorb(entropy, 1)
        self._background_prefix = _absorb(entropy, 2)
        self._background_threshold = _threshold(model.background_rate)
        # Counter axis shared by every occasion stream (1-based so a
        # zero key never meets a zero counter), premultiplied by γ.
        t = self.transactions_per_member
        self._stream_steps = np.arange(1, t + 1, dtype=np.uint64) * _U64_GAMMA
        #: Bitset with a bit for every occasion (``np.packbits`` layout).
        self._all_occasions = _pack_rows(np.ones((1, t), dtype=bool))[0]
        # Lazy caches (never pickled).
        self._profile_blocks: dict[int, tuple] = {}
        self._facades: OrderedDict[int, Member] = OrderedDict()
        self._matrices: OrderedDict[int, np.ndarray] = OrderedDict()

    # -- identity -------------------------------------------------------------

    def member_id_at(self, index: int) -> str:
        """The id of the member at ``index`` (``u``-prefixed, zero-padded)."""
        return f"u{index:04d}"

    def index_of(self, member_id: str) -> int:
        """O(1) inverse of :meth:`member_id_at`; raises ``KeyError``.

        Only the canonical form is accepted, checked on the string
        itself: ``u`` and ASCII digits, exactly four of them or more
        than four without a leading zero.
        """
        digits = member_id[1:]
        if (
            member_id[:1] != "u"
            or not (digits.isascii() and digits.isdigit())
            or len(digits) < 4
            or (len(digits) > 4 and digits[0] == "0")
        ):
            raise KeyError(member_id)
        index = int(digits)
        if index >= self.n_members:
            raise KeyError(member_id)
        return index

    def __len__(self) -> int:
        return self.n_members

    def __iter__(self) -> Iterator[Member]:
        for k in range(self.n_members):
            yield self.member_at(k)

    def member(self, member_id: str) -> Member:
        """Facade lookup by id (lazy materialization)."""
        return self.member_at(self.index_of(member_id))

    @property
    def members(self) -> list[Member]:
        """Every member facade, in index order.

        Materializes one facade per member — small scales only (the
        exact-scoring oracle walks this; at array scale exact scoring
        is skipped instead).
        """
        return [self.member_at(k) for k in range(self.n_members)]

    # -- columnar state -------------------------------------------------------

    def _block(self, b: int) -> tuple:
        """Profile columns for member block ``b`` (lazily generated).

        Returns ``(has, ant, cond, trust)``: habit membership (bool,
        block × patterns), per-member antecedent/conditional rates
        (float32 columns sharing the habit axis), and a per-member
        trust prior column (Beta(8, 2) — the latent-ability layer's
        optimistic starting point).
        """
        cached = self._profile_blocks.get(b)
        if cached is not None:
            return cached
        rng = np.random.default_rng([self.entropy, 0, b])
        start = b * BLOCK_SIZE
        size = min(BLOCK_SIZE, self.n_members - start)
        shape = (size, self._n_patterns)
        has = rng.random(shape) < self._prevalence
        # Standard normals are always drawn (fixed stream layout); a
        # zero rate_std collapses to the exact pattern mean.
        ant = np.clip(
            self._ant_mean + self._rate_std * rng.standard_normal(shape), 0.0, 1.0
        ).astype(np.float32)
        cond = np.clip(
            self._cond_mean + self._rate_std * rng.standard_normal(shape), 0.0, 1.0
        ).astype(np.float32)
        trust = rng.beta(8.0, 2.0, size=size).astype(np.float32)
        block = (has, ant, cond, trust)
        self._profile_blocks[b] = block
        return block

    def _profile_row(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        has, ant, cond, _ = self._block(k // BLOCK_SIZE)
        r = k % BLOCK_SIZE
        return has[r], ant[r], cond[r]

    def trust_prior_at(self, index: int) -> float:
        """The member's latent trust prior (a shared Beta(8,2) column)."""
        _, _, _, trust = self._block(index // BLOCK_SIZE)
        return float(trust[index % BLOCK_SIZE])

    def profile_at(self, index: int) -> UserProfile:
        """The member's latent profile, built from the shared columns."""
        has, ant, cond = self._profile_row(index)
        habits = tuple(
            UserHabit(
                pattern=self.model.patterns[p],
                antecedent_rate=float(ant[p]),
                conditional_rate=float(cond[p]),
            )
            for p in range(self._n_patterns)
            if has[p]
        )
        return UserProfile(habits)

    # -- occasion draws -------------------------------------------------------

    def _item_bits(self, k: int, items: tuple[str, ...]) -> list[int]:
        """Occasion bitsets of ``items`` in member ``k``'s database.

        One Python int per item, one bit per transaction (the
        :func:`_pack_rows` layout); an item outside the domain is 0.
        Only the requested items are generated — a closed question
        touches two to four of them, never the full item matrix. An
        item is present on an occasion when its background draw fires
        (``(entropy, 2, member, item)`` at the model's background
        rate) or a held habit places it: the habit's antecedent draws
        ``(entropy, 1, member, 2·pattern)`` place its antecedent items,
        and those draws AND its conditional draws ``(…, 2·pattern+1)``
        place the whole body (an itemset habit draws its body once, at
        the product rate). Every stream hashes in one pass.
        """
        has, ant, cond = (row.tolist() for row in self._profile_row(k))
        bg_threshold = self._background_threshold
        habit_key = _absorb(self._habit_prefix, k)
        background_key = _absorb(self._background_prefix, k)
        is_itemset = self._is_itemset
        keys: list[int] = []
        thresholds: list[int] = []
        pattern_rows: dict[int, tuple[int, int]] = {}
        plan: list[tuple[int | None, list[tuple[int, bool]]]] = []
        for item in items:
            entry = self._item_plan.get(item)
            if entry is None:
                plan.append((None, []))
                continue
            j, placers = entry
            bg_row: int | None = None
            if bg_threshold:
                bg_row = len(keys)
                keys.append(_absorb(background_key, j))
                thresholds.append(bg_threshold)
            held = [(p, in_antecedent) for p, in_antecedent in placers if has[p]]
            for p, _ in held:
                if p in pattern_rows:
                    continue
                row = len(keys)
                keys.append(_absorb(habit_key, 2 * p))
                if is_itemset[p]:
                    thresholds.append(_threshold(ant[p] * cond[p]))
                    pattern_rows[p] = (row, row)
                else:
                    keys.append(_absorb(habit_key, 2 * p + 1))
                    thresholds.extend((_threshold(ant[p]), _threshold(cond[p])))
                    pattern_rows[p] = (row, row + 1)
            plan.append((bg_row, held))
        if not keys:
            return [0] * len(items)
        rows = _pack_rows(_bernoulli_streams(keys, self._stream_steps, thresholds))
        bodies: dict[int, int] = {}
        out: list[int] = []
        for bg_row, held in plan:
            bits = 0 if bg_row is None else rows[bg_row]
            for p, in_antecedent in held:
                ant_row, cond_row = pattern_rows[p]
                if in_antecedent:
                    bits |= rows[ant_row]
                    continue
                body = bodies.get(p)
                if body is None:
                    body = bodies[p] = rows[ant_row] & rows[cond_row]
                bits |= body
            out.append(bits)
        return out

    def item_matrix(self, index: int) -> np.ndarray:
        """Member ``index``'s full boolean (transactions × items) matrix."""
        cached = self._matrices.get(index)
        if cached is not None:
            self._matrices.move_to_end(index)
            return cached
        t = self.transactions_per_member
        width = (t + 7) // 8
        bits = self._item_bits(index, self._items)
        packed = np.frombuffer(b"".join(b.to_bytes(width, "big") for b in bits), dtype=np.uint8)
        unpacked = np.unpackbits(packed.reshape(len(bits), width), axis=1, count=t)
        matrix = unpacked.T.astype(bool, order="C")
        self._matrices[index] = matrix
        while len(self._matrices) > FACADE_CACHE:
            self._matrices.popitem(last=False)
        return matrix

    # -- per-member queries ---------------------------------------------------

    def rule_stats_at(self, index: int, rule: Rule) -> RuleStats:
        """Exact ``(support, confidence)`` of ``rule`` for one member.

        Matches ``self.db_at(index).rule_stats(rule)`` bit for bit:
        both divide the same integer occasion counts.
        """
        t = self.transactions_per_member
        antecedent = rule.antecedent.items
        bits = self._item_bits(index, antecedent + rule.consequent.items)
        ant = self._all_occasions
        for item_bits in bits[: len(antecedent)]:
            ant &= item_bits
        body = ant
        for item_bits in bits[len(antecedent) :]:
            body &= item_bits
        body_count = body.bit_count()
        support = body_count / t
        if rule.is_itemset_rule:
            return RuleStats(support, support)
        ant_count = ant.bit_count()
        confidence = 0.0 if ant_count == 0 else body_count / ant_count
        return RuleStats(support, confidence)

    def db_at(self, index: int) -> TransactionDB:
        """Member ``index``'s materialized personal database."""
        return self.member_at(index).db

    def member_at(self, index: int) -> Member:
        """The lazily-built object facade of member ``index``.

        Facades live in a bounded LRU cache; the same index always
        rebuilds an identical facade (same columns, same matrix), so
        eviction is invisible apart from object identity.
        """
        if not 0 <= index < self.n_members:
            raise IndexError(index)
        cached = self._facades.get(index)
        if cached is not None:
            self._facades.move_to_end(index)
            return cached
        matrix = self.item_matrix(index)
        items = self._items
        rows = (
            frozenset(items[j] for j in np.flatnonzero(matrix[t]))
            for t in range(self.transactions_per_member)
        )
        member = Member(
            member_id=self.member_id_at(index),
            db=TransactionDB(rows),
            profile=self.profile_at(index),
        )
        self._facades[index] = member
        while len(self._facades) > FACADE_CACHE:
            self._facades.popitem(last=False)
        return member

    # -- population-level API (oracle primitives) ----------------------------

    def materialize(self) -> Population:
        """The equivalent object-backed :class:`Population`.

        Small-scale only (it builds every facade); the equivalence
        tests run the object pipeline on this and compare byte-for-byte
        against the array pipeline.
        """
        if self.n_members > 100_000:
            raise ConfigurationError(
                f"refusing to materialize {self.n_members} members as objects"
            )
        return Population(
            domain=self.domain,
            members=tuple(self.member_at(k) for k in range(self.n_members)),
        )

    def mean_rule_stats(self, rule: Rule) -> tuple[float, float]:
        """Exact crowd-mean ``(support, confidence)`` of ``rule``."""
        supports = np.empty(self.n_members)
        confidences = np.empty(self.n_members)
        for k in range(self.n_members):
            stats = self.rule_stats_at(k, rule)
            supports[k] = stats.support
            confidences[k] = stats.confidence
        return (float(supports.mean()), float(confidences.mean()))

    def mean_itemset_support(self, itemset) -> float:
        """Exact crowd-mean support of an itemset."""
        t = self.transactions_per_member
        items = tuple(itemset)
        total = 0
        for k in range(self.n_members):
            row = self._all_occasions
            for bits in self._item_bits(k, items):
                row &= bits
            total += row.bit_count()
        return total / (self.n_members * t)

    def union_db(self) -> TransactionDB:
        """All members' transactions in one database (small-scale only)."""
        return TransactionDB.concatenate(
            [self.member_at(k).db for k in range(self.n_members)]
        )

    @property
    def equal_sized(self) -> bool:
        """Always true: every member draws the same number of occasions."""
        return True

    # -- pickling: recipe only ------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "model": self.model,
            "n_members": self.n_members,
            "transactions_per_member": self.transactions_per_member,
            "entropy": self.entropy,
        }

    def __setstate__(self, state: dict) -> None:
        self.model = state["model"]
        self.n_members = state["n_members"]
        self.transactions_per_member = state["transactions_per_member"]
        self.entropy = state["entropy"]
        self._init_layout()

    def __repr__(self) -> str:
        return (
            f"ArrayPopulation({self.n_members} members, "
            f"{self._n_patterns} patterns, {len(self.domain)} items)"
        )
