"""Property tests for crowd scheduling under departures and exclusion.

The dispatcher leans on two round-robin guarantees that must hold for
*any* pattern of member departures and busy-exclusion:

- :meth:`SimulatedCrowd.next_member` never returns a departed member,
  and never one the caller excluded, whatever the crowd size and
  patience;
- no available member is starved: while the available set is stable,
  a full round of calls reaches every available member at least once.

And every scheduler takes its turns from the one rotation of
:mod:`repro.crowd.rotation`: driven through the same random sequence
of picks, departures, quarantines and patience exhaustion, the one
simulated crowd (over an explicit population, with garbled members,
and over a columnar one), the member crowd over stream members, a
one-partition view of a crowd, and the serving roster pick the same
member at every step and agree on who is still available.

A partition follows its crowd's departure log, so when it was built,
and whether it went through a pickle round trip, never changes how it
schedules.

The crowds and the roster share that surface by inheriting it from
:class:`~repro.crowd.rotation.Roster`: none of them redefines it, and
on each an unknown id is neither available nor quarantined.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rule import Rule
from repro.core.transactions import TransactionDB
from repro.crowd import (
    MemberCrowd,
    SimulatedCrowd,
    StreamMember,
    standard_answer_model,
)
from repro.crowd.rotation import Roster
from repro.errors import CrowdExhaustedError
from repro.faults import build_adversarial_crowd
from repro.serve import WorkerRoster
from repro.synth import ArrayPopulation, folk_remedies_model
from tests.crowd.populations import population_of


def make_crowd(shape):
    """A crowd of ``n`` members who each answer ``patience`` questions."""
    n, patience = shape
    db = TransactionDB([["tea", "honey"]])
    return SimulatedCrowd(population_of(*[db] * n), patience=patience, seed=0)


# Each element drives one scheduling round: whether to actually ask the
# scheduled member (consuming patience, eventually forcing departures)
# and which member indices to mark busy for that call.
rounds = st.lists(
    st.tuples(st.booleans(), st.sets(st.integers(min_value=0, max_value=7))),
    min_size=1,
    max_size=60,
)
#: (crowd size, patience); ``None`` is unbounded patience.
patiences = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
)


class TestNextMemberProperties:
    @settings(max_examples=60, deadline=None)
    @given(patiences=patiences, rounds=rounds)
    def test_never_departed_never_excluded(self, patiences, rounds):
        from repro.core.rule import Rule

        crowd = make_crowd(patiences)
        rule = Rule(["tea"], ["honey"])  # content is irrelevant here
        for ask, busy_indices in rounds:
            busy = {f"u{i}" for i in busy_indices}
            available = set(crowd.available_members())
            if not available:
                break
            member_id = crowd.next_member(exclude=busy)
            if available <= busy:
                assert member_id is None
                continue
            assert member_id is not None
            assert member_id in available, "returned a departed member"
            assert member_id not in busy, "returned an excluded member"
            if ask:
                crowd.ask_closed(member_id, rule)

    @settings(max_examples=60, deadline=None)
    @given(patiences=patiences)
    def test_full_round_reaches_every_available_member(self, patiences):
        crowd = make_crowd(patiences)
        available = crowd.available_members()
        # No departures happen between calls (we never ask), so one
        # full round must name every available member: nobody starves.
        seen = {crowd.next_member() for _ in range(len(available))}
        assert seen == set(available)

    @settings(max_examples=30, deadline=None)
    @given(patiences=patiences, busy_index=st.integers(min_value=0, max_value=7))
    def test_exclusion_does_not_starve_the_others(self, patiences, busy_index):
        crowd = make_crowd(patiences)
        busy = {f"u{busy_index}"}
        expected = set(crowd.available_members()) - busy
        seen = set()
        # Two full rounds are enough for every non-busy member to come
        # up even though the shared cursor also advances past the busy
        # one.
        for _ in range(2 * max(1, len(expected))):
            member_id = crowd.next_member(exclude=busy)
            if member_id is not None:
                seen.add(member_id)
        assert seen == expected

    def test_everyone_left_still_raises(self):
        crowd = make_crowd((1, 1))
        from repro.core.rule import Rule

        crowd.ask_closed("u0", Rule(["tea"], ["honey"]))
        try:
            crowd.next_member()
        except CrowdExhaustedError:
            pass
        else:  # pragma: no cover - the assertion documents the contract
            raise AssertionError("expected CrowdExhaustedError")


N_MEMBERS = 8
PATIENCE = 3

_MODEL = folk_remedies_model(seed=1)
_ARRAY_POPULATION = ArrayPopulation(
    _MODEL, n_members=N_MEMBERS, transactions_per_member=20, seed=2
)
_POPULATION = _ARRAY_POPULATION.materialize()
_IDS = [m.member_id for m in _POPULATION]
_ITEMS = list(_MODEL.domain.items)
_RULE = Rule([_ITEMS[0]], [_ITEMS[1]])


class _CrowdDriver:
    """Availability facts applied to a crowd; picks from ``scheduler``."""

    def __init__(self, crowd, scheduler=None):
        self.crowd = crowd
        self.scheduler = scheduler or crowd

    def depart(self, member_id):
        self.crowd.crash(member_id)

    def quarantine(self, member_id):
        self.crowd.quarantine(member_id)

    def exhaust(self, member_id):
        # One ask past the patience: a stream member only notices its
        # stream ran dry on the read that fails.
        for _ in range(PATIENCE + 1):
            try:
                self.crowd.ask_closed(member_id, _RULE)
            except CrowdExhaustedError:
                break


class _RosterDriver:
    """Serving members report departure (patience included) as facts."""

    def __init__(self, roster):
        self.scheduler = roster
        self.quarantine = roster.quarantine
        self.depart = self.exhaust = roster.depart


def _simulated_crowd(population=_POPULATION):
    return SimulatedCrowd(
        population, answer_model=standard_answer_model(), patience=PATIENCE, seed=5
    )


def _garbled_crowd():
    crowd, _roles = build_adversarial_crowd(
        _POPULATION,
        (("garbled", 1.0),),
        answer_model=standard_answer_model(),
        patience=PATIENCE,
        seed=0,
        garbled_rate=0.5,
    )
    return crowd


def _array_crowd():
    return _simulated_crowd(_ARRAY_POPULATION)


def _partition_driver(crowd):
    (partition,) = crowd.partitions(1)
    return _CrowdDriver(crowd, partition)


def _stream_crowd(gone_before=()):
    """Stream members who answer ``PATIENCE`` questions; ``gone_before``
    leave before the crowd exists."""
    members = [StreamMember(m.member_id, ["often"] * PATIENCE) for m in _POPULATION]
    for index in gone_before:
        members[index].leave()
    return MemberCrowd(members)


SCHEDULERS = {
    "simulated": lambda: _CrowdDriver(_simulated_crowd()),
    "garbled": lambda: _CrowdDriver(_garbled_crowd()),
    "stream": lambda: _CrowdDriver(_stream_crowd()),
    "array": lambda: _CrowdDriver(_array_crowd()),
    "partition": lambda: _partition_driver(_simulated_crowd()),
    "array-partition": lambda: _partition_driver(_array_crowd()),
    "roster": lambda: _RosterDriver(WorkerRoster(_IDS)),
}


#: One op: pick with a busy set, or an availability fact about one
#: member index. ("pick", frozenset) | (fact, index)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("pick"),
            st.frozensets(st.integers(0, N_MEMBERS - 1), max_size=N_MEMBERS),
        ),
        st.tuples(
            st.sampled_from(["depart", "quarantine", "exhaust"]),
            st.integers(0, N_MEMBERS - 1),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _pick(scheduler, exclude):
    try:
        return ("picked", scheduler.next_member(exclude=exclude))
    except CrowdExhaustedError:
        return ("exhausted", None)


class TestOneRotation:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_every_scheduler_takes_the_same_turns(self, ops):
        drivers = {name: make() for name, make in SCHEDULERS.items()}
        for driver in drivers.values():
            assert driver.scheduler.member_ids == _IDS
        for op, arg in ops:
            if op == "pick":
                busy = {_IDS[i] for i in arg}
                outcomes = {
                    name: _pick(driver.scheduler, busy)
                    for name, driver in drivers.items()
                }
                assert len(set(outcomes.values())) == 1, outcomes
            else:
                for driver in drivers.values():
                    getattr(driver, op)(_IDS[arg])
            available = {
                name: tuple(driver.scheduler.available_members())
                for name, driver in drivers.items()
            }
            assert len(set(available.values())) == 1, available
            for driver in drivers.values():
                assert driver.scheduler.available_count() == len(available["roster"])
                if hasattr(driver.scheduler, "is_member_available"):
                    for mid in _IDS:
                        assert driver.scheduler.is_member_available(mid) == (
                            mid in available["roster"]
                        )

    def test_members_without_a_departure_hook_are_refused(self):
        class Hookless:
            member_id = "u0"
            is_available = True

        with pytest.raises(TypeError):
            MemberCrowd([Hookless()])


#: The schedulers that own their members (partitions are views).
CROWDS = {
    "simulated": _simulated_crowd,
    "array": _array_crowd,
    "stream": _stream_crowd,
    "roster": lambda: WorkerRoster(_IDS),
}

#: The surface every crowd inherits from the one roster.
SHARED = {
    "available_members",
    "iter_available",
    "available_count",
    "is_member_available",
    "quarantine",
    "is_quarantined",
    "quarantined_members",
    "next_member",
    "partitions",
}


class TestOneRoster:
    @pytest.mark.parametrize("kind", sorted(CROWDS))
    def test_inherits_the_shared_surface(self, kind):
        cls = type(CROWDS[kind]())
        assert issubclass(cls, Roster)
        assert not SHARED & set(vars(cls)), cls

    @pytest.mark.parametrize("kind", sorted(CROWDS))
    def test_unknown_ids_are_neither_available_nor_quarantined(self, kind):
        crowd = CROWDS[kind]()
        crowd.quarantine(_IDS[1])
        for ghost in ("ghost", "", "u0", "u99999"):
            assert not crowd.is_member_available(ghost)
            assert not crowd.is_quarantined(ghost)
            with pytest.raises(KeyError):
                crowd.quarantine(ghost)
        assert crowd.quarantined_members == {_IDS[1]}
        assert crowd.available_count() == N_MEMBERS - 1

    @pytest.mark.parametrize("kind", sorted(CROWDS))
    def test_quarantine_survives_a_pickle_round_trip(self, kind):
        crowd = CROWDS[kind]()
        crowd.next_member()
        crowd.quarantine(_IDS[2])
        crowd.quarantine(_IDS[0])
        twin = pickle.loads(pickle.dumps(crowd))
        assert twin.quarantined_members == {_IDS[0], _IDS[2]}
        assert twin.is_quarantined(_IDS[2]) and not twin.is_quarantined(_IDS[1])
        assert twin.available_members() == crowd.available_members()
        for _ in range(N_MEMBERS):
            assert twin.next_member() == crowd.next_member()


#: Member indices that leave before the first partition is built (the
#: stream crowd's members leave before the crowd itself exists).
GONE_BEFORE = st.frozensets(st.integers(0, N_MEMBERS - 1), max_size=N_MEMBERS - 1)


def _crowd_with_early_leavers(kind, gone_before):
    if kind == "stream":
        return _stream_crowd(gone_before)
    crowd = _simulated_crowd() if kind == "simulated" else _array_crowd()
    for index in sorted(gone_before):
        crowd.crash(_IDS[index])
    return crowd


def _views(parts):
    return [(p.available_members(), list(p.iter_available()), p.available_count()) for p in parts]


def _drive_views(worlds, ops):
    """Apply ``ops`` to (crowd, partitions) worlds; their views must agree.

    Facts go to each distinct crowd once; picks go to every partition.
    """
    crowds = list({id(crowd): crowd for crowd, _parts in worlds}.values())
    for op, arg in ops:
        if op == "pick":
            busy = {_IDS[i] for i in arg}
            picks = [[_pick(part, busy) for part in parts] for _crowd, parts in worlds]
            assert all(p == picks[0] for p in picks), picks
        else:
            for crowd in crowds:
                getattr(_CrowdDriver(crowd), op)(_IDS[arg])
        views = [_views(parts) for _crowd, parts in worlds]
        assert all(v == views[0] for v in views), views
        for members, walked, count in views[0]:
            assert walked == members and count == len(members)


class TestPartitionViews:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["simulated", "array", "stream"]),
        shards=st.integers(1, 3),
        gone_before=GONE_BEFORE,
        facts=OPS,
        ops=OPS,
    )
    def test_partition_built_after_departures_schedules_alike(
        self, kind, shards, gone_before, facts, ops
    ):
        crowd = _crowd_with_early_leavers(kind, gone_before)
        early = crowd.partitions(shards)
        for op, arg in facts:
            if op != "pick":
                getattr(_CrowdDriver(crowd), op)(_IDS[arg])
        late = crowd.partitions(shards)
        assert sorted(m for part in late for m in part.available_members()) == sorted(
            crowd.available_members()
        )
        _drive_views([(crowd, early), (crowd, late)], ops)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["simulated", "array", "stream"]),
        shards=st.integers(1, 3),
        gone_before=GONE_BEFORE,
        before=OPS,
        after=OPS,
    )
    def test_pickled_partition_schedules_alike(self, kind, shards, gone_before, before, after):
        crowd = _crowd_with_early_leavers(kind, gone_before)
        world = (crowd, crowd.partitions(shards))
        _drive_views([world], before)
        twin = pickle.loads(pickle.dumps(world))
        _drive_views([world, twin], after)
