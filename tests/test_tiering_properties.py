"""Property tests for tiering-policy invariants.

Because :class:`DecayHeatPolicy` and the §6 cache policies
(:class:`LruPolicy`, :class:`LfuPolicy`) are pure functions of a frozen
:class:`ObservedState`, their invariants can be stated over *arbitrary*
states, not just ones a live file system happens to produce:

* the movement budget is never exceeded;
* decisions are a pure function of the observed state (same state →
  same actions, and deciding mutates nothing);
* no action targets a file the policy has no business touching
  (promotions only for non-resident, closed files; demotions only for
  policy-cached ones);
* the cache policies keep the bytes they pinned in memory within
  ``memory_budget``, and one round settles them (deciding again on the
  state the round left moves nothing);
* the hysteresis band holds end-to-end: driving a real engine with a
  seeded random workload never promotes and demotes the same file
  within one half-life.

Randomized state generation uses Hypothesis; the end-to-end hysteresis
checks replay seeded workloads through a real ``TieringEngine``.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.tier import (
    DEMOTE,
    PROMOTE,
    DecayHeatPolicy,
    FileObservation,
    HeatTracker,
    LfuPolicy,
    LruPolicy,
    ObservedState,
    TieringEngine,
    TierObservation,
)
from repro.util.rng import DeterministicRng
from repro.util.units import GB, MB


# ----------------------------------------------------------------------
# State generation
# ----------------------------------------------------------------------
def file_observations():
    heats = st.floats(min_value=0.0, max_value=64.0, allow_nan=False)
    stamps = st.one_of(
        st.just(-math.inf), st.floats(min_value=0.0, max_value=200.0)
    )
    return st.builds(
        FileObservation,
        path=st.from_regex(r"/f[a-d][0-9]", fullmatch=True),
        heat=heats,
        length=st.integers(min_value=0, max_value=64 * MB),
        memory_replicas=st.integers(min_value=0, max_value=2),
        policy_memory_replicas=st.integers(min_value=0, max_value=1),
        under_construction=st.booleans(),
        accesses=st.integers(min_value=0, max_value=6),
        last_access=stamps,
        last_promoted=stamps,
        last_demoted=stamps,
    )


def observed_states():
    tier = st.builds(
        TierObservation,
        name=st.just("MEMORY"),
        total_capacity=st.just(128 * MB),
        used=st.integers(min_value=0, max_value=128 * MB),
        remaining=st.integers(min_value=0, max_value=128 * MB),
    )
    return st.builds(
        ObservedState,
        now=st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        half_life=st.floats(min_value=0.1, max_value=60.0),
        files=st.lists(
            file_observations(), max_size=12, unique_by=lambda f: f.path
        ).map(tuple),
        tiers=st.one_of(st.just(()), tier.map(lambda t: (t,))),
    )


def policies():
    return st.builds(
        DecayHeatPolicy,
        promote_heat=st.floats(min_value=0.5, max_value=8.0),
        demote_heat=st.floats(min_value=0.0, max_value=0.5),
        movement_budget=st.integers(min_value=0, max_value=6),
        min_residency=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=50.0)
        ),
        cooldown=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=50.0)
        ),
        headroom=st.floats(min_value=0.0, max_value=0.5),
    )


def cache_policies():
    return st.sampled_from([LruPolicy, LfuPolicy]).flatmap(
        lambda cls: st.builds(
            cls,
            memory_budget=st.integers(min_value=1, max_value=128 * MB),
            promote_after=st.integers(min_value=1, max_value=4),
        )
    )


def any_policies():
    return st.one_of(policies(), cache_policies())


def policy_cached_bytes(files):
    return sum(f.length for f in files if f.policy_memory_replicas > 0)


# ----------------------------------------------------------------------
# Pure-policy properties
# ----------------------------------------------------------------------
@given(policy=policies(), state=observed_states())
def test_movement_budget_never_exceeded(policy, state):
    assert len(policy.decide(state)) <= policy.movement_budget


@given(policy=any_policies(), state=observed_states())
def test_decide_is_pure(policy, state):
    """Same state → same actions; repeated decisions stay identical and
    neither the state nor the policy is mutated along the way."""
    before = dataclasses.asdict(state)
    first = policy.decide(state)
    second = policy.decide(state)
    assert first == second
    assert dataclasses.asdict(state) == before


@given(policy=policies(), state=observed_states())
def test_actions_only_touch_eligible_files(policy, state):
    by_path = {f.path: f for f in state.files}
    for action in policy.decide(state):
        observed = by_path[action.path]
        if action.kind == PROMOTE:
            assert observed.memory_replicas == 0
            assert not observed.under_construction
            assert observed.heat > policy.promote_heat
        else:
            assert action.kind == DEMOTE
            assert observed.policy_memory_replicas > 0
            assert observed.heat <= policy.demote_heat


@given(policy=cache_policies(), state=observed_states())
def test_cache_actions_only_touch_eligible_files(policy, state):
    by_path = {f.path: f for f in state.files}
    for action in policy.decide(state):
        observed = by_path[action.path]
        assert action.tier == state.memory_tier
        if action.kind == PROMOTE:
            assert observed.memory_replicas == 0
            assert not observed.under_construction
            assert observed.accesses >= policy.promote_after
            assert observed.length <= policy.memory_budget
        else:
            assert action.kind == DEMOTE
            assert observed.policy_memory_replicas > 0


@given(policy=cache_policies(), state=observed_states())
def test_cache_bytes_fit_budget_after_the_round(policy, state):
    """Whatever the cache held before (a lowered budget, a swapped
    policy), the round's actions leave it within ``memory_budget``."""
    by_path = {f.path: f for f in state.files}
    after = policy_cached_bytes(state.files)
    for action in policy.decide(state):
        delta = by_path[action.path].length
        after += delta if action.kind == PROMOTE else -delta
    assert after <= policy.memory_budget


@given(policy=cache_policies(), state=observed_states())
def test_cache_settles_in_one_round(policy, state):
    """Applying a round's actions and deciding again, with no accesses
    in between, moves nothing: the cache never flaps."""
    kinds = {a.path: a.kind for a in policy.decide(state)}
    after = []
    for f in state.files:
        if kinds.get(f.path) == PROMOTE:
            f = dataclasses.replace(f, memory_replicas=1, policy_memory_replicas=1)
        elif kinds.get(f.path) == DEMOTE:
            f = dataclasses.replace(
                f,
                memory_replicas=max(0, f.memory_replicas - 1),
                policy_memory_replicas=0,
            )
        after.append(f)
    assert policy.decide(dataclasses.replace(state, files=tuple(after))) == []


@given(policy=any_policies(), state=observed_states())
def test_no_file_promoted_and_demoted_in_one_round(policy, state):
    actions = policy.decide(state)
    promoted = {a.path for a in actions if a.kind == PROMOTE}
    demoted = {a.path for a in actions if a.kind == DEMOTE}
    assert not (promoted & demoted)


@given(policy=policies(), state=observed_states())
def test_hysteresis_gates_hold_per_decision(policy, state):
    """Temporal hysteresis directly from the state's timestamps: a
    demotion requires ``min_residency`` since the promotion the policy
    is undoing, a promotion requires ``cooldown`` since the last
    demotion. Defaults are one half-life."""
    min_residency = (
        state.half_life if policy.min_residency is None else policy.min_residency
    )
    cooldown = state.half_life if policy.cooldown is None else policy.cooldown
    by_path = {f.path: f for f in state.files}
    for action in policy.decide(state):
        observed = by_path[action.path]
        if action.kind == DEMOTE:
            assert state.now - observed.last_promoted >= min_residency
        else:
            assert state.now - observed.last_demoted >= cooldown


@given(state=observed_states())
def test_default_hysteresis_spans_a_half_life(state):
    """With default knobs no state can make the policy demote a file it
    promoted less than one half-life ago, nor re-promote one it demoted
    less than one half-life ago — the ISSUE's flapping invariant."""
    for action in DecayHeatPolicy().decide(state):
        observed = {f.path: f for f in state.files}[action.path]
        if action.kind == DEMOTE:
            assert state.now - observed.last_promoted >= state.half_life
        else:
            assert state.now - observed.last_demoted >= state.half_life


@given(
    state=observed_states(),
    budgets=st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    ),
)
def test_smaller_budget_is_a_prefix_of_larger(state, budgets):
    """Budgets only truncate: a tighter budget applies a prefix of the
    looser budget's plan, never a different plan."""
    low, high = min(budgets), max(budgets)
    small = DecayHeatPolicy(movement_budget=low).decide(state)
    large = DecayHeatPolicy(movement_budget=high).decide(state)
    assert large[:low] == small


# ----------------------------------------------------------------------
# Heat determinism
# ----------------------------------------------------------------------
@given(
    accesses=st.lists(
        st.tuples(
            st.sampled_from(["/a", "/b", "/c"]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        max_size=40,
    ),
    half_life=st.floats(min_value=0.5, max_value=50.0),
)
def test_heat_is_pure_function_of_access_sequence(accesses, half_life):
    """Two trackers fed the identical (path, time) sequence agree on
    every key — the determinism the policy layer builds on."""
    ordered = sorted(accesses, key=lambda a: a[1])
    first, second = HeatTracker(half_life), HeatTracker(half_life)
    for path, when in ordered:
        first.record(path, when)
        second.record(path, when)
    assert first.snapshot(100.0) == second.snapshot(100.0)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=20,
    ),
    half_life=st.floats(min_value=0.5, max_value=50.0),
)
def test_heat_bounded_by_access_count_and_positive(times, half_life):
    tracker = HeatTracker(half_life)
    for when in sorted(times):
        tracker.record("/f", now=when)
    heat = tracker.heat("/f", now=100.0)
    assert 0.0 < heat <= len(times)


# ----------------------------------------------------------------------
# End-to-end: seeded workloads through a real engine
# ----------------------------------------------------------------------
HALF_LIFE = 8.0


def _run_seeded_workload(seed):
    """Random reads over a small file pool with an aggressive policy
    (thresholds close together, tiny budget left at default residency)
    to maximise flapping pressure; returns the engine's decision log."""
    fs = OctopusFileSystem(small_cluster_spec(seed=seed))
    client = fs.client(on="worker1")
    paths = []
    for index in range(4):
        path = f"/prop/file-{index}"
        client.write_file(path, size=2 * MB, rep_vector=ReplicationVector.of(hdd=2))
        paths.append(path)
    engine = TieringEngine(
        fs,
        policy=DecayHeatPolicy(
            promote_heat=1.2, demote_heat=1.0, movement_budget=2
        ),
        half_life=HALF_LIFE,
    ).attach()
    rng = DeterministicRng(seed, "tiering-properties")
    per_round = []
    for _ in range(30):
        for _ in range(rng.randint(0, 4)):
            client.open(rng.choice(paths)).read_size()
        fs.engine.run(until=fs.engine.now + rng.uniform(0.5, 6.0))
        per_round.append(engine.run_round())
        fs.await_replication()
    engine.detach()
    return engine, per_round


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engine_never_flaps_within_half_life(seed):
    engine, per_round = _run_seeded_workload(seed)
    last_applied = {}  # path -> (kind, time)
    applied = 0
    for decision in engine.decision_log:
        if decision.outcome != "applied":
            continue
        applied += 1
        previous = last_applied.get(decision.action.path)
        if previous is not None and previous[0] != decision.action.kind:
            gap = decision.time - previous[1]
            assert gap >= HALF_LIFE, (
                f"{decision.action.path} flipped {previous[0]} → "
                f"{decision.action.kind} after only {gap:.2f}s"
            )
        last_applied[decision.action.path] = (
            decision.action.kind, decision.time,
        )
    assert applied > 0, "workload never triggered the policy"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engine_rounds_respect_budget(seed):
    engine, per_round = _run_seeded_workload(seed)
    assert any(per_round)
    assert all(len(round_) <= 2 for round_ in per_round)


@pytest.mark.parametrize("seed", [0, 1])
def test_observed_state_decides_identically_offline(seed):
    """The state the engine observes mid-run can be re-decided later
    (or elsewhere) with identical results — decisions depend on the
    snapshot alone, not on engine internals."""
    engine, _ = _run_seeded_workload(seed)
    state = engine.observe()
    offline = DecayHeatPolicy(
        promote_heat=1.2, demote_heat=1.0, movement_budget=2
    )
    assert offline.decide(state) == engine.policy.decide(state)
