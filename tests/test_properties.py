"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ReactivePipeline
from repro.core.view import GlobalView
from repro.learning.reputation import ReputationSystem
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SystemState
from repro.policy.fsm import PolicyFSM, StatePredicate
from repro.policy.posture import MboxSpec, Posture
from repro.policy.pruning import PrunedPolicy, independence_groups, relevant_variables
from repro.sdn.flowrule import FlowMatch


# ----------------------------------------------------------------------
# Simulator: event ordering is total and time never goes backwards
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=50))
def test_simulator_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), st.integers()),
        max_size=30,
    )
)
def test_simultaneous_events_preserve_schedule_order(items):
    sim = Simulator()
    fired = []
    for delay, tag in items:
        sim.schedule(round(delay, 1), fired.append, (round(delay, 1), tag))
    sim.run()
    # stable: among equal times, original order preserved
    for t in {time for time, __ in fired}:
        same_t = [tag for time, tag in fired if time == t]
        expected = [tag for time, tag in ((round(d, 1), g) for d, g in items) if time == t]
        assert same_t == expected


# ----------------------------------------------------------------------
# FlowMatch: overlap and subsumption laws
# ----------------------------------------------------------------------
field_strategy = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
port_strategy = st.one_of(st.none(), st.sampled_from([80, 8080, 53]))


@st.composite
def flow_matches(draw):
    return FlowMatch(
        src=draw(field_strategy),
        dst=draw(field_strategy),
        protocol=draw(st.one_of(st.none(), st.sampled_from(["tcp", "udp"]))),
        dport=draw(port_strategy),
    )


@st.composite
def packets(draw):
    return Packet(
        src=draw(st.sampled_from(["a", "b", "c"])),
        dst=draw(st.sampled_from(["a", "b", "c"])),
        protocol=draw(st.sampled_from(["tcp", "udp"])),
        dport=draw(st.sampled_from([80, 8080, 53])),
    )


@given(flow_matches(), flow_matches(), packets())
def test_subsumption_implies_match_containment(general, specific, packet):
    if general.subsumes(specific) and specific.matches(packet):
        assert general.matches(packet)


@given(flow_matches(), flow_matches(), packets())
def test_shared_match_implies_overlap(a, b, packet):
    if a.matches(packet) and b.matches(packet):
        assert a.overlaps(b)
        assert b.overlaps(a)


@given(flow_matches(), flow_matches())
def test_overlap_symmetric(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(flow_matches())
def test_wildcard_subsumes_everything(match):
    assert FlowMatch().subsumes(match)


# ----------------------------------------------------------------------
# StatePredicate: same laws at the policy level
# ----------------------------------------------------------------------
VAR_KEYS = ["ctx:a", "ctx:b", "env:x"]
VALUES = ["0", "1", "2"]


@st.composite
def predicates(draw):
    keys = draw(st.lists(st.sampled_from(VAR_KEYS), unique=True, max_size=3))
    return StatePredicate.make({k: draw(st.sampled_from(VALUES)) for k in keys})


@st.composite
def states(draw):
    return SystemState({k: draw(st.sampled_from(VALUES)) for k in VAR_KEYS})


@given(predicates(), predicates(), states())
def test_predicate_subsumption_law(general, specific, state):
    if general.subsumes(specific) and specific.matches(state):
        assert general.matches(state)


@given(predicates(), predicates(), states())
def test_predicate_shared_match_implies_overlap(a, b, state):
    if a.matches(state) and b.matches(state):
        assert a.overlaps(b)


# ----------------------------------------------------------------------
# Pruning soundness: projected lookup == brute-force lookup, always
# ----------------------------------------------------------------------
POSTURES = [
    Posture.make("p0"),
    Posture.make("p1", MboxSpec.make("command_filter", deny=["open"])),
    Posture.make("p2", MboxSpec.make("stateful_firewall", default="drop")),
]


@st.composite
def random_policies(draw):
    n_devices = draw(st.integers(min_value=1, max_value=4))
    n_env = draw(st.integers(min_value=0, max_value=2))
    builder = PolicyBuilder()
    devices = [f"d{i}" for i in range(n_devices)]
    for name in devices:
        builder.device(name, contexts=("n", "s"))
    for i in range(n_env):
        builder.env(f"e{i}", ("0", "1"))
    variables = [f"ctx:{d}" for d in devices] + [f"env:e{i}" for i in range(n_env)]
    n_rules = draw(st.integers(min_value=0, max_value=6))
    for __ in range(n_rules):
        keys = draw(st.lists(st.sampled_from(variables), unique=True, min_size=1, max_size=3))
        requirements = {}
        for key in keys:
            domain = ("n", "s") if key.startswith("ctx:") else ("0", "1")
            requirements[key] = draw(st.sampled_from(domain))
        scope = builder.when(keys[0], requirements[keys[0]])
        for key in keys[1:]:
            scope.also(key, requirements[key])
        scope.give(
            draw(st.sampled_from(devices)),
            draw(st.sampled_from(POSTURES)),
            priority=draw(st.sampled_from([100, 200, 300])),
        )
    return builder.build()


@settings(max_examples=40, deadline=None)
@given(random_policies())
def test_pruned_policy_sound_for_random_policies(policy):
    pruned = PrunedPolicy(policy)
    for state in policy.enumerate_states(limit=256):
        for device in policy.devices:
            assert pruned.posture_for(state, device) == policy.posture_for(
                state, device
            )


@settings(max_examples=60, deadline=None)
@given(random_policies())
def test_independence_groups_are_the_connected_components(policy):
    """The union-find partition equals networkx's connected components of
    the coupling graph (every variable a node; each device chains the
    variables its rules test, and its own context, together)."""
    graph = nx.Graph()
    graph.add_nodes_from(v.key for v in policy.space.variables())
    for device in policy.devices:
        refs = sorted(relevant_variables(policy, device)) + [f"ctx:{device}"]
        graph.add_edges_from(zip(refs, refs[1:]))
    expected = {frozenset(c) for c in nx.connected_components(graph)}
    groups = independence_groups(policy)
    assert {frozenset(g) for g in groups} == expected
    assert sum(len(g) for g in groups) == len(graph)  # a partition: no overlap


class _RecordingOrchestrator:
    """The pipeline's actuation seam, keeping each round's assignments."""

    def __init__(self, devices):
        self.pinned = set()
        self.attachments = dict.fromkeys(devices)
        self.rounds = []

    def apply_many(self, assignments, traces=None):
        self.rounds.append(list(assignments))
        return []


@settings(max_examples=60, deadline=None)
@given(random_policies(), st.data())
def test_batch_local_round_matches_full_state_evaluation(policy, data):
    """A round builds its state over the batch's projected variables only;
    the postures it assigns must be the brute-force FSM's answers on the
    *full* state, for any view (unobserved variables included) and batch."""
    sim = Simulator()
    view = GlobalView(sim)
    orchestrator = _RecordingOrchestrator(policy.devices)
    pipeline = ReactivePipeline(sim, view, policy, orchestrator)
    for domain in policy.space.domains:
        value = data.draw(st.sampled_from((None, *domain.values)))
        if value is not None:
            view.set(domain.variable.key, value)
    batch = data.draw(
        st.lists(st.sampled_from(policy.devices), unique=True, min_size=1)
    )
    orchestrator.rounds.clear()
    pipeline.restore_dirty([[device, "test", 0.0] for device in batch])
    full_state = pipeline.system_state()
    assert orchestrator.rounds == [
        [(device, policy.posture_for(full_state, device)) for device in sorted(batch)]
    ]


@settings(max_examples=40, deadline=None)
@given(random_policies())
def test_incremental_pruned_updates_match_rebuild(policy):
    """Adding rules one by one through ``PrunedPolicy.add_rule`` must land
    in exactly the state a from-scratch projection of the full rule set
    produces -- same winning posture everywhere, same reverse index."""
    empty = PolicyFSM(
        policy.space.domains,
        rules=(),
        default_posture=policy.default_posture,
        devices=policy.devices,
    )
    incremental = PrunedPolicy(empty)
    for rule in policy.rules:
        incremental.add_rule(rule)
    rebuilt = PrunedPolicy(policy)
    for state in policy.enumerate_states(limit=256):
        for device in policy.devices:
            expected = rebuilt.posture_for(state, device)
            assert incremental.posture_for(state, device) == expected
            assert policy.posture_for(state, device) == expected
    for device in policy.devices:
        assert (
            incremental.tables[device].variables == rebuilt.tables[device].variables
        )
        assert incremental.devices_affected_by(f"ctx:{device}") == (
            rebuilt.devices_affected_by(f"ctx:{device}")
        )


# ----------------------------------------------------------------------
# Reputation: scores bounded, monotone under feedback
# ----------------------------------------------------------------------
@given(st.lists(st.booleans(), max_size=60))
def test_reputation_score_bounded(feedback):
    system = ReputationSystem()
    for validated in feedback:
        system.feedback("c", validated)
        assert 0.0 < system.score_of("c") < 1.0


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_reputation_more_validations_never_lower(good, extra_good):
    a = ReputationSystem()
    b = ReputationSystem()
    for __ in range(good):
        a.feedback("c", True)
        b.feedback("c", True)
    for __ in range(extra_good):
        b.feedback("c", True)
    assert b.score_of("c") >= a.score_of("c")


# ----------------------------------------------------------------------
# Token bucket: never passes more than burst + rate * elapsed
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=60),
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=1.0, max_value=10.0),
)
def test_rate_limiter_conservation(gaps, rate, burst):
    from repro.mboxes.base import MboxContext, Verdict
    from repro.mboxes.ratelimit import RateLimiter

    sim = Simulator()
    ctx = MboxContext(
        sim=sim, mbox_name="m", device="d",
        view=lambda k: None, emit_alert=lambda a: None,
    )
    limiter = RateLimiter(rate=rate, burst=burst)
    passed = 0
    now = 0.0
    for gap in gaps:
        now += gap
        sim.schedule_at(now, lambda: None)
        sim.run()
        pkt = Packet(src="s", dst="d", dport=80)
        pkt.direction = "to_device"
        verdict, __ = limiter.process(pkt, ctx)
        if verdict is Verdict.PASS:
            passed += 1
    assert passed <= burst + rate * now + 1


# ----------------------------------------------------------------------
# SystemState determinism
# ----------------------------------------------------------------------
@given(st.dictionaries(st.sampled_from(VAR_KEYS), st.sampled_from(VALUES), max_size=3))
def test_system_state_hash_stable_across_insertion_orders(assignment):
    items = list(assignment.items())
    rng = random.Random(0)
    for __ in range(3):
        rng.shuffle(items)
        assert SystemState(dict(items)) == SystemState(assignment)
        assert hash(SystemState(dict(items))) == hash(SystemState(assignment))
