"""The per-frame value objects: slotted and mutable, yet never mutated.

Frames, payloads, readings, session events/actions/states and alert values
are ``@dataclass(slots=True)`` rather than frozen, as a frozen init costs
3-4x a slotted one. Nothing stops an assignment to their fields any more,
so the tests below check what ``frozen`` used to enforce: the step
functions leave their input state and event as they found them.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch.alert import (
    AlertDecision,
    AlertMode,
    AlertState,
    AnalysisConfig,
    DispatchResult,
    ExceedanceSet,
    Notification,
    Thresholds,
    ValueSnapshot,
    ValueSource,
    multi_level,
    step_alert_state,
)
from slopewatch.analytics import ARModel, RainEvent
from slopewatch.config import Config
from slopewatch.domain import (
    AlertLevel,
    CalibratedReading,
    CalibrationConstants,
    RawReading,
    SensorKind,
)
from slopewatch.nodesim import Scenario, ScenarioStep
from slopewatch import session
from slopewatch.session import (
    AnnounceReceived,
    ConnAckReceived,
    DataAckReceived,
    IpAssigned,
    LinkConfig,
    LinkDown,
    NodePhase,
    NodeState,
    ReadingsAvailable,
    ReqConnReceived,
    SendDataReceived,
    ServerIpReceived,
    ServerPhase,
    ServerSessionState,
    SessionTiming,
    TimerFired,
    node_step,
    server_step,
)
from slopewatch.wire import Frame, SendDataPayload

VALUE_CLASSES = [
    Frame, SendDataPayload,
    RawReading, CalibratedReading,
    session.IpAssigned, session.ServerIpReceived, session.ConnAckReceived,
    session.DataAckReceived, session.LinkDown, session.TimerFired,
    session.ReadingsAvailable, session.AnnounceReceived, session.ReqConnReceived,
    session.SendDataReceived, session.SendFrame, session.SetTimer,
    session.LogWarning, session.ForwardToIngest, session.PendingBatch,
    session.NodeState, session.ServerSessionState, session.TraceRecord,
    ExceedanceSet, ValueSnapshot, AlertDecision, AlertState, Notification, DispatchResult,
    RainEvent,
]

# Built once per run. ``_check_finite`` reads their fields through vars(),
# which a slotted instance does not have.
CONFIG_CLASSES = [
    Thresholds, AnalysisConfig, LinkConfig, SessionTiming, CalibrationConstants,
    Config, Scenario, ScenarioStep, ARModel,
]


def _placeholder(cls):
    """An instance with None in every field that has no default."""
    required = {
        f.name: None
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    return cls(**required)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_value_class_is_slotted(cls):
    params = cls.__dataclass_params__
    assert "__slots__" in cls.__dict__
    assert not params.frozen and params.eq
    value = _placeholder(cls)
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_config_class_stays_frozen(cls):
    assert cls.__dataclass_params__.frozen
    assert "__slots__" not in cls.__dict__


def test_empty_events_are_distinct():
    assert LinkDown() == LinkDown()
    assert LinkDown() != TimerFired()


# ---------------------------------------------------------------------------
# Step functions leave their inputs unchanged
# ---------------------------------------------------------------------------

_IPS = st.sampled_from(["10.0.0.2", "10.0.0.3"])
_SEQS = st.integers(0, 6)


@st.composite
def _batches(draw):
    seq, n = draw(_SEQS), draw(st.integers(0, 3))
    sensors = draw(st.lists(st.sampled_from(list(SensorKind)), min_size=n, max_size=n))
    return tuple(
        RawReading(node_id=1, seq=seq + i, timestamp=1000 + seq, sensor=s, raw=draw(st.integers(-5, 5)))
        for i, s in enumerate(sensors)
    )


_NODE_EVENTS = st.one_of(
    st.builds(IpAssigned, _IPS),
    st.builds(ServerIpReceived, _IPS),
    st.builds(ConnAckReceived, session_id=st.integers(1, 3), nonce=st.integers(0, 3)),
    st.builds(DataAckReceived, _SEQS),
    st.just(LinkDown()),
    st.just(TimerFired()),
    st.builds(ReadingsAvailable, _batches()),
)

_PAYLOADS = st.builds(
    SendDataPayload,
    session_id=st.integers(1, 3),
    seq=_SEQS,
    timestamp=st.just(1000),
    readings=st.lists(st.tuples(st.just(1), st.integers(0, 9)), max_size=3).map(tuple),
)

_SERVER_EVENTS = st.one_of(
    st.builds(AnnounceReceived, node_id=st.just(1), ip=_IPS),
    st.builds(ReqConnReceived, node_id=st.just(1), nonce=st.integers(1, 3), session_id=st.integers(1, 3)),
    st.builds(SendDataReceived, _PAYLOADS),
    st.just(LinkDown()),
)

_PENDING = st.lists(_SEQS, max_size=3, unique=True).map(
    lambda seqs: tuple(session.PendingBatch(seq, 1000 + seq, ((1, seq),)) for seq in sorted(seqs))
)

# Any phase, so that short event lists reach every branch of the machines.
_NODE_STATES = st.builds(
    NodeState,
    node_id=st.just(1),
    phase=st.sampled_from(list(NodePhase)),
    node_ip=st.none() | _IPS,
    server_ip=st.none() | _IPS,
    session_id=st.integers(0, 3),
    conn_nonce=st.integers(0, 3),
    attempt=st.integers(0, 7),
    pending=_PENDING,
)

_SERVER_STATES = st.builds(
    ServerSessionState,
    node_id=st.just(1),
    phase=st.sampled_from(list(ServerPhase)),
    client_ip=st.none() | _IPS,
    session_id=st.none() | st.integers(1, 3),
)


def _assert_step_keeps_inputs(step, state, events) -> None:
    for i, event in enumerate(events):
        state_before, event_before = copy.deepcopy(state), copy.deepcopy(event)
        new_state, _ = step(state, event, 10.0 * i)
        assert state == state_before, (i, event)
        assert event == event_before, (i, event)
        state = new_state


@settings(max_examples=300, deadline=None)
@given(state=_NODE_STATES, events=st.lists(_NODE_EVENTS, max_size=20))
def test_node_step_leaves_state_and_event_unchanged(state, events):
    _assert_step_keeps_inputs(node_step, state, events)


@settings(max_examples=200, deadline=None)
@given(state=_SERVER_STATES, events=st.lists(_SERVER_EVENTS, max_size=20))
def test_server_step_leaves_state_and_event_unchanged(state, events):
    _assert_step_keeps_inputs(server_step, state, events)


_EXCEEDANCES = st.builds(ExceedanceSet, st.booleans(), st.booleans(), st.booleans(), st.booleans())


def _decisions(current: ExceedanceSet, predicted: ExceedanceSet, now: float) -> list[AlertDecision]:
    out = []
    for source, e in ((ValueSource.CURRENT, current), (ValueSource.PREDICTED, predicted)):
        uni = AlertLevel.YELLOW if any(e.as_dict().values()) else AlertLevel.GREEN
        out.append(AlertDecision(uni, AlertMode.UNI, source, e, now))
        out.append(AlertDecision(multi_level(e), AlertMode.MULTI, source, e, now))
    return out


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.tuples(_EXCEEDANCES, _EXCEEDANCES, st.integers(0, 1200)), max_size=30),
    hold=st.sampled_from([0.0, 1800.0]),
)
def test_step_alert_state_leaves_state_and_decisions_unchanged(steps, hold):
    state, now = AlertState(), 0.0
    for current, predicted, dt in steps:
        now += dt
        decisions = _decisions(current, predicted, now)
        state_before, decisions_before = copy.deepcopy(state), copy.deepcopy(decisions)
        new_state, _ = step_alert_state(state, decisions, now, hold)
        assert state == state_before
        assert decisions == decisions_before
        state = new_state
