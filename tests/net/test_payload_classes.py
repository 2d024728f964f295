"""Declared payloads must size exactly like the dicts they stand for.

Two layers of protection:

* **Wire-size parity** — every payload's arithmetic ``wire_size`` must
  equal :func:`~repro.net.message.estimate_size` over ``as_dict()``
  exactly, for hand-picked instances and, by property, for arbitrary
  field values of every size kind.  Wire size feeds the bandwidth
  pipes, so a one-byte slip shifts every downstream timestamp and
  silently changes experiment output.  A completeness guard fails if a
  payload is declared in :mod:`repro.net.payload` without a
  representative instance here.
* **Spec validation** — :func:`~repro.net.payload.declare` rejects
  unknown size kinds and bad field names at import time.

End-to-end behaviour of the payload layer is pinned by the ``fixture``
fingerprints in ``tests/verify/FINGERPRINTS.json``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import payload as payload_mod
from repro.net.message import HEADER_BYTES, Message, estimate_size
from repro.net.payload import (
    DECLARED,
    SIZE_KINDS,
    TAPIR_ACK,
    TAPIR_VOTE_OK,
    AbortRequest,
    AppendEntries,
    AppendEntriesResponse,
    CarouselReadAndPrepare,
    CommitRequest,
    CommitTxn,
    CommitTxnReason,
    ConditionResolved,
    DecisionEvent,
    DecisionEventReason,
    FastCommitRequest,
    FastOutcome,
    LockRead,
    NattoCommitRequest,
    NattoReadAndPrepare,
    NattoVoteYes,
    PartitionValuesEvent,
    Payload,
    Probe,
    ProbeReply,
    ReadOk,
    ReadOkEpoch,
    ReadsEvent,
    RecsfForward,
    Refusal,
    ReleaseLocks,
    Reply,
    RequestVote,
    RequestVoteResponse,
    TapirAbort,
    TapirAck,
    TapirCommit,
    TapirFinalize,
    TapirPrepare,
    TapirRead,
    TapirReadResult,
    TapirVoteAbort,
    TapirVoteOk,
    TwoPLPrepare,
    Vote,
    VoteReason,
    WoundEvent,
    declare,
)

# Representative instances: at least one per class, plus variants for
# every conditional-size branch (None vs str reasons, empty vs loaded
# containers, writes None vs dict, conditional None vs key list).
INSTANCES = [
    Reply("done"),
    Reply(None),
    Reply({"nested": [1, 2.5, "x"]}),
    Reply(ReadOk({"key-1": "v" * 64})),  # payload-in-payload result
    AppendEntries(3, "raft-0", 7, 2, [(3, {"op": "w", "key": "key-9"})], 6),
    AppendEntries(1, "raft-2", 0, 0, [], 0),  # idle heartbeat
    AppendEntriesResponse(3, True, "raft-1", 8),
    AppendEntriesResponse(4, False, "raft-2", 0),
    RequestVote(5, "raft-1", 12, 4),
    RequestVoteResponse(5, True, "raft-0"),
    RequestVoteResponse(5, False, "raft-2"),
    Probe(1.25),
    ProbeReply(2.5),
    ReadOk({"key-1": "v" * 64, "key-2": ""}),
    ReadOk({}),
    ReadOkEpoch({"key-3": "abc"}, 4),
    Refusal("preempted"),
    Refusal(None),
    Vote("c-1:0.0", 2, "yes", [0, 1, 2], "client-A"),
    VoteReason("c-1:0.0", 2, "no", [0, 1], "client-A", "late"),
    VoteReason("c-1:0.0", 2, "yes", [0], "client-A", None),
    NattoVoteYes("c-1:0.0", 1, "yes", 9, None, [0, 1], "client-A"),
    NattoVoteYes("c-1:0.0", 1, "yes", 9, ["key-1", "key-2"], [1], "cl"),
    CarouselReadAndPrepare(
        "c-1:0.0", ["key-1"], ["key-2"], "carousel-co-0", "client-A", [0, 1]
    ),
    NattoReadAndPrepare(
        "c-1:0.0", 1.5, 1, ["key-1"], ["key-1"], "natto-co-0", "client-A",
        [0, 2], {0: 0.04, 2: 0.08}, 0.08,
    ),
    LockRead(
        "c-1:0.0", ["key-1"], ["key-2"], 0.5, 0, "client-A", "co-1", [1]
    ),
    TwoPLPrepare("c-1:0.0", {"key-2": "v" * 64}, "co-1", "client-A", [1]),
    ReleaseLocks("c-1:0.0"),
    CommitRequest("c-1:0.0", "client-A", [0, 1], {"key-2": "v"}),
    NattoCommitRequest(
        "c-1:0.0", "client-A", [0, 1], {"key-2": "v"}, {0: 3, 1: 4}
    ),
    FastCommitRequest("c-1:0.0", "client-A", [0], {"key-1": "v"}, True),
    AbortRequest("c-1:0.0", "client-A", [0, 1]),
    CommitTxn("c-1:0.0", True, {"key-1": "v" * 64}),
    CommitTxn("c-1:0.0", False, None),
    CommitTxnReason("c-1:0.0", False, None, "cascade"),
    CommitTxnReason("c-1:0.0", False, {"key-1": "v"}, "late"),
    FastOutcome("c-1:0.0", False),
    DecisionEvent("c-1:0.0", True),
    DecisionEventReason("c-1:0.0", False, "preempted"),
    ReadsEvent("c-1:0.0", 2, {"key-5": "v"}, 7),
    PartitionValuesEvent("c-1:0.0", "recsf_base", 1, {"key-6": "w"}),
    PartitionValuesEvent("c-1:0.0", "recsf_reads", 1, {}),
    WoundEvent("c-1:0.0", "c-2:1.0"),
    RecsfForward("c-1:0.0", "c-2:1.0", "client-B", 2, ["key-1", "key-7"]),
    ConditionResolved("c-1:0.0", 2, True, 11),
    TapirRead(["key-1", "key-2"]),
    TapirReadResult({"key-1": ("v" * 64, 3), "key-2": ("", 0)}),
    TapirPrepare("c-1:0.0", {"key-1": 3}, ["key-2"]),
    TapirFinalize("c-1:0.0", "ok", {"key-1": 3}, ["key-2"]),
    TapirVoteOk(),
    TAPIR_VOTE_OK,
    TapirVoteAbort("conflict"),
    TapirAck(),
    TAPIR_ACK,
    TapirCommit("c-1:0.0", {"key-2": "v" * 64}),
    TapirAbort("c-1:0.0"),
]


#: Every payload the protocol declares (tests declare their own too).
PROTOCOL_PAYLOADS = [
    cls for cls in DECLARED if cls.__module__ == payload_mod.__name__
]


def test_every_payload_class_has_a_representative_instance():
    covered = {type(p) for p in INSTANCES}
    missing = [c.__name__ for c in PROTOCOL_PAYLOADS if c not in covered]
    assert not missing, f"no wire-size coverage for: {missing}"


@pytest.mark.parametrize(
    "instance", INSTANCES, ids=lambda p: type(p).__name__
)
def test_wire_size_matches_estimate_of_dict_form(instance):
    assert instance.wire_size == estimate_size(instance.as_dict())


# ----------------------------------------------------------------------
# Property: arbitrary values of every size kind.

_text = st.text(max_size=12)
_number = st.one_of(st.integers(), st.floats(allow_nan=False))
_any = st.recursive(
    st.one_of(st.none(), st.booleans(), _number, _text, st.binary(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_text, st.integers()), inner, max_size=4),
    ),
    max_leaves=12,
)
#: A value strategy per size kind, covering None for the ``opt_*``
#: kinds and empty as well as loaded containers.
KIND_VALUES = {
    "num": _number,
    "bool": st.booleans(),
    "str": _text,
    "opt_str": st.one_of(st.none(), _text),
    "strs": st.lists(_text, max_size=5),
    "opt_strs": st.one_of(st.none(), st.lists(_text, max_size=5)),
    "ids": st.lists(st.integers(), max_size=5),
    "pairs": st.dictionaries(st.integers(), _number, max_size=5),
    "versions": st.dictionaries(_text, st.integers(), max_size=5),
    # A nested payload reports its own size (Reply carries results).
    "any": st.one_of(_any, st.builds(ReadOk, st.dictionaries(_text, _text))),
}


def test_every_size_kind_has_a_value_strategy():
    assert set(KIND_VALUES) == set(SIZE_KINDS)


@pytest.mark.parametrize("cls", PROTOCOL_PAYLOADS, ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_wire_size_matches_estimate_for_any_field_values(cls, data):
    values = [data.draw(KIND_VALUES[kind], label=f) for f, kind in cls._spec]
    instance = cls(*values)
    assert instance.wire_size == estimate_size(instance.as_dict())


# ----------------------------------------------------------------------
# The factory


def test_declare_rejects_unknown_kinds_and_bad_names():
    with pytest.raises(ValueError, match="unknown size kind"):
        declare("Bad", "txn:string")
    with pytest.raises(ValueError, match="unknown size kind"):
        declare("Bad", "txn")
    with pytest.raises(ValueError, match="bad field name"):
        declare("Bad", "class:str")
    with pytest.raises(ValueError, match="duplicate field"):
        declare("Bad", "txn:str txn:num")


def test_declared_class_shape():
    assert not hasattr(Payload, "__getitem__")
    assert not hasattr(Payload, "get")
    instance = VoteReason("t", 1, "no", [0], "c", None)
    assert instance.as_dict() == {
        "txn": "t", "partition": 1, "vote": "no", "participants": [0],
        "client": "c", "reason": None,
    }
    with pytest.raises(AttributeError):
        instance.extra = 1  # __slots__: no per-instance dict
    # Constants are class attributes and part of the wire form.
    assert DecisionEvent("t", True).as_dict() == {
        "txn": "t", "committed": True, "kind": "decision",
    }


def test_payload_equality_across_objects():
    assert ReleaseLocks("t1") == ReleaseLocks("t1")
    assert ReleaseLocks("t1") != ReleaseLocks("t2")
    assert Refusal(None) != ReleaseLocks("t1")
    with pytest.raises(TypeError):
        hash(ReleaseLocks("t1"))


def test_message_wire_size_uses_payload_precompute():
    request = AppendEntries(3, "raft-0", 7, 2, [(3, {"k": "v"})], 6)
    message = Message("append_entries", request, "raft-0", "raft-1")
    assert message.wire_size == HEADER_BYTES + estimate_size(
        request.as_dict()
    )


def test_raft_append_entries_round_trip_over_network():
    """A Raft payload delivered through the real network reads back
    exactly like the dict the old code shipped."""
    from repro.cluster.node import Node
    from repro.net.network import Network
    from repro.net.topology import Topology
    from repro.sim import Simulator

    sim = Simulator()
    topology = Topology(
        "two-dc",
        datacenters=("dc-a", "dc-b"),
        rtt_ms={("dc-a", "dc-b"): 10.0},
    )
    net = Network(sim, topology)

    received = []

    class Follower(Node):
        def handle_append_entries(self, payload, src):
            received.append((payload, src))

    leader = net.register(Node(sim, "leader", "dc-a"))
    net.register(Follower(sim, "follower", "dc-b"))

    sent = AppendEntries(2, "leader", 4, 1, [(2, {"op": "w"})], 3)
    net.send(leader, "follower", "append_entries", sent)
    sim.run()

    assert len(received) == 1
    payload, src = received[0]
    assert src == "leader"
    assert payload is sent  # no copy on the wire
    assert payload.entries == [(2, {"op": "w"})]
    assert payload.leader_commit == 3
