"""Declarative wire payloads: one spec per protocol message shape.

Every message the simulator sends carries a payload declared with
:func:`declare`.  A spec lists each field with its *size kind* (plus
any constant fields); the factory turns it into a ``__slots__`` class
whose ``__init__`` is generated once, at import — the technique
:func:`collections.namedtuple` and :mod:`dataclasses` use.  The
generated ``__init__`` stores the fields and computes ``wire_size``
arithmetically from :data:`SIZE_KINDS`, the one table that says what a
field of each kind costs on the wire.

**Bit-identity contract**: ``wire_size`` equals
``estimate_size(p.as_dict())`` for every payload ``p``, with
:func:`~repro.net.message.estimate_size` as the reference and
``as_dict`` as the dict the message would serialize.  Presence of a key
is part of the size, which is why near-identical shapes are separate
specs (the Carousel vote always carries a ``reason`` key, the 2PL
yes-vote never does).  Wire size feeds the bandwidth pipes, so a
one-byte slip shifts every downstream timestamp and breaks the
recorded fingerprints.

Payloads are read-only by convention, which also lets senders share
one payload object across a fan-out.
"""

from __future__ import annotations

import sys
from keyword import iskeyword
from typing import Any, Dict, List

from repro.net.message import estimate_size

#: Size kind -> wire-size expression over the field's value ``{0}``.
#: Each must equal ``estimate_size`` of every value the kind admits.
SIZE_KINDS: Dict[str, str] = {
    "num": "8",  # int or float
    "bool": "1",
    "str": "len({0})",
    "opt_str": "(len({0}) if {0}.__class__ is str else 1)",  # str | None
    "strs": "sum(map(len, {0}))",  # sequence of str
    "opt_strs": "(1 if {0} is None else sum(map(len, {0})))",
    "ids": "8 * len({0})",  # sequence of numbers
    "pairs": "16 * len({0})",  # {number: number}
    "versions": "(sum(map(len, {0})) + 8 * len({0}))",  # {str: int}
    # Anything else.  A nested payload reports its precomputed size,
    # exactly as estimate_size would read it, without the walk.
    "any": "({0}.wire_size if isinstance({0}, Payload)"
           " else estimate_size({0}))",
}

#: Every class :func:`declare` has built, in declaration order.
DECLARED: List[type] = []


class Payload:
    """Base of every declared payload class."""

    __slots__ = ()
    #: The declared ``(field, kind)`` pairs, in constructor order.
    _spec: tuple = ()
    #: Wire fields in dict order: declared fields, then constants.
    _fields: tuple = ()

    def as_dict(self) -> dict:
        """The dict this payload stands for on the wire."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None  # field values (lists, dicts) are mutable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"<{type(self).__name__} {fields}>"


def declare(name: str, fields: str = "", **constants: Any) -> type:
    """Build the payload class ``name``.

    ``fields`` is a space-separated ``field:kind`` list; its order is
    the constructor's positional signature and each ``kind`` is a key
    of :data:`SIZE_KINDS`.  ``constants`` are fields whose value never
    varies (``kind="decision"``): they live on the class and are sized
    once, here.
    """
    spec = tuple(item.partition(":")[::2] for item in fields.split())
    names = [field for field, _ in spec]
    if len({*names, *constants}) != len(names) + len(constants):
        raise ValueError(f"{name}: duplicate field in {fields!r}")
    fixed = sum(len(k) + estimate_size(v) for k, v in constants.items())
    terms, reserved = [], ("self", "wire_size")
    for field, kind in spec:
        if not field.isidentifier() or iskeyword(field) or field in reserved:
            raise ValueError(f"{name}: bad field name {field!r}")
        if kind not in SIZE_KINDS:
            raise ValueError(f"{name}.{field}: unknown size kind {kind!r}")
        fixed += len(field)
        expr = SIZE_KINDS[kind].format(field)
        if expr.isdigit():
            fixed += int(expr)
        else:
            terms.append(expr)
    source = f"def __init__(self, {', '.join(names)}):\n" + "".join(
        f"    self.{field} = {field}\n" for field in names
    ) + f"    self.wire_size = {' + '.join([str(fixed), *terms])}\n"
    namespace = {"estimate_size": estimate_size, "Payload": Payload}
    exec(source, namespace)
    cls = type(name, (Payload,), {
        "__slots__": (*names, "wire_size"),
        "__init__": namespace["__init__"],
        "_spec": spec,
        "_fields": (*names, *constants),
        **constants,
    })
    cls.__module__ = sys._getframe(1).f_globals.get("__name__", __name__)
    DECLARED.append(cls)
    return cls


# The RPC reply wrapper.
Reply = declare("Reply", "result:any")

# Raft (repro.raft.node)
AppendEntries = declare(
    "AppendEntries",
    "term:num leader:str prev_index:num prev_term:num entries:any "
    "leader_commit:num",
)
AppendEntriesResponse = declare(
    "AppendEntriesResponse",
    "term:num success:bool follower:str match_index:num",
)
RequestVote = declare(
    "RequestVote",
    "term:num candidate:str last_log_index:num last_log_term:num",
)
RequestVoteResponse = declare(
    "RequestVoteResponse", "term:num granted:bool voter:str"
)

# Delay probing (repro.net.probing): clock readings out and back.
Probe = declare("Probe", "t:num")
ProbeReply = declare("ProbeReply", "server_time:num")

# Read-and-prepare replies (Carousel, 2PL lock grants, Natto).
ReadOk = declare("ReadOk", "values:any", ok=True)
ReadOkEpoch = declare("ReadOkEpoch", "values:any epoch:num", ok=True)
Refusal = declare("Refusal", "reason:opt_str", ok=False)

# 2PC votes.  Vote is the 2PL yes-vote (no reason key); VoteReason is
# Carousel's vote (reason None on yes) and every no-vote; NattoVoteYes
# carries the read epoch and an optional condition.
_VOTE = "txn:str partition:num vote:str participants:ids client:str"
Vote = declare("Vote", _VOTE)
VoteReason = declare("VoteReason", _VOTE + " reason:opt_str")
NattoVoteYes = declare(
    "NattoVoteYes",
    "txn:str partition:num vote:str epoch:num conditional:opt_strs "
    "participants:ids client:str",
)

# Client requests (Carousel / Natto / 2PL).
CarouselReadAndPrepare = declare(
    "CarouselReadAndPrepare",
    "txn:str reads:strs writes:strs coordinator:str client:str "
    "participants:ids",
)
NattoReadAndPrepare = declare(
    "NattoReadAndPrepare",
    "txn:str ts:num priority:num full_reads:strs full_writes:strs "
    "coordinator:str client:str participants:ids arrival_estimates:pairs "
    "max_owd:num",
)
# 2PL phase 1 (lock acquisition + reads) and phase 2 (write data).
LockRead = declare(
    "LockRead",
    "txn:str reads:strs writes:strs ts:num priority:num client:str "
    "coordinator:str participants:ids",
)
TwoPLPrepare = declare(
    "TwoPLPrepare",
    "txn:str writes:any coordinator:str client:str participants:ids",
)
ReleaseLocks = declare("ReleaseLocks", "txn:str")
# Client -> coordinator commit: write data, plus Natto's per-partition
# read epochs or Carousel Fast's unanimous-fast-path flag.
_COMMIT = "txn:str client:str participants:ids writes:any"
CommitRequest = declare("CommitRequest", _COMMIT)
NattoCommitRequest = declare("NattoCommitRequest", _COMMIT + " epochs:pairs")
FastCommitRequest = declare("FastCommitRequest", _COMMIT + " fast_path:bool")
AbortRequest = declare("AbortRequest", "txn:str client:str participants:ids")

# Coordinator -> participant outcome; writes is None on abort.
CommitTxn = declare("CommitTxn", "txn:str decision:bool writes:any")
CommitTxnReason = declare(
    "CommitTxnReason", "txn:str decision:bool writes:any reason:str"
)
# Carousel Fast abort notification to follower replicas.
FastOutcome = declare("FastOutcome", "txn:str decision:bool")

# Client ``txn_event``s: decisions (aborts may carry the reason),
# Natto's replacement reads after a failed condition, RECSF value
# deliveries (kinds ``recsf_base`` / ``recsf_reads``), 2PL wounds.
DecisionEvent = declare("DecisionEvent", "txn:str committed:bool",
                        kind="decision")
DecisionEventReason = declare(
    "DecisionEventReason", "txn:str committed:bool reason:str",
    kind="decision",
)
ReadsEvent = declare(
    "ReadsEvent", "txn:str partition:num values:any epoch:num", kind="reads"
)
PartitionValuesEvent = declare(
    "PartitionValuesEvent", "txn:str kind:str partition:num values:any"
)
WoundEvent = declare("WoundEvent", "txn:str by:str", kind="wound")

# Natto CP / RECSF coordination: a participant forwards a blocked
# reader to the blocker's coordinator, and reports condition outcomes.
RecsfForward = declare(
    "RecsfForward",
    "txn:str reader:str reader_client:str partition:num keys:strs",
)
ConditionResolved = declare(
    "ConditionResolved", "txn:str partition:num ok:bool epoch:num"
)

# TAPIR.  Read results map key -> (value, version).
TapirRead = declare("TapirRead", "keys:strs")
TapirReadResult = declare("TapirReadResult", "values:any")
TapirPrepare = declare(
    "TapirPrepare", "txn:str read_versions:versions write_keys:strs"
)
TapirFinalize = declare(
    "TapirFinalize",
    "txn:str decision:str read_versions:versions write_keys:strs",
)
TapirVoteOk = declare("TapirVoteOk", vote="ok")
TapirVoteAbort = declare("TapirVoteAbort", "reason:str", vote="abort")
TapirAck = declare("TapirAck", ack=True)
TapirCommit = declare("TapirCommit", "txn:str writes:any")
TapirAbort = declare("TapirAbort", "txn:str")

#: Shared instances: every ok-vote and ack is byte-identical, so one
#: object serves all replicas.
TAPIR_VOTE_OK = TapirVoteOk()
TAPIR_ACK = TapirAck()
