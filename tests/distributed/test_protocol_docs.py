"""Lockstep: every protocol message type and constant appears in docs.

``docs/protocol.md`` is the normative spec of the wire protocol.  This
test walks the actual module — every public dataclass (message type),
every public module-level constant, and the wire error type — and asserts
each name appears in the document, so adding a message without specifying
it fails CI.  (The doc going stale the *other* way — describing messages
that no longer exist — would show up as dead names in this same sweep
whenever they are renamed rather than removed, and in review.)
"""

import dataclasses
import inspect
from pathlib import Path

from repro.distributed import protocol

DOC_PATH = Path(__file__).resolve().parents[2] / "docs" / "protocol.md"


def _message_types() -> list[str]:
    return [
        name
        for name, obj in vars(protocol).items()
        if inspect.isclass(obj)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == protocol.__name__
    ]


def _public_constants() -> list[str]:
    return [
        name
        for name, obj in vars(protocol).items()
        if name.isupper()
        and not name.startswith("_")
        and not inspect.isclass(obj)
        and not inspect.isfunction(obj)
    ]


def test_doc_exists():
    assert DOC_PATH.is_file(), f"normative protocol spec missing: {DOC_PATH}"


def test_every_message_type_is_documented():
    text = DOC_PATH.read_text(encoding="utf-8")
    messages = _message_types()
    # The protocol grew past v1: the sweep must see the scheduler messages.
    assert {"StealRequest", "TaskStream", "JoinRun"} <= set(messages)
    missing = [name for name in messages if name not in text]
    assert not missing, (
        f"message types defined in protocol.py but absent from "
        f"docs/protocol.md: {missing}"
    )


def test_every_public_constant_is_documented():
    text = DOC_PATH.read_text(encoding="utf-8")
    constants = _public_constants()
    assert {"MAGIC", "PROTOCOL_VERSION", "PREAMBLE", "MAX_FRAME_BYTES"} <= set(
        constants
    )
    missing = [name for name in constants if name not in text]
    assert not missing, (
        f"constants defined in protocol.py but absent from "
        f"docs/protocol.md: {missing}"
    )


def test_wire_error_is_documented():
    assert "WireError" in DOC_PATH.read_text(encoding="utf-8")


def test_documented_version_matches_code():
    text = DOC_PATH.read_text(encoding="utf-8")
    assert f"Protocol version: **{protocol.PROTOCOL_VERSION}**" in text
