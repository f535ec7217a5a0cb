"""Golden-fixture gate for the durable op format.

``tests/data/golden_study.journal`` is a committed journal holding one
study taken through every op kind (see ``tests/data/make_golden_study.py``),
and ``golden_study.state`` is its committed ``Study.dump_state()``.
Every reader of the log must fold those exact bytes to that exact
state: the raw ``JournalStorage.read``, a cold ``Study.load``, and the
telemetry ``JournalTailer``.  A change to the op codec or the record
framing that cannot read old journals fails here.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.storage import JournalStorage, Study, apply_op, open_storage
from repro.storage.journal import encode_record, scan_all
from repro.storage.study import StudyState
from repro.telemetry import JournalTailer

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
NAME = "golden"
KINDS = [
    "create", "lease", "enqueue", "enqueue", "enqueue", "enqueue",
    "claim", "claim", "heartbeats", "complete", "claim", "requeue",
    "requeue", "claim", "deadletter", "claim", "claim", "complete",
    "complete", "complete", "snapshot", "lease", "finish",
]


def _dump(state: StudyState) -> bytes:
    study = Study(None, NAME)
    study.state = state
    return study.dump_state()


@pytest.fixture
def golden(tmp_path):
    """A private copy of the fixture (the journal backend creates a
    sidecar lock file next to the log it opens)."""
    path = tmp_path / "golden_study.journal"
    shutil.copyfile(os.path.join(DATA, "golden_study.journal"), path)
    storage = JournalStorage(path)
    yield storage
    storage.close()


@pytest.fixture(scope="module")
def expected() -> bytes:
    with open(os.path.join(DATA, "golden_study.state"), "rb") as fh:
        return fh.read()


def test_read_returns_every_op_in_order(golden):
    got = golden.read(0)
    assert [seq for seq, _ in got] == list(range(len(KINDS)))
    assert [op["op"] for _, op in got] == KINDS
    assert all(op["study"] == NAME for _, op in got)


def test_codec_reencodes_the_committed_bytes(golden):
    """Decoding then re-encoding every op reproduces the file byte for
    byte: the codec writes exactly what it reads."""
    with open(golden.path, "rb") as fh:
        raw = fh.read()
    ops, end = scan_all(raw)
    assert end == len(raw)
    assert b"".join(encode_record(op) for op in ops) == raw


def test_fold_of_read_matches_committed_state(golden, expected):
    state = StudyState(name=NAME)
    for seq, op in golden.read(0):
        apply_op(state, seq, op)
    assert _dump(state) == expected


def test_cold_study_load_matches_committed_state(golden, expected):
    study = Study.load(golden, NAME)
    assert study.dump_state() == expected
    assert study.state.finished
    assert study.counts()["complete"] == 3
    assert study.counts()["failed"] == 1


def test_journal_tailer_matches_committed_state(golden, expected):
    tailer = JournalTailer(golden, study=NAME)
    events = tailer.poll()
    assert tailer.next_seq == len(KINDS)
    assert _dump(tailer.state()) == expected
    kinds = {event.kind for event in events}
    assert {"dead-letter", "lease-reclaim", "duplicate-tell",
            "snapshot", "study-finished"} <= kinds



@pytest.mark.parametrize("kind", ["memory", "journal"])
def test_golden_ops_fold_identically_on_every_backend(
    golden, expected, kind, tmp_path
):
    """The same ops appended to a fresh backend go through the op codec
    again and fold to the same committed state."""
    spec = "memory://" if kind == "memory" else str(tmp_path / "g.journal")
    storage = open_storage(spec)
    storage.append([op for _, op in golden.read(0)])
    assert Study.load(storage, NAME).dump_state() == expected
    storage.close()
