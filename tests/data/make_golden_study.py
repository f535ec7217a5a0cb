"""Write the golden study journal and its expected ``dump_state``.

``golden_study.journal`` freezes the on-disk op format: one study taken
through every op kind the Study layer writes (create, enqueue, claim,
heartbeats, complete, requeue, deadletter, lease, snapshot, finish),
plus a late duplicate ``complete`` of the kind a racing worker leaves
behind.  ``golden_study.state`` is the ``Study.dump_state()`` of that
log.  ``tests/test_golden_journal.py`` replays the committed bytes
through every reader, so a change to the op codec or the record
framing that breaks old journals fails there.

The files are committed, not generated at test time.  Rerunning this
script rewrites them; do that only for a deliberate format change, and
keep a reader for the old format.

    PYTHONPATH=src python tests/data/make_golden_study.py
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.storage import JournalStorage, RetryPolicy, Study

HERE = os.path.dirname(os.path.abspath(__file__))
JOURNAL = os.path.join(HERE, "golden_study.journal")
STATE = os.path.join(HERE, "golden_study.state")
NAME = "golden"


def write(journal: str) -> Study:
    """Drive one study through every op kind; deterministic (all
    clocks are passed explicitly)."""
    storage = JournalStorage(journal)
    study = Study.create(
        storage, NAME, meta={"problem": "dtlz2", "max_nfe": 4, "seed": 7}
    )
    retry = RetryPolicy(budget=2, backoff_base=0.5, backoff_max=4.0)
    study.acquire_lease("master", "w1", ttl=30.0, now=100.0)
    study.enqueue_many(
        [np.linspace(0.0, 1.0, 4) + i for i in range(4)],
        operators=["sbx", "pcx", "de", "um"],
    )
    # Trials 0 and 1 to w1; one heartbeats op renews both leases.
    study.claim_many("w1", ttl=10.0, limit=2, now=100.0)
    study.heartbeat_many([0, 1], "w1", ttl=10.0, now=105.0)
    study.tell(0, "w1", np.array([0.25, 0.75]))
    # Trial 2 to w2, whose lease then lapses: reclaim re-queues it.
    study.claim("w2", ttl=2.0, now=100.0)
    study.reclaim_stale(retry, now=103.0)
    # Trial 1 fails twice: re-queued once, then dead-lettered.
    study.fail(1, "w1", "evaluation raised", retry, now=106.0)
    study.claim("w1", ttl=10.0, now=107.0)
    study.fail(1, "w1", "evaluation raised again", retry, now=108.0)
    # Trials 2 and 3 complete, 3 with a constraint vector.
    study.claim_many("w3", ttl=10.0, limit=2, now=110.0)
    study.tell_many(
        [
            (2, np.array([0.5, 0.5]), None),
            (3, np.array([0.75, 0.25]), np.array([0.0, -1.5])),
        ],
        "w3",
    )
    # A late duplicate result written by a racing worker: the fold
    # counts it and changes nothing else.
    storage.append(
        [
            {
                "op": "complete",
                "trial": 0,
                "worker": "w9",
                "objectives": np.array([9.0, 9.0]),
                "constraints": None,
                "study": NAME,
            }
        ]
    )
    blob = {
        "restarts": 1,
        "archive": {
            "improvements": 3,
            "solutions": [[0.25, 0.75], [0.5, 0.5], [0.75, 0.25]],
        },
        "selector": {
            "operator_names": ["sbx", "pcx", "de", "um"],
            "probabilities": np.array([0.4, 0.3, 0.2, 0.1]),
        },
    }
    study.save_snapshot(blob, cursor=3, nfe=3)
    study.release_lease("master", "w1")
    study.finish()
    storage.close()
    return study


def main() -> int:
    for path in (JOURNAL, JOURNAL + ".lock"):
        if os.path.exists(path):
            os.remove(path)
    study = write(JOURNAL)
    os.remove(JOURNAL + ".lock")
    with open(STATE, "wb") as fh:
        fh.write(study.dump_state())
    print(f"wrote {JOURNAL} ({os.path.getsize(JOURNAL)} B) and {STATE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
