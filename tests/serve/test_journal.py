"""The durable job journal: accepted work survives a service crash."""

from __future__ import annotations

import json

from repro.serve import ReproService

PAYLOAD = {
    "kind": "solve",
    "instances": [{"family": "tree", "size": 10, "seed": 0}],
    "algorithms": ["greedy"],
}


def _journal_files(journal_dir):
    return sorted(p.name for p in journal_dir.glob("*.json"))


def test_journal_entry_lives_from_admission_to_terminal_state(tmp_path):
    journal = tmp_path / "journal"
    # workers=0: the job is admitted and journalled but never executes —
    # exactly the window a crash would hit.
    with ReproService(workers=0, journal_dir=str(journal)) as service:
        record = service.submit(PAYLOAD)
        assert _journal_files(journal) == [f"{record['id']}.json"]
        entry = json.loads((journal / f"{record['id']}.json").read_text())
        assert entry["schema"] == 1
        assert entry["payload"] == PAYLOAD

    with ReproService(workers=1, journal_dir=str(journal)) as service:
        status = service.wait(record["id"], timeout=30)
        assert status["state"] == "completed"
        # Terminal state clears the journal entry.
        assert _journal_files(journal) == []


def test_recovery_keeps_ids_and_sequences_after_them(tmp_path):
    journal = tmp_path / "journal"
    with ReproService(workers=0, journal_dir=str(journal)) as service:
        first = service.submit(PAYLOAD)
        second = service.submit(PAYLOAD)
    assert _journal_files(journal) == [f"{first['id']}.json", f"{second['id']}.json"]

    with ReproService(workers=1, journal_dir=str(journal)) as service:
        for job_id in (first["id"], second["id"]):
            status = service.wait(job_id, timeout=30)
            assert status["state"] == "completed"
            assert service.result(job_id)["reports"] is not None
        # New submissions continue the id sequence past the recovered ids.
        fresh = service.submit(PAYLOAD)
        assert fresh["id"] > second["id"]
        service.wait(fresh["id"], timeout=30)


def test_unreadable_or_invalid_entries_are_quarantined(tmp_path):
    journal = tmp_path / "journal"
    journal.mkdir()
    (journal / "j000001.json").write_text("{torn")
    (journal / "j000002.json").write_text(
        json.dumps({"schema": 1, "id": "j000002", "payload": {"kind": "nope"}})
    )
    ill_shaped = {
        "kind": "simulate",
        "instances": [{"family": "tree", "size": 10}],
        "specs": [{"algorithm": "d2", "faults": 5}],
    }
    (journal / "j000003.json").write_text(
        json.dumps({"schema": 1, "id": "j000003", "payload": ill_shaped})
    )
    with ReproService(workers=0, journal_dir=str(journal)) as service:
        assert service.stats()["jobs"]["submitted"] == 0
    assert _journal_files(journal) == []
    assert sorted(p.name for p in journal.glob("*.rejected")) == [
        "j000001.rejected",
        "j000002.rejected",
        "j000003.rejected",
    ]


def test_full_queue_leaves_remaining_entries_for_next_start(tmp_path):
    journal = tmp_path / "journal"
    with ReproService(workers=0, queue_depth=2, journal_dir=str(journal)) as service:
        first = service.submit(PAYLOAD)
        second = service.submit(PAYLOAD)
    # A smaller queue on restart recovers what fits, keeps the rest.
    with ReproService(workers=0, queue_depth=1, journal_dir=str(journal)) as service:
        stats = service.stats()
        assert stats["queue"]["count"] == 1
    assert _journal_files(journal) == [f"{first['id']}.json", f"{second['id']}.json"]


def test_no_journal_dir_means_no_journal(tmp_path):
    with ReproService(workers=1) as service:
        record = service.submit(PAYLOAD)
        service.wait(record["id"], timeout=30)
    assert list(tmp_path.iterdir()) == []
