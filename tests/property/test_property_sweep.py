"""Property tests for the sweep subsystem's resume invariant.

However a run is interrupted — any subset of shards checkpointed, any
subset of those corrupted afterwards — finishing the remainder and
merging never duplicates and never drops a report, and reproduces the
serial batch byte-for-byte modulo ``wall_time``.  Shard execution here
is in-process (the dispatcher's pool mechanics have their own tests);
the property under test is the manifest/store algebra that resume
relies on.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.api import RunConfig, solve_many
from repro.io import run_report_to_dict
from repro.sweep import CheckpointStore, plan_sweep
from repro.sweep.worker import execute_shard, shard_task

from tests.sweep.conftest import canonical, make_instances

ALGORITHMS = ["greedy", "degree_two"]


def _execute(manifest, shard):
    """One shard, in-process (same code path the pool workers run)."""
    _, reports = execute_shard(
        shard_task(manifest.to_dict(), shard.to_dict(), attempt=0, fault_dict=None)
    )
    return reports


@settings(max_examples=25, deadline=None)
@given(
    instance_count=st.integers(min_value=1, max_value=6),
    shard_size=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_resume_from_any_interruption_never_dups_or_drops(
    tmp_path_factory, instance_count, shard_size, data
):
    instances = make_instances(instance_count, size=8)
    serial = canonical(
        [run_report_to_dict(r) for r in solve_many(instances, ALGORITHMS, RunConfig())]
    )
    manifest = plan_sweep(instances, algorithms=ALGORITHMS, shard_size=shard_size)
    store = CheckpointStore(tmp_path_factory.mktemp("sweep"))

    # Interrupt anywhere: an arbitrary subset of shards got checkpointed...
    survived = data.draw(
        st.sets(st.sampled_from(manifest.shard_ids)), label="checkpointed"
    )
    for shard in manifest.shards:
        if shard.id in survived:
            store.write_checkpoint(shard.id, shard.digest, _execute(manifest, shard))
    # ...and an arbitrary subset of those was damaged on disk afterwards.
    damaged = data.draw(
        st.sets(st.sampled_from(sorted(survived))) if survived else st.just(set()),
        label="damaged",
    )
    for shard_id in damaged:
        path = store.checkpoint_path(shard_id)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])

    # Resume's first step: only intact, digest-verified checkpoints count.
    completed = store.completed_ids(manifest)
    assert completed == survived - damaged

    # Resume's second step: execute exactly the incomplete shards.
    for shard in manifest.shards:
        if shard.id not in completed:
            store.write_checkpoint(shard.id, shard.digest, _execute(manifest, shard))

    merged = store.merge_report_dicts(manifest)
    # No dup, no drop: exactly one report per instance x algorithm, in
    # serial order, byte-identical to the uninterrupted batch.
    assert len(merged) == instance_count * len(ALGORITHMS)
    assert canonical(merged) == serial


@settings(max_examples=20, deadline=None)
@given(
    instance_count=st.integers(min_value=1, max_value=5),
    shard_size=st.integers(min_value=1, max_value=3),
)
def test_shard_execution_is_idempotent(tmp_path_factory, instance_count, shard_size):
    instances = make_instances(instance_count, size=8)
    manifest = plan_sweep(instances, algorithms=ALGORITHMS, shard_size=shard_size)
    for shard in manifest.shards:
        first = canonical(_execute(manifest, shard))
        again = canonical(_execute(manifest, shard))
        assert first == again, "re-running a shard must reproduce its reports"
