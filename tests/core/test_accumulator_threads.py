"""PatternAccumulator under the serve layer's concurrency discipline.

The sharded service gives each submitter thread a private accumulator
and joins them later on the reconciler thread.  These tests pin that
discipline against the single-threaded ground truth: however the key
stream is partitioned across concurrently-updating shards, the merged
result must be byte-identical to accumulating the whole stream in one
thread — the monoid homomorphism the drift detector relies on.
"""

import threading

import pytest

from repro.core.fast_infer import PatternAccumulator
from repro.core.inference import infer_pattern
from repro.keygen import Distribution, generate_keys


def corpus():
    keys = []
    for name, seed in (("SSN", 0), ("MAC", 1), ("IPV4", 2)):
        keys.extend(generate_keys(name, 2_000, Distribution.UNIFORM, seed))
    return keys


@pytest.fixture(scope="module")
def keys():
    return corpus()


@pytest.fixture(scope="module")
def ground_truth(keys):
    accumulator = PatternAccumulator()
    accumulator.update(keys)
    return accumulator.state()


def run_sharded(keys, shard_count, interleave):
    """Update per-shard accumulators concurrently, then join them.

    ``interleave`` controls the partition: round-robin (adjacent keys
    land on different shards) or contiguous slices.
    """
    if interleave:
        slices = [keys[index::shard_count] for index in range(shard_count)]
    else:
        size = -(-len(keys) // shard_count)
        slices = [
            keys[index * size : (index + 1) * size]
            for index in range(shard_count)
        ]
    accumulators = [PatternAccumulator() for _ in range(shard_count)]
    barrier = threading.Barrier(shard_count)

    def worker(accumulator, slice_keys):
        barrier.wait()
        # Chunked updates, like per-shard sample drains arriving in
        # bursts rather than one bulk call.
        for start in range(0, len(slice_keys), 97):
            accumulator.update(slice_keys[start : start + 97])

    threads = [
        threading.Thread(target=worker, args=(acc, sl))
        for acc, sl in zip(accumulators, slices)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    joined = PatternAccumulator()
    for accumulator in accumulators:
        joined.merge(accumulator)
    return joined


class TestShardedJoinEqualsSingleThread:
    @pytest.mark.parametrize("shard_count", [2, 4, 8])
    @pytest.mark.parametrize("interleave", [True, False])
    def test_state_identical(
        self, keys, ground_truth, shard_count, interleave
    ):
        joined = run_sharded(keys, shard_count, interleave)
        assert joined.state() == ground_truth

    def test_finish_identical(self, keys, ground_truth):
        joined = run_sharded(keys, 4, True)
        single = PatternAccumulator.from_state(ground_truth)
        assert joined.finish().quads == single.finish().quads
        assert joined.finish() == infer_pattern(keys)


class TestMergeAlgebra:
    def test_merge_order_irrelevant(self, keys):
        parts = [keys[index::3] for index in range(3)]
        accumulators = []
        for part in parts:
            accumulator = PatternAccumulator()
            accumulator.update(part)
            accumulators.append(accumulator)
        forward = PatternAccumulator()
        for accumulator in accumulators:
            forward.merge(
                PatternAccumulator.from_state(accumulator.state())
            )
        backward = PatternAccumulator()
        for accumulator in reversed(accumulators):
            backward.merge(
                PatternAccumulator.from_state(accumulator.state())
            )
        # The base-prefix *representative* depends on fold order; the
        # semantic value (the finished pattern) must not.
        assert forward.finish() == backward.finish()
        assert forward.count == backward.count
        assert (forward.min_length, forward.max_length) == (
            backward.min_length,
            backward.max_length,
        )

    def test_empty_accumulator_is_identity(self, keys, ground_truth):
        loaded = PatternAccumulator()
        loaded.update(keys)
        loaded.merge(PatternAccumulator())
        assert loaded.state() == ground_truth
        empty = PatternAccumulator()
        empty.merge(loaded)
        assert empty.state() == ground_truth


class TestConcurrentDrainDiscipline:
    def test_drain_during_updates_loses_no_key_to_the_join(self):
        """Reconciler-style drains interleaved with writer updates.

        The writer publishes batches into a slot the drainer detaches by
        reference swap under the shared-shard lock (``drain_samples`` on
        a shared lane); everything written must appear in the final
        join exactly once, no matter how the drains interleave.
        """
        keys = generate_keys("SSN", 20_000, Distribution.UNIFORM, seed=9)
        lock = threading.Lock()
        slot = {"samples": []}
        done = threading.Event()
        drained = []

        def detach():
            with lock:
                batch, slot["samples"] = slot["samples"], []
            if batch:
                accumulator = PatternAccumulator()
                accumulator.update(batch)
                drained.append((len(batch), accumulator))

        def writer():
            for start in range(0, len(keys), 64):
                with lock:
                    slot["samples"].extend(keys[start : start + 64])
            done.set()

        def drainer():
            while not done.is_set():
                detach()
            detach()

        writer_thread = threading.Thread(target=writer)
        drainer_thread = threading.Thread(target=drainer)
        writer_thread.start()
        drainer_thread.start()
        writer_thread.join()
        drainer_thread.join()
        assert sum(count for count, _ in drained) == len(keys)
        joined = PatternAccumulator()
        for _, accumulator in drained:
            joined.merge(accumulator)
        reference = PatternAccumulator()
        reference.update(keys)
        assert joined.state() == reference.state()
