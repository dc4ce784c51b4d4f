"""The cross-process determinism matrix.

The engine's headline contract: a replicated run's merged payload is
byte-identical — after :meth:`ExperimentResult.strip_timings` removes
host timings and execution geometry — for **any** worker count.  The
matrix here runs cheap experiments with workers 1 and 4; the CI
``parallel`` job extends the same assertion to the heavyweight
experiments (see ``benchmarks/bench_parallel_equivalence.py``).
"""

import json

import pytest

from repro.parallel import run_replicated


def _stripped(result) -> str:
    return json.dumps(result.strip_timings(), sort_keys=True)


class TestWorkerCountInvariance:
    # f1 (a kernel experiment) is covered, kernel counters included,
    # by tests/des/test_scheduler_matrix.py.
    @pytest.mark.parametrize("exp_id", ["e14", "e1", "e2"])
    def test_workers_1_vs_4_byte_identical(self, exp_id):
        serial = run_replicated(exp_id, replicas=3, workers=1)
        fanned = run_replicated(exp_id, replicas=3, workers=4)
        assert _stripped(serial) == _stripped(fanned)

    def test_master_seed_changes_payload(self):
        base = run_replicated("e14", replicas=2, workers=1)
        other = run_replicated("e14", replicas=2, workers=1, seed=1)
        assert _stripped(base) != _stripped(other)

    def test_stripped_payload_drops_geometry_only(self):
        result = run_replicated("e14", replicas=2, workers=2)
        stripped = result.strip_timings()
        replication = stripped["report"]["replication"]
        assert "workers" not in replication
        assert "wall_seconds" not in replication
        assert "wall_seconds" not in stripped["report"]
        # The simulated content all stays.
        assert replication["replicas"] == 2
        assert replication["seeds"]
        assert replication["kpis"]

    def test_repeated_run_same_workers_identical(self):
        first = run_replicated("e14", replicas=2, workers=2)
        second = run_replicated("e14", replicas=2, workers=2)
        assert _stripped(first) == _stripped(second)
