"""The replication engine: seeds and the mergeable-result invariants
of one replicated run."""

import gc
import math

import pytest

from repro.des import kernel_counters
from repro.parallel import (
    FaultPlan,
    ReplicaFailedError,
    ReplicaResult,
    fork_seed,
    merge_replicas,
    pool_kpis,
    replica_seed,
    run_replicated,
)
from repro.utils.rng import RandomStreams, derive_seed


class TestSeedDerivation:
    def test_replica_seed_is_pure(self):
        assert replica_seed(0, 3) == replica_seed(0, 3)
        assert replica_seed(0, 3) != replica_seed(0, 4)
        assert replica_seed(0, 3) != replica_seed(1, 3)

    def test_fork_seed_matches_randomstreams_fork(self):
        assert (fork_seed(42, "replica/0")
                == RandomStreams(42).fork("replica/0").master_seed)

    def test_fork_prefix_separates_namespaces(self):
        # The fork hashes under "fork:", so even an adversarially
        # chosen plain stream name cannot reproduce a replica seed.
        assert (derive_seed(0, "fork:replica/0")
                == replica_seed(0, 0))
        assert derive_seed(0, "replica/0") != replica_seed(0, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            replica_seed(0, -1)


class TestRunReplicated:
    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            run_replicated("e14", replicas=0)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_replicated("nope", replicas=2)

    def test_pooled_result_shape(self):
        result = run_replicated("e14", replicas=3, workers=2)
        replication = result.report.replication
        assert replication["replicas"] == 3
        assert replication["workers"] == 2
        assert replication["seeds"] == [
            replica_seed(0, i) for i in range(3)
        ]
        # Pooled KPI means are the headline metrics.
        for name, stats in replication["kpis"].items():
            assert result.metrics[name] == stats["mean"]
            assert stats["n"] == 3
            assert stats["min"] <= stats["mean"] <= stats["max"]
        # First two tables are the replication views.
        assert "pooled KPIs" in result.tables[0].title
        assert result.tables[1].title == "per-replica KPIs"

    def test_parent_counters_see_worker_activity(self):
        counters = kernel_counters()
        counters.reset()
        result = run_replicated("f1", replicas=2, workers=2)
        merged = result.report.replication["kernel"]
        assert merged["events_executed"] > 0
        snap = counters.snapshot()
        assert snap["events_executed"] >= merged["events_executed"]
        assert snap["environments"] >= merged["environments"]

    def test_parent_heap_is_unfrozen_after_a_sweep(self):
        """Children fork from a frozen heap; the parent's own objects
        go back to the collector whether the sweep returns or
        raises."""
        run_replicated("e14", replicas=2, workers=1)
        assert gc.get_freeze_count() == 0
        with pytest.raises(ReplicaFailedError):
            run_replicated("e14", replicas=2, workers=1, retries=0,
                           partial=False,
                           fault_plan=FaultPlan().raise_(1))
        assert gc.get_freeze_count() == 0

    def test_replica_reports_ride_along_in_raw(self):
        result = run_replicated("e14", replicas=2, workers=1)
        assert [r.index for r in result.raw] == [0, 1]
        assert all(isinstance(r, ReplicaResult) for r in result.raw)
        assert all(r.report is not None for r in result.raw)


class TestMergeReplicas:
    def _replica(self, index, **kpis):
        return ReplicaResult(index=index, seed=replica_seed(0, index),
                             kpis=kpis)

    def test_pool_kpis_statistics(self):
        pooled = pool_kpis([
            self._replica(0, lat=1.0),
            self._replica(1, lat=3.0),
        ])
        stats = pooled["lat"]
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["std"] == pytest.approx(math.sqrt(2.0))
        assert stats["ci_half"] > 0

    def test_single_replica_has_nan_ci(self):
        pooled = pool_kpis([self._replica(0, lat=1.0)])
        assert math.isnan(pooled["lat"]["ci_half"])
        assert math.isnan(pooled["lat"]["std"])

    def test_rejects_unsorted_replicas(self):
        replicas = [self._replica(1, x=1.0), self._replica(0, x=2.0)]
        with pytest.raises(ValueError, match="sorted"):
            merge_replicas("e14", "claim", replicas,
                           master_seed=0, workers=1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_replicas("e14", "claim", [], master_seed=0,
                           workers=1)

    def test_kernel_snapshots_sum_and_max(self):
        replicas = [
            ReplicaResult(index=0, seed=1, kpis={"x": 1.0},
                          kernel={"events_scheduled": 10,
                                  "events_executed": 9,
                                  "environments": 1,
                                  "peak_heap_depth": 4}),
            ReplicaResult(index=1, seed=2, kpis={"x": 2.0},
                          kernel={"events_scheduled": 5,
                                  "events_executed": 5,
                                  "environments": 2,
                                  "peak_heap_depth": 7}),
        ]
        merged = merge_replicas("e14", "claim", replicas,
                                master_seed=0, workers=2)
        kernel = merged.report.replication["kernel"]
        assert kernel["events_scheduled"] == 15
        assert kernel["events_executed"] == 14
        assert kernel["environments"] == 3
        assert kernel["peak_heap_depth"] == 7
