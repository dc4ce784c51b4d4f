"""R1 — §6 robustness claim: holistically designed multimedia systems
must "operate with limited resources and failing parts" rather than
assume a fault-free platform.

Sweeps the fault rate for three of the reproduced experiments — the
Fig.1(a) stream pipeline under channel outages, wireless streaming
under packet/feedback loss, and the MANET video sessions under node
crashes — and prints QoS-vs-fault-rate degradation curves with the
resilience layer on (resilient channel, ARQ, route repair) and off
(seed behavior: crash or stall at the first fault).  The resilient
curves must degrade gracefully (monotone, no cliff); the baselines
collapse.
"""

from repro.resilience import format_report


def bench_r1_resilience_degradation(experiment):
    result = experiment("r1")
    result.table("fault rate").show()

    report = result.raw["report"]
    print(format_report(report))

    for name, curves in report.items():
        # Graceful degradation: monotone within tolerance, no cliff.
        resilient = curves["resilient"]
        assert resilient.is_graceful(), (
            f"{name}: resilient curve not graceful: "
            f"{resilient.qos_values}"
        )
        assert resilient.min_qos() >= curves["baseline"].min_qos()

    # Where the baseline crashes (stream) or stalls on lost frames
    # (ARQ-less streaming), the policies dominate pointwise and keep a
    # clearly higher floor.
    for name in ("stream", "arq-streaming"):
        resilient = report[name]["resilient"]
        baseline = report[name]["baseline"]
        for res, base in zip(resilient.points, baseline.points):
            assert res.qos >= base.qos, (
                f"{name}@{res.fault_rate}: {res.qos:.3f} < "
                f"{base.qos:.3f}"
            )
        assert resilient.min_qos() > 1.5 * baseline.min_qos(), (
            f"{name}: resilient {resilient.min_qos():.3f} vs "
            f"baseline {baseline.min_qos():.3f}"
        )

    # The unprotected stream pipeline dies outright at any fault rate.
    stream_baseline = report["stream"]["baseline"]
    assert all(p.detail["crashed"] for p in stream_baseline.points
               if p.fault_rate > 0)
    assert not any(p.detail["crashed"]
                   for p in report["stream"]["resilient"].points)

    # In the MANET, the baseline's loss has a named mechanism: dead
    # nodes on cached routes.  Route repair removes exactly that.
    baseline_stale = sum(p.detail["stale_route_failures"]
                         for p in report["manet"]["baseline"].points)
    resilient_stale = sum(p.detail["stale_route_failures"]
                          for p in report["manet"]["resilient"].points)
    assert baseline_stale > 0
    assert resilient_stale < 0.25 * baseline_stale
