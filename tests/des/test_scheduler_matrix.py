"""The event queue across worker counts.

Queue entries are ``(time, priority, seq, event)`` tuples with a
unique ``seq``, so the heap pops one total order in every process.  A
replicated DES run must therefore merge to the same payload — kernel
counters and peak heap depth included — whether its replicas ran in
one worker or in four.
"""

import json

from repro.parallel import run_replicated


class TestBackendTimesWorkerInvariance:
    def test_workers_1_vs_4_byte_identical_with_kernel_counters(self):
        serial = run_replicated("f1", replicas=3, workers=1)
        fanned = run_replicated("f1", replicas=3, workers=4)
        serial_payload = serial.strip_timings()
        fanned_payload = fanned.strip_timings()
        assert (json.dumps(serial_payload, sort_keys=True)
                == json.dumps(fanned_payload, sort_keys=True))
        kernel = serial_payload["report"]["replication"]["kernel"]
        assert kernel["events_executed"] > 0
        assert kernel["peak_heap_depth"] > 0
