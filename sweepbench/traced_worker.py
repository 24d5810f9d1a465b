"""``python -m repro.cluster.worker`` with its lease and complete calls timed.

Used only by traced cluster_fanout runs. Timing starts once the file
named by ``SWEEPBENCH_TRACE_FLAG`` exists; at exit the timings go to
``SWEEPBENCH_TRACE_OUT`` as JSON (seconds per granted lease call and
per complete call, and the bytes of each complete request).
"""

import json
import os
import sys
import time

from repro.cluster import worker

FLAG = os.environ["SWEEPBENCH_TRACE_FLAG"]
stats = {"lease": [], "complete": [], "payload_bytes": []}


def _timed(name, call):
    def timed(self, payload):
        t0 = time.perf_counter()
        reply = call(self, payload)
        dt = time.perf_counter() - t0
        if os.path.exists(FLAG) and (name != "lease" or reply.get("points")):
            stats[name].append(dt)
            if name == "complete":
                stats["payload_bytes"].append(len(json.dumps(payload)))
        return reply

    return timed


worker.ClusterClient.lease = _timed("lease", worker.ClusterClient.lease)
worker.ClusterClient.complete = _timed("complete", worker.ClusterClient.complete)

if __name__ == "__main__":
    try:
        code = worker.main(sys.argv[1:])
    finally:
        with open(os.environ["SWEEPBENCH_TRACE_OUT"], "w") as f:
            json.dump(stats, f)
    sys.exit(code)
