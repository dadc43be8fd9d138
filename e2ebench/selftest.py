"""Self-test of the benchmark: its counts do not depend on the backend.

    python3 e2ebench/selftest.py

Runs every workload on a small world twice on each of the serial, thread
and process backends and requires identical ``llm_calls``,
``llm_prompt_tokens``, ``http_requests`` and store bytes in all six rounds,
with no failed operation.  It also prints the program's own
``SimulatedLLM.call_count`` next to the metered count: on the process
backend that counter misses every call made inside a worker.  Exits 0 when everything holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from e2ebench.run import WORLD_SEED, run_round  # noqa: E402

#: GPTs per self-test round (small, so 18 rounds take about two minutes).
SELFTEST_GPTS = {"paper_report": 400, "epoch_refresh": 400, "store_crawl": 1500}
BACKENDS = ("serial", "thread", "process")
COUNTS = ("llm_calls", "llm_prompt_tokens", "http_requests", "store_bytes")


def main() -> int:
    ok = True
    for workload, gpts in SELFTEST_GPTS.items():
        seen = set()
        for backend in BACKENDS:
            for attempt in (1, 2):
                result = run_round(workload, gpts, WORLD_SEED, backend=backend)
                counts = tuple(result[key] for key in COUNTS)
                seen.add(counts)
                print(
                    f"{workload:14s} {backend:8s} run {attempt}: "
                    + ", ".join(f"{key}={value}" for key, value in zip(COUNTS, counts))
                    + f", program call_count={result['program_llm_calls']}"
                    + f", failed={result['failed']}/{result['attempted']}"
                )
                ok &= result["failed"] == 0
        if len(seen) != 1:
            print(f"{workload}: counts differ across backends or runs")
            ok = False
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
