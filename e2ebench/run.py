"""End-to-end benchmark of the measurement pipeline.

One command per workload run::

    python3 e2ebench/run.py --workload paper_report --seed 1 --seconds 10 --trace 0

Each run starts one fresh interpreter per round (``e2ebench/workload.py``);
a round builds the workload's world, runs the timed phase through the
program's public API and checks the outputs.  Rounds repeat until their
timed phases add up to ``--seconds`` and the workload's ``MIN_ROUNDS`` have
run.
The run prints a table of every figure, and as its last line one JSON
object: the end-to-end metrics (medians over rounds) with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Traced runs also write their spans to
``e2ebench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from e2ebench.metrics import END_TO_END, LLM_COSTS, PER_LAYER  # noqa: E402

OUT = ROOT / "e2ebench" / "out"

#: GPTs in each workload's world.
WORKLOAD_GPTS = {"paper_report": 3000, "epoch_refresh": 3000, "store_crawl": 12000}
#: Generator seed of every workload's world (see README, "Seeds").
WORLD_SEED = 2025
#: Fewest rounds a run makes, so every time is a median.  ``store_crawl``
#: rounds are short and spread widest on a 2-core VM, so it makes more.
MIN_ROUNDS = {"paper_report": 3, "epoch_refresh": 3, "store_crawl": 6}
#: No round starts once the run has lasted this long (the run must end
#: within 180 s).
START_DEADLINE_S = 120.0
#: Kill a round that has not ended after this long.
ROUND_TIMEOUT_S = 170.0
#: Figures that must repeat exactly from round to round.
EXACT = ("n_gpts", "http_requests", "store_bytes", "llm_calls", "llm_prompt_tokens")


class RoundFailed(RuntimeError):
    """A round's interpreter exited without a result."""


def run_round(
    workload: str, gpts: int, world_seed: int, trace: int = 0, backend: Optional[str] = None
) -> Dict[str, object]:
    """Run one round in a fresh interpreter and return its JSON result."""
    OUT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "e2ebench.workload",
        "--workload", workload,
        "--gpts", str(gpts),
        "--world-seed", str(world_seed),
        "--trace", str(trace),
        "--work-dir", work,
    ]
    if backend:
        command += ["--backend", backend]
    try:
        command += ["--spawned-at", repr(time.monotonic())]
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=ROUND_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RoundFailed(f"round exited with code {completed.returncode}")
    return json.loads(lines[-1])


def run_rounds(args: argparse.Namespace) -> List[Dict[str, object]]:
    """Rounds until ``--seconds`` of timed phase and the workload's ``MIN_ROUNDS``."""
    gpts = args.gpts or WORKLOAD_GPTS[args.workload]
    started = time.monotonic()
    rounds: List[Dict[str, object]] = []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS[args.workload] or measured < args.seconds:
        if rounds and time.monotonic() - started > START_DEADLINE_S:
            break
        result = run_round(args.workload, gpts, WORLD_SEED, args.trace)
        rounds.append(result)
        measured += result["timed_s"]
    return rounds


def summarize(args: argparse.Namespace, rounds: List[Dict[str, object]]) -> Dict[str, object]:
    """Medians over rounds, plus the repeat check of the exact counts.

    Each round adds one operation, ``counts_repeat``: it fails if any exact
    count differs from the first round's (so a run's share of failed
    operations does not depend on how many rounds it made).
    """
    attempted = sum(result["attempted"] + 1 for result in rounds)
    failed = sum(result["failed"] for result in rounds)
    first = rounds[0]
    for result in rounds:
        if any(result[key] != first[key] for key in EXACT):
            print("counts_repeat failed: exact counts differ between rounds", file=sys.stderr)
            failed += 1
    figures: Dict[str, float] = {
        "gpts_per_s": statistics.median(r["n_gpts"] / r["timed_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "http_requests": first["http_requests"],
        "store_mb": first["store_bytes"] / (1 << 20),
        "llm_calls": first["llm_calls"],
        "llm_prompt_tokens": first["llm_prompt_tokens"],
    }
    units = {name: unit for name, unit, _ in END_TO_END + LLM_COSTS + PER_LAYER}
    if args.trace:
        shown = PER_LAYER
        for name, _, _ in PER_LAYER:
            figures[name] = statistics.median(r["layers"][name] for r in rounds)
    else:
        shown = END_TO_END
    print(f"{args.workload}: {len(rounds)} rounds of {first['n_gpts']} GPTs "
          f"(world seed {WORLD_SEED}), timed phases "
          + ", ".join(f"{r['timed_s']:.3f}" for r in rounds) + " s")
    for name, figure in figures.items():
        print(f"  {name:40s} {figure:>16.4f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": figures[name], "unit": unit} for name, unit, _ in shown},
    }


def write_trace(args: argparse.Namespace, rounds: List[Dict[str, object]]) -> Path:
    """Write every traced round's spans (with self times) as one JSON file."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "world_seed": WORLD_SEED,
        "rounds": [
            {"timed_s": result["timed_s"], "spans": result["spans"]} for result in rounds
        ],
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_GPTS))
    parser.add_argument(
        "--seed", type=int, required=True,
        help="run seed; recorded, changes no input (see README, 'Seeds')",
    )
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed-phase seconds to measure (at least MIN_ROUNDS rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gpts", type=int, default=0,
                        help="override the workload's world size (reference runs)")
    args = parser.parse_args()
    try:
        rounds = run_rounds(args)
    except (RoundFailed, subprocess.TimeoutExpired) as error:
        print(f"{args.workload}: {error}; no result", file=sys.stderr)
        return 2
    summary = summarize(args, rounds)
    if args.trace:
        print(f"  spans: {write_trace(args, rounds)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
