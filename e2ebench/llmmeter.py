"""Exact LLM cost counts at the client boundary, in whichever process calls.

The priced boundary of the measurement is the LLM client's ``complete``:
every completion that reaches it would be a paid GPT-4o call.  The program's
own counters (``SimulatedLLM.call_count`` / ``usage``) live on the client
object, so a process-pool worker's copy counts into memory that is never
sent back.  :func:`meter_llm` swaps the suite's client to
:class:`MeteredLLM`, whose ``complete`` records every call in a
:class:`CostMeter`:

* in the process that built the meter, into lock-protected totals (thread
  workers share them);
* in any other process (a pickled or forked copy inside a pool worker), as
  one appended line per call in ``<spool_dir>/llm-<pid>.log``, which
  :meth:`CostMeter.snapshot` folds back in.

The task and the prompt and completion tokens are read from the response
the client returns (its ``usage`` is the program's ``estimate_tokens`` over
the exact text that crossed the boundary), so the meter adds only a clock
and, in pool workers, the spool.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.llm import prompts
from repro.llm.base import ChatMessage, LLMResponse
from repro.llm.simulated import SimulatedLLM

#: The prompt tasks the program can send (``repro.llm.prompts.TASK_*``),
#: one ``calls.<task>`` counter each.
LLM_TASKS = tuple(
    value for name, value in vars(prompts).items()
    if name.startswith("TASK_") and name != "TASK_MARKER"
)


def empty_totals() -> Dict[str, float]:
    """Zeroed counters: calls, tokens, busy seconds, and calls per task."""
    totals: Dict[str, float] = {
        "calls": 0,
        "prompt_tokens": 0,
        "completion_tokens": 0,
        "busy_s": 0.0,
    }
    for task in LLM_TASKS:
        totals[f"calls.{task}"] = 0
    return totals


class CostMeter:
    """Counts completions where they happen and sums them across processes."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._totals = empty_totals()
        self._spool_fd = None

    def __getstate__(self) -> Dict[str, object]:
        return {"spool_dir": self.spool_dir, "owner_pid": self.owner_pid}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.spool_dir = state["spool_dir"]
        self.owner_pid = state["owner_pid"]
        self._lock = threading.Lock()
        self._totals = empty_totals()
        self._spool_fd = None

    def record(self, task: str, prompt_tokens: int, completion_tokens: int, busy_s: float) -> None:
        """Count one completion (thread-safe; spooled outside the owner)."""
        if os.getpid() != self.owner_pid:
            line = f"{task} {prompt_tokens} {completion_tokens} {busy_s!r}\n"
            with self._lock:
                if self._spool_fd is None:
                    path = Path(self.spool_dir) / f"llm-{os.getpid()}.log"
                    self._spool_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                os.write(self._spool_fd, line.encode("ascii"))
            return
        with self._lock:
            _add(self._totals, task, prompt_tokens, completion_tokens, busy_s)

    def snapshot(self) -> Dict[str, float]:
        """Totals so far: this process's plus every worker's spool."""
        with self._lock:
            totals = dict(self._totals)
        for path in sorted(Path(self.spool_dir).glob("llm-*.log")):
            for line in path.read_text(encoding="ascii").splitlines():
                task, prompt_tokens, completion_tokens, busy_s = line.split(" ")
                _add(totals, task, int(prompt_tokens), int(completion_tokens), float(busy_s))
        return totals


def _add(totals: Dict[str, float], task: str, prompt_tokens: int,
         completion_tokens: int, busy_s: float) -> None:
    totals["calls"] += 1
    totals["prompt_tokens"] += prompt_tokens
    totals["completion_tokens"] += completion_tokens
    totals["busy_s"] += busy_s
    key = f"calls.{task}"
    if key not in totals:
        raise ValueError(f"LLM call for unknown prompt task {task!r}")
    totals[key] += 1


class MeteredLLM(SimulatedLLM):
    """The program's simulated client, counting every completion it serves."""

    def complete(self, messages: List[ChatMessage]) -> LLMResponse:
        start = time.perf_counter()
        response = super().complete(messages)
        busy_s = time.perf_counter() - start
        self._cost_meter.record(
            response.metadata["task"],
            response.usage.prompt_tokens,
            response.usage.completion_tokens,
            busy_s,
        )
        return response


def meter_llm(llm: object, spool_dir: str) -> CostMeter:
    """Make ``llm`` (the suite's own client) count its completions."""
    if type(llm) is not SimulatedLLM:
        raise TypeError(
            f"the suite's LLM client is a {type(llm).__name__}, not a SimulatedLLM; "
            "the cost meter wraps the simulated client's complete()"
        )
    llm.__class__ = MeteredLLM
    llm._cost_meter = CostMeter(spool_dir)
    return llm._cost_meter
