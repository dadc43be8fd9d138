"""Names, units and better directions of every metric, as ``BENCHMARK.json`` declares them."""

from __future__ import annotations

import json
from pathlib import Path

_DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: (name, unit, better) of the end-to-end metrics (untraced runs).
END_TO_END = tuple((m["name"], m["unit"], m["better"]) for m in _DECLARED["end_to_end"])

#: (name, unit, better) of the per-layer metrics (traced runs).
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _DECLARED["per_layer"])

#: Whole-run LLM costs, printed by every run next to the end-to-end metrics.
#: They are not gated as end-to-end metrics because ``store_crawl`` makes no
#: LLM call by design (a metric reading 0 has no relative bound); traced runs
#: report the same counts as ``llm.calls`` and ``llm.prompt_tokens``.
LLM_COSTS = (
    ("llm_calls", "count", "lower"),
    ("llm_prompt_tokens", "count", "lower"),
)
