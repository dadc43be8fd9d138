"""One round of one workload, run in a fresh interpreter.

``run.py`` starts this module once per round; it can also be run by hand::

    PYTHONPATH=src:. python3 -m e2ebench.workload --workload paper_report \\
        --gpts 3000 --world-seed 2025 --trace 1 --work-dir /tmp/round

A round imports the program, builds its world (set-up), runs the timed
phase through the program's public API, checks the outputs against the
generated world, and prints one JSON object as the last line of stdout.
Every stage and check is an operation: a stage fails if it raises, a check
fails if it does not hold, and after a failed stage the remaining
operations are counted as attempted and failed without running, so every
round attempts the same operations.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

from e2ebench.metrics import PER_LAYER
from e2ebench.trace import Tracer, duration

#: Shards of the on-disk store, as a user runs a paper-scale measurement.
SHARDS = 8
#: Bytes per MB in every ``*_mb`` figure.
MB = 1 << 20


def vmhwm_kb(pid: str = "self") -> int:
    """Peak resident set (``VmHWM``) of one process, in kB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class Operations:
    """Runs stages and checks, counting what was attempted and what failed."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed: List[str] = []
        self.broken_by: Optional[str] = None

    def stage(self, name: str, call: Callable[[], object]) -> object:
        """Run one stage inside a span named after its layer."""
        self.attempted += 1
        if self.broken_by is not None:
            self.failed.append(name)
            return None
        try:
            with self.tracer.span(name):
                return call()
        except Exception:
            traceback.print_exc()
            self.failed.append(name)
            self.broken_by = name
            return None

    def check(self, name: str, call: Callable[[], Optional[str]]) -> None:
        """Run one check; it holds when ``call`` returns ``None``."""
        self.attempted += 1
        if self.broken_by is not None:
            self.failed.append(name)
            return
        try:
            with self.tracer.span(f"check.{name}"):
                problem = call()
        except Exception:
            traceback.print_exc()
            problem = "raised"
        if problem is not None:
            print(f"check {name} failed: {problem}", file=sys.stderr)
            self.failed.append(name)


class Round:
    """State shared by a workload's set-up, timed phase and checks."""

    def __init__(self, args: argparse.Namespace, tracer: Tracer) -> None:
        self.args = args
        self.tracer = tracer
        self.ops = Operations(tracer)
        self.work = Path(args.work_dir)
        #: Worker count of every pool: the CPUs this process may run on (nproc).
        self.workers = len(os.sched_getaffinity(0))
        self.suites: List[object] = []
        self.meter = None
        #: The suite whose timed phase the round measures.
        self.measured = None
        self.parent = None
        self.deltas: List[object] = []
        self.report_text: Optional[str] = None
        self.verify_problems: Optional[List[str]] = None

    def suite(self, name: str, epoch: int = 0, crawl_hostile=None, **kwargs: object):
        """A sharded suite as a user runs it: 8 shards, nproc workers, default backend."""
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        config = SuiteConfig(
            n_gpts=self.args.gpts,
            seed=self.args.world_seed,
            epoch=epoch,
            shards=SHARDS,
            shard_workers=self.workers,
            crawl_workers=self.workers,
            shard_dir=str(self.work / name),
            backend=self.args.backend,
            crawl_hostile=crawl_hostile,
        )
        suite = MeasurementSuite(config=config, **kwargs)
        self.suites.append(suite)
        return suite

    def meter_llm(self, suite) -> None:
        """Count the suite's LLM completions from here on."""
        from e2ebench.llmmeter import meter_llm

        spool = self.work / "llm-spool"
        spool.mkdir(parents=True, exist_ok=True)
        self.meter = meter_llm(suite.llm, str(spool))
        self.tracer.counters = self.meter.snapshot

    # ------------------------------------------------------------------
    # Stage sequences
    # ------------------------------------------------------------------
    def report_stages(self, suite, crawl: Callable[[], object]) -> Optional[str]:
        """Crawl, extract, few-shot, classify, analyze, judge, report, render."""
        from repro.experiments.registry import run_all_experiments
        from repro.reporting.report import render_experiment_report

        stage = self.ops.stage
        stage("crawler", crawl)
        stage("classification.extract", lambda: suite.descriptions)
        stage("classification.fewshot", lambda: suite.fewshot_store)
        stage("classification", lambda: suite.classification)
        stage("analysis.corpus", lambda: corpus_analyses(suite))
        stage("analysis.classified", lambda: (
            suite.collection, suite.coverage, suite.prohibited, suite.prevalence
        ))
        stage("policy.duplicates", lambda: suite.policy_duplicates)
        stage("policy.disclosure", lambda: suite.disclosure)
        results = stage("experiments", lambda: run_all_experiments(suite))
        return stage("reporting.render", lambda: render_experiment_report(
            results, self.args.gpts, self.args.world_seed
        ))

    def verify(self, store) -> List[str]:
        """``store.verify()`` inside the ``io.verify`` span."""
        with self.tracer.span("io.verify"):
            return store.verify()

    def report_checks(self) -> None:
        """Checks of the two workloads that render the full report."""
        from e2ebench import checks
        from repro.experiments.registry import EXPERIMENTS

        suite = self.measured
        check = self.ops.check
        check("store_verified", lambda: checks.store_verifies(self.verify(suite.shard_store)))
        check("store_ids", lambda: checks.store_ids_match_world(
            suite.shard_store, suite.ecosystem
        ))
        check("labels", lambda: checks.labels_complete_and_valid(
            suite.descriptions, suite.classification.labels, suite.taxonomy
        ))
        check("classifier_accuracy", lambda: checks.at_least(
            "classifier accuracy",
            checks.classifier_accuracy(suite.classification.labels, suite.ecosystem),
            checks.CLASSIFIER_ACCURACY_FLOOR,
        ))
        check("policy_accuracy", lambda: checks.at_least(
            "policy-framework accuracy",
            checks.policy_accuracy(suite.policy_report, suite.ecosystem),
            checks.POLICY_ACCURACY_FLOOR,
        ))
        check("report_sections", lambda: checks.report_has_every_section(
            self.report_text or "", EXPERIMENTS
        ))


def corpus_analyses(suite) -> tuple:
    """The corpus-only analyzers (Tables 1 and 3, Section 4.4.1, Figure 8)."""
    return (suite.crawl_stats, suite.tool_usage, suite.multi_action, suite.cooccurrence)


# ----------------------------------------------------------------------
# Workloads: set-up, timed phase and checks of each
# ----------------------------------------------------------------------
def paper_report_setup(state: Round) -> None:
    suite = state.measured = state.suite("store")
    state.meter_llm(suite)
    state.ops.stage("ecosystem.generate", lambda: suite.ecosystem)


def paper_report_timed(state: Round) -> None:
    suite = state.measured
    state.report_text = state.report_stages(suite, lambda: suite.shard_store)


def epoch_refresh_setup(state: Round) -> None:
    from repro.ecosystem.evolution import evolve_epochs

    parent = state.parent = state.suite("epoch0")
    state.meter_llm(parent)
    state.ops.stage("ecosystem.generate", lambda: parent.ecosystem)
    with state.tracer.span("epoch0"):
        state.report_stages(parent, lambda: parent.shard_store)
    evolved = state.ops.stage("ecosystem.evolve", lambda: evolve_epochs(
        parent.ecosystem, parent.ecosystem_config, 1
    ))
    world, state.deltas = evolved if evolved is not None else (None, [])
    suite = state.measured = state.suite(
        "epoch1", epoch=1, ecosystem_config=parent.ecosystem_config,
        ecosystem=world, llm=parent.llm,
    )
    suite.epoch_deltas = state.deltas


def epoch_refresh_timed(state: Round) -> None:
    suite = state.measured
    state.report_text = state.report_stages(
        suite,
        lambda: suite.incremental_crawl(state.parent.shard_store, suite.config.shard_dir),
    )


def epoch_refresh_checks(state: Round) -> None:
    from e2ebench import checks

    state.report_checks()
    suite, parent = state.measured, state.parent
    state.ops.check("matches_cold_crawl", lambda: cold_crawl_mismatch(state))
    state.ops.check("carried_not_in_feed", lambda: checks.carried_records_match_feed(
        suite.crawl_statistics, parent.shard_store, suite.ecosystem, state.deltas[-1]
    ))


def cold_crawl_mismatch(state: Round) -> Optional[str]:
    """The refreshed store equals a cold crawl of the same evolved world."""
    from repro.crawler.pipeline import CrawlPipeline

    suite, parent = state.measured, state.parent
    pipeline = CrawlPipeline.from_ecosystem(
        suite.ecosystem, seed=suite.config.seed, workers=state.workers,
        shards=SHARDS, backend=state.args.backend,
    )
    cold = pipeline.run_sharded(
        str(state.work / "epoch1-cold"), epoch=1,
        parent_fingerprint=parent.shard_store.fingerprint(),
    )
    if cold.fingerprint() != suite.shard_store.fingerprint():
        return (
            f"incremental store {suite.shard_store.fingerprint()[:12]} differs from "
            f"the cold crawl {cold.fingerprint()[:12]} of the same world"
        )
    return None


def store_crawl_setup(state: Round) -> None:
    suite = state.measured = state.suite("store", crawl_hostile={})
    state.meter_llm(suite)
    state.ops.stage("ecosystem.generate", lambda: suite.ecosystem)


def store_crawl_timed(state: Round) -> None:
    suite = state.measured
    stage = state.ops.stage
    stage("crawler", lambda: suite.shard_store)
    state.verify_problems = stage("io.verify", lambda: suite.shard_store.verify())
    stage("analysis.corpus", lambda: corpus_analyses(suite))
    stage("policy.duplicates", lambda: suite.policy_duplicates)


def store_crawl_checks(state: Round) -> None:
    from e2ebench import checks

    suite = state.measured
    check = state.ops.check
    check("store_verified", lambda: checks.store_verifies(state.verify_problems))
    check("store_ids", lambda: checks.store_ids_match_world(suite.shard_store, suite.ecosystem))
    check("duplicate_groups", lambda: checks.duplicate_groups_match(
        suite.policy_duplicates, suite.shard_store
    ))
    check("quarantine", lambda: checks.quarantined_hosts_are_policy_hosts(
        suite.crawl_statistics.quarantined_hosts, suite.ecosystem
    ))


#: Workload name → (set-up, timed phase, checks).
WORKLOADS = {
    "paper_report": (paper_report_setup, paper_report_timed, Round.report_checks),
    "epoch_refresh": (epoch_refresh_setup, epoch_refresh_timed, epoch_refresh_checks),
    "store_crawl": (store_crawl_setup, store_crawl_timed, store_crawl_checks),
}


# ----------------------------------------------------------------------
# Figures of one round
# ----------------------------------------------------------------------
def layer_metrics(state: Round, timed_s: float, llm_timed: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures from the spans and the measured suite (traced rounds)."""
    tracer = state.tracer
    suite = state.measured
    statistics = suite.crawl_statistics

    def timed(name: str) -> Optional[Dict[str, object]]:
        return tracer.find(name, under="timed")

    def counted(name: str, key: str = "calls") -> int:
        record = timed(name)
        return record["counts"].get(key, 0) if record else 0

    crawl = timed("crawler")
    classify = timed("classification")
    top_level = tracer.children(tracer.find("timed"))
    policies = [
        " ".join(result.text.split())
        for result in suite.shard_store.iter_policies()
        if result.ok and result.text is not None
    ]
    records = suite.shard_store.n_gpts
    # Only the report workloads extract descriptions; do not force it here.
    descriptions = suite.descriptions if classify else []
    layers = {
        "import.wall_s": duration(tracer.find("import")),
        "import.vmhwm_mb": state.import_vmhwm_kb / 1024,
        "ecosystem.generate_s": duration(tracer.find("ecosystem.generate", under="setup")),
        "ecosystem.evolve_s": duration(tracer.find("ecosystem.evolve", under="setup")),
        "crawler.wall_s": duration(crawl),
        "crawler.cpu_s": crawl["cpu_s"] if crawl else 0.0,
        "crawler.http_requests": statistics.n_http_requests,
        "crawler.retries": statistics.n_retries,
        "crawler.ratelimit_retries": statistics.n_ratelimit_retries,
        "crawler.records": records,
        "crawler.records_carried": statistics.n_records_carried,
        "crawler.policies_carried": statistics.n_policies_carried,
        "crawler.quarantined_hosts": len(statistics.quarantined_hosts),
        "crawler.records_per_request": records / max(1, statistics.n_http_requests),
        "io.store_mb": tree_bytes(Path(suite.shard_store.root)) / MB,
        "io.verify_s": duration(tracer.find("io.verify")),
        "classification.extract_s": duration(timed("classification.extract")),
        "classification.fewshot_s": duration(timed("classification.fewshot")),
        "classification.wall_s": duration(classify),
        "classification.cpu_s": classify["cpu_s"] if classify else 0.0,
        "classification.descriptions": len(descriptions),
        "classification.unique_texts": len({item.text for item in descriptions}),
        "classification.llm_calls": counted("classification"),
        "classification.prompt_tokens": counted("classification", "prompt_tokens"),
        "llm.busy_s": llm_timed["busy_s"],
        "llm.calls": llm_timed["calls"],
        "llm.prompt_tokens": llm_timed["prompt_tokens"],
        "llm.completion_tokens": llm_timed["completion_tokens"],
        "policy.disclosure_s": duration(timed("policy.disclosure")),
        "policy.disclosure_llm_calls": counted("policy.disclosure"),
        "policy.duplicates_s": duration(timed("policy.duplicates")),
        "policy.documents": len(policies),
        "policy.unique_texts": len(set(policies)),
        "analysis.corpus_s": duration(timed("analysis.corpus")),
        "analysis.classified_s": duration(timed("analysis.classified")),
        "experiments.wall_s": duration(timed("experiments")),
        "experiments.llm_calls": counted("experiments"),
        "reporting.render_s": duration(timed("reporting.render")),
        "trace.coverage": sum(duration(span) for span in top_level) / timed_s,
    }
    for key, value in llm_timed.items():
        if key.startswith("calls."):
            layers[f"llm.{key}"] = value
    return layers


def peak_rss_kb() -> int:
    """VmHWM of this process plus that of every worker process it started."""
    workers = multiprocessing.active_children()
    return vmhwm_kb() + sum(vmhwm_kb(str(child.pid)) for child in workers)


def run(args: argparse.Namespace) -> Dict[str, object]:
    tracer = Tracer(enabled=bool(args.trace))
    state = Round(args, tracer)
    setup, timed_phase, checks = WORKLOADS[args.workload]
    with tracer.span("setup"):
        with tracer.span("import"):
            import repro.cli  # noqa: F401  (the program as its command line loads it)
        state.import_vmhwm_kb = vmhwm_kb()
        setup(state)
    setup_s = time.monotonic() - args.spawned_at
    before = state.meter.snapshot()
    program_calls_before = state.measured.llm.call_count
    with tracer.span("timed"):
        start = time.perf_counter()
        timed_phase(state)
        timed_s = time.perf_counter() - start
    peak_kb = peak_rss_kb()
    after = state.meter.snapshot()
    llm_timed = {key: after[key] - before[key] for key in after}
    with tracer.span("checks"):
        checks(state)
    suite = state.measured
    completed = state.ops.broken_by is None
    result: Dict[str, object] = {
        "workload": args.workload,
        "attempted": state.ops.attempted,
        "failed": len(state.ops.failed),
        "setup_s": setup_s,
        "timed_s": timed_s,
        "n_gpts": len(suite.ecosystem.gpts) if completed else 0,
        "peak_rss_mb": peak_kb / 1024,
        "http_requests": suite.crawl_statistics.n_http_requests if completed else 0,
        "store_bytes": tree_bytes(Path(suite.shard_store.root)) if completed else 0,
        "llm_calls": llm_timed["calls"],
        "llm_prompt_tokens": llm_timed["prompt_tokens"],
        #: The program's own counter, as the suite's process sees it.
        "program_llm_calls": suite.llm.call_count - program_calls_before,
    }
    if args.trace:
        result["layers"] = (
            layer_metrics(state, timed_s, llm_timed) if completed
            else {name: 0 for name, _, _ in PER_LAYER}
        )
        result["spans"] = tracer.with_self_times()
    for opened in state.suites:
        opened.close()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--gpts", type=int, required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", default=None, choices=("serial", "thread", "process"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="time.monotonic() just before this interpreter was started",
    )
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
