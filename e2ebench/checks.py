"""Output checks whose expectations come from the generated world.

Each check returns ``None`` when it holds and a one-line description of
the mismatch otherwise.  Expected values are computed here from the world
the program was given (its listings, manifests, policies and ground truth)
or from a property the method must have, never by asking the code under
test for a second opinion.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set
from urllib.parse import urlsplit

from repro.ecosystem.models import SyntheticEcosystem
from repro.policy.labels import ConsistencyLabel
from repro.taxonomy.schema import OTHER_CATEGORY, OTHER_TYPE, DataTaxonomy

#: Classification accuracy floor (category and data type both right), below
#: the paper's 91–93%.
CLASSIFIER_ACCURACY_FLOOR = 0.88
#: Consistent-vs-inconsistent accuracy floor of the policy framework, below
#: the paper's 87%.
POLICY_ACCURACY_FLOOR = 0.80


def expected_gpt_ids(world: SyntheticEcosystem) -> Set[str]:
    """GPT ids a complete crawl must publish: listed somewhere and resolvable."""
    return {
        listing.gpt_id
        for listings in world.store_listings.values()
        for listing in listings
        if listing.gpt_id in world.gpts
    }


def _diff(kind: str, expected: Set[str], got: Set[str]) -> Optional[str]:
    if expected == got:
        return None
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    return (
        f"{kind}: {len(missing)} missing (e.g. {missing[:3]}), "
        f"{len(extra)} unexpected (e.g. {extra[:3]})"
    )


def store_ids_match_world(store, world: SyntheticEcosystem) -> Optional[str]:
    """The store holds exactly the world's listed, resolvable GPTs."""
    got = {gpt.gpt_id for gpt in store.iter_gpts()}
    return _diff("store GPT ids", expected_gpt_ids(world), got)


def store_verifies(problems: Sequence[str]) -> Optional[str]:
    """``ShardedCorpusStore.verify()`` found no corrupted shard."""
    return f"corrupted shards: {list(problems)}" if problems else None


def labels_complete_and_valid(descriptions, labels, taxonomy: DataTaxonomy) -> Optional[str]:
    """Each description has exactly one label, a taxonomy type or ``Other``."""
    keys = Counter((label.action_id, label.parameter_name) for label in labels)
    wanted = Counter(description.key for description in descriptions)
    if keys != wanted:
        missing = sum((wanted - keys).values())
        extra = sum((keys - wanted).values())
        return f"labels vs descriptions: {missing} unlabelled, {extra} extra or duplicated"
    invalid = [
        label.label
        for label in labels
        if not (
            label.category == OTHER_CATEGORY
            or label.data_type == OTHER_TYPE
            or taxonomy.get_type(label.category, label.data_type) is not None
        )
    ]
    if invalid:
        return f"{len(invalid)} labels outside the taxonomy, e.g. {invalid[:3]}"
    return None


def classifier_accuracy(labels, world: SyntheticEcosystem) -> float:
    """Share of ground-truth-labelled descriptions with category and type right."""
    gold = world.ground_truth.parameter_labels
    scored = [label for label in labels if (label.action_id, label.parameter_name) in gold]
    if not scored:
        return 0.0
    right = sum(
        1 for label in scored
        if label.label == tuple(gold[(label.action_id, label.parameter_name)])
    )
    return right / len(scored)


def policy_accuracy(report, world: SyntheticEcosystem) -> float:
    """Consistent-vs-inconsistent agreement with the intended disclosure labels.

    Only Actions whose policy text the generator fully controls carry a
    meaningful intended label, as in the paper's manual-review sample.
    """
    truth = world.ground_truth
    scored = 0
    right = 0
    for action_id, result in report.all_results():
        if action_id not in truth.controlled_policy_actions:
            continue
        intended = truth.disclosure_labels.get((action_id, result.category, result.data_type))
        if intended is None:
            continue
        scored += 1
        expected = ConsistencyLabel.from_string(intended).is_consistent
        if expected == result.final_label.is_consistent:
            right += 1
    return right / scored if scored else 0.0


def at_least(name: str, value: float, floor: float) -> Optional[str]:
    """``value`` reaches ``floor``."""
    return None if value >= floor else f"{name} {value:.4f} is below the floor {floor}"


def report_has_every_section(text: str, experiment_ids: Iterable[str]) -> Optional[str]:
    """The rendered report has a section heading for every experiment."""
    headings = [line for line in text.splitlines() if line.startswith("## ")]
    missing = [
        experiment_id for experiment_id in experiment_ids
        if not any(heading.endswith(f"(`{experiment_id}`)") for heading in headings)
    ]
    return f"report sections missing for {missing}" if missing else None


def expected_duplicate_groups(store) -> List[List[str]]:
    """Actions grouped on their whitespace-collapsed policy text in the store."""
    urls: Dict[str, str] = {}
    for gpt in store.iter_gpts():
        for action in gpt.actions:
            if action.legal_info_url:
                urls.setdefault(action.action_id, action.legal_info_url)
    texts = {
        result.url: " ".join(result.text.split())
        for result in store.iter_policies()
        if result.ok and result.text is not None
    }
    groups: Dict[str, List[str]] = {}
    for action_id, url in urls.items():
        if url in texts:
            groups.setdefault(texts[url], []).append(action_id)
    return sorted(sorted(members) for members in groups.values() if len(members) >= 2)


def duplicate_groups_match(report, store) -> Optional[str]:
    """The duplicates analysis found exactly the benchmark's own groups."""
    expected = expected_duplicate_groups(store)
    got = sorted(sorted(group) for group in report.duplicate_groups)
    if got == expected:
        return None
    return f"duplicate groups: expected {len(expected)}, got {len(got)}"


def quarantined_hosts_are_policy_hosts(
    hosts: Sequence[str], world: SyntheticEcosystem
) -> Optional[str]:
    """Only privacy-policy hosts may be quarantined by the hostile crawl."""
    policy_hosts = {
        urlsplit(action.legal_info_url).hostname
        for action in world.actions.values()
        if action.legal_info_url
    }
    stray = sorted(set(hosts) - policy_hosts)
    return f"quarantined non-policy hosts: {stray}" if stray else None


def carried_records_match_feed(statistics, parent_store, world, delta) -> Optional[str]:
    """No record of the change feed was carried forward without a fetch.

    Every GPT the parent published, the new world still lists and the feed
    does not name must be carried; anything else must be fetched.  A carried
    changed record therefore shows as a carry count above the expected one.
    """
    parent_ids = {gpt.gpt_id for gpt in parent_store.iter_gpts()}
    carry = (parent_ids & expected_gpt_ids(world)) - set(delta.changed_gpt_ids)
    if statistics.n_records_carried != len(carry):
        return (
            f"{statistics.n_records_carried} GPT records carried, but exactly "
            f"{len(carry)} are unchanged since the parent epoch"
        )
    return None
