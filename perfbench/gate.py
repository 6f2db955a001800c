"""Correctness gate: a run counts only after its outputs pass here.

Two kinds of check, both pure functions of what the worker measured:

* **reference** — for a seed recorded in ``reference.json`` the outputs
  must equal the values this program produced when the benchmark was
  written (``record`` writes them).
* **cross-check** — for every seed, independent implementations must
  agree: the fast tree DP against the bitset kernel, batched ranking
  against the scalar Jaccard loop, signature rows against per-fault
  effect sets, plus the Table I constraints.

Every function returns a list of error strings; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")

#: Table I extraction fractions (run_design defaults).
DAMAGE_FRACTION = 0.10
COST_FRACTION = 0.10


def digest(value) -> str:
    """Short stable hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> Optional[Dict]:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def record(workload: str, seed: int, reference: Dict) -> None:
    """Store ``reference`` as the expected outputs of (workload, seed)."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = reference
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _compare(reference: Optional[Dict], actual: Dict) -> List[str]:
    if reference is None:
        return []
    return [
        f"{key}: expected {reference[key]!r}, got {actual.get(key)!r}"
        for key in sorted(reference)
        if actual.get(key) != reference[key]
    ]


# -- table1 ---------------------------------------------------------------
def table1_reference(output: Dict) -> Dict:
    return {
        key: output[key]
        for key in (
            "max_cost",
            "max_damage",
            "min_cost",
            "min_damage",
            "greedy",
            "front_size",
        )
    }


def check_table1(
    output: Dict, independent: Dict, reference: Optional[Dict]
) -> List[str]:
    """``independent`` holds ``max_cost``/``max_damage`` of a problem
    built from the bitset kernel's report instead of the fast DP."""
    errors = _compare(reference, table1_reference(output))
    for key in ("max_cost", "max_damage"):
        if output[key] != independent[key]:
            errors.append(
                f"{key} {output[key]!r} != bitset cross-check "
                f"{independent[key]!r}"
            )
    if output["generations"] != independent["generations"]:
        errors.append(f"ran {output['generations']} generations")
    if output["front_size"] < 1:
        errors.append("empty front")
    cost, damage = output["min_cost"]
    if damage is None or damage > DAMAGE_FRACTION * output["max_damage"]:
        errors.append(f"min-cost solution violates the damage bound: {damage}")
    cost, damage = output["min_damage"]
    if cost is None or cost > COST_FRACTION * output["max_cost"]:
        errors.append(f"min-damage solution violates the cost bound: {cost}")
    return errors


# -- analyze_large --------------------------------------------------------
def analyze_reference(output: Dict) -> Dict:
    return {key: output[key] for key in ("total", "top_digest", "faults")}


def check_analyze(
    output: Dict, independent: Dict, reference: Optional[Dict]
) -> List[str]:
    """``independent['primitives']`` lists ``[name, fast, bitset]`` for a
    seeded sample of primitives (plus the top units' members)."""
    errors = _compare(reference, analyze_reference(output))
    sample = independent["primitives"]
    if not sample:
        errors.append("empty cross-check sample")
    for name, fast, bitset in sample:
        if fast != bitset:
            errors.append(f"{name}: fast DP {fast!r} != bitset {bitset!r}")
    if output["faults"] < 1:
        errors.append("no faults evaluated")
    return errors


# -- campaign -------------------------------------------------------------
def campaign_reference(output: Dict) -> Dict:
    return {
        "mc_digest": digest(output["mc"]),
        "diagnosis_digest": digest(output["diagnosis"]),
    }


def check_campaign(
    output: Dict, independent: Dict, reference: Optional[Dict]
) -> List[str]:
    """``independent`` holds the sweep replayed from its checkpoint,
    ``[bitset, scalar IR]`` damages of random fault sets, signature rows
    next to per-fault effect sets (``[row_labels, effect_labels]``) and
    batched-vs-scalar rankings of benchmark-made observations."""
    errors = _compare(reference, campaign_reference(output))
    records = output["mc"]
    for record_ in records:
        rate, samples, mean, ci_low, ci_high, peak, nonzero = record_
        if samples != output["samples"]:
            errors.append(f"rate {rate}: {samples} samples")
        if not (ci_low <= mean <= ci_high and 0.0 <= mean <= peak):
            errors.append(f"rate {rate}: inconsistent mean {mean}")
        if not 0.0 <= nonzero <= 1.0:
            errors.append(f"rate {rate}: nonzero fraction {nonzero}")
    if independent["replayed"] != records:
        errors.append("the sweep replayed from its checkpoint differs")
    for kernel, scalar in independent["fault_sets"]:
        if kernel != scalar:
            errors.append(f"fault-set damage: bitset {kernel} != IR {scalar}")
    for row_labels, effect_labels in independent["signatures"]:
        if sorted(row_labels) != sorted(effect_labels):
            errors.append("signature row differs from the effect sets")
    for batched, scalar in independent["rankings"]:
        if batched != scalar:
            errors.append("batched ranking differs from the scalar loop")
    summary = output["diagnosis"]["summary"]
    if summary["observations_evaluated"] != output["observations"]:
        errors.append(
            f"{summary['observations_evaluated']} observations evaluated"
        )
    return errors


CHECKS = {
    "table1": (check_table1, table1_reference),
    "analyze_large": (check_analyze, analyze_reference),
    "campaign": (check_campaign, campaign_reference),
}
