"""Seeded query lists drawn from the stored reference pool.

``references/<workload>.json`` holds the workload's list of strata.  A stratum is a
list of alternative groups of similar cost; a group is a list of queries
that share a chart or an ideal, each stored with its reference answer.  A
run takes one group from every stratum, chosen by the seed, and shuffles
the order of the groups.  The same seed therefore gives the same queries,
and every seed gives a query list of nearly the same total work, so runs
on different seeds can be compared.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sing", "contact", "orbits", "cli")


def pool_path(workload: str) -> str:
    return os.path.join(HERE, "references", f"{workload}.json")


def load_strata(workload: str) -> list:
    with open(pool_path(workload), "r", encoding="utf-8") as fh:
        return json.load(fh)["strata"]


def query_key(query: dict) -> str:
    return json.dumps(query, sort_keys=True, separators=(",", ":"))


def select(strata: list, workload: str, seed: int) -> list[dict]:
    """Items {"query", "answer"} for one run, in run order.

    Raises ValueError if a query would repeat, since a repeated input
    would time the package's caches instead of its algorithms.
    """
    rng = random.Random(f"{workload}:{seed}")
    groups = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(groups)
    items = [item for group in groups for item in group]
    keys = [query_key(item["query"]) for item in items]
    if len(set(keys)) != len(keys):
        raise ValueError(f"workload {workload!r}, seed {seed}: an input repeats within the run")
    return items
