#!/usr/bin/env python3
"""Build the reference pool in ``references/`` and write ``BENCHMARK.json``.

Run from the repository root:

    python3 perfbench/make_references.py [workload ...]

Inputs come from fixed generator seeds, so the pool is the same on every
build.  A stratum holds ``K`` images of one random base input under signed
permutations of the coordinates, a lattice automorphism that maps a box
to a box of the same size.  The images are different inputs that need
the same work, so a run, which draws one image per stratum, costs nearly
the same on every seed.  Each image is answered by the package itself, in
a process whose caches are cleared first; its cost is the number of
calls to the package's Python functions (``cProfile``), a count
independent of host speed, and the build prints how much that total
varies between seeds.  ``sing`` refuses random charts that cost more than
``SING_CAP`` calls, by that count alone, and prints how many it refused.

Before they are stored, answers are checked against sources that do not
share the package's algorithms:

* ``sing`` on the A_n chart [(1,0),(1,n+1)]: the closed form (1,k), k=1..n,
  and the box oracle ``brute_sing_minimal`` of ``tests/oracles.py`` for
  n <= 5 and for random simplicial charts whose components are small;
* ``contact`` on 2D charts and on the 3D orthant: the box oracle
  ``brute_contact_minimal``;
* ``witness``: the package's own series check must report ``verified``;
* ``cli``: exit code 0, and stdout equal to that of ``cli.main`` run
  in-process on the same request.

The script stops with an error if any check fails.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import toricarcs  # noqa: E402
import toricarcs.cli  # noqa: E402
from oracles import brute_contact_minimal, brute_sing_minimal, in_cone_rational  # noqa: E402
from toricarcs import arcs, cones  # noqa: E402

from pool import load_strata, pool_path, query_key, select  # noqa: E402
from run import manifest  # noqa: E402
from worker import Client  # noqa: E402

K = 3  # alternatives per stratum


PACKAGE = os.path.join(ROOT, "src", "toricarcs") + os.sep
CHECK_EVERY_S = 0.5  # how often a capped group's calls are counted while it runs


class OverCap(Exception):
    pass


def package_calls(prof: cProfile.Profile) -> int:
    """Calls made so far to the package's own Python functions.

    Builtins and the code of this script are left out, so the count does
    not depend on how often it is taken, nor on the host's speed.
    """
    return sum(
        e.callcount for e in prof.getstats() if not isinstance(e.code, str) and e.code.co_filename.startswith(PACKAGE)
    )


def answer_group(queries: list[dict], cap: int | None = None) -> tuple[list[dict], int]:
    """Reference items of one group and its cost in package calls.

    With cap, a group that costs more than cap calls raises OverCap; it is
    stopped as soon as a count taken while it runs exceeds the cap.
    """
    cones.hilbert_basis_dual.cache_clear()
    cones._face_quotient_cached.cache_clear()
    arcs._stratum_quotient.cache_clear()
    client = Client(toricarcs, cli_in_process=True, deadline=float("inf"))
    prof = cProfile.Profile()

    def check_cap(signum, frame):
        if package_calls(prof) > cap:
            raise OverCap()

    if cap is not None:
        signal.signal(signal.SIGALRM, check_cap)
        signal.setitimer(signal.ITIMER_REAL, CHECK_EVERY_S, CHECK_EVERY_S)
    prof.enable()
    try:
        answers = [client.run(q) for q in queries]
    finally:
        prof.disable()
        signal.setitimer(signal.ITIMER_REAL, 0)
    calls = package_calls(prof)
    if cap is not None and calls > cap:
        raise OverCap()
    return [{"query": q, "answer": a} for q, a in zip(queries, answers)], calls


# ---------------------------------------------------------------------------
# symmetric images
# ---------------------------------------------------------------------------


def act(g, vec):
    perm, signs = g
    return [s * vec[p] for p, s in zip(perm, signs)]


def act_all(g, vectors):
    return sorted(act(g, v) for v in vectors)


def images(rng, dim: int, transform) -> list | None:
    """K distinct images transform(g) under random signed permutations g; None if fewer exist."""
    group = [(p, s) for p in itertools.permutations(range(dim)) for s in itertools.product((1, -1), repeat=dim)]
    rng.shuffle(group)
    found: dict[str, object] = {}
    for g in group:
        image = transform(g)
        found.setdefault(json.dumps(image, sort_keys=True), image)
        if len(found) == K:
            return list(found.values())
    return None


class Pool:
    """The strata of one workload; no query may appear twice in it."""

    def __init__(self, name: str):
        self.name = name
        self.strata: list[list[list[dict]]] = []
        self.costs: list[list[int]] = []
        self.seen: set[str] = set()
        self.over_cap = 0  # strata refused because an image cost more than the cap

    def add(self, groups: list[list[dict]], cap: int | None = None):
        """Answer the groups and keep them as one stratum; None if one is refused.

        A group is refused if a query repeats one already in the pool, if it
        raises ValueError (an input the package rejects), or if it costs
        more than cap calls; the last are counted in over_cap.
        """
        keys = [query_key(q) for group in groups for q in group]
        if len(set(keys)) < len(keys) or self.seen.intersection(keys):
            return None
        answered = []
        for group in groups:
            try:
                answered.append(answer_group(group, cap))
            except OverCap:
                self.over_cap += 1
                return None
            except ValueError:
                return None
        self.seen.update(keys)
        self.strata.append([items for items, _ in answered])
        self.costs.append([cost for _, cost in answered])
        return self.strata[-1]

    def drop_last(self) -> None:
        self.strata.pop()
        self.costs.pop()

    def report(self) -> None:
        rng = random.Random(0)
        totals = [sum(rng.choice(c) for c in self.costs) for _ in range(2000)]
        q = statistics.quantiles(totals, n=4)
        mid = statistics.median(totals)
        print(f"{self.name}: {len(self.strata)} strata, median {mid:.0f} calls per pass "
              f"(at most {sum(map(max, self.costs))}), quartile spread {(q[2] - q[0]) / mid:.4f} between seeds; "
              f"{self.over_cap} strata refused for costing more than the cap")


def random_chart(rng, dim, spread, counts, want_smooth=None):
    while True:
        gens = [tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(rng.choice(counts))]
        try:
            cone = toricarcs.Cone(gens, dim)
        except ValueError:
            continue
        if not cone.is_full_dimensional():
            continue
        if want_smooth is not None and toricarcs.is_smooth(cone) != want_smooth:
            continue
        return [list(r.coords) for r in cone.rays]


def random_primitive(rng, dim, spread):
    while True:
        v = [rng.randint(-spread, spread) for _ in range(dim)]
        if any(v) and math.gcd(*v) == 1:
            return v


def combination(rng, vectors, lo, hi):
    """A random combination of the vectors with integer weights in lo..hi."""
    weights = [rng.randint(lo, hi) for _ in vectors]
    return [sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(len(vectors[0]))]


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def members(rays):
    return lambda v: in_cone_rational(rays, v)


# ---------------------------------------------------------------------------
# sing
# ---------------------------------------------------------------------------

A_N = range(1, 9)
SING_STRATA = 24  # random 3D charts, besides the A_n charts; a pass takes about 10 s at this commit
# Package calls, about 10 s unprofiled at this commit: a chart may take a sixth of the
# pass budget.  Of 246 charts drawn, the costliest took 8.6M calls, so the cap only
# guards against a runaway input; the build prints how many charts it refused.
SING_CAP = 12_000_000


def build_sing() -> Pool:
    pool = Pool("sing")
    for n in A_N:
        rays = [[1, 0], [1, n + 1]]
        (items,) = pool.add([[{"op": "sing", "rays": rays}]])
        got = [c[0] for c in items[0]["answer"]]
        check(got == [[1, k] for k in range(1, n + 1)], f"A_{n} closed form")
        if n <= 5:
            oracle = brute_sing_minimal(toricarcs.Cone(rays), 2 * n)
            check(got == [list(v) for v in oracle], f"A_{n} box oracle")

    rng = random.Random(20261017)
    oracle_checked = 0
    while len(pool.strata) < len(A_N) + SING_STRATA:
        rays = random_chart(rng, 3, 2, (3, 4), want_smooth=False)
        charts = images(rng, 3, lambda g: act_all(g, rays))
        stratum = charts and pool.add([[{"op": "sing", "rays": c}] for c in charts], SING_CAP)
        if not stratum:
            continue
        for (item,) in stratum:
            got = [c[0] for c in item["answer"]]
            bound = max(abs(x) for v in got for x in v)
            if len(rays) == 3 and bound <= 3:
                oracle = brute_sing_minimal(toricarcs.Cone(item["query"]["rays"]), bound)
                check(got == [list(v) for v in oracle], f"sing box oracle on {item['query']}")
                oracle_checked += 1
    print(f"sing: {oracle_checked} random charts checked by the box oracle")
    return pool


# ---------------------------------------------------------------------------
# contact
# ---------------------------------------------------------------------------

CONTACT_CHARTS = [  # (chart, strata on it)
    ([[0, 1], [1, 0]], 3),
    ([[1, 0], [1, 2]], 3),
    ([[1, 0], [1, 3]], 2),
    ([[1, 0], [2, 3]], 2),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3),
    ([[0, 1, 0], [1, 0, 0], [1, 1, 2]], 3),
    ([[0, 1, 0], [1, 0, 0], [1, 2, 7]], 1),
]
CONTACT_LEVELS = range(1, 5)


def random_ideal(rng, rays):
    """1 to 4 random combinations of the dual Hilbert basis, weights 0..2."""
    dual = [u.coords for u in toricarcs.hilbert_basis_dual(toricarcs.Cone(rays))]
    gens, want = set(), rng.randint(1, 4)
    while len(gens) < want:
        u = combination(rng, dual, 0, 2)
        if any(u):
            gens.add(tuple(u))
    return [list(u) for u in sorted(gens)]


def contact_group(rays, ideal):
    base = {"rays": rays, "ideal": ideal}
    return [dict(base, op="newton"), dict(base, op="polar", p=1)] + [
        dict(base, op="contact", p=p) for p in CONTACT_LEVELS
    ]


def build_contact() -> Pool:
    rng = random.Random(20261018)
    pool = Pool("contact")
    oracle_checked = 0
    for rays, count in CONTACT_CHARTS:
        made = 0
        while made < count:
            ideal = random_ideal(rng, rays)
            bases = images(rng, len(rays[0]), lambda g: (act_all(g, rays), act_all(g, ideal)))
            try:
                stratum = bases and pool.add([contact_group(r, i) for r, i in bases])
            except RuntimeError as err:  # the doubled-margin heuristic of contact_components gave up
                print(f"contact: dropped ideal {ideal} on {rays}: {err}")
                continue
            if not stratum:
                continue
            made += 1
            if len(rays) == 3 and rays != CONTACT_CHARTS[4][0]:
                continue  # too large for the box oracle
            for items in stratum:
                for item in items[2:]:
                    q = item["query"]
                    got = [c[0] for c in item["answer"]]
                    side = 4 * q["p"] if len(rays) == 2 else max([1] + [abs(x) for v in got for x in v]) + 1
                    oracle = brute_contact_minimal(q["rays"], q["ideal"], q["p"], side, members(q["rays"]))
                    check(got == [list(v) for v in oracle], f"contact box oracle on {q}")
                    oracle_checked += 1
    print(f"contact: {oracle_checked} levels checked by the box oracle")
    return pool


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

POSET_STRATA = 12
DOMINATES_STRATA = 6
DOMINATES_PER_GROUP = 12
WITNESS_STRATA = 4
WITNESS_PER_GROUP = 4


def poset_bases(rng):
    """(cones, bound): A_n and the quadrant, random charts, 2-cone fans, smooth 3D charts."""
    for n in (1, 2, 3, 4):
        yield [[[1, 0], [1, n + 1]]], 3
    yield [[[0, 1], [1, 0]]], 3
    while True:
        kind = rng.random()
        if kind < 0.55:
            yield [random_chart(rng, 2, 3, (2,))], rng.choice((2, 3))
        elif kind < 0.9:
            # two cones sharing the ray b, on either side of it
            a, b, c = sorted((random_primitive(rng, 2, 3) for _ in range(3)), key=lambda r: math.atan2(r[1], r[0]))
            yield [[a, b], [b, c]], 2
        else:
            yield [random_chart(rng, 3, 1, (3,), want_smooth=True)], 1


def dominates_group(rng, rays):
    """Random pairs of orbit labels of the chart with sup-norm at most 2 (1 in 3D)."""
    bound = 2 if len(rays[0]) == 2 else 1
    nodes = toricarcs.orbit_poset(toricarcs.Cone(rays), bound).nodes
    pairs = set()
    while len(pairs) < DOMINATES_PER_GROUP:
        a, b = rng.sample(nodes, 2)
        pairs.add((a.face.indices, a.point, b.face.indices, b.point))
    return [
        {"op": "dominates", "rays": rays, "stratum": list(s1), "v": list(v1), "stratum2": list(s2), "v2": list(v2)}
        for s1, v1, s2, v2 in sorted(pairs)
    ]


def build_orbits() -> Pool:
    rng = random.Random(20261019)
    pool = Pool("orbits")
    for cones_, bound in poset_bases(rng):
        if len(pool.strata) == POSET_STRATA:
            break
        bases = images(rng, len(cones_[0][0]), lambda g: sorted(act_all(g, c) for c in cones_))
        if bases:
            pool.add([[{"op": "orbit_poset", "cones": c, "bound": bound}] for c in bases])

    while len(pool.strata) < POSET_STRATA + DOMINATES_STRATA:
        dim = rng.choice((2, 3))
        rays = random_chart(rng, dim, 2, (dim,))
        charts = images(rng, dim, lambda g: act_all(g, rays))
        if charts:
            pool.add([dominates_group(rng, c) for c in charts])

    while len(pool.strata) < POSET_STRATA + DOMINATES_STRATA + WITNESS_STRATA:
        dim = rng.choice((2, 3))
        rays = random_chart(rng, dim, 1 if dim == 3 else 2, (dim,), want_smooth=True)
        pairs = []
        while len(pairs) < WITNESS_PER_GROUP:
            v = combination(rng, rays, 1, 3)
            v2 = [a + b for a, b in zip(v, combination(rng, rays, 0, 2))]
            if [v, v2] not in pairs:
                pairs.append([v, v2])
        bases = images(rng, dim, lambda g: (act_all(g, rays), [[act(g, v), act(g, v2)] for v, v2 in pairs]))
        stratum = bases and pool.add(
            [[{"op": "witness", "rays": r, "v": v, "v2": v2} for v, v2 in ps] for r, ps in bases]
        )
        if stratum:
            check(all(item["answer"]["verified"] for items in stratum for item in items), f"witness on {rays}")
    return pool


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_STRATA_PER_COMMAND = 3


def cli_base(rng, command) -> dict:
    """The vectors of one request, before it is rendered as argv and a document."""
    rays = random_chart(rng, 2, 3, (2,), want_smooth=True if command == "witness" else None)
    base = {"command": command, "rays": rays}
    interior = combination(rng, rays, 1, 2)
    if command in ("contact", "newton", "polar"):
        dual = [u.coords for u in toricarcs.hilbert_basis_dual(toricarcs.Cone(rays))]
        base["ideal"] = [list(u) for u in sorted({rng.choice(dual) for _ in range(rng.randint(1, 3))})]
    if command in ("contact", "polar"):
        base["p"] = rng.randint(1, 6)
    if command == "orbits":
        base["bound"] = rng.choice((1, 2))
    if command in ("dominates", "witness"):
        v, v2 = interior, [a + b for a, b in zip(interior, combination(rng, rays, 0, 2))]
        if command == "dominates" and rng.random() < 0.5:
            v, v2 = v2, v
        base["v"], base["v2"] = v, v2
    if command == "valuation":
        dual = [u.coords for u in toricarcs.hilbert_basis_dual(toricarcs.Cone(rays))]
        base["poly"] = [[rng.choice((-2, -1, 1, 3)), list(rng.choice(dual))] for _ in range(2)]
        base["v"] = interior
    return base


def cli_image(g, base: dict) -> dict:
    image = dict(base, rays=act_all(g, base["rays"]))
    if "ideal" in base:
        image["ideal"] = act_all(g, base["ideal"])
    for key in ("v", "v2"):
        if key in base:
            image[key] = act(g, base[key])
    if "poly" in base:
        image["poly"] = [[c, act(g, e)] for c, e in base["poly"]]
    return image


def cli_request(image: dict) -> dict:
    doc = {"dim": 2, "cones": [image["rays"]]}
    for key in ("ideal", "poly"):
        if key in image:
            doc[key] = image[key]
    argv = [image["command"]]
    if "p" in image:
        argv += ["--p", str(image["p"])]
    if "bound" in image:
        argv += ["--bound", str(image["bound"])]
    for key in ("v", "v2"):  # "--v=-1,2": a separate "-1,2" would parse as an option
        if key in image:
            argv.append(f"--{key}=" + ",".join(map(str, image[key])))
    return {"op": "cli", "argv": argv, "doc": json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"}


def build_cli() -> Pool:
    rng = random.Random(20261020)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    pool = Pool("cli")
    for command in toricarcs.cli.COMMANDS:
        made = 0
        while made < CLI_STRATA_PER_COMMAND:
            base = cli_base(rng, command)
            bases = images(rng, 2, lambda g: cli_image(g, base))
            stratum = bases and pool.add([[cli_request(b)] for b in bases])
            if not stratum:
                continue
            if any(item["answer"]["code"] != 0 for (item,) in stratum):
                pool.drop_last()
                continue
            for (item,) in stratum:
                q = item["query"]
                proc = subprocess.run(
                    [sys.executable, "-m", "toricarcs", *q["argv"]],
                    input=q["doc"].encode(), capture_output=True, cwd=ROOT, env=env, timeout=60,
                )
                answer = {"code": proc.returncode, "stdout": proc.stdout.decode()}
                check(answer == item["answer"], f"cli process and in-process answers agree on {q}")
            made += 1
    return pool


def main() -> None:
    """Rebuild the pools of the workloads named on the command line (default: all)."""
    builders = {"sing": build_sing, "contact": build_contact, "orbits": build_orbits, "cli": build_cli}
    os.makedirs(os.path.join(HERE, "references"), exist_ok=True)
    for workload in sys.argv[1:] or builders:
        pool = builders[workload]()
        pool.report()
        with open(pool_path(workload), "w", encoding="utf-8") as fh:
            json.dump({"strata": pool.strata}, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    query_counts = {w: len(select(load_strata(w), w, 0)) for w in builders}
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest(query_counts), fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
