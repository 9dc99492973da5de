"""One pass of a workload: a single closed-loop client in a fresh interpreter.

The harness (``run.py``) starts this script once per pass, so every pass
begins with cold module-level caches.  The pass imports ``toricarcs``,
draws its query list from the seed, and sends one query at a time.  For
each query it prints one JSON line to stdout: the query index, the
monotonic start time, the wall time in ms (less the calibration samples
taken during it) and the answer in canonical form.  The harness compares the answers with the stored references.  A
last line reports peak memory (of this process, or for a ``cli`` pass
that starts processes, of its largest child), the pass's speed and, for
a traced pass, the per-layer figures; a traced pass also writes its spans
to ``spans_path``.

With ``--setup-only 1`` the pass stops where its first query would
start and reports only that moment, from which the harness times setup.

A query is one public call, or one ``python -m toricarcs`` process for the
``cli`` workload; building the ``Cone``, ``Fan`` or ideal a query needs
is part of the first query that uses it.  When the pass runs past its
budget an alarm stops it; the harness counts the unanswered queries as
failed.

The speed of a shared host can drift by a third within seconds, and a
query may last seconds.  So every ``SAMPLE_EVERY_S`` of CPU time a signal
handler times a fixed piece of exact arithmetic that does not use
toricarcs, inside queries too, and the time the handler takes is left out
of the query's time.  The pass reports these samples; the harness scales
each query by the samples taken around it (see ``run.py``).  A ``cli``
pass that starts processes is instead calibrated between queries by
starting a bare interpreter, since process start drifts apart from
computation.
"""

from __future__ import annotations

import argparse
import io
import random
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from pool import load_strata, select  # noqa: E402


PASS_BUDGET_S = 60.0  # a pass still running after this is stopped; its open queries fail
CAL_NOMINAL_MS = 6.0  # calibration_ms(): 2-vCPU Intel Xeon VM, Python 3.11, typical phase
SAMPLE_EVERY_S = 0.05
SAMPLE_NOMINAL_MS = CAL_NOMINAL_MS / 4  # one of the four matrices
SPAWN_EVERY_S = 0.5
SPAWN_NOMINAL_MS = 75.0  # spawn_ms() on the same VM
_rng = random.Random(20261017)
CAL_MATRICES = [[[_rng.randint(-5, 5) for _ in range(7)] for _ in range(7)] for _ in range(4)]


def calibration_ms(matrices=CAL_MATRICES) -> float:
    """Time of exact Gaussian elimination on fixed 7x7 matrices, in ms.

    Pure Python with Fraction, lists, tuples and a dict, like the package,
    but none of its code, so a change to the package leaves it unchanged.
    """
    t0 = time.perf_counter()
    for matrix in matrices:
        rows = [[Fraction(x) for x in row] for row in matrix]
        pivots = {}
        for c in range(7):
            piv = next((i for i in range(c, 7) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[c], rows[piv] = rows[piv], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
            for i in range(7):
                if i != c and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
            pivots[tuple(x.numerator for x in rows[c])] = c
    return (time.perf_counter() - t0) * 1000


def spawn_ms(code: str = "pass", env: dict | None = None) -> float:
    """Time to start an interpreter, run code and stop, in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True)
    return (time.perf_counter() - t0) * 1000


def spans_path(workload: str, seed: int) -> str:
    """Where a traced pass writes its spans."""
    return os.path.join(ROOT, ".perfbench", "spans", f"{workload}-seed{seed}.bin")


class Sampler:
    """Signal handler that times one calibration matrix, inside queries too."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic start, ms)
        self.spent_ms = 0.0  # time spent in the handler, to be left out of query times

    def __call__(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((time.monotonic(), calibration_ms(CAL_MATRICES[:1])))
        self.spent_ms += (time.perf_counter() - t0) * 1000


class BudgetExceeded(BaseException):
    """Raised by the alarm; not an Exception, so no handler in the package catches it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _components(components) -> list:
    return [[list(c.point), c.e, list(c.v0)] for c in components]


class Client:
    """Runs queries against the package, building each chart once per pass."""

    def __init__(self, tk, cli_in_process: bool, deadline: float):
        self.tk = tk
        self.cli_in_process = cli_in_process
        self.deadline = deadline
        self.cones: dict = {}
        self.ideals: dict = {}

    def cone(self, rays):
        key = tuple(tuple(r) for r in rays)
        if key not in self.cones:
            self.cones[key] = self.tk.Cone(key)
        return self.cones[key]

    def ideal(self, q):
        key = (tuple(tuple(r) for r in q["rays"]), tuple(tuple(u) for u in q["ideal"]))
        if key not in self.ideals:
            self.ideals[key] = self.tk.monomial_ideal(self.cone(q["rays"]), q["ideal"])
        return self.ideals[key]

    def label(self, chart, stratum, point):
        return self.tk.orbit_label(chart, chart.face_from_indices(stratum), point)

    def run(self, q: dict):
        tk, op = self.tk, q["op"]
        if op == "sing":
            return _components(tk.sing_components(self.cone(q["rays"])))
        if op == "contact":
            return _components(tk.contact_components(self.ideal(q), q["p"]))
        if op == "newton":
            data = tk.newton_polytope(self.ideal(q))
            return {
                "vertices": [list(u.coords) for u in data.vertices],
                "redundant": [list(u.coords) for u in data.redundant],
            }
        if op == "polar":
            data = tk.polar_polytope(self.ideal(q), q["p"])
            return {
                "vertices": [[str(x) for x in v] for v in data.vertices],
                "compact_faces": [list(f) for f in data.compact_faces],
            }
        if op == "orbit_poset":
            cones = [self.cone(rays) for rays in q["cones"]]
            ambient = cones[0] if len(cones) == 1 else tk.Fan(cones)
            poset = tk.orbit_poset(ambient, q["bound"])
            return {
                "nodes": [[[list(r) for r in n.face.key], list(n.point)] for n in poset.nodes],
                "covers": [list(c) for c in poset.covers],
            }
        if op == "dominates":
            chart = self.cone(q["rays"])
            o1 = self.label(chart, q["stratum"], q["v"])
            o2 = self.label(chart, q["stratum2"], q["v2"])
            return tk.dominates(o1, o2)
        if op == "witness":
            chart = self.cone(q["rays"])
            w = tk.dominance_witness(self.label(chart, [], q["v"]), self.label(chart, [], q["v2"]))
            family = [
                [list(char), [[td, ld, str(c)] for (td, ld), c in sorted(s.terms.items())]]
                for char, s in w.family
            ]
            return {"verified": w.verified, "precision": w.precision, "family": family}
        if op == "cli":
            return self.cli(q["argv"], q["doc"])
        raise ValueError(f"unknown query op {op!r}")

    def cli(self, argv, doc: str) -> dict:
        if self.cli_in_process:
            saved = sys.stdin, sys.stdout, sys.stderr
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(doc), io.StringIO(), io.StringIO()
            try:
                code = self.tk.cli.main(list(argv))
            except SystemExit as exit:  # argparse rejected the arguments
                code = exit.code
            finally:
                stdout = sys.stdout.getvalue()
                sys.stdin, sys.stdout, sys.stderr = saved
            return {"code": code, "stdout": stdout}
        proc = subprocess.run(
            [sys.executable, "-m", "toricarcs", *argv],
            input=doc.encode(),
            capture_output=True,
            cwd=ROOT,
            timeout=max(0.1, self.deadline - time.monotonic()),
        )
        return {"code": proc.returncode, "stdout": proc.stdout.decode()}


def layer_metrics(tracer, cones_module) -> dict:
    """The per-layer figures of one traced pass, named as in BENCHMARK.json."""
    rows = tracer.summary()

    def row(name):
        return rows.get(name, {"calls": 0, "items": 0, "trues": 0, "sizes": 0, "self_ms": 0.0, "total_ms": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(cached):
        info = cached.cache_info()
        return ratio(info.hits, info.hits + info.misses)

    out = {}
    for name in ("rank_of", "quotient_lattice", "pairing", "dual_generators", "lattice_points_where",
                 "is_face_of", "dominates", "order_function", "polyhedron_vertices", "smith_diagonal",
                 "is_minimal_in_contact"):
        out[f"{name}.calls"] = row(name)["calls"]
    for name in ("rank_of", "quotient_lattice", "pairing", "dual_generators", "lattice_points_where",
                 "dominates", "orbit_poset", "sing_components", "contact_components", "order_function"):
        out[f"{name}.self_ms"] = row(name)["self_ms"]
    for name in ("polyhedron_vertices", "hilbert_basis", "is_face_of", "dominance_witness",
                 "singular_faces", "newton_polytope", "polar_polytope", "parse_input", "command"):
        out[f"{name}.total_ms"] = row(name)["total_ms"]
    for layer in ("lattice", "cones", "series", "arcs", "ideals", "cli"):
        out[f"{layer}.self_ms"] = sum(r["self_ms"] for r in rows.values() if r["layer"] == layer)
    out["LatticeVector.made"] = tracer.made["LatticeVector"]
    out["TruncatedSeries.made"] = tracer.made["TruncatedSeries"]
    out["Cone.made"] = row("Cone.init")["calls"]
    out["Cone.init_ms"] = row("Cone.init")["total_ms"]
    out["lattice_points_where.points"] = row("lattice_points_where")["items"]
    out["hilbert_basis_dual.hit_ratio"] = hit_ratio(cones_module.hilbert_basis_dual.__wrapped__)
    out["face_quotient.hit_ratio"] = hit_ratio(cones_module._face_quotient_cached)
    out["dominates.true_ratio"] = ratio(row("dominates")["trues"], row("dominates")["calls"])
    out["sing.components_per_candidate"] = ratio(
        row("sing_components")["sizes"], tracer.calls_from("sing_components", "polyhedron_vertices")
    )
    out["contact.components_per_box_point"] = ratio(
        row("contact_components")["sizes"], tracer.yields_to("contact_components", "lattice_points_where")
    )
    out["emit_ms"] = row("emit")["total_ms"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-in-process", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0, help="stop before the first query")
    args = parser.parse_args()
    deadline = time.monotonic() + PASS_BUDGET_S

    import toricarcs

    if args.cli_in_process:
        import toricarcs.cli  # noqa: F401
    items = select(load_strata(args.workload), args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(toricarcs)
    client = Client(toricarcs, bool(args.cli_in_process), deadline)
    out = sys.stdout
    if args.setup_only:
        out.write(json.dumps({"done": True, "t": time.monotonic()}) + "\n")
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(0.001, deadline - time.monotonic()))
    answered = 0
    cli_processes = args.workload == "cli" and not args.cli_in_process
    calibration: list[float] = []  # bare interpreter starts between the queries of a cli pass
    last_calibration = float("-inf")
    sampler = Sampler()
    if not cli_processes:
        sampler()
        signal.signal(signal.SIGPROF, sampler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.query = i
            start = time.monotonic()
            spent_ms = sampler.spent_ms
            t0 = time.perf_counter()
            try:
                answer = client.run(item["query"])
            except Exception as err:  # a wrong answer is counted, not fatal
                answer = {"error": f"{type(err).__name__}: {err}"}
            ms = (time.perf_counter() - t0) * 1000.0 - (sampler.spent_ms - spent_ms)
            out.write(json.dumps({"i": i, "t": start, "ms": ms, "answer": answer}) + "\n")
            out.flush()
            answered += 1
            if cli_processes and time.monotonic() - last_calibration >= SPAWN_EVERY_S:
                calibration.append(spawn_ms())
                last_calibration = time.monotonic()
    except BudgetExceeded:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.setitimer(signal.ITIMER_PROF, 0)

    if cli_processes:
        speed = sum(calibration) / len(calibration) / SPAWN_NOMINAL_MS if calibration else 1.0
    else:
        speed = statistics.median(ms for _, ms in sampler.samples) / SAMPLE_NOMINAL_MS
    done = {
        "done": True,
        "answered": answered,
        "queries": len(items),
        "samples": sampler.samples,
        "speed": speed,
        # a cli pass measures its toricarcs processes; the bare calibration interpreters are smaller
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN if cli_processes else resource.RUSAGE_SELF
        ).ru_maxrss,
    }
    if tracer is not None:
        done["layers"] = layer_metrics(tracer, sys.modules["toricarcs.cones"])
        spans = spans_path(args.workload, args.seed)
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.dump(spans)
    out.write(json.dumps(done) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
