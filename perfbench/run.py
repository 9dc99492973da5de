#!/usr/bin/env python3
"""Benchmark harness for toricarcs: four seeded workloads, driven from outside.

Run from the repository root:

    python3 perfbench/run.py --workload sing --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads in turn

Each pass of a workload is ``worker.py`` in a fresh interpreter, so caches
start cold: a single closed-loop client that sends one query at a time.
At most one process computes at any moment: this harness waits while a
pass runs, and a ``cli`` pass waits while its ``python -m toricarcs``
child runs.  Passes repeat the seed's query list until ``--seconds`` have
passed (at least ``MIN_PASSES``).  Every answer is compared with the
stored reference; a query that raises, runs past the pass budget or
differs from its reference is failed.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate and the last line
reports the per-layer metrics of the traced passes, together with the
tracing overhead (traced minus untraced time spent in queries).  The
``.calls`` and ``.made`` counts must be the same in every traced pass, or
the run is not correct; a digest of them is printed, so that two runs of
one seed can be compared.  A ``cli`` pass under ``--trace 1`` calls
``cli.main`` in-process on the same documents.

The speed of a shared host can drift by a third within seconds, for the
package and any other Python code alike.  Each pass therefore samples a
fixed calibration as it runs (see ``worker.py``), and the reported times
are scaled to a host in its typical phase; the run record keeps the
unscaled wall times beside them.  setup_s is timed on ``SETUP_SAMPLES``
fresh workers that stop before their first query.  Lines before the last name
each metric with its unit, and give the run record: commit, Python,
nproc, load average, each pass's speed, and the calibration taken in
this process before and after each pass.  Passes are not pinned to a
CPU.

``make_references.py`` builds the reference pool and writes
``BENCHMARK.json`` from ``manifest`` below.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pool import WORKLOADS, load_strata, select  # noqa: E402
from worker import (  # noqa: E402
    PASS_BUDGET_S, SAMPLE_NOMINAL_MS, SPAWN_NOMINAL_MS, calibration_ms, spans_path, spawn_ms,
)

RUN_SECONDS = 25
MIN_PASSES = 2
SETUP_SAMPLES = 9  # workers started per run that stop before their first query; they time setup_s
TAIL_BEYOND = 10  # query_ms.tail has this many queries above it
SCALE_WINDOW_S = 0.5  # a query is scaled by the calibration samples this close to it

WHY = {
    "sing": "sing_components on A_n and random 3D charts: polyhedron_vertices per candidate, dual_generators and rank_of dominate",
    "contact": "newton, polar and contact_components p=1..4 per ideal: box scans of order_function/pairing, no face Hilbert bases",
    "orbits": "orbit_poset (n^2 dominates, a Cone rebuilt per is_face_of), dominates pairs and witnesses; only user of series, no ideals",
    "cli": "one python -m toricarcs process per request over all 12 commands: interpreter start, import, parse and emit",
}

# (name, unit, better, bound)
END_TO_END = [
    ("survey_s", "s", "lower", 0.16),
    ("query_ms.p50", "ms", "lower", 0.24),
    ("query_ms.tail", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better)
PER_LAYER = [
    ("rank_of.calls", "count", "lower"),
    ("rank_of.self_ms", "ms", "lower"),
    ("quotient_lattice.calls", "count", "lower"),
    ("quotient_lattice.self_ms", "ms", "lower"),
    ("pairing.calls", "count", "lower"),
    ("pairing.self_ms", "ms", "lower"),
    ("LatticeVector.made", "count", "lower"),
    ("smith_diagonal.calls", "count", "lower"),
    ("lattice.self_ms", "ms", "lower"),
    ("dual_generators.calls", "count", "lower"),
    ("dual_generators.self_ms", "ms", "lower"),
    ("Cone.made", "count", "lower"),
    ("Cone.init_ms", "ms", "lower"),
    ("polyhedron_vertices.calls", "count", "lower"),
    ("polyhedron_vertices.total_ms", "ms", "lower"),
    ("lattice_points_where.calls", "count", "lower"),
    ("lattice_points_where.points", "count", "lower"),
    ("lattice_points_where.self_ms", "ms", "lower"),
    ("hilbert_basis.total_ms", "ms", "lower"),
    ("is_face_of.calls", "count", "lower"),
    ("is_face_of.total_ms", "ms", "lower"),
    ("hilbert_basis_dual.hit_ratio", "ratio", "higher"),
    ("face_quotient.hit_ratio", "ratio", "higher"),
    ("cones.self_ms", "ms", "lower"),
    ("TruncatedSeries.made", "count", "lower"),
    ("series.self_ms", "ms", "lower"),
    ("dominates.calls", "count", "lower"),
    ("dominates.self_ms", "ms", "lower"),
    ("dominates.true_ratio", "ratio", "higher"),
    ("orbit_poset.self_ms", "ms", "lower"),
    ("dominance_witness.total_ms", "ms", "lower"),
    ("arcs.self_ms", "ms", "lower"),
    ("sing_components.self_ms", "ms", "lower"),
    ("singular_faces.total_ms", "ms", "lower"),
    ("sing.components_per_candidate", "ratio", "higher"),
    ("contact_components.self_ms", "ms", "lower"),
    ("contact.components_per_box_point", "ratio", "higher"),
    ("order_function.calls", "count", "lower"),
    ("order_function.self_ms", "ms", "lower"),
    ("is_minimal_in_contact.calls", "count", "lower"),
    ("newton_polytope.total_ms", "ms", "lower"),
    ("polar_polytope.total_ms", "ms", "lower"),
    ("ideals.self_ms", "ms", "lower"),
    ("interp_ms", "ms", "lower"),
    ("import_ms", "ms", "lower"),
    ("parse_input.total_ms", "ms", "lower"),
    ("command.total_ms", "ms", "lower"),
    ("emit_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
COUNTS = {name for name, unit, _ in PER_LAYER if unit == "count"}


def tail_percentile(queries: int) -> float:
    return 100.0 * (queries - TAIL_BEYOND) / queries


def manifest(query_counts: dict[str, int]) -> dict:
    """The content of BENCHMARK.json, given each workload's queries per pass."""
    workloads = []
    for name in WORKLOADS:
        q = query_counts[name]
        why = f"{WHY[name]}; query_ms.tail = p{tail_percentile(q):.1f} of {q} queries"
        workloads.append({"name": name, "why": why})
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class HarnessError(Exception):
    """The package could not be run at all; no result is printed."""


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    # a fixed hash seed keeps set iteration, and so the work counts, identical between runs
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src, PYTHONHASHSEED="0")


def worker_cmd(workload: str, seed: int, trace: bool = False, cli_in_process: bool = False,
               setup_only: bool = False) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--cli-in-process", str(int(cli_in_process)),
        "--setup-only", str(int(setup_only)),
    ]


def setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(setup_s, bare_ms) of SETUP_SAMPLES workers that stop before their first query.

    setup_s is mostly interpreter start and imports, so each is paired
    with the time of a bare interpreter start taken just before it.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        bare_ms = spawn_ms(env=child_env())
        spawned = time.monotonic()
        proc = subprocess.run(worker_cmd(workload, seed, setup_only=True), capture_output=True, cwd=ROOT,
                              env=child_env(), timeout=PASS_BUDGET_S)
        if proc.returncode != 0:
            raise HarnessError(f"{workload} setup exited with code {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
        samples.append((json.loads(proc.stdout)["t"] - spawned, bare_ms))
    return samples


def run_pass(workload: str, seed: int, trace: bool, cli_in_process: bool) -> dict:
    cmd = worker_cmd(workload, seed, trace, cli_in_process)
    calibration = [host_calibration_ms()]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env(), start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=PASS_BUDGET_S + 30)
    except subprocess.TimeoutExpired:
        # the worker's own alarm failed to stop it: stop its whole process group
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    except BaseException:  # interrupted: leave no worker or cli child behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    calibration.append(host_calibration_ms())
    answers, done = {}, None
    for line in out.decode().splitlines():
        rec = json.loads(line)
        if rec.get("done"):
            done = rec
        else:
            answers[rec["i"]] = rec
    if not answers and done is None:
        raise HarnessError(f"{workload} pass exited with code {proc.returncode}:\n{err.decode()[-2000:]}")
    if done is None or proc.returncode != 0:
        print(f"{workload} pass stopped early (code {proc.returncode}):\n{err.decode()[-2000:]}", file=sys.stderr)
    speed = done["speed"] if done else 1.0
    for rec in answers.values():
        rec["speed"] = local_speed(done["samples"], rec, speed) if done else speed
    first = min(answers.values(), key=lambda r: r["t"], default=None)
    last = max(answers.values(), key=lambda r: r["t"], default=None)
    return {
        "answers": answers,
        "survey_s": last["t"] + last["ms"] / 1000 - first["t"] if first else None,
        "rss_kb": done["peak_rss_kb"] if done else None,
        "layers": done.get("layers") if done else None,
        "complete": bool(done) and done["answered"] == done["queries"],
        "calibration_ms": calibration,
        "speed": speed,
    }


def local_speed(samples: list, rec: dict, pass_speed: float) -> float:
    """The median calibration sample taken during the query or within SCALE_WINDOW_S of it, over nominal.

    A pass without samples (one that starts cli processes) has only its pass speed.
    """
    start = bisect.bisect_left(samples, [rec["t"] - SCALE_WINDOW_S])
    end = bisect.bisect_right(samples, [rec["t"] + rec["ms"] / 1000 + SCALE_WINDOW_S])
    near = [ms for _, ms in samples[start:end]]
    return statistics.median(near) / SAMPLE_NOMINAL_MS if near else pass_speed


def score(passes: list[dict], items: list[dict]) -> tuple[int, int]:
    """(attempted, failed); marks each pass's correct answers in p["correct"]."""
    attempted = failed = 0
    for p in passes:
        p["correct"] = {}
        for i, item in enumerate(items):
            attempted += 1
            rec = p["answers"].get(i)
            if rec is None or rec["answer"] != item["answer"]:
                failed += 1
            else:
                p["correct"][i] = rec
    return attempted, failed


def repeat_passes(workload: str, seed: int, seconds: float, kinds: list[dict]) -> list[tuple[dict, dict]]:
    """Cycle through the pass kinds until `seconds` pass; each kind runs MIN_PASSES times at least."""
    done: list[tuple[dict, dict]] = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            p = run_pass(workload, seed, **kind)
            done.append((kind, p))
            if not p["complete"]:
                return done  # out of budget: more passes would fail the same way
        if len(done) >= MIN_PASSES * len(kinds) and time.monotonic() - start >= seconds:
            return done


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], queries: int, setups: list[tuple[float, float]], scaled: bool = True) -> dict:
    """The end-to-end metrics of a run, from the correct answers of its passes and its setup samples.

    Scaled, each query's time is divided by its local speed (see
    local_speed), and each setup time by the bare interpreter start taken
    just before it, over SPAWN_NOMINAL_MS.
    The times are then those of a host in its typical phase; unscaled, they
    are the wall times as read.  survey_s adds up each query's median over
    the passes, so a slow moment in one pass moves it less than that pass's
    total.
    """
    per_query = []
    for i in range(queries):
        recs = [p["correct"][i] for p in passes if i in p["correct"]]
        times = [rec["ms"] / (rec["speed"] if scaled else 1.0) for rec in recs]
        if times:
            per_query.append(statistics.median(times))
    per_query.sort()
    tail_index = max(0, len(per_query) - TAIL_BEYOND - 1)
    return {
        "survey_s": sum(per_query) / 1000,
        "query_ms.p50": median(per_query),
        "query_ms.tail": per_query[tail_index] if per_query else 0.0,
        "setup_s": median(setup_s / (bare_ms / SPAWN_NOMINAL_MS if scaled else 1.0) for setup_s, bare_ms in setups),
        "peak_rss_mb": median(p["rss_kb"] for p in passes) / 1024,
    }


def start_up_ms(repeats: int = 7) -> dict:
    """Bare interpreter start, and what `import toricarcs.cli` adds to it (unscaled)."""
    interp, imported = [], []
    for _ in range(repeats):
        interp.append(spawn_ms("pass", child_env()))
        imported.append(spawn_ms("import toricarcs.cli", child_env()))
    return {"interp_ms": median(interp), "import_ms": median(imported) - median(interp)}


def query_s(p: dict) -> float:
    """The scaled time a pass spent in its queries, calibrations left out."""
    return sum(rec["ms"] / rec["speed"] for rec in p["answers"].values()) / 1000


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics of the traced passes; times scaled as in end_to_end.

    Counts come from the first traced pass; the flag says whether every
    traced pass counted the same.
    """
    layers = [(p["layers"], p["speed"]) for p in traced if p["layers"]]
    out = {}
    for name, unit, _ in PER_LAYER:
        values = [lay[name] / speed if unit == "ms" else lay[name] for lay, speed in layers if name in lay]
        if name in COUNTS:
            out[name] = values[0] if values else 0
        else:
            out[name] = median(values)
    repeat = all(lay.get(n) == out[n] for lay, _ in layers for n in COUNTS if n in lay)
    out["trace.overhead_s"] = median(query_s(p) for p in traced) - median(query_s(p) for p in plain)
    return out, repeat


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def host_calibration_ms() -> float:
    """The worker's calibration, taken in this process between passes."""
    return statistics.median(calibration_ms() for _ in range(5))


def commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(record: dict) -> None:
    runs = os.path.join(ROOT, ".perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    items = select(load_strata(workload), workload, seed)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "pinned": False,
        "note": "passes are unpinned; pass_speed (from the calibration inside each pass) and "
        "pass_calibration_ms (taken here before and after each pass) show when the host was slow",
        "queries_per_pass": len(items),
    }
    repeat = True
    if trace:
        cli_in_process = workload == "cli"
        kinds = [{"trace": False, "cli_in_process": cli_in_process}, {"trace": True, "cli_in_process": cli_in_process}]
        done = repeat_passes(workload, seed, seconds, kinds)
        plain = [p for kind, p in done if not kind["trace"]]
        traced = [p for kind, p in done if kind["trace"]]
        metrics, repeat = per_layer(plain, traced)
        metrics.update(start_up_ms())
        record["counts_repeat_across_traced_passes"] = repeat
        record["spans_file"] = os.path.relpath(spans_path(workload, seed), ROOT)
        passes = plain + traced
    else:
        setups = setup_samples(workload, seed)
        record["setup_samples"] = setups
        kinds = [{"trace": False, "cli_in_process": False}]
        passes = [p for _, p in repeat_passes(workload, seed, seconds, kinds)]
    attempted, failed = score(passes, items)
    if not trace:
        metrics = end_to_end(passes, len(items), setups)
        record["unscaled"] = end_to_end(passes, len(items), setups, scaled=False)
    record.update(
        passes=len(passes),
        pass_speed=[p["speed"] for p in passes],
        pass_survey_s=[p["survey_s"] for p in passes],
        pass_calibration_ms=[p["calibration_ms"] for p in passes],
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        loadavg_after=os.getloadavg(),
    )
    write_record(record)

    for name, value in metrics.items():
        print(f"{workload:8s} {name:34s} {value:14.4f} {UNITS[name]}")
    print(f"{workload:8s} {'failed_frac':34s} {failed / attempted:14.4f} ratio ({failed} of {attempted} queries)")
    if trace:
        counts = json.dumps({n: metrics[n] for n in sorted(COUNTS)}, sort_keys=True)
        print(f"{workload:8s} {'counts':34s} {hashlib.sha256(counts.encode()).hexdigest()[:16]:>14s} "
              f"sha256 of every .calls/.made count; {'same' if repeat else 'NOT the same'} in every traced pass")
    print("run record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="toricarcs benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "toricarcs", "__init__.py")):
        print("error: src/toricarcs not found beside perfbench/; run from a toricarcs checkout", file=sys.stderr)
        return 2
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
