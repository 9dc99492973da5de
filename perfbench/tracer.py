"""Outside-in tracer for the toricarcs package.

The package is not edited: the tracer replaces, in every module namespace
that binds them, the public functions of ``lattice``, ``cones``,
``series``, ``arcs``, ``ideals`` and ``cli`` with wrappers that record a
span per call.  ``from .lattice import rank_of`` gives ``cones`` its own
name for the same function object, so every binding is replaced, not just
the defining one.  ``Cone.__init__``, ``Cone.hilbert_basis`` and the
public methods of ``TruncatedSeries`` get spans too;
``LatticeVector.__post_init__`` and ``TruncatedSeries.__init__`` count
constructions.

A span is (name id, parent span, query id, start ns, end ns), appended to
one flat ``array('q')`` when the call starts, so a parent always precedes
its children.  Calls into a generator function produce one span per
``next`` step, parented to the consumer that asked for the item, so time
the consumer spends between items is not charged to the generator.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from array import array

MODULES = ("lattice", "cones", "series", "arcs", "ideals", "cli")
FIELDS = 5  # name id, parent, query id, start, end


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.trues: list[int] = []
        self.sizes: list[int] = []  # total length of tuple results
        self.items: dict[tuple[int, int], int] = {}  # (generator, consumer) -> yields
        self.spans = array("q")
        self.stack = [-1]
        self.query = -1
        self.made = {"LatticeVector": 0, "TruncatedSeries": 0}

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.trues.append(0)
        self.sizes.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        spans, stack, calls, trues, sizes = self.spans, self.stack, self.calls, self.trues, self.sizes
        clock = time.perf_counter_ns
        tracer = self

        if inspect.isgeneratorfunction(fn):
            items = self.items

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[nid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(spans) // FIELDS
                    spans.extend((nid, stack[-1], tracer.query, clock(), 0))
                    stack.append(idx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx * FIELDS + 4] = clock()
                    key = (nid, spans[stack[-1] * FIELDS] if stack[-1] >= 0 else -1)
                    items[key] = items.get(key, 0) + 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = len(spans) // FIELDS
            spans.extend((nid, stack[-1], tracer.query, clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx * FIELDS + 4] = clock()
            if result is True:
                trues[nid] += 1
            elif type(result) is tuple:
                sizes[nid] += len(result)
            return result

        return traced

    def _count(self, fn, kind: str):
        made = self.made

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            made[kind] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions in every namespace binding them."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # re-exported; wrapped where it is defined
                wrappers[id(fn)] = self._wrap(fn, attr, layer)
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

        cones, lattice, series, cli = (modules[m] for m in ("cones", "lattice", "series", "cli"))
        cones.Cone.__init__ = self._wrap(cones.Cone.__init__, "Cone.init", "cones")
        cones.Cone.hilbert_basis = self._wrap(cones.Cone.hilbert_basis, "hilbert_basis", "cones")
        lattice.LatticeVector.__post_init__ = self._count(lattice.LatticeVector.__post_init__, "LatticeVector")
        ts = series.TruncatedSeries
        ts.__init__ = self._count(ts.__init__, "TruncatedSeries")
        for attr, raw in list(vars(ts).items()):
            public = not attr.startswith("_") or attr in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")
            if not public:
                continue
            if isinstance(raw, classmethod):
                setattr(ts, attr, classmethod(self._wrap(raw.__func__, f"TruncatedSeries.{attr}", "series")))
            elif inspect.isfunction(raw):
                setattr(ts, attr, self._wrap(raw, f"TruncatedSeries.{attr}", "series"))

        # cli.main dispatches through the COMMANDS table and emits with json.dumps
        for cmd, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[cmd] = self._wrap(fn, "command", "cli")
        cli.json = types.SimpleNamespace(
            loads=json.loads, JSONDecodeError=json.JSONDecodeError, dumps=self._wrap(json.dumps, "emit", "cli")
        )

    # -- reading ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw int64 array."""
        with open(path, "wb") as fh:
            header = {"fields": ["name", "parent", "query", "start_ns", "end_ns"], "names": self.names}
            fh.write((json.dumps(header) + "\n").encode())
            self.spans.tofile(fh)

    def summary(self) -> dict:
        """Per-name calls, yields, True results, tuple result sizes, self and total ms."""
        spans = self.spans
        count = len(spans) // FIELDS
        child = [0] * count
        nids = spans[0::FIELDS]
        parents = spans[1::FIELDS]
        durs = [e - s for s, e in zip(spans[3::FIELDS], spans[4::FIELDS])]
        for i in range(count - 1, -1, -1):
            p = parents[i]
            if p >= 0:
                child[p] += durs[i]
        n = len(self.names)
        self_ns = [0] * n
        total_ns = [0] * n
        for i in range(count):
            nid = nids[i]
            self_ns[nid] += durs[i] - child[i]
            # a recursive or re-entrant call is already inside its ancestor's total
            p = parents[i]
            while p >= 0 and nids[p] != nid:
                p = parents[p]
            if p < 0:
                total_ns[nid] += durs[i]
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            row = out.setdefault(
                name,
                {"layer": self.layer_of[nid], "calls": 0, "items": 0, "trues": 0, "sizes": 0, "self_ms": 0.0, "total_ms": 0.0},
            )
            row["calls"] += self.calls[nid]
            row["items"] += sum(v for (g, _), v in self.items.items() if g == nid)
            row["trues"] += self.trues[nid]
            row["sizes"] += self.sizes[nid]
            row["self_ms"] += self_ns[nid] / 1e6
            row["total_ms"] += total_ns[nid] / 1e6
        return out

    def calls_from(self, parent_name: str, child_name: str) -> int:
        """Spans of child_name whose parent span is a parent_name span."""
        nids = self.spans[0::FIELDS]
        parents = self.spans[1::FIELDS]
        want_parent = {i for i, n in enumerate(self.names) if n == parent_name}
        want_child = {i for i, n in enumerate(self.names) if n == child_name}
        return sum(1 for nid, p in zip(nids, parents) if nid in want_child and p >= 0 and nids[p] in want_parent)

    def yields_to(self, consumer_name: str, generator_name: str) -> int:
        """Items generator_name handed directly to consumer_name spans."""
        return sum(
            v
            for (g, c), v in self.items.items()
            if self.names[g] == generator_name and c >= 0 and self.names[c] == consumer_name
        )
