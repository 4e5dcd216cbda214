"""Timing wrappers around the library's public functions, for the traced run.

The tracer replaces each traced function at every module attribute that
binds it (``from .pdm import one_pdm`` copies the name into other modules),
records one span per call with the span that was open when it started, and
puts every original back when the traced pass ends.  Spans stay in memory
until the run writes them out.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

import numpy as np

# Each layer function as "<module>.<name>"; "states.DensityOperator" traces the
# validation that runs in DensityOperator.__post_init__.
LAYER_FUNCTIONS = (
    "io.loads",
    "io.density_from_document",
    "io.density_to_document",
    "io.dumps",
    "cli.main",
    "states.DensityOperator",
    "states.hubbard_ground_state",
    "fock.ladder_matrices",
    "fock.basis_change_unitary",
    "pdm.one_pdm",
    "pdm.natural_spectrum",
    "free.free_from_pdm",
    "free.wick_check",
    "entropy.von_neumann",
    "entropy.relative_entropy",
    "entropy.renyi_divergence",
    "entropy.sandwiched_renyi",
    "correlation.nonfreeness",
    "correlation.restrict",
    "verify.renyi_min_search",
    "verify.property_suite",
)

# numpy's dense Hermitian eigensolvers, counted together as one layer.
LINALG = "linalg.eigh"
LINALG_FUNCTIONS = ("eigh", "eigvalsh")

PACKAGE = "fermifree"


def eigh_work(args, kwargs) -> int:
    """n^3 summed over the matrices one eigh/eigvalsh call decomposes."""
    a = np.asarray(args[0] if args else kwargs["a"])
    n = a.shape[-1]
    return int(np.prod(a.shape[:-2], dtype=np.int64)) * n**3


class Tracer:
    """Records (name, start, end, parent, request) spans for wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.outermost = []  # False when a span of the same name encloses it
        self.requests = []
        self.request = ""  # label of the operation the spans belong to
        self.work = {}
        self._stack = []
        self._depth = {}
        self._patches = []

    def wrap(self, name, fn, work=None):
        """Return fn wrapped so that each call records one span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work(args, kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def open(self, name) -> int:
        index = len(self.names)
        depth = self._depth.get(name, 0)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(depth == 0)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._depth[name] = depth + 1
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index):
        self.ends[index] = self.clock()
        self._stack.pop()
        self._depth[self.names[index]] -= 1

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function and numpy's eigensolvers."""
        layer_modules = {
            label: importlib.import_module(f"{PACKAGE}.{label.split('.')[0]}")
            for label in LAYER_FUNCTIONS
        }
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for label, module in layer_modules.items():
            original = getattr(module, label.split(".")[1])
            if isinstance(original, type):
                self._patch(original, "__post_init__", self.wrap(label, original.__post_init__))
                continue
            wrapped = self.wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for attr in LINALG_FUNCTIONS:
            self._patch(np.linalg, attr, self.wrap(LINALG, getattr(np.linalg, attr), eigh_work))

    def uninstall(self):
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def arrays(self) -> dict:
        """The recorded spans as columns, with names as indices into `names`."""
        labels = sorted(set(self.names))
        code = {name: i for i, name in enumerate(labels)}
        requests = sorted(set(self.requests))
        rcode = {r: i for i, r in enumerate(requests)}
        return {
            "names": np.array(labels),
            "requests": np.array(requests),
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "request": np.array([rcode[r] for r in self.requests], dtype=np.int32),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "outermost": np.array(self.outermost, dtype=bool),
        }


def summarize(names, starts, ends, parents, outermost) -> dict:
    """Per-name calls, self time and total time from a list of closed spans.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.  Total time sums only spans with no
    enclosing span of the same name, so recursion is not counted twice.
    """
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    children = np.zeros_like(duration)
    nested = parents >= 0
    np.add.at(children, parents[nested], duration[nested])
    own = duration - children
    out = {}
    for k, name in enumerate(names):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += float(own[k])
        if outermost[k]:
            entry["total_s"] += float(duration[k])
    return out
