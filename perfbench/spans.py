"""In-memory spans around the library's public functions, installed from
outside the library.

A span records its name, start, end, parent span and job.  Spans live in
flat arrays while the process runs and are written to one file at the end;
``aggregate`` turns such a file into calls, total time and self time per
(job, name).  A span's self time is its duration minus the time covered by
its direct children.
"""

import json
import os
import sys
from array import array
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" is wrapped on
# the class; a plain function is rebound in every polysplit module namespace
# that holds the same object, so internal calls through imported names
# (``from .plethysm import invert_zeta``) are caught too.
TARGETS = [
    ("polysplit.types", "enumerate_types", "types.enumerate_types"),
    ("polysplit.arrangements", "count_arrangements", "arrangements.count_arrangements"),
    ("polysplit.arrangements", "leq", "arrangements.leq"),
    ("polysplit.arrangements", "top_column_inverse", "arrangements.top_column_inverse"),
    ("polysplit.rings", "Poly.__mul__", "rings.Poly.mul"),
    ("polysplit.rings", "MPoly.__mul__", "rings.MPoly.mul"),
    ("polysplit.rings", "poly_divmod", "rings.poly_divmod"),
    ("polysplit.rings", "ser_mul", "rings.ser_kernels"),
    ("polysplit.rings", "ser_inv", "rings.ser_kernels"),
    ("polysplit.rings", "ser_log", "rings.ser_kernels"),
    ("polysplit.rings", "ser_exp", "rings.ser_kernels"),
    ("polysplit.plethysm", "invert_zeta", "plethysm.invert_zeta"),
    ("polysplit.plethysm", "forward_zeta", "plethysm.forward_zeta"),
    ("polysplit.polysym", "convert", "polysym.convert"),
    ("polysplit.polysym", "multiply", "polysym.multiply"),
    ("polysplit.polysym", "adams_ps", "polysym.adams_ps"),
    ("polysplit.cli", "main", "cli.main"),
]

SETUP_JOB = -1


class Recorder:
    """Collects spans for one process; ``job`` tags every span opened."""

    def __init__(self):
        self.job = SETUP_JOB
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.jobs = array("q")
        self._stack = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, classify=None):
        """A wrapper around fn that records one span per call.

        ``classify(args, kwargs)``, when given, runs before the call and
        returns a suffix appended to the span name.
        """
        fixed = self._id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            nid = fixed if classify is None else self._id(
                name + "." + classify(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.jobs.append(self.job)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        with open(path, "wb") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "n": len(self.start)}).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.jobs):
                column.tofile(handle)


def _rebind(orig, wrapper):
    for modname, module in list(sys.modules.items()):
        if modname != "polysplit" and not modname.startswith("polysplit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def _table_source(args, kwargs):
    """Where incidence_table will take its table from, judged before the call:
    the in-process memory table, a cache file on disk, or a computation."""
    from polysplit import arrangements

    d, tag = args[0], args[1]
    use_cache = args[2] if len(args) > 2 else kwargs.get("use_cache", True)
    if (d, tag) in arrangements._memory_tables:
        return "memory"
    if use_cache and os.path.exists(arrangements._cache_path(d, tag)):
        return "disk"
    return "computed"


def install(recorder):
    """Wrap every target, the incidence-table entry point and every public
    function of the applications module."""
    import polysplit.applications
    import polysplit.cli  # noqa: F401  (loads every polysplit module)

    for modname, attr, name in TARGETS:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(getattr(cls, meth), name))
        else:
            orig = getattr(module, attr)
            _rebind(orig, recorder.wrap(orig, name))
    arrangements = sys.modules["polysplit.arrangements"]
    orig = arrangements.incidence_table
    _rebind(orig, recorder.wrap(orig, "arrangements.incidence_table",
                                classify=_table_source))
    apps = polysplit.applications
    for attr, value in list(vars(apps).items()):
        if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", None) == apps.__name__):
            _rebind(value, recorder.wrap(value, "applications"))


def read(path):
    """The columns of a spans file: names, name ids, starts, ends, parents, jobs."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["n"]
        columns = []
        for code in ("q", "d", "d", "q", "q"):
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    return [header["names"]] + columns


def aggregate(path, into):
    """Add the spans of one file to ``into[job][name] = [calls, total_s, self_s]``."""
    names, name, start, end, parent, jobs = read(path)
    covered = [0.0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    for i in range(len(start)):
        duration = end[i] - start[i]
        cell = into.setdefault(jobs[i], {}).setdefault(names[name[i]], [0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += duration
        cell[2] += duration - covered[i]
    return into
