"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``capelli`` modules from outside:
each call records a span (name, start, end, parent span).  Spans are kept in
flat arrays while the sweep runs and aggregated, or written out, afterwards.

The library binds most helpers with ``from .x import f``, so a wrapper must
replace the name in every module that imported it, and in module-level
dispatch tables such as ``verify._TASKS`` and ``eigenpoly._ROUTE_FN``, not
only in the module that defines it.  Methods are wrapped as class attributes.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# Module -> public functions to trace; each span is named "<module>.<function>".
FUNCTIONS: dict[str, tuple[str, ...]] = {
    "knopsahi": ("ks_poly", "shifted_eval", "reg_part", "sing_part", "q_poly", "gen_eval"),
    "eigenpoly": ("eigen", "restriction_pair", "interpolate_ev", "gauss_solve", "eig_oracle"),
    "bipoly": ("square_op", "from_falling", "falling_expansion", "falling_term"),
    "identities": ("psi_chain_check", "e_term", "derivative_identity_check",
                   "f_closed_form_check"),
    "hypergeom": ("falling", "dougall_check"),
    "deligne": ("l_op", "d_op", "block_eval", "cat_eig_from_blocks", "cat_eig_formula",
                "min_poly_is_minimal"),
}

# (module, class, method) -> span name.
METHODS: dict[tuple[str, str, str], str] = {
    ("ratfunc", "RatFunc", "__init__"): "ratfunc.RatFunc.init",
    ("ratfunc", "UniPoly", "gcd"): "ratfunc.UniPoly.gcd",
    ("ratfunc", "UniPoly", "divmod"): "ratfunc.UniPoly.divmod",
    ("report", "RunReport", "to_json"): "report.to_json",
}

# lru_cache'd functions whose cache_info() is read at the end of the run.
CACHED = (("knopsahi", "ks_poly"), ("bipoly", "falling_term"), ("bipoly", "falling_coeffs"))


def _module(name: str):
    return sys.modules[f"capelli.{name}"]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the traced functions wherever the library binds them."""
        for (mod, cls_name, meth), name in METHODS.items():
            cls = getattr(_module(mod), cls_name)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
        targets = [(f"{mod}.{fn}", getattr(_module(mod), fn))
                   for mod, fns in FUNCTIONS.items() for fn in fns]
        targets += [(f"verify.family.{family}", fn)
                    for family, fn in _module("verify")._TASKS.items()]
        for name, orig in targets:
            _rebind(orig, self.wrap(name, orig))

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (span time
        minus the time covered by its child spans)."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        child = [0.0] * len(self.name_id)
        for i in range(len(self.name_id) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            rec = out[self.names[self.name_id[i]]]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzip: one JSON header line (span names and the
        layout), then the raw machine-order bytes of each array in turn."""
        arrays = (("name_id", self.name_id), ("parent", self.parent),
                  ("start", self.start), ("end", self.end))
        header = {"names": self.names, "count": len(self.name_id),
                  "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                fh.write(arr.tobytes())


def _rebind(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` wherever a capelli module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("capelli"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for dk, dv in list(value.items()):
                    if dv is orig:
                        value[dk] = wrapper


def cache_infos(originals: dict[str, object]) -> dict[str, dict[str, int]]:
    """``cache_info()`` of the memoized functions; ``originals`` maps a span
    name to the function it wraps, so a traced run reads the real cache."""
    out = {}
    for mod, fn in CACHED:
        name = f"{mod}.{fn}"
        ci = originals.get(name, getattr(_module(mod), fn)).cache_info()
        out[name] = {"hits": ci.hits, "misses": ci.misses, "currsize": ci.currsize}
    return out
