"""Outside-in layer tracing for the binmat benchmark.

The tracer wraps named public functions of the ``binmat`` modules and
records, per function, the call count, the self time (wall time minus
the time spent in traced callees) and, for the functions listed in
``INCLUSIVE``, the inclusive time counted at the outermost frame only,
so recursion (``corollary22_check`` re-runs itself on the dual) is not
counted twice.  It changes no code under ``src/``: every module of the
package that imported a traced function by name gets the wrapper
rebound in its namespace, and :meth:`LayerTracer.uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Module -> traced functions, in the order the metrics are reported.
TRACED = {
    "gf2": ["standard_form", "cycle_space_masks", "rank_of_columns"],
    "matroid": ["remove", "make_matroid", "dual", "Matroid.cycle_masks"],
    "connectivity": ["lam", "bridging_value", "is_internally_4_connected", "nonminimal_exact_3seps"],
    "iso": ["canonical_form", "canonical_key", "weight_profile", "are_isomorphic"],
    "extension": ["extend", "coextend", "enumerate_growth_classes"],
    "structure": ["has_any_minor", "in_class", "theorem21_check", "corollary22_check", "is_splitter"],
}

INCLUSIVE = {
    "extension.enumerate_growth_classes",
    "structure.theorem21_check",
    "structure.corollary22_check",
    "structure.is_splitter",
}

MINOR_SEARCH = "structure.has_any_minor"


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active", "in_search", "positives", "from_in_class")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0  # frames of this function currently open
        self.in_search = 0  # calls made while a minor search is open
        self.positives = 0  # non-None results (minor search only)
        self.from_in_class = 0  # calls made directly by in_class (minor search only)


def _resolve(mod_name: str, dotted: str):
    """(owner, attribute, function) for ``fn`` or ``Class.fn`` in binmat.mod_name."""
    owner = importlib.import_module(f"binmat.{mod_name}")
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise LookupError(f"traced function binmat.{mod_name}.{dotted} no longer exists")
    return owner, attr, fn


class LayerTracer:
    """Per-function call counts and self/inclusive times for one run."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": _Stat() for mod, fns in TRACED.items() for fn in fns}
        self._stack: list[list] = []  # [name, time spent in traced callees]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; raises LookupError if one is gone."""
        targets = []
        for mod_name, fns in TRACED.items():
            for dotted in fns:
                targets.append((f"{mod_name}.{dotted}", *_resolve(mod_name, dotted)))
        binmat_modules = [
            m for name, m in list(sys.modules.items()) if name == "binmat" or name.startswith("binmat.")
        ]
        try:
            for name, owner, attr, fn in targets:
                wrapper = self._wrap(name, fn)
                self._rebind(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                # Rebind copies imported by name (``from .iso import canonical_key``).
                for module in binmat_modules:
                    for key, value in list(vars(module).items()):
                        if value is fn and module is not owner:
                            self._rebind(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        search = self.stats[MINOR_SEARCH]
        is_search = name == MINOR_SEARCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            if search.active:
                st.in_search += 1
            if is_search and stack and stack[-1][0] == "structure.in_class":
                st.from_in_class += 1
            frame = [name, 0.0]
            stack.append(frame)
            st.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_search and result is not None:
                    st.positives += 1
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.active -= 1
                st.self_s += dt - frame[1]
                if not st.active:
                    st.incl_s += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit), for a traced run of
        ``wall_s`` seconds (the time spent inside the timed operations)."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}
        for name, st in s.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_s, "s")
            if name in INCLUSIVE:
                out[f"{name}.incl_s"] = (st.incl_s, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        key_calls = s["iso.canonical_key"].calls
        out["iso.canonical_key.hit_ratio"] = (
            1 - ratio(s["iso.canonical_form"].calls, key_calls) if key_calls else 0.0,
            "ratio",
        )
        mask_calls = s["matroid.Matroid.cycle_masks"].calls
        out["matroid.cycle_masks.hit_ratio"] = (
            1 - ratio(s["gf2.cycle_space_masks"].calls, mask_calls) if mask_calls else 0.0,
            "ratio",
        )
        search = s[MINOR_SEARCH]
        out["structure.has_any_minor.positive_ratio"] = (ratio(search.positives, search.calls), "ratio")
        out["structure.has_any_minor.profile_pass_ratio"] = (
            ratio(s["iso.canonical_form"].in_search, s["iso.weight_profile"].in_search),
            "ratio",
        )
        in_class_calls = s["structure.in_class"].calls
        out["structure.in_class.memo_hit_ratio"] = (
            1 - ratio(search.from_in_class, in_class_calls) if in_class_calls else 0.0,
            "ratio",
        )
        covered = sum(st.self_s for st in s.values())
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.self_coverage"] = (ratio(covered, wall_s), "ratio")
        return out
