"""Per-layer spans and counters, recorded from outside the package.

The tracer wraps each traced public function at every name it is bound
to, so a caller that copied it with ``from ... import`` is traced too.
Spans (name, start, end, parent, command id) stay in memory; self times
are computed after the pass.  Counters are taken at the same call
boundaries and must repeat exactly from one traced pass to the next.
"""

from __future__ import annotations

import functools
import sys
import timeit
from statistics import median
from time import perf_counter

# span name -> (module, attribute) targets; "Class.method" patches the class
SPANS = {
    "grpfile.load": [("grpfile", "parse_group_file"), ("grpfile", "load_group")],
    "permgroup.p_subgroup_classes": [("permgroup", "p_subgroup_classes")],
    "permgroup.normalizer": [("permgroup", "normalizer")],
    "permgroup.quotient_group": [("permgroup", "quotient_group")],
    "ddelta.pair_orbit_reps": [("ddelta", "pair_orbit_reps")],
    "ddelta.classify": [("ddelta", "PairClassRegistry._classify")],
    "ddelta.image_of_normalizer": [("ddelta", "image_of_normalizer")],
    "autos.pair_aut": [("autos", "pair_automorphism_maps")],
    "autos.iso": [("autos", "find_pair_isomorphism")],
    "autos.group_iso": [("autos", "find_group_isomorphism")],
    "chartab.character_table": [("chartab", "character_table")],
    "chartab.fixed_point_dim": [("chartab", "fixed_point_dim")],
    "fusion.frobenius_structure": [("fusion", "frobenius_structure")],
    "fusion.build_fusion": [("fusion", "build_fusion")],
    "fusion.triple_orbits": [("fusion", "triple_orbits")],
    "fusion.verify_class": [("fusion", "verify_class")],
    "multiplicity.mult_table_pairs": [("multiplicity", "mult_table_pairs")],
    "multiplicity.mult_table_fusion": [("multiplicity", "mult_table_fusion")],
    "multiplicity.compare": [("multiplicity", "compare")],
}

# spans that some workloads never enter report their call count, since a
# time metric must never read exactly zero; their self times stay in the
# span file
CALL_COUNTED = (
    "autos.group_iso", "fusion.frobenius_structure", "fusion.build_fusion",
    "fusion.triple_orbits", "fusion.verify_class", "multiplicity.mult_table_fusion",
    "multiplicity.compare",
)

# self-time metrics, by span name ("autos.iso" splits into hit and miss;
# "cli" is the command outside every traced call)
TIME_METRICS = (
    "grpfile.load", "permgroup.p_subgroup_classes", "permgroup.normalizer",
    "permgroup.quotient_group", "ddelta.pair_orbit_reps", "ddelta.classify",
    "ddelta.image_of_normalizer", "autos.pair_aut", "autos.iso_hit", "autos.iso_miss",
    "chartab.character_table", "chartab.fixed_point_dim", "multiplicity.mult_table_pairs",
    "cli",
)

COUNTERS = (
    "permutation.constructed", "permgroup.groups_built", "permgroup.elements_built",
    "permgroup.max_order_built", "ddelta.pair_orbits", "ddelta.classes",
    "ddelta.iso_tests", "ddelta.iso_hits", "autos.aut_maps", "autos.max_aut_order",
    "fusion.triple_orbits",
)


class Tracer:
    """Installs wrappers into the loaded ``blockfunctor`` modules."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self._constructed = [0]
        self._stack = []
        self._command = None
        self._restore = []

    def reset(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._constructed[0] = 0

    def totals(self):
        """Counters, with the calls of every span name, for this pass."""
        out = dict(self.counters)
        out["permutation.constructed"] = self._constructed[0]
        for span in self.spans:
            out[span[0] + "_calls"] = out.get(span[0] + "_calls", 0) + 1
        return out

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self._command]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def command(self, command_id, fn, *args):
        """Run one CLI command under a root span named ``cli``."""
        self._command = command_id
        span = self._open("cli")
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer.counters, span, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        self.missing = []
        modules = {
            name: module for name, module in sys.modules.items()
            if name.startswith("blockfunctor.") and module is not None
        }
        for span_name, targets in SPANS.items():
            for module_name, attr in targets:
                module = modules.get(f"blockfunctor.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, method or attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self._wrap(span_name, original)
                if owner_name:
                    self._set(owner, method, wrapped)
                    continue
                # every module-level binding, so `from ... import` copies are traced
                for bound in modules.values():
                    for key, value in list(vars(bound).items()):
                        if value is original:
                            self._set(bound, key, wrapped)
        self._count_constructors(modules)

    def _count_constructors(self, modules):
        perm_cls = modules["blockfunctor.permutation"].Permutation
        group_cls = modules["blockfunctor.permgroup"].PermGroup
        perm_init, group_init = perm_cls.__init__, group_cls.__init__
        constructed = self._constructed
        tracer = self

        def counted_perm_init(obj, *args, **kwargs):
            constructed[0] += 1
            perm_init(obj, *args, **kwargs)

        def counted_group_init(obj, *args, **kwargs):
            group_init(obj, *args, **kwargs)
            counters = tracer.counters
            counters["permgroup.groups_built"] += 1
            counters["permgroup.elements_built"] += obj.order
            counters["permgroup.max_order_built"] = max(
                counters["permgroup.max_order_built"], obj.order
            )

        self._set(perm_cls, "__init__", counted_perm_init)
        self._set(group_cls, "__init__", counted_group_init)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Seconds per span name, each span minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals


def _after_pair_orbit_reps(counters, span, reps):
    counters["ddelta.pair_orbits"] += len(reps)


def _after_classify(counters, span, result):
    cls, member = result
    if cls.members and cls.members[0] is member:
        counters["ddelta.classes"] += 1


def _after_pair_iso(counters, span, iso):
    counters["ddelta.iso_tests"] += 1
    if iso is None:
        span[0] = "autos.iso_miss"
    else:
        span[0] = "autos.iso_hit"
        counters["ddelta.iso_hits"] += 1


def _after_pair_aut(counters, span, maps):
    counters["autos.aut_maps"] += len(maps)
    counters["autos.max_aut_order"] = max(counters["autos.max_aut_order"], len(maps))


def _after_triple_orbits(counters, span, orbits):
    counters["fusion.triple_orbits"] += len(orbits)


_AFTER = {
    "ddelta.pair_orbit_reps": _after_pair_orbit_reps,
    "ddelta.classify": _after_classify,
    "autos.iso": _after_pair_iso,
    "autos.pair_aut": _after_pair_aut,
    "fusion.triple_orbits": _after_triple_orbits,
}


def kernel_ns(permutation_cls, element_pairs, number=20000, repeat=7):
    """Median nanoseconds per product, inverse and hash, averaged over
    the given (a, b) element pairs."""
    results = {"product_ns": [], "inverse_ns": [], "hash_ns": []}
    for a_images, b_images in element_pairs:
        a = permutation_cls(a_images)
        b = permutation_cls(b_images)
        for name, stmt in (
            ("product_ns", lambda: a * b),
            ("inverse_ns", a.inverse),
            ("hash_ns", a.__hash__),
        ):
            times = timeit.Timer(stmt).repeat(repeat=repeat, number=number)
            results[name].append(median(times) / number * 1e9)
    return {name: sum(v) / len(v) for name, v in results.items()}
