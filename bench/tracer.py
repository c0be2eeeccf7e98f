"""Span tracing of valring's layers from outside the library.

`Tracer.install()` replaces each wrapped function with a recording wrapper
in every valring module that binds it (a `from .x import f` copy is rebound
too) and wraps the four named methods on their classes; `uninstall()`
restores the originals.  Nothing under `src/` is edited.

Each wrapped call records one span: name, start, end, parent span and the
job id shared by one job's spans.  Spans are kept in flat arrays in memory
and written out by `write` when the run ends.  A layer's self time is its
spans' duration minus the duration of their direct child spans; calls into
functions that are not wrapped (UniPoly/XPoly arithmetic, `pval`, the
monomial helpers) count toward the calling span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("algebra", "keychain", "expandval", "presentrel", "rewrite",
          "xpoly", "verify", "cli")

# Every public function of each layer, except leaf helpers called so often
# that a wrapper would cost more than they do (pval, is_finite, monom,
# monom_mul, monom_degree_in, fmt_value, parse_value, validation_passed)
# and cli.main, which the benchmark does not call.
WRAPPED = {
    "algebra": ("qexpand", "resultant", "hensel_root", "nu_oracle",
                "ResidueField.factor_monic", "ResidueField.extend_by"),
    "keychain": ("newton_polygon", "residual_poly", "gauss_start", "augment",
                 "build_chain", "collapse", "segment", "validate",
                 "KeyChain.nu", "KeyChain.value_below"),
    "expandval": ("truncate", "s_set", "full_expansion",
                  "expansion_from_index_tuple", "check_conditions",
                  "expansion_level", "make_neat"),
    "presentrel": ("relation", "ideal_generators", "plateau_relation",
                   "i1_decompose", "redundancy_cofactor"),
    "rewrite": ("vdeg", "prec_compare", "is_neat", "replay", "building",
                "reduction", "total_s_building", "total_reduction"),
    "xpoly": ("mu0", "divmod_in_var", "power_expansion"),
    "verify": ("eval_e", "eval_eta", "check_relations", "completeness_probe",
               "integral_rep", "membership"),
    "cli": ("parse_unipoly", "fmt_unipoly", "parse_xpoly", "fmt_xpoly",
            "serialize", "chain_doc", "generator_doc", "present_doc", "run",
            "check_doc"),
}


# (span name, fields) reported as per-layer metrics, besides the ratios
# computed in Tracer.per_layer
REPORTED = (
    ("algebra.factor_monic", ("calls", "self_s")),
    ("algebra.extend_by", ("calls", "self_s")),
    ("algebra.resultant", ("calls", "self_s")),
    ("algebra.qexpand", ("calls", "self_s")),
    ("algebra.hensel_root", ("calls", "self_s")),
    ("algebra.nu_oracle", ("calls",)),
    ("keychain.build_chain", ("calls", "incl_s")),
    ("keychain.augment", ("calls", "self_s")),
    ("keychain.nu", ("calls", "self_s")),
    ("keychain.value_below", ("calls", "self_s")),
    ("keychain.validate", ("self_s",)),
    ("expandval.truncate", ("calls", "self_s")),
    ("expandval.full_expansion", ("calls", "self_s")),
    ("presentrel.relation", ("calls", "self_s")),
    ("presentrel.i1_decompose", ("calls", "self_s")),
    ("presentrel.redundancy_cofactor", ("calls", "self_s")),
    ("rewrite.building", ("calls", "self_s")),
    ("rewrite.reduction", ("calls", "self_s")),
    ("rewrite.total_reduction", ("calls", "self_s")),
    ("rewrite.total_s_building", ("calls", "incl_s")),
    ("xpoly.divmod_in_var", ("calls", "self_s")),
    ("xpoly.power_expansion", ("calls",)),
    ("verify.membership", ("calls", "incl_s")),
    ("verify.eval_e", ("calls", "self_s")),
    ("verify.check_relations", ("incl_s",)),
    ("cli.run", ("incl_s",)),
    ("cli.serialize", ("self_s",)),
    ("cli.parse_xpoly", ("self_s",)),
)


def span_names():
    """Span names, `<layer>.<function>` with the class dropped from methods."""
    return [f"{layer}.{target.rpartition('.')[2]}"
            for layer in LAYERS for target in WRAPPED[layer]]


def resolve(layer: str, target: str):
    """(owner, attribute, function) for a wrapped target at this commit."""
    owner = sys.modules[f"valring.{layer}"]
    cls, _, attr = target.rpartition(".")
    if cls:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


def _chain_key(ctx, g, branch_selector="unique", depth=16, mode="full"):
    branch = branch_selector if branch_selector == "unique" else \
        tuple(tuple(pick) for pick in branch_selector)
    return ctx.p, tuple(g.coeffs), branch, depth, mode


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        # facts the spans alone do not carry
        self.chain_of = {}                    # id(chain) -> build_chain key, this job
        self.chain_keys = []                  # one per build_chain that returned
        self.relation_keys = []               # one per relation that returned
        self.nu_methods = Counter()           # KeyChain.nu result methods
        self.hensel_digits = 0                # largest hensel_root precision
        self._saved = []
        self._observe = {
            "keychain.build_chain": self._on_build_chain,
            "presentrel.relation": self._on_relation,
            "keychain.nu": self._on_nu,
            "algebra.hensel_root": self._on_hensel_root,
        }

    # -- installation ----------------------------------------------------------

    def install(self):
        """Put the recording wrappers in place of every wrapped target."""
        modules = [m for name, m in sys.modules.items()
                   if name == "valring" or name.startswith("valring.")]
        for name_id, (layer, target) in enumerate(
                (layer, target) for layer in LAYERS for target in WRAPPED[layer]):
            owner, attr, fn = resolve(layer, target)
            wrapper = self._wrap(fn, name_id, self._observe.get(self.names[name_id]))
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, wrapper)

    def uninstall(self):
        """Put the originals back."""
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def begin_job(self, job_id: int):
        self.job_id = job_id
        self.chain_of.clear()

    def _wrap(self, fn, name_id: int, observe):
        name, parent, job, start, end, stack = (
            self.name, self.parent, self.job, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(args, kwargs, out)
            return out
        return traced

    # -- observers ---------------------------------------------------------------

    def _on_build_chain(self, args, kwargs, chain):
        key = _chain_key(*args, **kwargs)
        self.chain_keys.append(key)
        self.chain_of[id(chain)] = key

    def _on_relation(self, args, kwargs, out):
        chain, ell, i = args[:3]
        chain_key = self.chain_of.get(id(chain), (self.job_id, id(chain)))
        self.relation_keys.append((chain_key, str(ell), i))

    def _on_nu(self, args, kwargs, out):
        self.nu_methods[out.method] += 1

    def _on_hensel_root(self, args, kwargs, out):
        self.hensel_digits = max(self.hensel_digits, out.precision)

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds, and the
        number of direct children per child name."""
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        children = defaultdict(Counter)
        for k in range(n):
            par = self.parent[k]
            if par >= 0:
                child[par] += dur[k]
                children[self.name[par]][self.name[k]] += 1
        calls = Counter()
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for k in range(n):
            nm = self.name[k]
            calls[nm] += 1
            incl[nm] += dur[k]
            self_s[nm] += dur[k] - child[k]
        return {self.names[nm]: {"calls": calls[nm], "incl_s": incl[nm],
                                 "self_s": self_s[nm],
                                 "children": {self.names[c]: cnt
                                              for c, cnt in children[nm].items()}}
                for nm in calls}

    def per_layer(self, job_s: float) -> dict:
        """The per-layer metrics of the pass, given its summed job time;
        run.py adds trace.overhead_ratio."""
        tot = self.totals()
        empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "children": {}}
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ratio(part, whole):
            return part / whole if whole else 0.0

        for name, fields in REPORTED:
            t = tot.get(name, empty)
            for field in fields:
                put(f"{name}.{field}", t[field], "count" if field == "calls" else "s")
        # distinct arguments / calls that returned (a rejected chain has no key)
        put("keychain.build_chain.distinct_ratio",
            ratio(len(set(self.chain_keys)), len(self.chain_keys)), "ratio")
        put("presentrel.relation.distinct_ratio",
            ratio(len(set(self.relation_keys)), len(self.relation_keys)), "ratio")
        put("keychain.nu.hensel_share",
            ratio(self.nu_methods["hensel"], sum(self.nu_methods.values())), "ratio")
        put("algebra.hensel_root.max_precision", self.hensel_digits, "digits")
        tsb = tot.get("rewrite.total_s_building", empty)
        put("rewrite.total_s_building.steps_per_call",
            ratio(tsb["children"].get("rewrite.building", 0), tsb["calls"]), "steps/call")
        for layer in LAYERS:
            own = sum(t["self_s"] for name, t in tot.items()
                      if name.startswith(layer + "."))
            put(f"{layer}.self_share", ratio(own, job_s), "ratio")
        return out

    def write(self, path):
        """Write every span as a tab-separated line:
        job, span index, parent index, name, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("job\tspan\tparent\tname\tstart_s\tend_s\n")
            for k in range(len(self.start)):
                fh.write(f"{self.job[k]}\t{k}\t{self.parent[k]}\t"
                         f"{self.names[self.name[k]]}\t{self.start[k]:.9f}\t"
                         f"{self.end[k]:.9f}\n")
