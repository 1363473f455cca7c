"""Span tracing of krlab's layers from outside the library.

A traced run replaces each name that crosses a layer boundary, in the
module that imports it, with a wrapper that records a span: the function's
name, start, end, parent span and instance id.  Spans stay in memory and are
written out when the run ends; the original functions are restored before
the caches are read.  A layer's busy time is the sum of its spans' self
times: each span's duration minus the part its child spans cover.
"""

import importlib
import json
import os
import sys
from array import array
from time import perf_counter

LAYERS = (
    "identities",
    "qweight",
    "roots",
    "oscillating",
    "partitions",
    "crystal",
    "kr_row",
    "kr_column",
    "characters",
    "charge",
)

# (module, name, layer): the name is replaced in that module's globals.
# Most rows are a name the module imports from another layer.  Four are a
# layer's own step, looked up through its module's globals, so that its
# calls can be counted: qweight.q_kostant, kr_row.r_matrix_row,
# kr_column.split_col and oscillating._strips_from, the one private name,
# which is the chain layer's boundary (enumerate_chains and
# identities.rohs_bounded_len call it).
BOUNDARIES = (
    ("workloads", "kl_poly", "qweight"),
    ("workloads", "kl_qt_B", "qweight"),
    ("krlab.identities", "kl_poly", "qweight"),
    ("krlab.identities", "kl_qt_B", "qweight"),
    ("krlab.identities", "kl_level_restricted", "qweight"),
    ("krlab.characters", "weight_multiplicity", "qweight"),
    ("krlab.qweight", "q_kostant", "qweight"),
    ("krlab.qweight", "weyl_group", "roots"),
    ("krlab.qweight", "apply_w", "roots"),
    ("krlab.characters", "weyl_group", "roots"),
    ("krlab.characters", "apply_w", "roots"),
    ("krlab.identities", "enumerate_chains", "oscillating"),
    ("krlab.identities", "energy_of_chain", "oscillating"),
    ("krlab.oscillating", "enumerate_chains", "oscillating"),
    ("krlab.oscillating", "phi_r", "oscillating"),
    ("krlab.oscillating", "_strips_from", "oscillating"),
    ("krlab.oscillating", "horizontal_strips_below", "partitions"),
    ("krlab.oscillating", "horizontal_strips_above", "partitions"),
    ("krlab.charge", "horizontal_strips_above", "partitions"),
    ("krlab.characters", "horizontal_strips_above", "partitions"),
    ("krlab.characters", "partitions_upto", "partitions"),
    ("krlab.identities", "partitions", "partitions"),
    ("krlab.oscillating", "hw", "crystal"),
    ("krlab.kr_row", "hw", "crystal"),
    ("krlab.kr_row", "is_hw", "crystal"),
    ("krlab.kr_row", "apply_e", "crystal"),
    ("krlab.kr_row", "apply_f", "crystal"),
    ("krlab.kr_row", "eps", "crystal"),
    ("krlab.kr_row", "tensor_word_e", "crystal"),
    ("krlab.kr_row", "tensor_word_f", "crystal"),
    ("krlab.kr_column", "is_hw", "crystal"),
    ("krlab.kr_column", "tensor_word_e", "crystal"),
    ("krlab.kr_column", "tensor_word_f", "crystal"),
    ("krlab.identities", "hw_row_elements", "kr_row"),
    ("krlab.identities", "energy_row", "kr_row"),
    ("krlab.kr_row", "r_matrix_row", "kr_row"),
    ("krlab.oscillating", "energy_col", "kr_column"),
    ("krlab.identities", "vac_qt_energy", "kr_column"),
    ("krlab.kr_row", "energy_chain", "kr_column"),
    ("krlab.kr_column", "split_col", "kr_column"),
    ("krlab.identities", "twisted_branching", "characters"),
    ("krlab.identities", "char_coeff", "characters"),
    ("krlab.identities", "lr_coef", "characters"),
    ("krlab.identities", "kostka_foulkes", "charge"),
)


def _one(result):
    return 1


def _size(result):
    return len(result)


def _live(result):
    return 1 if result else 0


_HSTRIPS = (("hstrip_calls", _one), ("hstrip_results", _size))
_OP = (("op_calls", _one),)
_ENERGY = (("energy_calls", _one),)

# Work counters fed by a boundary call, by function name or, first, by the
# traced label: counter -> what one call adds, given its result.
COUNTERS = {
    "q_kostant": (("q_kostant_calls", _one), ("q_kostant_live", _live)),
    "weyl_group": (("weyl_elements", _size),),
    "enumerate_chains": (("chains", _size),),
    "_strips_from": (("strips_calls", _one), ("strips_kept", _size)),
    # strips_yield: strips kept per candidate the chain layer looked at
    "oscillating.horizontal_strips_below": _HSTRIPS + (("strip_candidates", _size),),
    "horizontal_strips_below": _HSTRIPS,
    "horizontal_strips_above": _HSTRIPS,
    "hw": (("hw_calls", _one),),
    "is_hw": (("is_hw_calls", _one),),
    "apply_e": _OP,
    "apply_f": _OP,
    "eps": _OP,
    "tensor_word_e": _OP,
    "tensor_word_f": _OP,
    "hw_row_elements": (("hw_elements", _size),),
    "r_matrix_row": (("r_matrix_calls", _one),),
    "energy_col": _ENERGY,
    "vac_qt_energy": _ENERGY,
    "energy_chain": _ENERGY,
    "split_col": (("split_calls", _one),),
    "kostka_foulkes": (("kostka_foulkes_calls", _one),),
}


class Tracer:
    """Records spans and counters while installed; see install()."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_instance = array("q")
        self.instance = -1
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.entries = dict.fromkeys(LAYERS, 0)
        self.counts = {}
        self.strip_keys = set()
        self._stack = []  # [span index, layer, time covered by children]
        self._saved = []

    def _name_id(self, label):
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def _wrap(self, fn, name, label, layer):
        name_id = self._name_id(label)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        busy, entries, counts = self.busy, self.entries, self.counts
        counters = COUNTERS.get(label, COUNTERS.get(name, ()))
        strip_keys = self.strip_keys if name == "_strips_from" else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_instance.append(self.instance)
            ends.append(0.0)
            frame = [idx, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                busy[layer] += dur - frame[2]
                if parent:
                    parent[2] += dur
                if parent is None or parent[1] != layer:
                    entries[layer] += 1
            for key, amount in counters:
                counts[key] = counts.get(key, 0) + amount(result)
            if strip_keys is not None:
                strip_keys.add(args)
            return result

        return traced

    def install(self):
        """Wrap every boundary name in the module that looks it up."""
        for mod_name, name, layer in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, name)
            label = "%s.%s" % (mod_name.replace("krlab.", ""), name)
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(fn, name, label, layer))

    def restore(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved = []

    def instance_span(self, instance_id, fn, args):
        """Run one instance under a root span counted to the identities layer."""
        self.instance = instance_id
        wrapped = self._wrap(fn, "instance", "identities.instance", "identities")
        try:
            return wrapped(*args)
        finally:
            self.instance = -1

    def write(self, path):
        """One JSON header line, then the five span arrays as raw bytes."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [
                ["name", self.span_name.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
                ["parent", self.span_parent.typecode],
                ["instance", self.span_instance.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_instance):
                arr.tofile(fh)


def cache_readout():
    """Cache sizes read from outside krlab, with every wrapper removed:
    the q-Kostant memo, the row R-matrix tables and each lru_cache."""
    from krlab import kr_row, qweight

    out = {
        "qweight._memo": len(qweight._memo),
        "kr_row._tables": sum(len(t.map) for t in kr_row._tables.values()),
    }
    seen = set()
    for mod_name in sorted(m for m in sys.modules if m.startswith("krlab.")):
        mod = sys.modules[mod_name]
        for attr, fn in sorted(vars(mod).items()):
            if not hasattr(fn, "cache_info") or id(fn) in seen:
                continue
            if getattr(fn, "__module__", None) != mod_name:
                continue
            seen.add(id(fn))
            out["%s.%s" % (mod_name.replace("krlab.", ""), attr)] = fn.cache_info().currsize
    return out


def layer_metrics(tracer, caches):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    c = tracer.counts.get

    def ratio(num, den):
        return num / den if den else 0.0

    def lru_total(layer):
        return sum(v for k, v in caches.items() if k.startswith(layer + "."))

    m = {"%s.busy_s" % layer: tracer.busy[layer] for layer in LAYERS}
    m.update({
        "qweight.calls": tracer.entries["qweight"],
        "qweight.q_kostant_calls": c("q_kostant_calls", 0),
        "qweight.live_ratio": ratio(c("q_kostant_live", 0), c("q_kostant_calls", 0)),
        "qweight.dp_states": caches["qweight._memo"],
        "roots.weyl_elements": c("weyl_elements", 0),
        "oscillating.chains": c("chains", 0),
        "oscillating.strips_calls": c("strips_calls", 0),
        "oscillating.strips_distinct": len(tracer.strip_keys),
        "oscillating.strips_yield": ratio(c("strips_kept", 0), c("strip_candidates", 0)),
        "partitions.hstrip_calls": c("hstrip_calls", 0),
        "partitions.hstrip_results": c("hstrip_results", 0),
        "crystal.hw_calls": c("hw_calls", 0),
        "crystal.is_hw_calls": c("is_hw_calls", 0),
        "crystal.op_calls": c("op_calls", 0),
        "kr_row.r_matrix_calls": c("r_matrix_calls", 0),
        "kr_row.table_entries": caches["kr_row._tables"],
        "kr_row.hw_elements": c("hw_elements", 0),
        "kr_column.energy_calls": c("energy_calls", 0),
        "kr_column.split_calls": c("split_calls", 0),
        "characters.calls": tracer.entries["characters"],
        "characters.cache_entries": lru_total("characters"),
        "charge.kostka_foulkes_calls": c("kostka_foulkes_calls", 0),
        "charge.cache_entries": lru_total("charge"),
    })
    return m
