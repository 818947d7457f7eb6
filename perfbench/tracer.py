"""Span tracing installed from outside the program.

The tracer wraps blockprod's layer entry points with timing wrappers.  A
wrapper replaces the original function on every ``blockprod`` module that
holds it (``products`` binds ``eval_gamma_expr`` and ``pi_value`` at import;
``words`` and ``products`` look kernels up on ``blockprod._kernels``), so a
call is traced whichever module makes it.  blockprod itself has no tracing.

Every span records a name, a start, an end and its parent.  Spans are kept
in memory and written out when the run ends.  Calls of the hot per-integer
counting functions are aggregated into one record per batch (per name and
nearest non-aggregated ancestor), so memory stays bounded.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path, hot) for each layer entry point.
TARGETS = [
    ("words.count_block", "blockprod.words", "count_block", True),
    ("kernels.count_word", "blockprod._kernels", "count_word", True),
    ("kernels.logsum_word_product", "blockprod._kernels", "logsum_word_product", False),
    ("kernels.logsum_ratio_product", "blockprod._kernels", "logsum_ratio_product", False),
    ("kernels.logsum_rivoal_original", "blockprod._kernels", "logsum_rivoal_original", False),
    ("kernels.logsum_rivoal_grouped", "blockprod._kernels", "logsum_rivoal_grouped", False),
    ("kernels.logsum_companion", "blockprod._kernels", "logsum_companion", False),
    ("kernels.logsum_alternating", "blockprod._kernels", "logsum_alternating", False),
    ("bigreal.exp_of_fixed", "blockprod.bigreal", "BigReal.exp_of_fixed", False),
    ("bigreal.pi_value", "blockprod.bigreal", "pi_value", False),
    ("bigreal.to_decimal", "blockprod.bigreal", "BigReal.to_decimal", False),
    ("gammafn.eval_gamma_expr", "blockprod.gammafn", "eval_gamma_expr", False),
    ("gammafn.gamma", "blockprod.gammafn", "gamma", False),
    ("identities.closed_form", "blockprod.identities", "closed_form_baseB", False),
    ("identities.closed_form", "blockprod.identities", "closed_form_base2", False),
    ("identities.closed_form", "blockprod.identities", "companion_closed_form", False),
    ("identities.lemma1_residual", "blockprod.identities", "lemma1_residual", False),
    ("identities.grouping_identity_holds", "blockprod.identities", "grouping_identity_holds", False),
    ("products.verify", "blockprod.products", "verify", False),
    ("products.enumerate_words", "blockprod.products", "enumerate_words", False),
]

# Spans whose second argument is the precision in bits (for gammafn.first_call_s).
PRECISION_ARG = {"gammafn.eval_gamma_expr", "gammafn.gamma"}


class Tracer:
    def __init__(self):
        self.records = []  # finished spans, one dict each
        self.batches = {}  # (name, anchor id, phase) -> aggregated record of hot calls
        self.stack = []  # open frames: [start, child time, span id or None, anchor id]
        self.phase = "setup"
        self.missing = []
        self._next_id = 1

    # ---- recording ----

    def _push(self, own_id):
        if self.stack:
            top = self.stack[-1]
            anchor = top[2] if top[2] is not None else top[3]
        else:
            anchor = 0
        frame = [time.perf_counter(), 0.0, own_id, anchor]
        self.stack.append(frame)
        return frame

    def _pop(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        if self.stack:
            self.stack[-1][1] += dur
        return end, dur

    def _new_id(self):
        i = self._next_id
        self._next_id += 1
        return i

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the benchmark's own (e.g. one pass)."""
        return self._wrap(name, fn, hot=False)(*args, **kwargs)

    def _wrap(self, name, fn, hot):
        records = self.records
        batches = self.batches
        push, pop = self._push, self._pop
        tracer = self

        if hot:
            def traced(*args, **kwargs):
                frame = push(None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end, dur = pop(frame)
                    key = (name, frame[3], tracer.phase)
                    b = batches.get(key)
                    if b is None:
                        b = batches[key] = {
                            "name": name, "parent": frame[3], "phase": tracer.phase,
                            "start": frame[0], "end": end, "calls": 0, "dur": 0.0, "self": 0.0,
                        }
                    b["end"] = end
                    b["calls"] += 1
                    b["dur"] += dur
                    b["self"] += dur - frame[1]
        else:
            logsum = name.startswith("kernels.logsum")
            precision = name in PRECISION_ARG

            def traced(*args, **kwargs):
                frame = push(tracer._new_id())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end, dur = pop(frame)
                    rec = {
                        "id": frame[2], "parent": frame[3], "name": name, "phase": tracer.phase,
                        "start": frame[0], "end": end, "calls": 1, "dur": dur,
                        "self": dur - frame[1],
                    }
                    if logsum:  # every kernel ends with (..., lo, hi, F)
                        rec["terms"] = max(0, args[-2] - args[-3] + 1)
                    if precision:
                        rec["precision"] = args[1] if len(args) > 1 else kwargs.get("precision_bits")
                    records.append(rec)

        traced.__wrapped__ = fn
        return traced

    # ---- installation ----

    def install(self):
        """Wrap every entry point in TARGETS; report the ones that no longer exist."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "blockprod" or k.startswith("blockprod."))]
        for name, modname, path, hot in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:  # a method or classmethod of a class, e.g. BigReal
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, hot)))
                elif raw is not None:
                    setattr(cls, attr, self._wrap(name, raw, hot))
                else:
                    self.missing.append(f"{name} ({modname}.{path})")
                continue
            raw = getattr(owner, attr, None)
            if raw is None:
                self.missing.append(f"{name} ({modname}.{path})")
                continue
            wrapper = self._wrap(name, raw, hot)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)

    # ---- results ----

    def all_records(self):
        return self.records + list(self.batches.values())

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.all_records()}, fh)

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass totals of the pass-phase spans, plus first Gamma call per precision."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        dur = defaultdict(float)
        terms = defaultdict(int)
        first = {}
        for rec in sorted(self.all_records(), key=lambda r: r["start"]):
            name = rec["name"]
            if "precision" in rec and rec["precision"] not in first:
                first[rec["precision"]] = rec["dur"]
            if rec["phase"] != "pass":
                continue
            names = [name, "kernels.logsum"] if name.startswith("kernels.logsum_") else [name]
            for n in names:
                calls[n] += rec["calls"]
                self_s[n] += rec["self"]
                dur[n] += rec["dur"]
                terms[n] += rec.get("terms", 0)
        p = max(passes, 1)
        cb = "words.count_block"
        out = {
            f"{cb}.calls": calls[cb] / p,
            f"{cb}.self_s": self_s[cb] / p,
            f"{cb}.us_per_call": 1e6 * dur[cb] / calls[cb] if calls[cb] else 0.0,
            "kernels.count_word.calls": calls["kernels.count_word"] / p,
            "kernels.count_word.self_s": self_s["kernels.count_word"] / p,
            "kernels.logsum.calls": calls["kernels.logsum"] / p,
            "kernels.logsum.terms": terms["kernels.logsum"] / p,
            "kernels.logsum.self_s": self_s["kernels.logsum"] / p,
            "kernels.logsum.ns_per_term": (1e9 * self_s["kernels.logsum"] / terms["kernels.logsum"]
                                           if terms["kernels.logsum"] else 0.0),
        }
        for k in ("word_product", "rivoal_grouped", "companion", "alternating", "rivoal_original"):
            out[f"kernels.logsum_{k}.self_s"] = self_s[f"kernels.logsum_{k}"] / p
        for n in ("bigreal.exp_of_fixed", "gammafn.eval_gamma_expr", "gammafn.gamma",
                  "products.verify"):
            out[f"{n}.calls"] = calls[n] / p
        for n in ("bigreal.exp_of_fixed", "bigreal.pi_value", "bigreal.to_decimal",
                  "gammafn.eval_gamma_expr", "gammafn.gamma", "identities.closed_form",
                  "identities.lemma1_residual", "identities.grouping_identity_holds",
                  "products.verify", "products.enumerate_words"):
            out[f"{n}.self_s"] = self_s[n] / p
        out["gammafn.first_call_s"] = float(sum(first.values()))
        return out
