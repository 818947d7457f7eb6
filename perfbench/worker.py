"""Measured worker: runs one workload's library operations in its own process.

Run by ``run.py`` from the checkout root as ``python3 perfbench/worker.py
<workload> [--trace SPANS_PATH]`` with ``src`` on ``PYTHONPATH``.  It speaks
JSON lines on stdin/stdout:

1. it imports blockprod, makes the first call at each precision the
   workload uses, and prints ``{"ready": ...}``; the time to this line is
   the set-up time;
2. it reads one line of inputs (a JSON object) and builds blockprod
   objects from them;
3. it answers each ``"pass"`` with the wall time of each step of one pass
   over the operations, in seconds and in units of the reference
   computation (``calibrate.py``), and a digest of the outputs, which it
   sends in full on the first pass only; converting and hashing the results
   is not timed;
4. it answers ``"quit"`` with its peak resident size and, when traced, the
   per-layer metrics, and writes its spans to SPANS_PATH.

mpmath and the oracles never load in this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

from calibrate import timed_reference
from workloads import digest_counts


def real(v):
    return [v.man, v.exp, v.prec]


def report(r, rendered: dict) -> dict:
    """A verify report's values, exactly, beside its rendered JSON form."""
    return {
        "lhs": real(r.lhs_partial), "rhs": real(r.rhs_closed), "tail": real(r.tail_estimate),
        "verdict": r.verdict, "json": rendered,
    }


def spec_of(bp, d):
    return bp.ProductSpec(d["base"], bp.Word.parse(d["word"], d["base"]),
                          tuple(Fraction(x) for x in d["a"]), tuple(Fraction(x) for x in d["b"]))


# --------------------------------------------------------------------------
# workloads: warm-up (part of set-up), then timed steps built from the inputs
# --------------------------------------------------------------------------
#
# ``prepare`` turns the inputs into blockprod objects (untimed) and a list of
# steps: (label, call) pairs, each timed on its own.  ``ops`` is the number of
# library operations in one pass; ``outputs`` converts the steps' results
# into JSON for the checks (untimed).


class PiFamily:
    def warmup(self, bp):
        bp.verify("rivoal_eq1", 16)
        bp.verify("companion_eq2", 16)

    def prepare(self, bp, inp):
        N, K, n = inp["verify_N"], inp["blocks"], inp["small_N"]

        def verify_rendered(name):
            r = bp.verify(name, N)
            return r, r.to_json_dict()

        self.steps = [
            ("rivoal", lambda: verify_rendered("rivoal_eq1")),
            ("companion", lambda: verify_rendered("companion_eq2")),
            *[(f"alt{k}", lambda k=k: bp.alternating_product_estimate(k, 128)) for k in inp["alt_N"]],
            ("original", lambda: bp.rivoal_original_partial(4 * K + 3, 128)),
            ("grouped", lambda: bp.rivoal_grouped_partial(K, 128)),
            ("small:grouped", lambda: bp.rivoal_grouped_partial(n, 128)),
            ("small:companion", lambda: bp.companion_partial(n, 128)),
            ("small:alternating", lambda: bp.alternating_product_estimate(n, 128)),
            ("small:original", lambda: bp.rivoal_original_partial(n, 128)),
        ]
        self.alt_N = inp["alt_N"]
        self.ops = len(self.steps)

    def outputs(self, bp, res):
        return {
            "rivoal": report(*res["rivoal"]),
            "companion": dict(report(*res["companion"]), form=bp.companion_closed_form().to_json_dict()),
            "alternating": [real(res[f"alt{k}"]) for k in self.alt_N],
            "original": real(res["original"]),
            "grouped": real(res["grouped"]),
            "small": {k[6:]: real(v) for k, v in res.items() if k.startswith("small:")},
        }


class WordProducts:
    def warmup(self, bp):
        bp.verify(bp.ProductSpec.canonical_base2(bp.Word.parse("1", 2)), 16)

    def prepare(self, bp, inp):
        e = inp["enumerate"]
        N, n = inp["N"], inp["small_N"]
        specs = [spec_of(bp, d) for d in inp["specs"]]

        def enumerate_rendered():
            reports = bp.enumerate_words(e["base"], e["max_len"], N=e["N"])
            return [(r, r.to_json_dict()) for r in reports]

        def verify_rendered(spec):
            r = bp.verify(spec, N)
            return r, r.to_json_dict()

        self.steps = [("enumerate", enumerate_rendered)]
        self.steps += [(f"verify{i}", lambda s=s: verify_rendered(s)) for i, s in enumerate(specs)]
        self.steps += [(f"small{i}", lambda s=s: bp.eval_lhs_partial(s, n, 128))
                       for i, s in enumerate(specs)]
        self.n_specs = len(specs)
        # each enumerated word counts as one verify
        self.ops = sum(e["base"] ** k for k in range(1, e["max_len"] + 1)) + 2 * len(specs)

    def outputs(self, bp, res):
        def with_form(r, j):
            return dict(report(r, j), spec=r.spec.to_json_dict(),
                        form=bp.closed_form_baseB(r.spec).to_json_dict())

        return {
            "enumerate": [with_form(r, j) for r, j in res["enumerate"]],
            "verify": [with_form(*res[f"verify{i}"]) for i in range(self.n_specs)],
            "small": [real(res[f"small{i}"]) for i in range(self.n_specs)],
        }


class DigitCounts:
    def warmup(self, bp):
        bp.count_block(bp.Word.parse("1", 2), 1)

    def prepare(self, bp, inp):
        words = [bp.Word.parse(w, base) for base, w in inp["words"]]
        ns = list(range(inp["range"])) + [int(x) for x in inp["big"]]

        def counts(w):
            count_block = bp.count_block
            return [count_block(w, n) for n in ns]

        self.steps = [(f"w{i}", lambda w=w: counts(w)) for i, w in enumerate(words)]
        self.ops = len(words) * len(ns)

    def outputs(self, bp, res):
        return {"digests": [digest_counts(c) for c in res.values()]}


class ClosedForms:
    def warmup(self, bp):
        spec = bp.ProductSpec.canonical_base2(bp.Word.parse("1", 2))
        for p in (256, 1024):
            bp.eval_gamma_expr(bp.closed_form_baseB(spec), p)
        for p in (128, 256):
            bp.gamma(Fraction(1, 3), p)

    def prepare(self, bp, inp):
        specs = [bp.ProductSpec(base, bp.Word.parse(w, base), (1, 1), (0, 2))
                 for base, w in inp["words"]]
        gamma_args = [Fraction(x) for x in inp["gamma_args"] + inp["gamma_large"]]

        def lemma(d):
            entries = {int(k): Fraction(v) for k, v in d["entries"].items()}
            f = bp.FiniteSupportFn(entries, value_at_zero=Fraction(d.get("f0", 0)))
            return f, bp.Word(d["base"], tuple(d["digits"])), d["base"]

        trials = [lemma(d) for d in inp["lemma1"]]
        controls = [lemma(d) for d in inp["controls"]]
        self.precisions = inp["precisions"]
        forms = []

        def build():
            forms[:] = [bp.closed_form_baseB(s) for s in specs]
            return list(forms)

        def evaluate(f, p):
            v = bp.eval_gamma_expr(f, p)
            return v, v.to_decimal()

        self.steps = [("forms", build)]
        self.steps += [(f"eval{p}:{i}", lambda i=i, p=p: evaluate(forms[i], p))
                       for p in self.precisions for i in range(len(specs))]
        self.steps += [("gamma", lambda: [bp.gamma(x, p) for p in inp["gamma_precisions"]
                                          for x in gamma_args])]
        self.steps += [("lemma1", lambda: [bp.lemma1_residual(f, w, b) for f, w, b in trials]),
                       ("controls", lambda: [bp.lemma1_residual(f, w, b, misrange=True)
                                             for f, w, b in controls]),
                       ("grouping", lambda: bp.grouping_identity_holds(inp["grouping_K"]))]
        self.n_forms = len(specs)
        self.ops = (len(specs) * (1 + len(self.precisions))
                    + len(inp["gamma_precisions"]) * len(gamma_args)
                    + len(trials) + len(controls) + 1)

    def outputs(self, bp, res):
        return {
            "forms": [f.to_json_dict() for f in res["forms"]],
            "values": {str(p): [[real(v), d] for v, d in
                                (res[f"eval{p}:{i}"] for i in range(self.n_forms))]
                       for p in self.precisions},
            "gamma": [real(v) for v in res["gamma"]],
            "residuals": [str(r) for r in res["lemma1"]],
            "controls": [str(r) for r in res["controls"]],
            "grouping": res["grouping"],
        }


WORKLOADS = {
    "pi-family": PiFamily,
    "word-products": WordProducts,
    "digit-counts": DigitCounts,
    "closed-forms": ClosedForms,
}


REF_INTERVAL_S = 0.2  # time the reference computation at least this often


def run_steps(steps):
    """One pass: each step's wall time, the same in ``ref`` units, and its result.

    The reference computation runs between steps (untimed as a step) at
    least every REF_INTERVAL_S; a step's time is divided by the mean of the
    reference times taken just before and just after it.
    """
    clock = time.perf_counter
    times, results, refs = [], {}, []  # refs: (index of the next step, seconds)
    last = None
    for label, call in steps:
        if last is None or clock() - last >= REF_INTERVAL_S:
            refs.append((len(times), timed_reference()))
            last = clock()
        t0 = clock()
        results[label] = call()
        times.append(clock() - t0)
    refs.append((len(times), timed_reference()))
    norm = []
    k = 0
    for i, t in enumerate(times):
        while refs[k + 1][0] <= i:
            k += 1
        norm.append(2 * t / (refs[k][1] + refs[k + 1][1]))
    return times, norm, results


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    workload = sys.argv[1]
    spans_path = sys.argv[3] if len(sys.argv) > 3 and sys.argv[2] == "--trace" else None
    import blockprod as bp

    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(bp.__file__).startswith(src):
        print(f"worker: blockprod loaded from {bp.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[workload]()
    wl.warmup(bp)
    send({"ready": True, "backend": bp.kernel_backend()})

    passes = 0
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "quit":
            break
        if cmd.startswith("{"):
            wl.prepare(bp, json.loads(cmd))
            continue
        try:
            if tracer:
                tracer.phase = "pass"
                times, norm, res = tracer.span("bench.pass", run_steps, wl.steps)
                tracer.phase = "other"
            else:
                times, norm, res = run_steps(wl.steps)
            out = wl.outputs(bp, res)
            del res
        except Exception:
            send({"error": traceback.format_exc(), "ops": wl.ops})
            continue
        passes += 1
        text = json.dumps(out, sort_keys=True)
        reply = {"step_s": times, "step_ref": norm, "ops": wl.ops,
                 "digest": hashlib.sha256(text.encode()).hexdigest()}
        if passes == 1:
            reply["outputs"] = out
        send(reply)
    final = {"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        final["layers"] = tracer.layer_metrics(passes)
        final["missing"] = tracer.missing
        tracer.write(spans_path)
    send(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
