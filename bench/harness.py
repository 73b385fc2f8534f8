"""Timed and traced runs of one workload; see run.py for the protocol."""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import env
import gate
import reference
import tracer as tracing
import workloads
from workloads import LIBRARY_SEED

BENCH = Path(__file__).resolve().parent
SETUP_PROCESSES = 3
TRACED_PASSES = 2
COLD_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What became of one fixed target across all of its attempts."""

    ok: bool = True
    cause: str | None = None          # exception class, or "GateError"
    layer: str | None = None          # innermost span it left (traced only)
    message: str = ""
    wrong: bool = False               # a returned certificate failed the gate
    cert_s: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    nbytes: int = 0
    rel_resid: float = 0.0
    cond_max: float = 0.0


class Runner:
    def __init__(self, mw, w, tracer=None):
        self.mw = mw
        self.w = w
        self.f = mw.freealg.parse(w.poly)
        self.tracer = tracer

    def _window(self, name):
        return self.tracer.root(name) if self.tracer else nullcontext()

    def attempt(self, A, out: Outcome):
        """Route + serialize (timed), parse + verify (timed), gate."""
        mw = self.mw
        try:
            t0 = time.perf_counter()
            with self._window("cert"):
                cert = getattr(mw.waring, self.w.route)(
                    self.f, A, seed=LIBRARY_SEED)
                text = mw.serialize.dumps_canonical(
                    mw.serialize.certificate_to_json(cert, mw.config.DEFAULT_TOLS))
            cert_s = time.perf_counter() - t0
        except Exception as exc:  # every failure is counted, by class
            out.ok = False
            out.cause = type(exc).__name__
            out.layer = getattr(exc, tracing.LAYER_ATTR, None)
            out.message = str(exc)
            return
        try:
            t0 = time.perf_counter()
            with self._window("verify"):
                doc = json.loads(text)
                failures = mw.verify.verify_certificate(doc)
            verify_s = time.perf_counter() - t0
            rel = gate.check(self.w, A, doc, failures)
        except Exception as exc:  # a certificate that breaks the verifier is wrong
            out.ok, out.wrong = False, True
            out.cause, out.message = "GateError", f"{type(exc).__name__}: {exc}"
            return
        out.cert_s.append(cert_s)
        out.verify_s.append(verify_s)
        out.nbytes = len(text.encode())
        out.rel_resid = rel
        out.cond_max = max(s.condition_estimate
                           for s in list(cert.steps) + list(cert.term_certs))

    def warm_up(self, seed):
        for A in workloads.warmup_targets(self.w, seed):
            self.attempt(A, Outcome())

    def first_pass(self, targets, between=lambda: None):
        outcomes = [Outcome() for _ in targets]
        for A, out in zip(targets, outcomes):
            between()
            self.attempt(A, out)
        return outcomes

    def fill(self, targets, outcomes, deadline, between=lambda: None):
        """Repeat passes over the passing targets until the deadline."""
        live = [i for i, o in enumerate(outcomes) if o.ok]
        while live and time.perf_counter() < deadline:
            for i in live:
                if time.perf_counter() >= deadline:
                    break
                between()
                if outcomes[i].ok:
                    self.attempt(targets[i], outcomes[i])


class ColdStarts:
    """Fresh interpreters that each import matwaring and write their first
    certificate. They are spread evenly over the run, between attempts, so
    a slow spell of the machine reaches few of them."""

    def __init__(self, w, seed, tiny, count, start, seconds):
        self.cmd = [sys.executable, str(BENCH / "cold.py"), "--workload",
                    w.name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.due = [start + seconds * k / count for k in range(count)]
        self.times = []

    def _one(self):
        self.due.pop(0)
        done = subprocess.run(self.cmd, capture_output=True, text=True,
                              timeout=COLD_TIMEOUT_S, cwd=env.ROOT)
        if done.returncode != 0:
            sys.exit(f"error: cold start failed:\n{done.stderr}")
        self.times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])

    def poll(self):
        if self.due and time.perf_counter() >= self.due[0]:
            self._one()

    def finish(self):
        """Run any that are still due; return the median seconds."""
        while self.due:
            self._one()
        return statistics.median(self.times)


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else xs[0]


def _resid_log10_max(good):
    """log10 of the worst relative residual the gate recomputed."""
    return math.log10(max(max(o.rel_resid for o in good), 1e-300))


def _causes(outcomes, with_layer=False):
    out = {}
    for o in outcomes:
        if not o.ok:
            key = f"{o.cause}@{o.layer}" if with_layer and o.layer else o.cause
            out[key] = out.get(key, 0) + 1
    return out


def _examples(outcomes):
    return sorted({f"{o.cause}: {o.message[:160]}" for o in outcomes if not o.ok})


def timed_run(mw, w, args):
    start = time.perf_counter()
    setups = 1 if args.tiny else SETUP_PROCESSES
    cold = ColdStarts(w, args.seed, args.tiny, setups, start, args.seconds)
    cold.poll()
    runner = Runner(mw, w)
    runner.warm_up(args.seed)
    ref = reference.Sampler()

    def between():
        ref.keep_up()
        cold.poll()

    targets = workloads.targets(w, args.seed)
    outcomes = runner.first_pass(targets, between)
    runner.fill(targets, outcomes, start + args.seconds, between)
    setup_s = cold.finish()

    good = [o for o in outcomes if o.ok]
    if not good:
        sys.exit(f"error: no target passed: {_causes(outcomes)}")
    # Means over every attempt, divided by the reference kernel's mean over
    # the same run (see reference.py). A mean grows in proportion to the
    # share of the run the host was slow, as the kernel's does; a best
    # attempt or a median does not, so it would not cancel.
    cert_mean = statistics.fmean(t for o in good for t in o.cert_s)
    verify_mean = statistics.fmean(t for o in good for t in o.verify_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cert_ref_mean": (cert_mean / ref.mean(), "ref"),
        "verify_ref_mean": (verify_mean / ref.mean(), "ref"),
        "pass_frac": (len(good) / len(outcomes), "frac"),
        "cert_bytes_p50": (statistics.median(o.nbytes for o in good), "bytes"),
        "resid_digits_min": (-_resid_log10_max(good), "digits"),
        "cond_log10_p50": (statistics.median(math.log10(o.cond_max) for o in good),
                           "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    report = {
        "passing_targets": len(good),
        "attempts_per_target": sorted({len(o.cert_s) for o in good}),
        "setup_processes": setups,
        "fail_frac": 1 - len(good) / len(outcomes),
        "causes": _causes(outcomes),
        "failure_examples": _examples(outcomes),
        "seconds": {
            "cert_s_mean": cert_mean,
            "verify_s_mean": verify_mean,
            "cert_s_p50": statistics.median(min(o.cert_s) for o in good),
            "verify_s_p50": statistics.median(min(o.verify_s) for o in good),
            "ref_s_mean": ref.mean(),
            "ref_s_min": min(ref.times),
            "ref_samples": len(ref.times),
        },
        "wall_s": time.perf_counter() - start,
    }
    return outcomes, metrics, report


def traced_run(mw, w, args):
    start = time.perf_counter()
    targets = workloads.targets(w, args.seed)
    plain = Runner(mw, w)
    plain.warm_up(args.seed)
    untraced = plain.first_pass(targets)
    if not any(o.ok for o in untraced):
        sys.exit(f"error: no target passed: {_causes(untraced)}")

    # Passes alternate untraced, traced, untraced, traced, so the overhead
    # ratio compares attempts made close together in time.
    tr = tracing.Tracer()
    traced_runner = Runner(mw, w, tr)
    traced = [Outcome() for _ in targets]
    for k in range(TRACED_PASSES):
        if k:
            for A, out in zip(targets, untraced):
                if out.ok:
                    plain.attempt(A, out)
        tr.install(mw)
        try:
            for A, out in zip(targets, traced):
                traced_runner.attempt(A, out)
        finally:
            tr.uninstall()

    traced_attempts = TRACED_PASSES * len(targets)
    metrics = {}
    for span in tracing.SPANS:
        st = tr.totals(span)
        metrics[f"{span}.self_s"] = (st.self_s / traced_attempts, "s")
        metrics[f"{span}.calls"] = (st.calls / traced_attempts, "count")
        metrics[f"{span}.raised"] = (st.raised, "count")
    for name, count in tr.counts.items():
        metrics[name] = (count / traced_attempts, "count")
    windows = {}
    for root in tracing.ROOTS:
        spans = tr.per_root(root)
        total = sum(st.self_s for st in spans.values())
        windows[root] = (total, spans)
        metrics[f"other.{root}.self_s"] = (
            spans["other"].self_s / traced_attempts if "other" in spans else 0.0, "s")
        metrics[f"trace.{root}_s_mean"] = (total / traced_attempts, "s")

    both = [(t, u) for t, u in zip(traced, untraced) if t.ok and u.ok]
    metrics["trace.cert_s_p50_traced"] = (
        statistics.median(min(t.cert_s) for t, _ in both), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(min(t.cert_s) / min(u.cert_s) for t, u in both), "ratio")
    # Seconds, from the untraced passes: a target's best attempt, quantiles
    # across targets. They follow the host's slow spells (see reference.py),
    # so they carry no bound; the timed run reports the bounded forms.
    metrics["cert_s_p50"] = (statistics.median(min(u.cert_s) for _, u in both), "s")
    metrics["cert_s_p90"] = (_p90([min(u.cert_s) for _, u in both]), "s")
    metrics["verify_s_p50"] = (
        statistics.median(min(u.verify_s) for _, u in both), "s")
    # Extreme-value forms of the quality metrics. They are exact, but they
    # move between seeds with whichever target lies nearest the five-term
    # failure threshold, so they carry no bound; the timed run reports the
    # bounded forms.
    good = [o for o in untraced if o.ok]
    metrics["fail_frac"] = (1 - len(good) / len(targets), "frac")
    metrics["resid_log10_max"] = (_resid_log10_max(good), "log10")
    metrics["cond_log10_max"] = (max(math.log10(o.cond_max) for o in good), "log10")

    ranking = {}
    for root, (total, spans) in windows.items():
        ranking[root] = [
            {"span": span, "self_s_per_target": st.self_s / traced_attempts,
             "share": st.self_s / total if total else 0.0,
             "incl_s_per_target": st.incl_s / traced_attempts,
             "calls_per_target": st.calls / traced_attempts}
            for span, st in sorted(spans.items(), key=lambda kv: -kv[1].self_s)
        ]
    report = {
        "absent": tr.absent,
        "causes": _causes(traced, with_layer=True),
        "failure_examples": _examples(traced),
        "traced_outcomes_match": [o.ok for o in traced] == [o.ok for o in untraced],
        "ranking": ranking,
        "wall_s": time.perf_counter() - start,
    }
    return untraced + traced, metrics, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="matwaring benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to unit-test sizes")
    return parser.parse_args(argv)


def main(args, threads):
    mw = env.import_matwaring()
    w = workloads.lookup(args.workload, args.tiny)
    run = traced_run if args.trace else timed_run
    outcomes, metrics, report = run(mw, w, args)

    fixed = outcomes[: w.count]
    report = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "blas_threads": threads,
              "env": env.capture(), **report}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(fixed),
        "failed": sum(not o.ok for o in fixed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))

