"""Span timing around the library's public functions, from outside.

`Tracer.install` rebinds module attributes of the imported `matwaring`
package to timing wrappers; nothing in src/ changes. A span's self time is
its duration minus the time of the wrapped spans it called. Every wrapped
call runs inside a root window (`cert` or `verify`) opened by the benchmark,
and the root's own self time is the `other` remainder, so per window the
self times add up exactly to the window's traced time.

Only the traced run installs wrappers; the timed run never does.
"""

import functools
import sys
import time
from contextlib import contextmanager

# Layer spans, named <module>.<function>. A function object is wrapped in
# every namespace that binds it (`certify_similarity` is looked up through
# waring, canon and linalg). A binding whose own "<namespace>.<attr>" is a
# span gets that span, so lookups through `verify` are told apart from the
# construction's; other bindings take the span of the defining module.
SPANS = (
    "waring.waring_express",
    "waring.four_term_decompose",
    "waring.two_term_decompose",
    "waring.five_term_express",
    "waring.image_search",
    "waring.diff_of_similar",
    "freealg.classify",
    "freealg.evaluate",
    "canon.partition_spectrum",
    "canon.zero_diagonal_similarity",
    "unitaries.build_decoupling_unitary",
    "unitaries.split_hollow",
    "linalg.block_triangular_similarity",
    "linalg.sylvester_solve",
    "linalg.certify_similarity",
    "serialize.certificate_to_json",
    "serialize.dumps_canonical",
    "verify.verify_certificate",
    "verify.matrix_from_json",
    "verify.evaluate",
)

# Counted, not timed: witness draws are the random_tuple calls that
# image_search makes through the waring namespace.
COUNTERS = {"waring.random_tuple": "waring.image_search.draws"}

ROOTS = ("cert", "verify")
LAYER_ATTR = "bench_layer"   # set on an exception by the innermost span it left


class _Stat:
    __slots__ = ("self_s", "incl_s", "calls", "raised")

    def __init__(self):
        self.self_s = 0.0
        self.incl_s = 0.0
        self.calls = 0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.stats = {}          # (root, span) -> _Stat
        self.counts = dict.fromkeys(COUNTERS.values(), 0)
        self.absent = []
        self._stack = []         # [root, span, child_seconds]
        self._saved = []         # (module, attr, original) while installed

    def _stat(self, span):
        key = (self._stack[0][0] if self._stack else None, span)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
        return stat

    def _close(self, frame, seconds):
        stat = self._stat(frame[1])
        self._stack.pop()
        stat.self_s += seconds - frame[2]
        stat.incl_s += seconds
        stat.calls += 1
        if self._stack:
            self._stack[-1][2] += seconds

    @contextmanager
    def root(self, name):
        if self._stack:
            raise RuntimeError("root windows do not nest")
        frame = [name, "other", 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - t0)

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, span, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._stat(span).raised += 1
                if not hasattr(exc, LAYER_ATTR):
                    setattr(exc, LAYER_ATTR, span)
                raise
            finally:
                self._close(frame, time.perf_counter() - t0)

        return wrapper

    def _count(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package):
        """Wrap every binding of every span's function in package.*"""
        if self._saved:
            raise RuntimeError("already installed")
        self.absent = []
        modules = {
            name[len(package.__name__) + 1:] or "": mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package.__name__
                                    or name.startswith(package.__name__ + "."))
        }
        wanted = {}   # id(function) -> span of its defining module
        for span in SPANS:
            mod, attr = span.split(".")
            fn = getattr(modules.get(mod), attr, None)
            if fn is None:
                self.absent.append(span)
            elif getattr(fn, "__module__", None) == f"{package.__name__}.{mod}":
                wanted[id(fn)] = span
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                own = f"{short}.{attr}"
                if own in COUNTERS:
                    wrapper = self._count(COUNTERS[own], value)
                elif own in SPANS and own not in self.absent:
                    wrapper = self._wrap(own, value)
                elif id(value) in wanted and callable(value):
                    wrapper = self._wrap(wanted[id(value)], value)
                else:
                    continue
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        """Put every wrapped binding back; the statistics are kept."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def per_root(self, root):
        """{span: _Stat} for spans that ran inside the given root window."""
        return {span: st for (r, span), st in self.stats.items() if r == root}

    def totals(self, span):
        out = _Stat()
        for (_, name), st in self.stats.items():
            if name == span:
                out.self_s += st.self_s
                out.calls += st.calls
                out.raised += st.raised
        return out
