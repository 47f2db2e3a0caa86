"""Per-layer tracing of the fatpoints library from outside its source.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` and
rebinds each wrapper under every name that a loaded ``fatpoints.*`` module
holds for the original function object (methods are rebound on their
class).  ``uninstall()`` puts the originals back, so the library source is
never edited and an untraced run executes no benchmark code inside it.

Each wrapped call becomes a span (name, start, end, parent span, operation
id) kept in memory.  Self time is a span's duration minus the time covered
by its wrapped children, so nested public calls (``rational_nullspace`` ->
``bareiss_echelon``, ``system_dim`` inside ``alpha_sequence``) are not
counted twice.  A few derived counters are read from arguments and return
values at the same boundaries; see ``Tracer.metrics``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" names a method.
LAYERS = (
    ("configs", "general"),
    ("configs", "generate"),
    ("linsys", "build_condition_matrix"),
    ("linsys", "condition_matrix_mod_p"),
    ("linsys", "modp_rref"),
    ("linsys", "bareiss_echelon"),
    ("linsys", "rational_nullspace"),
    ("linsys", "strategy_primes"),
    ("linsys", "system_dim"),
    ("linsys", "alpha_sequence"),
    ("algebra", "order_of_vanishing"),
    ("algebra", "ProjectivePoint.integer_coords"),
    ("geometry", "are_collinear"),
    ("geometry", "common_conic"),
    ("geometry", "spanned_lines"),
    ("geometry", "detect_line_arrangement"),
    ("geometry", "is_star_configuration"),
    ("geometry", "is_type9"),
    ("analysis", "check_minimal_gap_collinear"),
    ("analysis", "check_unit_step_arrangement"),
    ("analysis", "check_double_unit_step_collinear"),
    ("analysis", "check_uniform_step_two_conic"),
    ("analysis", "conjecture_search"),
    ("analysis", "repro"),
    ("cache", "ResultCache.get_report"),
    ("cache", "ResultCache.put_report"),
)

VERDICT_STATUSES = (
    "CONSISTENT",
    "CONSISTENT_VACUOUS",
    "CONSISTENT_EXCEPTION",
    "UNDECIDED",
    "INCONSISTENT",
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class _Frame:
    __slots__ = ("name", "sid", "child_s", "modp", "bareiss", "degrees")

    def __init__(self, name, sid):
        self.name = name
        self.sid = sid
        self.child_s = 0.0
        self.modp = None  # (rank, ncols) of modp_rref children of a system_dim
        self.bareiss = 0  # bareiss_echelon descendants of a system_dim
        self.degrees = None  # (multiplicities, degree) pairs under alpha_sequence


class Tracer:
    """Spans and counters for one traced phase of a benchmark run."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.op = None
        self._stack = []
        self._next_id = 0
        self._restore = []
        self._t0 = perf_counter()
        self._system_dim_sig = None

    # -- installation ------------------------------------------------------

    def install(self):
        import fatpoints.linsys

        self._system_dim_sig = inspect.signature(fatpoints.linsys.system_dim)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fatpoints" or n.startswith("fatpoints.")) and m]
        for module, attr in LAYERS:
            owner = sys.modules[f"fatpoints.{module}"]
            name = layer_name(module, attr)
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self._next_id
            self._next_id += 1
            frame = _Frame(name, sid)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame.child_s
                if parent is not None:
                    parent.child_s += dur
                self.spans.append((sid, name, start, end,
                                   None if parent is None else parent.sid, self.op))
            if after is not None:
                after(frame, args, kwargs, result)
            return result

        return wrapper

    def _nearest(self, name):
        for frame in reversed(self._stack):
            if frame.name == name:
                return frame
        return None

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- derived counters --------------------------------------------------

    def _after_linsys_modp_rref(self, frame, args, kwargs, result):
        A = args[0] if args else kwargs["A"]
        nrows, ncols = A.shape
        self._count("linsys.modp_rref.entries", nrows * ncols)
        owner = self._nearest("linsys.system_dim")
        if owner is not None:
            if owner.modp is None:
                owner.modp = []
            owner.modp.append((result[0], ncols))

    def _after_linsys_condition_matrix_mod_p(self, frame, args, kwargs, result):
        self._count("linsys.condition_matrix_mod_p.entries", int(result.size))

    def _after_linsys_bareiss_echelon(self, frame, args, kwargs, result):
        rows = args[0] if args else kwargs["rows"]
        self._count("linsys.bareiss_echelon.entries",
                    len(rows) * (len(rows[0]) if rows else 0))
        owner = self._nearest("linsys.system_dim")
        if owner is not None:
            owner.bareiss += 1

    def _after_linsys_system_dim(self, frame, args, kwargs, report):
        from fatpoints.linsys import QQ, MultiPrime

        bound = self._system_dim_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        scheme, d = bound.arguments["scheme"], bound.arguments["d"]
        strategy = bound.arguments["strategy"]
        want_kernel = bound.arguments["want_kernel"]
        modp = frame.modp or []
        if modp and not want_kernel:
            # Existence proved by a positive count needs no rank; a full
            # column rank at the first prime already proves emptiness.
            if report.expected_dim > 0:
                redundant = len(modp)
            elif modp[0][0] == modp[0][1]:
                redundant = len(modp) - 1
            else:
                redundant = 0
            self._count("linsys.modp_rref.redundant", redundant)
        if (modp and isinstance(strategy, MultiPrime)
                and report.certification == "EXACT_RATIONAL"):
            self._count("linsys.system_dim.escalations")
        if want_kernel and scheme.field == QQ and frame.bareiss:
            self._count("linsys.bareiss_echelon.kernel_calls")
            self._count("linsys.bareiss_echelon.kernel_bareiss", frame.bareiss)
        owner = self._nearest("linsys.alpha_sequence")
        if owner is not None:
            if owner.degrees is None:
                owner.degrees = set()
            owner.degrees.add((scheme.multiplicities, d))

    def _after_linsys_alpha_sequence(self, frame, args, kwargs, result):
        self._count("linsys.alpha_sequence.degrees_tried", len(frame.degrees or ()))

    def _verdict(self, frame, args, kwargs, verdict):
        self._count(f"analysis.verdicts.{verdict.status}")

    _after_analysis_check_minimal_gap_collinear = _verdict
    _after_analysis_check_unit_step_arrangement = _verdict
    _after_analysis_check_double_unit_step_collinear = _verdict
    _after_analysis_check_uniform_step_two_conic = _verdict

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer figure of this phase as {name: (value, unit)}."""
        out = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        c = self.counts.get
        modp_calls = self.calls.get("linsys.modp_rref", 0)
        redundant = c("linsys.modp_rref.redundant", 0)
        out["linsys.modp_rref.entries"] = (c("linsys.modp_rref.entries", 0), "entries")
        out["linsys.modp_rref.redundant"] = (redundant, "count")
        out["linsys.modp_rref.useful_frac"] = (
            (modp_calls - redundant) / modp_calls if modp_calls else 0.0, "ratio")
        out["linsys.condition_matrix_mod_p.entries"] = (
            c("linsys.condition_matrix_mod_p.entries", 0), "entries")
        out["linsys.bareiss_echelon.entries"] = (
            c("linsys.bareiss_echelon.entries", 0), "entries")
        kernel_calls = c("linsys.bareiss_echelon.kernel_calls", 0)
        out["linsys.bareiss_echelon.per_exact_call"] = (
            c("linsys.bareiss_echelon.kernel_bareiss", 0) / kernel_calls
            if kernel_calls else 0.0, "ratio")
        out["linsys.system_dim.escalations"] = (c("linsys.system_dim.escalations", 0), "count")
        out["linsys.alpha_sequence.degrees_tried"] = (
            c("linsys.alpha_sequence.degrees_tried", 0), "count")
        for status in VERDICT_STATUSES:
            out[f"analysis.verdicts.{status}"] = (c(f"analysis.verdicts.{status}", 0), "count")
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name,
                    "start": round(start - self._t0, 9), "end": round(end - self._t0, 9),
                    "parent": parent, "op": op,
                }, separators=(",", ":")) + "\n")
