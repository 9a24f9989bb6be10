"""In-memory span tracer for the mmframes benchmark.

The tracer times calls into the package from outside it: it rebinds every
module-level reference to a public mmframes function in every loaded
``mmframes.*`` module (so a ``from mmframes.calculus import ...`` binding in
``frames`` is caught too), replaces the public methods of the classes those
modules define, and wraps ``cli.Context.get`` and the ``cli.SUITES`` entries.
A span is ``[label id, start, end, parent span, request id]``; spans stay in
a list until the run ends.  ``restore`` puts every original binding back.
"""

import inspect
import sys
import time
import traceback

PACKAGE = "mmframes"
MODULES = ("cli", "space", "calculus", "frames", "seqspace", "addiag",
           "molecules", "multiplier")
_MARK = "__perfbench_original__"
_TRACEBACK_FRAMES = 3


def _short(module_name):
    return module_name[len(PACKAGE) + 1:] if module_name != PACKAGE else PACKAGE


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public_package_function(fn):
    return (inspect.isfunction(fn) and not fn.__name__.startswith("_")
            and (fn.__module__ or "").startswith(PACKAGE + "."))


class Tracer:
    """Span recorder; ``install`` patches the package, ``restore`` undoes it.

    ``observe`` maps a span label to ``callback(result)``; it runs after a
    call with that label returns, outside the span.
    """

    def __init__(self, observe=None):
        self.labels = []
        self.label_module = []
        self._label_ids = {}
        self.spans = []
        self.request = 0
        self.errors = []
        self.observe = dict(observe or {})
        self._stack = []
        self._patches = []
        self._wrappers = {}

    # -- recording ---------------------------------------------------------

    def label_id(self, label, module):
        lid = self._label_ids.get(label)
        if lid is None:
            lid = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.label_module.append(module)
        return lid

    def call(self, lid, fn, args, kwargs):
        """Run ``fn`` inside a span with label id ``lid``."""
        stack = self._stack
        span = [lid, 0.0, 0.0, stack[-1] if stack else -1, self.request]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _notify(self, label, result):
        callback = self.observe.get(label)
        if callback is not None:
            callback(result)

    # -- patching ----------------------------------------------------------

    def _wrap_function(self, fn, label, module):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        lid = self.label_id(label, module)
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(lid, fn, args, kwargs)
            tracer._notify(label, out)
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _wrap_context_get(self, get):
        tracer = self

        def traced_get(ctx, name):
            label = "resource." + name
            out = tracer.call(tracer.label_id(label, "cli"), get, (ctx, name), {})
            tracer._notify(label, out)
            return out

        setattr(traced_get, _MARK, get)
        return traced_get

    def _wrap_suite(self, name, fn):
        tracer = self
        lid = self.label_id("suite." + name, "cli")

        def traced_suite(ctx):
            try:
                return tracer.call(lid, fn, (ctx,), {})
            except Exception as exc:
                frames = [fr for fr in traceback.extract_tb(exc.__traceback__)
                          if fr.filename != __file__]
                tail = traceback.format_list(frames[-_TRACEBACK_FRAMES:])
                tracer.errors.append({
                    "suite": name, "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback_tail": "".join(tail).splitlines()})
                raise

        setattr(traced_suite, _MARK, fn)
        return traced_suite

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Patch every loaded mmframes module; call once, before the run."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        cli = sys.modules.get(PACKAGE + ".cli")
        if cli is not None:
            self._patch(cli.Context, "get",
                        self._wrap_context_get(cli.Context.get))
            for name, (anchor, desc, fn) in list(cli.SUITES.items()):
                if fn is not None:
                    cli.SUITES[name] = (anchor, desc, self._wrap_suite(name, fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if _public_package_function(val):
                    self._patch(mod, attr, self._wrap_function(
                        val, "%s.%s" % (_short(val.__module__), val.__name__),
                        _short(val.__module__)))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._patch_methods(val, _short(mod.__name__))

    def _patch_methods(self, cls, module):
        for attr, val in list(vars(cls).items()):
            if (attr.startswith("_") or not inspect.isfunction(val)
                    or hasattr(val, _MARK)):
                continue
            self._patch(cls, attr, self._wrap_function(
                val, "%s.%s.%s" % (module, cls.__name__, attr), module))

    def restore(self):
        """Undo every patch, newest first."""
        cli = sys.modules.get(PACKAGE + ".cli")
        if cli is not None:
            for name, (anchor, desc, fn) in list(cli.SUITES.items()):
                if fn is not None and hasattr(fn, _MARK):
                    cli.SUITES[name] = (anchor, desc, getattr(fn, _MARK))
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    # -- self-checks -------------------------------------------------------

    def restore_problems(self):
        """Bindings that still differ from the original after ``restore``."""
        problems = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
                    for owner, attr, original in self._patches
                    if owner.__dict__.get(attr) is not original]
        for mod in _package_modules():
            for attr, val in vars(mod).items():
                if hasattr(val, _MARK):
                    problems.append("%s.%s" % (mod.__name__, attr))
                elif inspect.isclass(val):
                    problems.extend("%s.%s" % (val.__qualname__, name)
                                    for name, meth in vars(val).items()
                                    if hasattr(meth, _MARK))
        cli = sys.modules.get(PACKAGE + ".cli")
        if cli is not None:
            problems.extend("cli.SUITES[%s]" % name
                            for name, entry in cli.SUITES.items()
                            if hasattr(entry[2], _MARK))
        return problems

    def nesting_problems(self):
        """Spans left open, or not inside their parent span and request."""
        problems = []
        if self._stack:
            problems.append("%d spans still open" % len(self._stack))
        for idx, (lid, start, end, parent, req) in enumerate(self.spans):
            if end < start:
                problems.append("span %d ends before it starts" % idx)
            if parent >= 0:
                p = self.spans[parent]
                if not (p[1] <= start and end <= p[2] and p[4] == req):
                    problems.append("span %d (%s) escapes parent %d (%s)" % (
                        idx, self.labels[lid], parent, self.labels[p[0]]))
            if len(problems) > 20:
                break
        return problems

    def has_call(self, parent_label, child_label):
        """True when a ``child_label`` span has a ``parent_label`` parent."""
        pid = self._label_ids.get(parent_label)
        cid = self._label_ids.get(child_label)
        if pid is None or cid is None:
            return False
        return any(s[0] == cid and s[3] >= 0 and self.spans[s[3]][0] == pid
                   for s in self.spans)

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """Per-module self time and calls, per-label inclusive time and
        calls, and per-resource inclusive and exclusive time, in seconds.

        Self time is span time minus the time of its child spans.  Label
        time counts only the outermost span of a label on each call chain.
        A resource's exclusive time leaves out the nested resources it
        built.
        """
        spans, labels = self.spans, self.labels
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for idx, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[idx]
        is_resource = [lab.startswith("resource.") for lab in labels]
        out = {"trace.spans": len(spans)}
        for mod in MODULES:
            out[mod + ".self_s"] = 0.0
            out[mod + ".calls"] = 0
        for idx, s in enumerate(spans):
            lid = s[0]
            mod = self.label_module[lid]
            out[mod + ".self_s"] = out.get(mod + ".self_s", 0.0) + dur[idx] - child[idx]
            out[mod + ".calls"] = out.get(mod + ".calls", 0) + 1
            outermost = True
            nearest_resource = -1
            p = s[3]
            while p >= 0:
                plid = spans[p][0]
                if plid == lid:
                    outermost = False
                if nearest_resource < 0 and is_resource[plid]:
                    nearest_resource = p
                p = spans[p][3]
            lab = labels[lid]
            if is_resource[lid]:
                if outermost:
                    key = lab + ".incl_s"
                    out[key] = out.get(key, 0.0) + dur[idx]
                key = lab + ".excl_s"
                out[key] = out.get(key, 0.0) + dur[idx]
                if nearest_resource >= 0:
                    key = labels[spans[nearest_resource][0]] + ".excl_s"
                    out[key] = out.get(key, 0.0) - dur[idx]
                continue
            if outermost:
                out[lab + ".s"] = out.get(lab + ".s", 0.0) + dur[idx]
            out[lab + ".calls"] = out.get(lab + ".calls", 0) + 1
        return out

    def dump(self):
        """Spans in a JSON-ready form, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "fields": ["label", "start_s", "end_s", "parent", "request"],
            "labels": self.labels,
            "label_module": self.label_module,
            "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
                      for s in self.spans],
        }
