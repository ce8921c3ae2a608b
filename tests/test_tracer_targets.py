"""Guard for the benchmark's traced run.

`bench/tracer.py` wraps library functions by name, private kernels and
scanner methods included, and a traced run dies on a name that no longer
resolves.  This test loads the tracer from its file, without importing
the benchmark package, and checks every name it wraps.  It also checks
that the acceptance runners sit where the tracer can swap them.
"""

import importlib
import importlib.util
import pathlib

from nottorsion import acceptance

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nottorsion_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    tracer = _load_tracer()
    assert tracer.WRAPPED
    missing = []
    for module, attr, *_ in tracer.WRAPPED:
        owner = importlib.import_module("nottorsion." + module)
        if "." in attr:
            # methods are wrapped through the class dict, so they must be
            # defined on the class itself
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            ok = cls is not None and callable(vars(cls).get(meth))
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append("%s.%s" % (module, attr))
    assert missing == []


def test_criteria_is_a_flat_tuple_of_the_module_runners():
    # the tracer swaps a wrapped function in module attributes and in flat
    # tuples only; a runner kept anywhere else would lose its span
    assert type(acceptance.CRITERIA) is tuple
    assert acceptance.CRITERIA == tuple(
        getattr(acceptance, "run_criterion_%d" % k) for k in range(1, 7)
    )
