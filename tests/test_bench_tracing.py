"""The benchmark tracer's contract with the package: every function and
method it wraps must exist where it looks for it, and installing and
uninstalling it must leave the package as it was."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import tracing  # noqa: E402

import momexp.cli  # noqa: E402,F401  (loads every traced module)


def _module(name):
    return importlib.import_module(f"momexp.{name}")


def _snapshot():
    """Every attribute of every momexp module and traced class, by identity."""
    owners = [m for k, m in sys.modules.items() if k == "momexp" or k.startswith("momexp.")]
    owners += [getattr(_module(mod), cls) for mod, cls, _, _ in tracing.METHODS]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_every_traced_function_resolves():
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.FUNCTIONS
               if not callable(getattr(_module(mod), attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    missing = [f"{cls}.{attr}" for mod, cls, attr, _ in tracing.METHODS
               if attr not in vars(getattr(_module(mod), cls))]
    assert missing == []


def test_install_uninstall_restores_the_originals():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        wrapped = {key for key, val in before.items() if during[key] is not val}
        assert len(wrapped) >= len(tracing.FUNCTIONS) + len(tracing.METHODS)
        assert all(during[key].__wrapped__ is before[key] for key in wrapped)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
