from types import ModuleType

import momexp


def test_all_exports_names_not_submodules():
    exported = {name: getattr(momexp, name) for name in momexp.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    # the submodules stay importable as attributes; they are just not exported
    assert isinstance(momexp.solver, ModuleType) and "solver" not in exported
    namespace = {}
    exec("from momexp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)
