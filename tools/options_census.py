"""Print the options census of `src/clustertm`: the number of settings a user can change.

It counts each field of the three config dataclasses (`PreprocessOptions`,
`SgnsConfig`, `TrainConfig`) and each defaulted parameter of the public
functions, and of the public methods, classmethods and staticmethods of the
public classes, in the package's modules. A class's `__init__` counts too,
unless a dataclass generated it: the fields of state dataclasses such as
`ModelParams`, `TrainReport` and `ClusterModel` are not options and are not
counted. Run:

    python3 tools/options_census.py          # prints the total
    python3 tools/options_census.py --list   # and each counted option
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

MODULES = ("cli", "cluster", "corpus", "lda_baseline", "manifest", "metrics", "model", "sgns",
           "training")
CONFIGS = ("PreprocessOptions", "SgnsConfig", "TrainConfig")


def _defaulted(name: str, func) -> list[str]:
    params = inspect.signature(func).parameters.values()
    return [f"{name}({p.name}=)" for p in params if p.default is not p.empty]


def _methods(name: str, cls) -> list[str]:
    options = []
    for attr, member in vars(cls).items():
        if attr.startswith("_") and (attr != "__init__" or dataclasses.is_dataclass(cls)):
            continue
        func = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
        if inspect.isfunction(func):
            options += _defaulted(f"{name}.{attr}", func)
    return options


def module_options(module) -> list[str]:
    """The options of one module: config fields, then defaulted parameters."""
    options = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if dataclasses.is_dataclass(obj) and name in CONFIGS:
            options += [f"{name}.{f.name}" for f in dataclasses.fields(obj)]
        if inspect.isclass(obj):
            options += _methods(name, obj)
        elif inspect.isfunction(obj):
            options += _defaulted(name, obj)
    return options


def census() -> list[str]:
    return [opt for name in MODULES
            for opt in module_options(importlib.import_module(f"clustertm.{name}"))]


if __name__ == "__main__":
    found = census()
    if "--list" in sys.argv[1:]:
        print("\n".join(found))
    print(len(found))
