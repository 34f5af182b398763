"""Print the options census of `src/clustertm`: the number of settings a user can change.

It counts each field of the three config dataclasses (`PreprocessOptions`,
`SgnsConfig`, `TrainConfig`) and each defaulted parameter of the public
functions, and of the public methods of the public classes that are not
dataclasses, in the package's modules. The fields of state dataclasses such as
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


def census() -> list[str]:
    options = []
    for module_name in MODULES:
        module = importlib.import_module(f"clustertm.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                if name in CONFIGS:
                    options += [f"{name}.{f.name}" for f in dataclasses.fields(obj)]
            elif inspect.isclass(obj):
                options += [opt for attr, member in vars(obj).items() if inspect.isfunction(member)
                            and (attr == "__init__" or not attr.startswith("_"))
                            for opt in _defaulted(f"{name}.{attr}", member)]
            elif inspect.isfunction(obj):
                options += _defaulted(name, obj)
    return options


if __name__ == "__main__":
    found = census()
    if "--list" in sys.argv[1:]:
        print("\n".join(found))
    print(len(found))
