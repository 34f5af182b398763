import importlib.util
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "options_census.py"

FAKE_MODULE = '''
import dataclasses
from clustertm.corpus import check_int  # imported: counted in its own module


def public(a, b=1, *, c=None):
    pass


def _private(a=1):
    pass


class Plain:
    def __init__(self, x, y=2):
        pass

    def method(self, z=3):
        pass

    @classmethod
    def make(cls, w=4):
        pass

    @staticmethod
    def helper(v=5):
        pass

    def _hidden(self, u=6):
        pass

    @property
    def size(self):
        return 0


@dataclasses.dataclass
class State:
    n: int = 0

    @classmethod
    def empty(cls, n=0):
        pass

    def grow(self, by=1):
        pass


@dataclasses.dataclass
class SgnsConfig:
    window: int = 5
    epochs: int = 5

    def __post_init__(self, unused=None):
        pass

    @staticmethod
    def preset(name="small"):
        pass
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("options_census", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_census_counts_defaulted_parameters_of_every_public_callable_and_config_fields():
    module = types.ModuleType("fake_census_module")
    exec(FAKE_MODULE, module.__dict__)
    assert load_tool().module_options(module) == [
        "public(b=)", "public(c=)",
        "Plain.__init__(y=)", "Plain.method(z=)", "Plain.make(w=)", "Plain.helper(v=)",
        "State.empty(n=)", "State.grow(by=)",
        "SgnsConfig.window", "SgnsConfig.epochs", "SgnsConfig.preset(name=)",
    ]

