"""The package namespace: names imported with the package and names
re-exported from derivations and verification on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import octsieve

SUBMODULES = ("algebra", "derivations", "dsl", "sieve", "verification")
DEFERRED = ("derivations", "verification")
PUBLIC = [name for name in octsieve.__all__ if name != "__version__"]


@pytest.fixture
def uncached(monkeypatch):
    """The package as a bare import leaves it: no deferred name or module bound yet."""
    for name in (*octsieve._HOME, *DEFERRED):
        monkeypatch.delitem(vars(octsieve), name, raising=False)


def home(name):
    """The one submodule whose ``__all__`` lists ``name``."""
    (module,) = [m for m in map(importlib.import_module, (f"octsieve.{s}" for s in SUBMODULES))
                 if name in m.__all__]
    return module


def test_all_lists_each_name_once():
    assert len(octsieve.__all__) == len(set(octsieve.__all__))


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_the_object_in_its_module(uncached, name):
    assert getattr(octsieve, name) is getattr(home(name), name)
    assert name in vars(octsieve)  # kept: the next read is a plain lookup


def test_star_import_binds_all_of_all(uncached):
    namespace = {}
    exec("from octsieve import *", namespace)
    assert set(octsieve.__all__) <= namespace.keys()
    for name in PUBLIC:
        assert namespace[name] is getattr(home(name), name)


def test_dir_lists_all_and_the_deferred_modules(uncached):
    listed = dir(octsieve)
    assert listed == sorted(listed)
    assert {*octsieve.__all__, *DEFERRED} <= set(listed)


def test_a_deferred_module_is_an_attribute_of_the_package(uncached):
    for name in DEFERRED:
        assert getattr(octsieve, name) is sys.modules[f"octsieve.{name}"]


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'octsieve' has no attribute 'no_such_name'$"):
        octsieve.no_such_name
    assert not hasattr(octsieve, "integer_rank")  # in derivations, but not re-exported


def test_a_bare_import_reads_the_deferred_modules_and_keeps_sieve_the_function():
    # a fresh interpreter: in this one the tests have imported every module
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import octsieve\n"
        "deferred = sys.argv[2:]\n"
        "assert not any(f'octsieve.{m}' in sys.modules for m in deferred)\n"
        "for m in deferred:\n"
        "    assert getattr(octsieve, m) is sys.modules[f'octsieve.{m}'], m\n"
        "assert octsieve.sieve is sys.modules['octsieve.sieve'].sieve\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src), *DEFERRED],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
