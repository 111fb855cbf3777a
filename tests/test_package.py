"""The package namespace: the names of algebra, dsl and sieve, bound when
the package is imported; derivations and verification are imported by
their callers."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import octsieve

SUBMODULES = ("algebra", "derivations", "dsl", "sieve", "verification")
DEFERRED = ("derivations", "verification")
PUBLIC = [name for name in octsieve.__all__ if name != "__version__"]
# The names a caller imports from derivations and verification, not the package.
MOVED = {"antiassoc_closed_form": "derivations", "cross_algebra_equal": "derivations",
         "derivation_span_rank": "derivations", "derive": "derivations",
         "expr_cross_algebra_equal": "derivations", "leibniz_check": "derivations",
         "run_checks": "verification"}


def home(name):
    """The one submodule whose ``__all__`` lists ``name``."""
    (module,) = [m for m in map(importlib.import_module, (f"octsieve.{s}" for s in SUBMODULES))
                 if name in m.__all__]
    return module


def test_all_lists_each_name_once():
    assert len(octsieve.__all__) == len(set(octsieve.__all__)) == 26


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_is_the_object_in_its_module(name):
    assert home(name).__name__ not in (f"octsieve.{m}" for m in DEFERRED)
    assert vars(octsieve)[name] is getattr(home(name), name)


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from octsieve import *", namespace)
    assert set(octsieve.__all__) <= namespace.keys()
    for name in PUBLIC:
        assert namespace[name] is getattr(home(name), name)


def test_dir_lists_all():
    assert set(octsieve.__all__) <= set(dir(octsieve))


def test_the_package_defines_no_module_getattr_or_dir():
    assert "__getattr__" not in vars(octsieve) and "__dir__" not in vars(octsieve)


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'octsieve' has no attribute 'no_such_name'$"):
        octsieve.no_such_name
    assert not hasattr(octsieve, "integer_rank")  # in derivations, not the package


@pytest.mark.parametrize("name", sorted(MOVED))
def test_a_name_of_derivations_or_verification_is_imported_from_its_module(name):
    module = importlib.import_module(f"octsieve.{MOVED[name]}")
    assert home(name) is module and callable(getattr(module, name))
    assert name not in octsieve.__all__ and not hasattr(octsieve, name)
    with pytest.raises(ImportError, match=rf"^cannot import name '{name}' from 'octsieve'"):
        exec(f"from octsieve import {name}", {})


def test_the_deferred_modules_import_from_the_package():
    from octsieve import derivations, verification

    assert (derivations, verification) == tuple(sys.modules[f"octsieve.{m}"] for m in DEFERRED)
    assert (octsieve.derivations, octsieve.verification) == (derivations, verification)


def test_a_bare_import_loads_neither_deferred_module_and_keeps_sieve_the_function():
    # a fresh interpreter: in this one the tests have imported every module
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import octsieve\n"
        "deferred = sys.argv[2:]\n"
        "assert not any(f'octsieve.{m}' in sys.modules for m in deferred)\n"
        "assert not any(hasattr(octsieve, m) for m in deferred)\n"
        "from octsieve import derivations, verification\n"
        "assert (derivations, verification) == tuple(sys.modules[f'octsieve.{m}'] for m in deferred)\n"
        "assert octsieve.sieve is sys.modules['octsieve.sieve'].sieve\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src), *DEFERRED],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
