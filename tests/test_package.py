"""The package's public surface, which loads each module on first use."""

import subprocess
import sys

import pytest

import descentlab


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, descentlab; "
         "print([m for m in sys.modules if m.startswith('descentlab.')])"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_public_name_is_the_object_its_module_defines():
    for name in descentlab.__all__:
        obj = getattr(descentlab, name)
        owner = sys.modules[obj.__module__]
        assert owner.__name__.startswith("descentlab."), name
        assert getattr(owner, name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from descentlab import *", namespace)
    assert {name: namespace[name] for name in descentlab.__all__} == {
        name: getattr(descentlab, name) for name in descentlab.__all__}
    assert set(descentlab.__all__) <= set(dir(descentlab))


def test_submodules_import_from_the_package():
    code = ("import sys; from descentlab import families; "
            "print(families is sys.modules['descentlab.families'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "True"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        descentlab.no_such_name
    with pytest.raises(ImportError):
        exec("from descentlab import no_such_name", {})
