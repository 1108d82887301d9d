"""The package's public surface, which loads each module on first use, and
what each CLI command loads."""

import json
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


def _records():
    """(record, one of its fields) for each record type of the library."""
    from fractions import Fraction as F

    from descentlab import compositions, diagnostics, families, moments, processes
    from descentlab.tags import ProcessKind

    traj = processes.simulate("derangement", 12, seed=1, record=True)
    report = moments.moment_table("involution", [6])[0]
    state = processes.ProcessState(ProcessKind.INVOLUTION, 2, 1, 1)
    return [
        (compositions.JumpWord((1, 2, 1)), "letters"),
        (compositions.Composition((1, 2)), "parts"),
        (compositions.constant_rule(F(1, 3)), "order"),
        (compositions.BernoulliSpec(F(1, 2), 1, -1), "p"),
        (families.ExactPmf(0, [F(1, 4), F(3, 4)]), "counts"),
        (report, "asymptotics"),
        (report.report, "variance"),
        (diagnostics.clt_table("involution", [16, 32]), "records"),
        (diagnostics.clt_table("involution", [16]).records[0], "K"),
        (diagnostics.identity_check("stan1", 6), "holds"),
        (diagnostics.condition_scan("involution", [10])[0], "second_norm"),
        (state, "last"),
        (processes.jump_distribution(state), "entries"),
        (processes.RationalPmf(((F(0), F(1)),)), "outcomes"),
        (traj, "final"),
        (traj.decomposition, "parts"),
        (traj.decomposition.parts[0], "x"),
    ]


RECORD_NAMES = ["JumpWord", "Composition", "JumpProbabilityRule", "BernoulliSpec",
                "ExactPmf", "MomentRow", "MomentReport", "CltResult", "CltRecord",
                "IdentityReport", "ConditionRow", "ProcessState", "JumpDistribution",
                "RationalPmf", "Trajectory", "Decomposition", "PartRecord"]


@pytest.mark.parametrize("index", range(len(RECORD_NAMES)),
                         ids=lambda i: RECORD_NAMES[i])
def test_records_are_immutable_and_copy_to_equal_records(index):
    import copy

    record, field = _records()[index]
    assert type(record).__name__ == RECORD_NAMES[index]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, field) is value
    assert repr(record).startswith(f"{RECORD_NAMES[index]}(")
    twin = copy.deepcopy(record)
    assert twin == record
    if RECORD_NAMES[index] != "MomentRow":  # its asymptotics are a dict
        assert hash(twin) == hash(record)


# The package modules each command loads, as the README lists them.
BASE = {"cli", "tags"}
EXACT = BASE | {"errors", "families"}
RECORDED = EXACT | {"processes", "compositions", "rng"}
COMMAND_MODULES = {
    "triangle": (["triangle", "--family", "derangement", "--n", "6"], EXACT),
    "moments": (["moments", "--family", "derangement", "--n", "8"], EXACT | {"moments"}),
    "clt": (["clt", "--family", "involution", "--n-set", "16,32"],
            EXACT | {"diagnostics"}),
    "identities": (["identities", "--check", "stan2", "--n-max", "5"],
                   EXACT | {"diagnostics"}),
    "decompose": (["decompose", "--process", "derangement", "--n", "10"], RECORDED),
    "simulate --record": (["simulate", "--process", "derangement", "--n", "10",
                           "--replicates", "3", "--threads", "1", "--record", "{dir}/a.csv"],
                          RECORDED),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_its_own_modules_and_no_dataclasses(command, tmp_path):
    # ``dataclasses`` costs about a millisecond per class it makes, and it
    # loads ``inspect``; every command pays its imports in a fresh process.
    argv, expected = COMMAND_MODULES[command]
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    code = ("import json, sys\n"
            "from descentlab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, check=True)
    status, modules = json.loads(proc.stdout)
    assert status == 0
    assert {m.split(".", 1)[1] for m in modules if m.startswith("descentlab.")} == expected
    assert "dataclasses" not in modules and "inspect" not in modules
