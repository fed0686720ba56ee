"""Start-up cost: `import legscale.cli` and the light commands load only the
modules they run, and the package's lazy exports behave like eager ones."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legscale

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Stdlib modules a light command must not load: `dataclasses` pulls in
# `inspect` and `ast`; `json` and `csv` serve output formats (every command
# writes its own as text).
HEAVY = {"dataclasses", "inspect", "json", "csv"}

# The legscale modules each command loads: `eval` evaluates by scalar
# recurrences and compiles no other command, `table` and `expand` compute
# coefficients only, in `output`, and `verify` runs the sweeps in `verify`,
# adding the derivative routes only for the suites that read them.
CLI = {"legscale", "legscale.cli", "legscale.rationals", "legscale.scaling"}
OUTPUT = CLI | {"legscale.output"}
VERIFY = CLI | {"legscale.polynomials", "legscale.verify"}
DERIVATIVE_VERIFY = VERIFY | {"legscale.derivatives"}


def loaded_modules(code: str) -> set:
    """The modules in sys.modules after a fresh interpreter runs `code`."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    script = code + "\nimport sys\nsys.stderr.write('\\n' + '\\n'.join(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split("\n"))


@pytest.fixture(scope="module")
def baseline():
    return loaded_modules("pass")


def invoke(*argv):
    return f"from legscale.cli import main\nmain({list(argv)!r})"


SUITES = ("eq9", "eq13", "eq19", "eq26", "replay")

# (test id, code, the legscale modules it loads). `table` and `expand` load
# no `verify`, and only eq19 and eq26 load `derivatives`.
LIGHT_PATHS = [
    ("cli", "import legscale.cli", CLI),
    *(
        (f"eval {method}", invoke("eval", "--method", method, "--n", "9", "--lambda", "7/3", "--x", "3/8"), CLI)
        for method in ("direct", "a-form", "b-form")
    ),
    ("table a", invoke("table", "a", "--n-max", "4", "--lambda", "2"), OUTPUT),
    ("table alpha", invoke("table", "alpha", "--n-max", "4"), OUTPUT),
    ("table a json", invoke("table", "a", "--lambda", "2", "--n-max", "4", "--format", "json"), OUTPUT),
    ("table alpha json", invoke("table", "alpha", "--n-max", "4", "--format", "json"), OUTPUT),
    ("table b", invoke("table", "b", "--n-max", "4", "--lambda", "2"), OUTPUT),
    ("expand scaled", invoke("expand", "scaled", "--n", "6", "--lambda", "2"), OUTPUT),
    ("expand deriv", invoke("expand", "deriv", "--n", "6", "--k", "2"), OUTPUT),
    ("expand scaled csv", invoke("expand", "scaled", "--n", "6", "--lambda", "2", "--format", "csv"), OUTPUT),
    ("expand deriv csv", invoke("expand", "deriv", "--n", "6", "--k", "2", "--format", "csv"), OUTPUT),
    ("verify csv", invoke("verify", "eq26", "--n-max", "3", "--format", "csv"), DERIVATIVE_VERIFY),
    *(
        (f"verify {suite} {fmt}", invoke("verify", suite, "--n-max", "3", "--format", fmt),
         DERIVATIVE_VERIFY if suite in ("eq19", "eq26") else VERIFY)
        for suite in SUITES for fmt in ("json", "csv") if (suite, fmt) != ("eq26", "csv")
    ),
    ("verify all", invoke("verify", "all", "--n-max", "3"), DERIVATIVE_VERIFY),
]


@pytest.mark.parametrize(
    "code, modules", [path[1:] for path in LIGHT_PATHS], ids=[path[0] for path in LIGHT_PATHS]
)
def test_light_paths_load_no_heavy_module(baseline, code, modules):
    added = loaded_modules(code) - baseline
    assert not added & HEAVY, sorted(added)
    assert {m for m in added if m.split(".")[0] == "legscale"} == modules


def test_verify_module_loads_no_cli_or_argparse(baseline):
    added = loaded_modules("import legscale.verify") - baseline
    assert not added & {"legscale.cli", "legscale.output", "legscale.derivatives", "argparse"}, sorted(added)


def test_package_import_loads_no_submodule(baseline):
    added = loaded_modules("import legscale") - baseline
    assert sorted(m for m in added if m.startswith("legscale")) == ["legscale"]


def test_no_module_imports_dataclasses(baseline):
    code = "import legscale.cli, legscale.verify, legscale.derivatives, legscale.scaling"
    assert "dataclasses" not in loaded_modules(code) - baseline


def test_submodules_are_attributes_after_import_legscale(baseline):
    code = (
        "import legscale\n"
        "assert legscale.verify.verify_replay(2).passed\n"
        "assert legscale.derivatives.deriv_expand_closed is legscale.deriv_expand_closed\n"
    )
    assert "legscale.verify" in loaded_modules(code) - baseline


def test_every_export_is_its_submodule_object():
    assert list(legscale._EXPORTS) == legscale.__all__
    for name, module in legscale._EXPORTS.items():
        submodule = importlib.import_module(f"legscale.{module}")
        assert name in submodule.__all__, name
        assert getattr(legscale, name) is getattr(submodule, name), name


def test_dir_lists_exports_and_submodules():
    listed = dir(legscale)
    assert set(legscale.__all__) <= set(listed)
    assert {"cli", "verify", "derivatives", "__version__"} <= set(listed)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        legscale.no_such_name
    assert not hasattr(legscale, "verify_everything")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from legscale import *", namespace)
    assert {name: namespace[name] for name in legscale.__all__} == {
        name: getattr(legscale, name) for name in legscale.__all__
    }
