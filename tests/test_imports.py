"""The import contract: a fresh process runs only the code its algebra needs.

`diagrams` and `bmw` are registered as lazily executed submodules: both
sit in `sys.modules` from the package import on, and each runs on its
first attribute access.  The fallback field, `ratfunc`, is imported only
by `LaurentFraction.inverse` when a value leaves LaurentFraction's ring.
Each probe runs in a fresh interpreter, since the test process has long
loaded everything.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the package's layers, each a module a per-layer tracer reads right after
# the package import
LAYERS = ("_kernel", "coeff", "linalg", "diagrams", "hecke", "bmw", "combinatorics", "towers", "framework")

# a lazy module's type stays the loader's own until its code runs
PROBE = """
import contextlib, io, json, sys, types
import cellular_towers
from cellular_towers import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
prefix = "cellular_towers."
print(json.dumps({
    "code": code,
    "present": [m[len(prefix):] for m in sys.modules if m.startswith(prefix)],
    "executed": [m[len(prefix):] for m, mod in sys.modules.items()
                 if m.startswith(prefix) and type(mod) is types.ModuleType],
}))
"""


def run(script, *argv):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )


def probe(*argv):
    return json.loads(run(PROBE, *argv).stdout.splitlines()[-1])


def test_every_layer_is_registered_at_import():
    got = probe()
    assert set(LAYERS) <= set(got["present"])
    assert "diagrams" not in got["executed"] and "bmw" not in got["executed"]
    assert "ratfunc" not in got["present"]


@pytest.mark.parametrize("algebra,skipped", [
    ("hecke", {"diagrams", "bmw", "ratfunc"}),
    ("brauer", {"bmw", "ratfunc"}),
])
def test_verify_executes_only_its_algebra(algebra, skipped):
    got = probe("verify", "--algebra", algebra, "--n", "3", "--all")
    assert got["code"] == 0
    assert not skipped & set(got["executed"])
    assert set(LAYERS) - skipped <= set(got["executed"])


def test_the_fallback_field_loads_on_first_use():
    run(
        "import sys, cellular_towers\n"
        "from cellular_towers.coeff import LaurentFraction, LaurentPoly\n"
        "q = LaurentPoly.gen(('q',), 'q')\n"
        "assert 'cellular_towers.ratfunc' not in sys.modules\n"
        "x = LaurentFraction(q + 2).inverse()\n"
        "assert 'cellular_towers.ratfunc' in sys.modules\n"
        "assert type(x) is cellular_towers.RationalFunction\n"
    )
