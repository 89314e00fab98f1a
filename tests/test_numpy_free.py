"""A process loads only what it runs: `import quadclass`, a `classgroup`
query, the public single-form API and a `sieve-count` each run in a fresh
interpreter, which must end without numpy or concurrent.futures.process in
sys.modules. `import quadclass` loads no submodule the package names
lazily, and a query loads neither the experiments nor the numpy batch nor
any of concurrent.futures, nor dataclasses, inspect or (rendering csv)
json. A survey loads numpy only to compute a discriminant: a warm one
computes nothing, so it loads neither numpy nor the batch nor dataclasses
or inspect, nor the forms unless it builds a certificate's class data, and
without --jobs above 1 no pool. A survey that computes loads no numpy.ma.
A CLI run leaves numpy's OpenBLAS one thread unless the user chose a
count."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 1000000021 and -1000000019 are fundamental; at |D| ~ 10^9 the query
# lists its reduced forms by a (_roots_mod_2a) with the primes up to
# sqrt|D| or sqrt(|D|/3) from primes_upto.
_QUERY = """
from quadclass import arith, cli, forms
listed = []
roots = forms._roots_mod_2a
forms._roots_mod_2a = lambda *args: listed.append(args) or roots(*args)
assert cli.run(["classgroup", "--d", "{d}"]) == 0
assert listed and arith._prime_limit >= 10 ** 4
"""

# A query loads neither the bulk route nor dataclasses (which imports
# inspect) nor, rendering csv, json.
_NOT_QUERIED = ["quadclass.batch", "quadclass.experiments", "concurrent.futures",
                "dataclasses", "inspect", "json"]

# name -> (script, the modules it must leave unloaded besides numpy and
# concurrent.futures.process); a module stands for its submodules too
SCRIPTS = {
    "import": ("import quadclass",
               ["quadclass.forms", "quadclass.experiments", "quadclass.batch"]),
    "classgroup-positive": (_QUERY.format(d=1000000021), _NOT_QUERIED),
    "classgroup-negative": (_QUERY.format(d=-1000000019), _NOT_QUERIED),
    "single-form-api": ("""
        from quadclass import (class_group_info, compose, enumerate_classes, reduce_form,
                               three_torsion_count, unit_norm)
        for d in (12, 229, 1129, -23, -3299):
            info = class_group_info(d)
            classes = enumerate_classes(d)
            assert len(classes) == info.h_plus
            assert three_torsion_count(d) == info.three_torsion_count
            x = classes[-1]
            assert reduce_form(x.canonical_form) == x
            assert compose(x, x) in classes
        assert (unit_norm(12), unit_norm(229)) == (1, -1)
    """, _NOT_QUERIED),
    "sieve-count": ("""
        from quadclass import cli
        assert cli.run(["sieve-count", "--x", "1000000", "--k", "12", "--l", "5"]) == 0
    """, _NOT_QUERIED),
}


def _run_fresh(script, absent=(), env=None):
    """Run script in a fresh interpreter that must end with none of the
    modules absent (or their submodules) loaded; returns its stdout."""
    script = textwrap.dedent(script) + textwrap.dedent(f"""
        import sys
        absent = {list(absent)!r}
        loaded = [m for m in sys.modules if any(m == a or m.startswith(a + ".") for a in absent)]
        assert not loaded, loaded
    """)
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_numpy_not_loaded(name):
    script, absent = SCRIPTS[name]
    _run_fresh(script, ["numpy", "concurrent.futures.process", *absent])


_SURVEY = """
import sys
from quadclass import cli
assert cli.run({argv!r}) == 0
"""

# A survey of each route: real members, the pair sets, imaginary members,
# and the lambda certificates. The N = 16 families take the even
# fundamental discriminants, D = 8 (mod 16) for D > 0 and D = 12 (mod 16)
# for D < 0.
SURVEYS = {
    "nh-average": ["--m", "1", "--n", "4"],
    "indivisibility": ["--m", "8", "--n", "16"],
    "pairs": ["--m", "1", "--n", "4", "--t", "8"],
    "imaginary": ["--m", "12", "--n", "16"],
    "lambda": ["--m", "17", "--n", "12", "--t", "12"],
}


@pytest.mark.parametrize("name", SURVEYS)
def test_warm_survey_computes_nothing(name, tmp_path):
    argv = [name, "--x", "3000", *SURVEYS[name], "--cache", str(tmp_path / "c.txt")]
    # A computing run leaves numpy.ma unloaded: the first np.unique or np.isin
    # of a process imports it, 9-13 ms on a 2-vCPU Xeon.
    cold = _run_fresh(_SURVEY.format(argv=argv) + "assert 'quadclass.batch' in sys.modules\n",
                      ["numpy.ma"])
    # A warm lambda run builds the ClassGroupInfo of each certificate, which
    # the forms define; they load no numpy.
    absent = ["numpy", "dataclasses", "inspect", "quadclass.batch", "concurrent.futures.process",
              *(["quadclass.forms"] if name != "lambda" else [])]
    warm = _run_fresh(_SURVEY.format(argv=argv), absent)
    assert warm == cold


_BLAS = """
import os
from quadclass import cli
assert cli.run(["nh-average", "--x", "300", "--m", "1", "--n", "4"]) == 0
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
import numpy as np
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except (TypeError, KeyError):  # an older numpy has no dicts mode
    blas = ""
print(os.environ["OPENBLAS_NUM_THREADS"], threads if "openblas" in blas.lower() else None)
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_keeps_openblas_to_one_thread(preset):
    """quadclass calls no BLAS routine, so a CLI run sets one OpenBLAS thread
    before numpy starts its pool; a count the user set wins."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    value, threads = _run_fresh(_BLAS, env=env).split()[-2:]
    assert value == (preset or "1")
    if preset is None and threads != "None":
        assert threads == "1"
