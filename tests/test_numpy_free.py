"""A query process loads only what it runs: `import quadclass`, a `classgroup`
query, the public single-form API and a `sieve-count` each run in a fresh
interpreter, which must end without numpy or concurrent.futures.process in
sys.modules. `import quadclass` loads no submodule the package names
lazily, and a query loads neither the experiments nor the numpy batch nor
any of concurrent.futures. Surveys and `--cache` do load numpy, and surveys
with --jobs above 1 the pool; their own tests cover them."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 1000000021 and -1000000019 are fundamental; at |D| ~ 10^9 neither the
# divisor table nor a small-prime list covers the scan, so the query sieves
# it (_sieved_windows) with primes from primes_upto.
_QUERY = """
from quadclass import arith, cli, forms
sieved = []
sieve = forms._sieved_windows
forms._sieved_windows = lambda *args: sieved.append(args) or sieve(*args)
assert cli.run(["classgroup", "--d", "{d}"]) == 0
assert sieved and arith._prime_limit >= 10 ** 4
"""

_BULK = ["quadclass.batch", "quadclass.experiments", "concurrent.futures"]

# name -> (script, the modules it must leave unloaded besides numpy and
# concurrent.futures.process); a module stands for its submodules too
SCRIPTS = {
    "import": ("import quadclass",
               ["quadclass.forms", "quadclass.experiments", "quadclass.batch"]),
    "classgroup-positive": (_QUERY.format(d=1000000021), _BULK),
    "classgroup-negative": (_QUERY.format(d=-1000000019), _BULK),
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
    """, _BULK),
    "sieve-count": ("""
        from quadclass import cli
        assert cli.run(["sieve-count", "--x", "1000000", "--k", "12", "--l", "5"]) == 0
    """, _BULK),
}


@pytest.mark.parametrize("name", SCRIPTS)
def test_numpy_not_loaded(name):
    script, absent = SCRIPTS[name]
    absent = ["numpy", "concurrent.futures.process", *absent]
    script = textwrap.dedent(script) + textwrap.dedent(f"""
        import sys
        absent = {absent!r}
        loaded = [m for m in sys.modules if any(m == a or m.startswith(a + ".") for a in absent)]
        assert not loaded, loaded
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
