"""The single-discriminant path never loads numpy or the process pool:
`import quadclass`, a `classgroup` query and the public single-form API each
run in a fresh interpreter, which must end without numpy or
concurrent.futures.process in sys.modules. Surveys, `sieve-count` and
`--cache` do load numpy, and surveys with --jobs above 1 the pool; their own
tests cover them."""

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

SCRIPTS = {
    "import": "import quadclass",
    "classgroup-positive": _QUERY.format(d=1000000021),
    "classgroup-negative": _QUERY.format(d=-1000000019),
    "single-form-api": """
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
    """,
}


@pytest.mark.parametrize("name", SCRIPTS)
def test_numpy_not_loaded(name):
    script = textwrap.dedent(SCRIPTS[name]) + textwrap.dedent("""
        import sys
        assert 'numpy' not in sys.modules
        assert 'concurrent.futures.process' not in sys.modules
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
