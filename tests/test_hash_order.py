"""Printed output does not depend on hash order.

Atoms hash by identity and strings by a per-process seed, so a set or
dict walked in hash order would print differently from run to run.  Each
request below runs in its own process under three string-hash seeds, and
its exit code, stdout and stderr must be the same under all of them.  A
collect that walked a set of variables named w under seeds 0 and 1 and
y under seed 2 in the first request's message."""

import os
import subprocess
import sys

import pytest

import noncartan

SRC = os.path.dirname(os.path.dirname(os.path.abspath(noncartan.__file__)))
MAIN = "import sys; from noncartan.cli import main; sys.exit(main(sys.argv[1:]))"

REQUESTS = [
    ["determining", "--system", "y''=H(y'+w'); w''=0"],
    ["classify", "--system", "y''=A(x+1)*y; w''=A((x^2-1)/(x-1))*w",
     "--format", "json"],
    ["classify", "--system", "y''=1/(y+a0)+1/(y+a1)+1/(y+a2)"],
    ["determining", "--system", "y''=0", "--ansatz",
     "xi=H(y/x),phi=y/(x+1)"],
    ["commutators", "--set", "non-cartan", "--m", "2"],
    ["verify", "--system", "y''=0", "--generator", "H(x - y)*dx"],
]


def _run(args, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", MAIN] + args, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("args", REQUESTS,
                         ids=[" ".join(a)[:60] for a in REQUESTS])
def test_output_is_the_same_under_three_hash_seeds(args):
    first = _run(args, "0")
    assert first[1] or first[2]
    assert _run(args, "1") == first
    assert _run(args, "2") == first
