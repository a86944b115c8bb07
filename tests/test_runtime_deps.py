"""numpy is the package's only run-time dependency.

scipy serves the tests and the benchmark as an independent oracle. A fresh
interpreter runs the README's commands through cli.main and must end with no
scipy module loaded; this test process cannot check that itself, as other
tests import scipy.
"""

import subprocess
import sys

SCRIPT = """
import sys, tempfile
from dnarate import cli

with tempfile.TemporaryDirectory() as out:
    for argv in (
        "capacity --c 1 --beta 0.05 --p 0.1",
        "rate --c 1 --beta 0.05 --p 0.1 --K 1 --rix 0.530473 --rin 0.53",
        "optimize --c 10 --beta 0.05 --p 0.1 --K 100",
        f"curve --sweep K --values 1,3,10,31,100 --c 2 --beta 0.05 --p 0.1 --out {out}/curve.csv",
        "simulate --c 2 --beta 0.05 --p 0.1 --K 4 --rix 0.5304 --rin 0.45 --rout 0.76 "
        f"--M 4096 --trials 2 --out {out}/trials.csv",
    ):
        assert cli.main(argv.split()) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_readme_commands_import_no_scipy():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
