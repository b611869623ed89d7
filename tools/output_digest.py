"""Print three sha256 digests that pin the package's default outputs.

Run from the repository root:

    python tools/output_digest.py

It imports mub6 from the src directory of its own checkout, whatever the
current directory or PYTHONPATH.

The first line hashes render_scan_csv(scan_m6(m6_grid()), OptimConfig()),
the 50-point MU scan at 2000 starts, seed 0.  The second hashes the exit
code and stdout, in order, of 1284 in-process cli.main calls: check (text
and --json), normalize, normalize --lemma-form (text and --json) and
analyze --report full on each of the 210 matrices of
tests/test_reference.py INPUTS, then refute (text and --json) at
m6_grid(5), pi and 2 pi / 3.  The third hashes the exit code, stdout and
stderr of --help and of the bare invocation of the top level and of every
leaf subcommand, of families show for each family with every subset of
--t 2.0 --x1 0.3 --x2 1.1 --theta 2.0, and of analyze --report <section>
for each of the four sections on the 210 matrices; COLUMNS is fixed at 80,
so help and usage text do not depend on the terminal.  A change that
should not alter any default output must leave all three lines as they
were.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mub6 import OptimConfig, m6_grid, matrix_to_json, render_scan_csv, scan_m6  # noqa: E402
from mub6.cli import main  # noqa: E402
LEAVES = ([], ["families", "show"], ["check"], ["normalize"], ["analyze"], ["refute"], ["scan"])
SHOW_FLAGS = (("--t", "2.0"), ("--x1", "0.3"), ("--x2", "1.1"), ("--theta", "2.0"))


def _reference_inputs():
    spec = importlib.util.spec_from_file_location(
        "test_reference", ROOT / "tests" / "test_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.INPUTS


def _cli_calls(inputs, tmpdir):
    for i, H in enumerate(inputs):
        path = Path(tmpdir) / f"m{i}.json"
        path.write_text(matrix_to_json(H))
        for argv in (("check",), ("check", "--json"), ("normalize",),
                     ("normalize", "--lemma-form"), ("normalize", "--lemma-form", "--json"),
                     ("analyze", "--report", "full")):
            yield [*argv, "--in", str(path)]
    for t in list(m6_grid(5)) + [np.pi, 2 * np.pi / 3]:
        yield ["refute", "--t", repr(float(t))]
        yield ["refute", "--t", repr(float(t)), "--json"]


def _surface_calls(inputs, tmpdir):
    os.environ["COLUMNS"] = "80"    # argparse wraps help and usage text to this width
    for leaf in LEAVES:
        yield [*leaf, "--help"]
        yield leaf
    for family in ("m6", "f6", "b6", "s6"):
        for n in range(len(SHOW_FLAGS) + 1):
            for flags in itertools.combinations(SHOW_FLAGS, n):
                yield ["families", "show", "--family", family, *itertools.chain(*flags)]
    for i, H in enumerate(inputs):
        path = Path(tmpdir) / f"m{i}.json"
        path.write_text(matrix_to_json(H))
        for section in ("real", "h2", "unitary", "product"):
            yield ["analyze", "--report", section, "--in", str(path)]


def cli_digest(calls=_cli_calls, with_stderr=False):
    """sha256 over the exit code and stdout (and stderr if asked) of each
    cli.main call that calls(inputs, tmpdir) yields, and the number of calls."""
    digest = hashlib.sha256()
    n = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        for argv in calls(_reference_inputs(), tmpdir):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            digest.update(f"{code}\n{out.getvalue()}".encode())
            if with_stderr:
                digest.update(err.getvalue().encode())
            n += 1
    return digest.hexdigest(), n


def scan_digest():
    cfg = OptimConfig()
    return hashlib.sha256(render_scan_csv(scan_m6(m6_grid()), cfg).encode()).hexdigest()


if __name__ == "__main__":
    print(f"scan_csv  {scan_digest()}")
    cli, n = cli_digest()
    print(f"cli_{n}  {cli}")
    surface, n = cli_digest(_surface_calls, with_stderr=True)
    print(f"surface_{n}  {surface}")
