"""The CLI's outputs on the benchmark's workloads are pinned byte for byte.

Each workload of perfbench/workloads.py is built at seeds 1-3 and its argv
run through cli.main in-process. The exit code, stdout, stderr and the
sha256 of every file the call writes must equal the values below, so a
change meant to keep every output identical shows any output it alters.
The workload's own ground-truth check must also find nothing wrong.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from texelkit import cli

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()

# (workload, seed): (exit code, {output file: sha256}); stdout and stderr are empty
PINNED = {
    ("detect-dense", 1): (1, {
        "output.pgm": "3ddcbad0a4c4ebfd73c56d0e0142c3044dc87dababe07e4e9eae7bce35e19785",
        "report.json": "b08536b148fabb3b4a0dc365288d1da7c05a15c16228ea24c0440e398f05b5cb",
    }),
    ("detect-dense", 2): (1, {
        "output.pgm": "e13da4051eeedb66388d125d6faad94a2723302de7761066067ef9d35690843a",
        "report.json": "3a99d43bd0bb23741f6f0be450e4b67cee00457c6969dd769a54a0dc0a9a8620",
    }),
    ("detect-dense", 3): (1, {
        "output.pgm": "a8dd91a423e975e849ae061f9a4797833af0785a51270b9ce8f99183471b3b17",
        "report.json": "912036b167d48df5f539ead917b9dbe4176369bb108f4f7520ce06eb718cfe06",
    }),
    ("analyze-periodic", 1): (0, {
        "report.json": "fc2a00d9fee71b7b42c566ea5e79e97d08663b90713e37b00682a1e1ac4895aa",
    }),
    ("analyze-periodic", 2): (0, {
        "report.json": "e93fadb05950aa4adcd08541ef7475d1258ad713e57d33b63dbb41891268b4c6",
    }),
    ("analyze-periodic", 3): (0, {
        "report.json": "51b4237a61a7779dd008dca52a7db582654658a21419831e3c41bb80f9aeb3c4",
    }),
    ("synth-p2", 1): (0, {
        "output.pgm": "64557c433d908aedaeb3cffc7cd6f56fa22e16d1bfe52ba9abfddb86d7890b3b",
    }),
    ("synth-p2", 2): (0, {
        "output.pgm": "36e513e3149454f64138a50fc85b77a2eb7b45e73fb5c6cad3af00938cdc3ae8",
    }),
    ("synth-p2", 3): (0, {
        "output.pgm": "a0d3800f62bebc9669db26ed5432aaf34756b163de90a56609c391802caa6ee5",
    }),
}


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_workload_outputs_are_pinned(name, seed, tmp_path, capsys):
    fx = WORKLOADS.write_fixture(WORKLOADS.WORKLOADS[name], seed, tmp_path)
    inputs = {fx.input_path.name, fx.input_path.with_suffix(".json").name}
    rc = cli.main(fx.argv())
    out, err = capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir()) if p.name not in inputs}
    assert (rc, out, err, digests) == (PINNED[name, seed][0], "", "", PINNED[name, seed][1])
    assert WORKLOADS.check(fx, rc)[0] == []
