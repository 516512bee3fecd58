"""The fast examples run to completion.

Each example is executed as ``__main__`` inside a scratch working
directory, so any files it writes stay out of the tree.  The slower
examples (LU investigation, noise amplification, perturbation study) are
left to the paper-claim suite, which covers the same experiments.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name", [
    "quickstart",
    "ktaud_monitoring",
    "sampling_vs_ktau",
    "smp_interference",
    "merged_callgraph",
    "ionode_io",
    "lmbench_micro",
])
def test_example_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
