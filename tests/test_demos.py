"""Every script in ``demos/`` runs to completion and prints something."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_finishes(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
