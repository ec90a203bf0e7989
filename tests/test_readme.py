"""The README's "Python API" block imports exactly the package root's names
and runs as written, with the results its comments give."""

import ast
import re
from pathlib import Path

import pytest

import noisygames

README = Path(__file__).resolve().parents[1] / "README.md"


def api_block() -> str:
    text = README.read_text()
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_api_block_imports_the_root_names():
    imported = {alias.name for node in ast.walk(ast.parse(api_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "noisygames"
                for alias in node.names}
    assert imported == set(noisygames.__all__) - {"__version__"}


def test_api_block_runs_as_its_comments_say():
    namespace = {}
    exec(compile(api_block(), str(README), "exec"), namespace)
    report, transcript = namespace["report"], namespace["transcript"]
    assert (report["register"], report.max_distance) == (2, pytest.approx(0.0, abs=1e-12))
    assert transcript.accept
    rho_hat = namespace["estimate_noise_rate"]("chsh", transcript=transcript).rho_hat
    assert rho_hat == pytest.approx(0.8, abs=0.05)
