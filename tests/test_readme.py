"""The README's library example runs as written, so renaming or deleting
an export it uses fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    converged, level, x, g = capsys.readouterr().out.split()
    assert converged == "True" and int(level) > 2
    # variance: g(x) = 2x - 2 * mean, and the mean of U(0, 1) draws is near 1/2
    assert abs(float(g) - (2.0 * float(x) - 1.0)) < 0.1
