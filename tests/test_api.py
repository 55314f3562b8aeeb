import contextlib
import io
import math
import re
from pathlib import Path

import sagrs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_sorted_resolves_and_is_what_star_import_binds():
    assert sagrs.__all__ == sorted(set(sagrs.__all__))  # sorted, no name twice
    for name in sagrs.__all__:
        assert hasattr(sagrs, name), name
    namespace = {}
    exec("from sagrs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sagrs.__all__


def test_readme_library_use_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert math.isfinite(float(out.getvalue().split()[0]))
