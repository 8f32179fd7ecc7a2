"""README's "Library example" block runs and prints what its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_state():
    shown = []
    exec(library_example(), {"print": lambda *args: shown.append(args)})
    (result,), (witness,), (ys,), (values,), (left,), (verdict, _, _) = shown

    assert (result.value, result.error_bound) == (-0.5, 0.0)
    assert witness.y == 0.5
    assert (witness.interval.a, witness.interval.b) == (0.5, 0.75)
    np.testing.assert_array_equal(ys, [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(values, [0.0, 1.5, 1.5, -0.5])
    np.testing.assert_array_equal(left, [0.0, 0.0, 1.5, 1.5])
    assert verdict is True
