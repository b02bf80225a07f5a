"""The code-line counter behind the size figures of CHANGES.md."""

from code_lines import code_lines

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    s = """a string that is
    not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 2
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, def, the two lines of s, the two of the return, class, y = 2
    assert code_lines(SNIPPET) == 8
    assert code_lines("") == 0
