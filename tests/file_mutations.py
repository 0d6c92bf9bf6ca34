"""Hostile edits of the lab's text files, for the property tests of their
readers.

:func:`line_mutations` duplicates or deletes one line, or replaces one
token by a hostile one.  A token lies between spaces or commas, so the
header record of the interpolant file, the cells of every CSV row and the
words of a config line are tokens alike.
:func:`write_lines` writes the mutated lines back, the lone surrogate
token as the one byte that is not UTF-8.
"""

import re

from hypothesis import strategies as st

# Tokens a mutated file may carry in place of one of the writer's: each
# parses as something by one of Python's readers, or by none.  The lone
# surrogate is written as the byte 0xff (write_lines), which no UTF-8 text
# holds.
HOSTILE_TOKENS = ["nan", "inf", "-0", "1e309", "0x1p+9999", "", "1_0",
                  "\u0663", "\udcff"]


def write_lines(path, lines):
    """``lines`` to ``path`` as UTF-8, one per line; a lone surrogate
    U+DC80..U+DCFF becomes the raw byte it escapes."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                    errors="surrogateescape")


@st.composite
def line_mutations(draw, lines):
    """``lines`` with one line duplicated or deleted, or one token (or the
    value of one ``key=value`` token) replaced by a hostile one."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["duplicate", "delete", "token"]))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "delete":
        del lines[i]
    else:
        parts = re.split(r"([ ,])", lines[i])
        t = 2 * draw(st.integers(0, len(parts) // 2))
        hostile = draw(st.sampled_from(HOSTILE_TOKENS))
        key, eq, _ = parts[t].partition("=")
        keep_key = eq and draw(st.booleans())
        parts[t] = f"{key}={hostile}" if keep_key else hostile
        lines[i] = "".join(parts)
    return lines
