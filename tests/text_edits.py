"""Small random edits of a valid input file, for fuzzing the readers.

Every reader must turn a damaged file into a typed
:class:`~repro.errors.ReproError` (or parse it), never a bare
``ValueError``/``IndexError``.  The tests draw 1-4 single-character
edits of a shipped or sample file with :data:`EDITS` and apply them
with :func:`apply_edits`.
"""

from hypothesis import strategies as st

#: Characters an edit writes: digits, signs and separators, comment
#: starters, the BENCH/Verilog punctuation, and the first letters of
#: the readers' keywords.
ALPHABET = "0123456789 -#\nabxCEIOPST(),=;'"

#: One edit: (position as a fraction of the text, kind, character).
EDIT = st.tuples(
    st.floats(0, 1, exclude_max=True),
    st.sampled_from(["insert", "delete", "replace"]),
    st.sampled_from(list(ALPHABET)),
)

#: One to four edits of the same text.
EDITS = st.lists(EDIT, min_size=1, max_size=4)


def apply_edits(text, edits):
    """``text`` with each ``(where, kind, char)`` edit applied in turn."""
    for where, kind, char in edits:
        at = int(where * len(text))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text
