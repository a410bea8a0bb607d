"""Damaged copies of the text files the package reads, for the loader fuzz tests."""

from hypothesis import strategies as st

# what a damaged text file may hold: a non-UTF-8 byte, NUL, non-finite
# numbers, delimiters, line breaks and a quote
TOKENS = (b"\xff", b"\x00", b"nan", b"inf", b"-inf", b"1e999", b"", b",", b"\t", b"\n",
          b"\r", b'"')


@st.composite
def mutations(draw, raw: bytes) -> bytes:
    """raw truncated; or with 1-4 bytes flipped; or with 1-3 TOKENS inserted;
    or with one line dropped or repeated; or with one comma-separated field
    of one line replaced by a token, dropped or repeated, so the line is
    ragged."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "line", "field"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    data = bytearray(raw)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind == "insert":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.sampled_from(TOKENS))
        return bytes(data)
    lines = raw.split(b"\n")
    row = draw(st.integers(0, len(lines) - 1))
    if kind == "line":
        lines[row:row + 1] = [] if draw(st.booleans()) else [lines[row]] * 2
        return b"\n".join(lines)
    fields = lines[row].split(b",")
    at = draw(st.integers(0, len(fields) - 1))
    edit = draw(st.sampled_from(["replace", "drop", "repeat"]))
    if edit == "replace":
        fields[at] = draw(st.sampled_from(TOKENS))
    elif edit == "drop":
        del fields[at]
    else:
        fields.insert(at, fields[at])
    lines[row] = b",".join(fields)
    return b"\n".join(lines)
