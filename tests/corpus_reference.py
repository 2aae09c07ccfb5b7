"""The PGM header scanner that ``voskit.corpus.read_pgm`` ran before it
matched one pattern, ``corpus.PGM_HEADER``: a byte-at-a-time walk over
whitespace, '#' comments and digit runs. The reference the pattern must
equal: the same accept or reject, the same numbers and the same pixel
offset."""

from voskit.corpus import CorpusError


def read_header_tokens(blob: bytes, path) -> tuple[list[int], int]:
    """PGM header after the magic: three integers, '#' comments allowed.
    Returns (width, height, maxval) and the offset where pixel data starts."""
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise CorpusError(f"{path}: truncated PGM header")
        c = blob[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = blob.find(b"\n", pos)
            if end == -1:
                raise CorpusError(f"{path}: unterminated comment in header")
            pos = end + 1
        elif c.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            try:
                tokens.append(int(blob[start:pos]))
            except ValueError:  # more digits than int() converts
                raise CorpusError(f"{path}: {pos - start}-digit number in PGM header") from None
        else:
            raise CorpusError(f"{path}: unexpected byte {c!r} in PGM header")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise CorpusError(f"{path}: missing whitespace after maxval")
    return tokens, pos + 1
