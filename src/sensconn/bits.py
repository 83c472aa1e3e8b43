"""Bit-array helpers. A mask is a plain int with bit i standing for vertex i."""

WORD_BITS = 64


def mask_of(indices):
    """The mask of ``indices`` in O(len + span/8), through one byte buffer,
    since a big-int OR per index is quadratic."""
    vs = list(indices)
    if not vs:
        return 0
    lo = min(vs)
    buf = bytearray(((max(vs) - lo) >> 3) + 1)
    for v in vs:
        v -= lo
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little") << lo


def all_bits(n):
    return (1 << n) - 1


def has_bit(mask, i):
    return (mask >> i) & 1 == 1


def iter_bits(mask):
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def word_count(nbits):
    """Machine words needed to hold nbits bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS
