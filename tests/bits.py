"""Bit-for-bit comparison of arrays, shared by the test modules."""


def same_bits(a, b):
    # array_equal, but -0.0 is not 0.0 (a CSV prints the sign)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
