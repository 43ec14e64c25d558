"""Exhaustive reference scans that tests compare the library against."""

from gramcode.grams import asym_distance


def brute_force_support_count(n: int, ell: int) -> int:
    """Oracle: enumerate all binary words, collect distinct gram supports."""
    supports = set()
    for v in range(2**n):
        bits = tuple((v >> i) & 1 for i in range(n))
        supports.add(frozenset(bits[i : i + ell] for i in range(n - ell + 1)))
    return len(supports)


def verify_min_distance(codebook):
    """Minimum pairwise asymmetric distance by exhaustive scan.

    A single codeword has no pair; the distance is +infinity then.
    """
    words = [tuple(u) for u in codebook]
    if len(words) < 2:
        return float("inf")
    best = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            dist = asym_distance(words[i], words[j])
            if best is None or dist < best:
                best = dist
                if best == 0:
                    return 0
    return best
