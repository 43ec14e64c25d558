import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from gramcode import aecc
from gramcode.aecc import (
    AmbiguousDecode,
    CongruenceBlock,
    DecodeFailure,
    build_code,
    choose_prime,
    code_size_ambient,
    decode_bounded,
    format_code_file,
    is_prime,
    parse_code_file,
)
from gramcode.cli import main
from gramcode.grams import CubeTooLarge
from oracles import asym_distance, decode_outcome, exhaustive_decode, verify_min_distance


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return flags


def test_primality_against_sieve():
    flags = sieve(10**4)
    for n in range(10**4 + 1):
        assert is_prime(n) == bool(flags[n])
    # the first composites with no prime factor up to 37, past the trial bound
    assert not is_prime(41 * 41) and not is_prime(41 * 43)


def test_choose_prime_values():
    assert choose_prime(8, 2) == 11
    assert choose_prime(3, 2) == 5
    assert choose_prime(1, 1) == 2


def test_choose_prime_dominates_both_arguments():
    flags = sieve(10**6)
    rng = random.Random(3)
    for _ in range(200):
        n, d = rng.randint(1, 400), rng.randint(1, 60)
        p = choose_prime(n, d)
        assert p > n and p > d and flags[p]


def test_build_code_rows_follow_d():
    # the power rows are cached per (p, alphas, d): a code of one d must
    # not get the rows cached for another
    alphas = (1, 2, 3, 5, 8)
    for d in (1, 3, 2, 4, 1):
        code = build_code(13, alphas, d, beta=(1,) * d)
        assert code.rows == tuple(tuple(a ** (j + 1) % 13 for a in alphas) for j in range(d))
        assert code.beta == (1,) * d


def test_build_code_known_matrices():
    c1 = build_code(5, (1, 2, 3), 2)
    assert c1.rows == ((1, 2, 3), (1, 4, 4))
    c2 = build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    assert c2.rows == (
        (1, 2, 3, 5, 8, 10, 11, 12),
        (1, 4, 9, 12, 12, 9, 4, 1),
    )
    assert c2.is_member((1,) * 8)


def test_build_code_validation():
    with pytest.raises(ValueError):
        build_code(6, (1, 2, 3), 2)
    with pytest.raises(ValueError):
        build_code(5, (1, 2, 3, 4, 5), 2)  # p <= N
    with pytest.raises(ValueError):
        build_code(5, (1, 1, 2), 2)
    with pytest.raises(ValueError):
        build_code(5, (1, 2, 3), 2, beta=(0,))
    with pytest.raises(ValueError):
        build_code(2, (), 1)  # no alphas
    assert isinstance(build_code(5, (1, 2, 3), 2), CongruenceBlock)


def test_zero_vector_membership():
    code = build_code(5, (1, 2, 3), 2)
    assert code.is_member((0, 0, 0))
    shifted = build_code(5, (1, 2, 3), 2, beta=(1, 0))
    assert not shifted.is_member((0, 0, 0))


def test_membership_is_additive_for_zero_beta():
    code = build_code(11, (1, 2, 3, 4, 5), 3)
    members = [u for u in product(range(6), repeat=5) if code.is_member(u)][:8]
    assert len(members) >= 2
    for u in members:
        for v in members:
            assert code.is_member(tuple(a + b for a, b in zip(u, v)))


def test_code_size_ambient_known_value():
    code = build_code(5, (1, 2, 3), 2)
    assert code_size_ambient(code, 39) == 2368


def test_code_size_ambient_degenerate():
    code = build_code(5, (1, 2, 3), 2)
    assert code_size_ambient(code, 1) == 1
    shifted = build_code(5, (1, 2, 3), 2, beta=(1, 1))
    assert code_size_ambient(shifted, 1) == 0


def test_code_size_ambient_matches_scan():
    cases = [
        (build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2), 2),
        (build_code(7, (1, 2, 3, 4, 5, 6), 3, beta=(2, 5, 1)), 3),  # d = 3, nonzero beta
        (build_code(5, (1, 2, 3), 2, beta=(1, 2)), 0),  # the empty ambient [0]^N
    ]
    for code, m in cases:
        scanned = sum(1 for u in product(range(m), repeat=code.length) if code.is_member(u))
        assert code_size_ambient(code, m) == scanned


def test_decode_identity():
    code = build_code(5, (1, 2, 3), 2)
    assert decode_bounded(code, (0, 0, 0), 2) == (0, 0, 0)


def test_decode_exhaustive_small_code():
    # every codeword in [6]^3, every nonnegative error of weight <= 2
    code = build_code(5, (1, 2, 3), 2)
    codewords = [u for u in product(range(6), repeat=3) if code.is_member(u)]
    assert codewords
    errors = [e for e in product(range(3), repeat=3) if sum(e) <= 2]
    for u in codewords:
        for e in errors:
            received = tuple(c - x for c, x in zip(u, e))
            if min(received) < 0:
                continue
            assert decode_bounded(code, received, 2) == u


def test_decode_beyond_guarantee_is_unreliable():
    # weight-3 errors exceed the design guarantee: any of correct answer,
    # wrong answer, or an ambiguity signal is acceptable behavior
    code = build_code(5, (1, 2, 3), 2)
    try:
        result = decode_bounded(code, (2, 0, 0), 3)
        assert code.is_member(result)
    except (AmbiguousDecode, DecodeFailure):
        pass


def test_decode_matches_exhaustive_oracle():
    rng = random.Random(7)
    kinds = Counter()
    for _ in range(400):
        p = rng.choice((5, 7, 11))
        n, d = rng.randint(1, min(5, p - 1)), rng.randint(1, 2)
        beta = [rng.randrange(p) for _ in range(d)]
        code = build_code(p, rng.sample(range(1, p), n), d, beta)
        received = tuple(rng.randint(0, 3) for _ in range(n))
        max_weight = rng.randint(0, 4)
        expected = decode_outcome(exhaustive_decode, code, received, max_weight)
        assert decode_outcome(decode_bounded, code, received, max_weight) == expected
        kinds[expected if isinstance(expected, str) else "unique"] += 1
    assert kinds["unique"] and kinds["ambiguous"] and kinds["failure"], kinds


def test_pattern_search_matches_exhaustive_oracle():
    # weights past d, on received vectors with negative entries: the
    # outcome is exhaustive_decode's, and an ambiguity names the first two
    # codewords in combinations_with_replacement order
    rng = random.Random(36)
    kinds = Counter()
    for _ in range(400):
        p = rng.choice((5, 7, 11))
        n, d = rng.randint(1, min(5, p - 1)), rng.randint(1, 2)
        beta = [rng.randrange(p) for _ in range(d)]
        code = build_code(p, rng.sample(range(1, p), n), d, beta)
        received = tuple(rng.randint(-2, 3) for _ in range(n))
        max_weight = rng.randint(d + 1, d + 4)
        expected = decode_outcome(exhaustive_decode, code, received, max_weight)
        try:
            outcome = decode_bounded(code, received, max_weight)
        except AmbiguousDecode as exc:
            outcome = "ambiguous"
            w = int(str(exc).split()[5].rstrip(":"))
            members = [u for u in (tuple(r + e.count(i) for i, r in enumerate(received))
                                   for e in combinations_with_replacement(range(n), w))
                       if code.is_member(u)]
            assert str(exc) == f"two codewords at error weight {w}: {members[0]} and {members[1]}"
        except DecodeFailure:
            outcome = "failure"
        assert outcome == expected, (code, received, max_weight)
        if isinstance(outcome, str):
            kinds[outcome] += 1
        elif sum(outcome) - sum(received) > d:
            kinds["searched"] += 1
            kinds["searched, negative"] += min(received) < 0
    assert all(kinds[k] for k in ("searched", "searched, negative", "ambiguous", "failure")), kinds


STORAGE_CODE = (41, range(1, 40), 3)
HEADLINE_CODE = (13, (1, 2, 3, 5, 8, 10, 11, 12), 2)


def test_decode_storage_code_every_weight_up_to_d():
    # p=41, alphas 1..39, d=3: codewords minus errors of weight 0..3, among
    # them all weight on one coordinate (a triple locator root) and (2, 1, 0, ...)
    p, alphas, d = STORAGE_CODE
    base = build_code(p, alphas, d)
    rng = random.Random(11)
    for _ in range(4):
        u = tuple(rng.randint(3, 9) for _ in range(39))
        code = build_code(p, alphas, d, base.syndrome(u))
        errors = [(0,) * 39, (3,) + (0,) * 38, (2, 1) + (0,) * 37, (0,) * 38 + (2,)]
        for w in range(1, 4):
            e = [0] * 39
            for _unit in range(w):
                e[rng.randrange(39)] += 1
            errors.append(tuple(e))
        for e in errors:
            received = tuple(c - x for c, x in zip(u, e))
            assert decode_bounded(code, received, d) == u, e


def test_decode_up_to_d_never_searches(monkeypatch):
    # the exhaustive search serves only weights past d
    def refuse(*args):
        raise AssertionError("exhaustive search used at a weight <= d")

    monkeypatch.setattr(aecc, "_search_weight", refuse)
    rng = random.Random(5)
    for p, alphas, d in (STORAGE_CODE, HEADLINE_CODE):
        code = build_code(p, alphas, d, [rng.randrange(p) for _ in range(d)])
        for _ in range(50):
            received = tuple(rng.randint(0, 4) for _ in range(code.length))
            for max_weight in range(d + 1):
                decode_outcome(decode_bounded, code, received, max_weight)


def test_decode_long_code():
    # one coordinate per symbol of a length-1000 code: no recursion depth limit
    code = build_code(1009, range(1, 1001), 1, beta=(5,))
    expected = tuple(1 if i == 4 else 0 for i in range(1000))
    assert decode_bounded(code, (0,) * 1000, 1) == expected


def test_decode_failure_when_budget_too_small():
    code = build_code(5, (1, 2, 3), 2)
    with pytest.raises(DecodeFailure):
        decode_bounded(code, (0, 0, 1), 0)


def test_build_code_without_parity_rows_is_refused():
    # the block refuses empty rows, so d < 1 needs no check of its own
    for d in (0, -1):
        with pytest.raises(ValueError, match="at least one row"):
            build_code(5, (1, 2, 3), d)


def test_pattern_search_stops_at_the_cube_guard(monkeypatch):
    # a length-3, d = 1 code searches C(3 + w, w) - C(4, 1) patterns past
    # weight 1 through weight w: 6 through weight 2 and 16 through weight 3.
    # No error of weight <= 3 reaches this syndrome, so the search runs on.
    code = build_code(1000003, (1, 2, 3), 1, beta=(500000,))
    monkeypatch.setattr(aecc, "MAX_CUBE", 6)
    with pytest.raises(DecodeFailure):
        decode_bounded(code, (0, 0, 0), 2)  # 6 patterns: at the guard, searched
    with pytest.raises(CubeTooLarge, match="16 error patterns from weight 2 to 3"):
        decode_bounded(code, (0, 0, 0), 3)


def test_verify_min_distance():
    assert verify_min_distance([(1, 2, 3)]) == float("inf")
    assert verify_min_distance([(1, 2), (1, 2)]) == 0
    words = [(3, 0, 0), (0, 3, 0), (1, 1, 1)]
    expected = min(
        asym_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
    )
    assert verify_min_distance(words) == expected


def test_headline_codebook_sampled_distance(headline_codebook):
    sample = headline_codebook.codewords[::25][:500]
    assert verify_min_distance(sample) >= 3


def test_headline_code_bounded_decoding_trials(headline_codebook):
    # 1000 seeded draws: a codeword minus a nonnegative error of weight
    # at most 2 always decodes back to the codeword
    code = build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    rng = random.Random(2024)
    words = headline_codebook.codewords
    for _ in range(1000):
        u = words[rng.randrange(len(words))]
        e = [0] * 8
        for _unit in range(rng.randint(0, 2)):
            e[rng.randrange(8)] += 1
        received = tuple(c - x for c, x in zip(u, e))
        if min(received) < 0:
            continue
        assert decode_bounded(code, received, 2) == u


def test_default_code(tmp_path, capsys):
    # without --p and --alphas: the prime just above max(N, d), alphas 1..N
    path = tmp_path / "code.txt"
    assert main(["code-build", "--length", "8", "--d", "2", "--out", str(path)]) == 0
    assert "p 11" in capsys.readouterr().out.splitlines()
    assert parse_code_file(path.read_text()) == build_code(11, range(1, 9), 2)


def test_code_file_round_trip(tmp_path):
    code = build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2, beta=(1, 2))
    text = format_code_file(code)
    back = parse_code_file(text)
    assert back == code
    with pytest.raises(ValueError):
        parse_code_file("p 5\nd 2\n")
    with pytest.raises(ValueError):
        parse_code_file("p\nd 1\nbeta 0\nalphas 1 2 3\n")
