"""Command-line front end: constructions, enumeration, simulation, tables.

Output is line-oriented `key value` text, exact throughout: big integers
in decimal, rationals as num/den.  Every run first echoes its resolved
configuration so results can be reproduced from the output alone.  Exit
codes: 0 success, 2 validation error (bad arguments or files), 3
computation error (guards, budgets, infeasibility, failed decode).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import product
from math import lcm

from . import aecc, channel, codec, grams, graphs, lattice

OUTPUT_FORMAT = "gramcode/1"

TABLE_I = (
    # q, ell, degree, lam (None: beyond desk-scale enumeration), reference constant
    (2, 2, 2, 2, Fraction(1, 4)),
    (3, 2, 6, 6, Fraction(1, 8640)),
    (4, 2, 12, None, Fraction(1, 45984153600)),
    (5, 2, 20, None, Fraction(37, 84081093402584678400000)),
    (2, 3, 4, 12, Fraction(1, 288)),
    (3, 3, 18, None, Fraction(887, 358450977137334681600000)),
    (2, 4, 8, None, Fraction(283, 9754214400)),
    (2, 5, 16, None, Fraction(722299813, 94556837526637331349504000000)),
)

TABLE_II = (
    # ell, w1, w2, degree, lam (None: has a loop / not tabulated), constant, fit?
    (4, 2, 3, 3, 60, Fraction(1, 360), True),
    (4, 2, 4, 4, None, Fraction(1, 1440), False),
    (5, 2, 3, 6, 120, Fraction(1, 5184000), False),
    (5, 2, 4, 10, 27720, Fraction(40337, 34566497280000000), False),
    (5, 2, 5, 11, None, Fraction(3667, 34566497280000000), False),
    (5, 3, 4, 4, 420, Fraction(23, 302400), False),
    (5, 3, 5, 5, None, Fraction(23, 1512000), False),
    (6, 3, 4, 10, 65520, Fraction(43919, 754932300595200000), False),
    (6, 3, 5, 15, 5354228880,
     Fraction(1106713336565579, 739506679855711968646397952000000000), False),
    (6, 4, 5, 5, 840, Fraction(1, 518400), False),
)

TABLE_III = (
    # label, --set tokens, p, reference lam_GRC
    ("2 3 full d=1", "full 2 3", 11, 132),
    ("2 3 full d=2", "full 2 3", 13, 156),
    ("2 3 full d=3", "full 2 3", 13, 156),
    ("2 3 full d=4", "full 2 3", 17, 204),
    ("2 4 full d=1", "full 2 4", 17, 14280),
    ("2 5 weight[2,3] d=1", "weight 2 5 1 2 3", 23, 2760),
    ("2 5 weight[2,3] d=2", "weight 2 5 1 2 3", 29, 3480),
)


def emit(key, value):
    if isinstance(value, Fraction):
        value = f"{value.numerator}/{value.denominator}"
    elif isinstance(value, bool):
        value = "true" if value else "false"
    elif isinstance(value, (list, tuple)):
        value = " ".join(str(v) for v in value)
    print(f"{key} {value}")


def echo_config(args, keys):
    emit("format", OUTPUT_FORMAT)
    emit("command", args.command)
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            emit(f"config {key}", value)


def parse_set(tokens) -> grams.GramSet:
    """Gram set from --set tokens; an explicit set is read from a "q ell" file."""
    if len(tokens) < 2:
        raise ValueError("--set needs: full q ell | weight q ell q* w1 w2 | explicit file")
    kind = tokens[0]
    if kind == "explicit":
        if len(tokens) > 2:
            raise ValueError("--set explicit takes one file")
        with open(tokens[1]) as handle:
            lines = [ln.split() for ln in handle if ln.strip()]
        if not lines or len(lines[0]) != 2:
            raise ValueError('explicit set file needs a "q ell" header line')
        (q, ell), rest = lines[0], [tok for row in lines[1:] for tok in row]
    elif len(tokens) < 3:
        raise ValueError(f"--set {kind} needs q and ell")
    else:
        q, ell, rest = tokens[1], tokens[2], tokens[3:]
    return grams.parse_gram_set_spec(int(q), int(ell), [kind, *rest])


def parse_word_arg(text, q) -> grams.Word:
    if q == 4 and any(c in "ATGCatgc" for c in text):
        return grams.parse_dna(text)
    return grams.word(text, q)


def _read_counts(path, s=None, n=None):
    """Counts of a profile file whose header names s or its full cube, and n, when given."""
    with open(path) as handle:
        s_file, n_file, counts = grams.parse_profile_file(handle.read())
    if s is not None and s_file != s:
        if not s_file.is_full() or (s_file.q, s_file.ell) != (s.q, s.ell):
            raise ValueError("profile header gram set is neither S nor its full cube")
    if n is not None and n_file != n:
        raise ValueError(f"profile header n={n_file} does not match n={n}")
    return counts


def cmd_graph_info(args):
    s = parse_set(args.set)
    echo_config(args, ["set"])
    graph = graphs.build_graph(s)
    comps = graphs.strongly_connected_components(graph)
    emit("nodes", graph.n_nodes)
    emit("arcs", graph.n_arcs)
    emit("scc-count", len(comps))
    emit("eulerian", graphs.is_eulerian(graph))
    delta, delta_bar = graphs.growth_exponent(graph)
    emit("growth-exponent", delta)
    emit("closed-growth-exponent", delta_bar)
    if len(comps) == 1:
        lam, lengths = graphs.cycle_length_lcm(graph)
        emit("cycle-lengths", lengths)
        emit("cycle-lcm", lam)
    return 0


def _load_code(path):
    with open(path) as handle:
        return aecc.parse_code_file(handle.read())


def cmd_enumerate(args):
    s = parse_set(args.set)
    echo_config(args, ["set", "n", "mode", "closed", "code"])
    if args.closed and args.mode != "words":
        raise ValueError("--closed applies only to --mode words")
    if args.mode == "words":
        if args.code:
            raise ValueError("--code does not apply to --mode words")
        profiles = lattice.brute_force_profiles(args.n, s, closed_only=args.closed)
        emit("count", len(profiles))
        if args.points:
            for u in sorted(profiles):
                emit("point", u)
        return 0
    code = _load_code(args.code) if args.code else None
    system = lattice.flow_system_for_words(graphs.build_graph(s), args.n, args.mode, code)
    emit("total", system.m_total)
    if args.points:
        points = lattice.enumerate_points(system)
        emit("count", len(points))
        for u in points:
            emit("point", u)
    else:
        emit("count", lattice.count_points(system))
    return 0


def cmd_fit(args):
    s = parse_set(args.set)
    echo_config(args, ["set", "degree", "lambda_", "mode", "residue"])
    poly = lattice.fit_quasipolynomial(
        s, args.degree, args.lambda_, mode=args.mode, residue=args.residue
    )
    for k, c in enumerate(poly.coeffs):
        emit(f"coeff t^{k}", c)
    emit("leading", poly.leading)
    emit("leading-in-n", poly.leading_in_n)
    emit("verified-at", poly.verified_at)
    return 0


def cmd_simulate(args):
    word_in = parse_word_arg(args.word, args.q)
    echo_config(args, ["word", "q", "ell", "ssyn", "t", "sseq", "seed", "at-most"])
    budget = grams.ChannelBudget(args.ssyn, args.t, args.sseq)
    observed, trace = channel.transmit(
        word_in, args.ell, budget, args.seed, at_most=args.at_most
    )
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(channel.trace_to_json(trace))
    emit("observed", observed.counts)
    emit("observed-sum", observed.total)
    if args.trace:
        emit("trace-file", args.trace)
    return 0


def _write_out(path, key, text):
    """Write text to path and emit `key path`, or write it to stdout without a path."""
    if path:
        with open(path, "w") as handle:
            handle.write(text)
        emit(key, path)
    else:
        sys.stdout.write(text)


def cmd_code_build(args):
    echo_config(args, ["length", "d", "p", "alphas", "beta"])
    alphas = (
        tuple(int(t) for t in args.alphas.split(","))
        if args.alphas
        else tuple(range(1, args.length + 1))
    )
    if len(alphas) != args.length:
        raise ValueError(f"--alphas gives {len(alphas)} values for length {args.length}")
    if args.p is None:
        args.p = aecc.choose_prime(args.length, args.d)
    beta = tuple(int(t) for t in args.beta.split(",")) if args.beta else None
    code = aecc.build_code(args.p, alphas, args.d, beta)
    _write_out(args.out, "code-file", aecc.format_code_file(code))
    emit("p", code.p)
    emit("design-distance", code.design_distance)
    return 0


def cmd_code_check(args):
    echo_config(args, ["code", "profile"])
    code = _load_code(args.code)
    counts = _read_counts(args.profile)
    emit("member", code.is_member(counts))
    emit("syndrome", code.syndrome(counts))
    return 0


def cmd_code_decode(args):
    echo_config(args, ["code", "profile", "max-weight"])
    code = _load_code(args.code)
    counts = _read_counts(args.profile)
    decoded = aecc.decode_bounded(code, counts, args.max_weight)
    emit("codeword", decoded)
    return 0


def cmd_grc_build(args):
    s = parse_set(args.set)
    echo_config(args, ["method", "set", "n", "code", "m"])
    if args.method == "intersect":
        if args.code is None:
            raise ValueError("intersect grc needs --code")
        if args.m is not None:
            raise ValueError("--m does not apply to --method intersect")
        book = codec.grc_intersect(_load_code(args.code), args.n, s)
    else:
        if args.m is None:
            raise ValueError("systematic grc needs --m")
        if args.code is not None:
            raise ValueError("--code does not apply to --method systematic")
        # The messages are all of [m]^k, at asymmetric distance 1: the k
        # info arcs are all but a Hamiltonian cycle's |V| and a loop, so
        # m^k is refused before the cycle search, as a gram cube would be.
        graph = graphs.build_graph(s)
        k = graph.n_arcs - graph.n_nodes - 1
        if args.m > 1 and args.m ** min(k, grams.MAX_CUBE.bit_length()) > grams.MAX_CUBE:
            raise grams.CubeTooLarge(f"{args.m}**{k} messages exceed the cube guard of "
                                     f"{grams.MAX_CUBE}")
        layout = codec.systematic_layout(graph, args.m)
        words = product(range(args.m), repeat=len(layout.info_positions))
        book = codec.systematic_grc(words, layout, args.n, 1)
    emit("codewords", len(book))
    emit("distance", book.distance)
    _write_out(args.out, "codebook-file", codec.format_codebook_file(book))
    return 0


def cmd_encode(args):
    s = parse_set(args.set)
    echo_config(args, ["set", "n", "m", "message", "override"])
    message = tuple(int(t) for t in args.message.split(","))
    layout = codec.systematic_layout(graphs.build_graph(s), args.m)
    u = codec.systematic_encode(layout, message, args.n, override=args.override)
    emit("profile", u.counts)
    word_out = codec.euler_word(u.counts, s)
    emit("word", grams.word_text(word_out))
    if s.q == 4:
        emit("dna", grams.dna_string(word_out))
    return 0


def cmd_decode(args):
    echo_config(args, ["codebook", "profile"])
    with open(args.codebook) as handle:
        book = codec.parse_codebook_file(handle.read())
    counts = _read_counts(args.profile, book.gram_set, book.n)
    result = codec.decode_profile(book, counts)
    emit("index", result.index)
    emit("codeword", result.codeword)
    emit("word", grams.word_text(result.word))
    emit("distance", result.distance)
    emit("foreign-mass", result.foreign_mass)
    emit("tie", result.tie)
    return 0


def cmd_rank_encode(args):
    echo_config(args, ["q", "ell", "n", "perm"])
    perm = tuple(int(t) for t in args.perm.split(","))
    layout = codec.rank_modulation_layout(args.q, args.ell)
    u = codec.rank_encode(layout, perm, args.n)
    emit("info-grams", [layout.gram_set.label(a) for a in layout.info_positions])
    emit("profile", u.counts)
    emit("word", grams.word_text(codec.euler_word(u.counts, layout.gram_set)))
    return 0


def cmd_rank_decode(args):
    echo_config(args, ["q", "ell", "profile"])
    layout = codec.rank_modulation_layout(args.q, args.ell)
    counts = _read_counts(args.profile, layout.gram_set)
    perm, ties = codec.rank_readout_decode(layout, counts)
    emit("permutation", perm)
    emit("ties", ties)
    return 0


def _report(label, computed, reference):
    status = "PASS" if computed == reference else "FAIL"
    emit(label, f"computed {computed} reference {reference} {status}")
    return status == "PASS"


def cmd_tables(args):
    echo_config(args, ["id", "row"])
    ok = True
    wanted = args.row
    matched = []

    def selected(label):
        if wanted is not None and wanted not in label:
            return False
        matched.append(label)
        return True

    if args.id == "I":
        for q, ell, degree, lam, constant in TABLE_I:
            label = f"c({q},{ell})"
            if not selected(label):
                continue
            if lam is None:
                emit(label, f"reference {constant} SKIPPED (beyond desk-scale enumeration)")
                continue
            poly = lattice.fit_quasipolynomial(grams.full_gram_set(q, ell), degree, lam)
            ok &= _report(label, poly.leading_in_n, constant)
    elif args.id == "II":
        for ell, w1, w2, degree, lam, constant, fit in TABLE_II:
            label = f"c(2,{ell};1,[{w1},{w2}])"
            if not selected(label):
                continue
            s = grams.build_weight_set(2, ell, 1, w1, w2)
            if lam is not None:
                computed_lam, _ = graphs.cycle_length_lcm(graphs.build_graph(s))
                ok &= _report(f"{label} lambda", computed_lam, lam)
            if not fit:
                emit(label, f"reference {constant} SKIPPED (beyond desk-scale enumeration)")
                continue
            poly = lattice.fit_quasipolynomial(s, degree, lam)
            ok &= _report(label, poly.leading_in_n, constant)
    else:
        for label, tokens, p, lam_grc in TABLE_III:
            if not selected(label):
                continue
            s = parse_set(tokens.split())
            computed_lam, _ = graphs.cycle_length_lcm(graphs.build_graph(s))
            ok &= _report(f"{label} lambda-grc", lcm(computed_lam, p), lam_grc)
            emit(f"{label} c(H,S)", "SKIPPED (long-running)")
        if wanted is None:
            for t in (1, 2):
                ok &= _example_headline(t)
    if not matched:
        raise ValueError(f"--row {wanted!r} matches no row of table {args.id}")
    emit("tables-ok", ok)
    return 0 if ok else 3


def _example_headline(t):
    """Size of the mod-13 distance-3 code among length-(156t+2) closed words."""
    reference = {1: 11036, 2: 185197}[t]
    code = aecc.build_code(13, (1, 2, 3, 5, 8, 10, 11, 12), 2)
    graph = graphs.build_graph(grams.full_gram_set(2, 3))
    count = lattice.count_points(
        lattice.flow_system_for_words(graph, 156 * t + 2, "E", code)
    )
    return _report(f"grc-size n={156 * t + 2}", count, reference)


def cmd_roundtrip(args):
    echo_config(args, ["preset", "message", "perm", "n", "ssyn", "t", "sseq", "seed"])
    if args.seed is not None and not (args.ssyn or args.t or args.sseq):
        raise ValueError("--seed does not apply to a noiseless roundtrip")
    if args.preset == "systematic" and args.perm is not None:
        raise ValueError("--perm does not apply to --preset systematic")
    if args.preset == "rank" and args.message is not None:
        raise ValueError("--message does not apply to --preset rank")
    budget = grams.ChannelBudget(args.ssyn, args.t, args.sseq)
    if args.seed is None and budget != grams.ChannelBudget():
        raise ValueError("noisy roundtrip needs --seed")
    # Without --seed the budget is zero: transmit draws nothing, so the word is observed as is.
    if args.preset == "systematic":
        layout = codec.systematic_layout(graphs.build_graph(grams.full_gram_set(2, 3)), 2)
        encode, key, default, n = codec.systematic_encode, "message", "0,0,0", args.n or 20

        def readout(observed):
            emit("observed", observed)
            book = codec.systematic_grc(product(range(2), repeat=3), layout, n, distance=1)
            codeword = codec.decode_profile(book, observed).codeword
            decoded = tuple(codeword[a] for a in layout.info_positions)
            emit("decoded-message", decoded)
            return decoded
    else:
        layout = codec.rank_modulation_layout(2, 3)
        encode, key, default, n = codec.rank_encode, "permutation", "0,1,2", args.n or 14

        def readout(observed):
            decoded, ties = codec.rank_readout_decode(layout, observed)
            emit("decoded-permutation", decoded)
            emit("ties", ties)
            return decoded
    # the checks above leave at most the preset's own one of --message and --perm
    message = tuple(int(t) for t in (args.message or args.perm or default).split(","))
    u = encode(layout, message, n)
    emit(key, message)
    emit("profile", u.counts)
    word_out = codec.euler_word(u.counts, layout.gram_set, layout.graph)
    emit("word", grams.word_text(word_out))
    observed, _trace = channel.transmit(word_out, layout.gram_set.ell, budget, args.seed or 0)
    decoded = readout(observed.counts)
    emit("roundtrip-ok", decoded == message)
    return 0 if decoded == message else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gramcode",
        description="l-gram profile codes: graphs, enumeration, codes, channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set(p):
        p.add_argument("--set", nargs="+", required=True,
                       help="full q ell | weight q ell q* w1 w2 | explicit file")

    p = sub.add_parser("graph-info", help="structure of the de Bruijn graph")
    add_set(p)
    p.set_defaults(func=cmd_graph_info)

    p = sub.add_parser("enumerate", help="count or stream feasible profiles")
    add_set(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("F", "E", "words"), default="F")
    p.add_argument("--closed", action="store_true", help="closed words only (words mode)")
    p.add_argument("--points", action="store_true", help="stream the points")
    p.add_argument("--code", help="code file giving a congruence restriction")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fit", help="fit the count polynomial of a dilation class")
    add_set(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_", type=int, required=True)
    p.add_argument("--mode", choices=("F", "E"), default="F")
    p.add_argument("--residue", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="one seeded channel transmission")
    p.add_argument("--word", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--ssyn", type=int, default=0)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--sseq", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--at-most", action="store_true")
    p.add_argument("--trace", help="write the replayable trace here (JSON)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("code-build", help="build a Varshamov code file")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int)
    p.add_argument("--alphas", help="comma separated")
    p.add_argument("--beta", help="comma separated")
    p.add_argument("--out")
    p.set_defaults(func=cmd_code_build)

    p = sub.add_parser("code-check", help="membership of a profile in a code")
    p.add_argument("--code", required=True)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_code_check)

    p = sub.add_parser("code-decode", help="bounded asymmetric-error decoding")
    p.add_argument("--code", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.set_defaults(func=cmd_code_decode)

    p = sub.add_parser("grc-build", help="build a reconstruction codebook")
    p.add_argument("--method", choices=("intersect", "systematic"), required=True)
    add_set(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--code", help="code file (intersect)")
    p.add_argument("--m", type=int, help="message alphabet (systematic)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_grc_build)

    p = sub.add_parser("encode", help="systematic message-to-profile encoding")
    add_set(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--message", required=True, help="comma separated")
    p.add_argument("--override", action="store_true",
                   help="skip the alphabet bound; keep the final validity check")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="minimum-distance decoding over a codebook")
    p.add_argument("--codebook", required=True)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("rank-encode", help="permutation to profile")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--perm", required=True, help="comma separated")
    p.set_defaults(func=cmd_rank_encode)

    p = sub.add_parser("rank-decode", help="profile to permutation by count order")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_rank_decode)

    p = sub.add_parser("tables", help="recompute the reference constants")
    p.add_argument("--id", choices=("I", "II", "III"), required=True)
    p.add_argument("--row", help="only rows whose label contains this text")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("roundtrip", help="message -> word -> channel -> message")
    p.add_argument("--preset", choices=("systematic", "rank"), required=True)
    p.add_argument("--message", help="comma separated (systematic)")
    p.add_argument("--perm", help="comma separated (rank)")
    p.add_argument("--n", type=int)
    p.add_argument("--ssyn", type=int, default=0)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--sseq", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
