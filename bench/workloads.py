"""The three closed-loop workloads and their exact-answer gates.

Each workload has a set-up (`prepare`: import already done, build the
inputs), an optional one-time write path, and an endless stream of
batches of operations.  An operation is (kind, run, check): `run` makes
the calls into gramcode and is what gets timed; `check` compares the
outputs with an answer the benchmark knows independently and raises
GateFailure on any difference.  The solution of a run is the write path
plus the first `solution_batches` batches; the stream then continues
for as long as the run has time.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

MODULES = ("grams", "graphs", "lattice", "aecc", "codec", "channel", "cli")


class GateFailure(Exception):
    """An output of the program differs from the exact reference answer."""


class ProgramMissing(Exception):
    """The gramcode sources are not where the benchmark expects them."""


def gate(ok, what):
    if not ok:
        raise GateFailure(what)


def import_program(src: Path):
    """Import gramcode afresh from src, dropping any earlier import."""
    if not (src / "gramcode" / "__init__.py").is_file():
        raise ProgramMissing(f"no gramcode package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "gramcode" or n.startswith("gramcode.")]:
        del sys.modules[name]
    package = importlib.import_module("gramcode")
    if Path(package.__file__).resolve().parent != (src / "gramcode").resolve():
        raise ProgramMissing(f"gramcode imported from {package.__file__}, not {src}")
    mods = SimpleNamespace(package=package)
    for module in MODULES:
        setattr(mods, module, importlib.import_module(f"gramcode.{module}"))
    return mods


def gram_counts(symbols, q, ell, dropped=()):
    """Counts over the full gram cube of the occurrences not in `dropped`."""
    counts = [0] * q**ell
    skip = set(dropped)
    for i in range(len(symbols) - ell + 1):
        if i not in skip:
            counts[_rank(symbols[i : i + ell], q)] += 1
    return tuple(counts)


def _rank(gram, q):
    index = 0
    for sym in gram:
        index = index * q + sym
    return index


def _check_losses_only(trace, budget_t):
    gate(
        not trace.synthesis and not trace.gram_subs and len(trace.dropped) <= budget_t,
        f"channel applied more than {budget_t} coverage losses: {trace}",
    )


class Fit:
    """Exact count-polynomial fits of the desk-scale Table I/II rows."""

    name = "fit"
    stream_kind = "fit"
    solution_batches = 1

    def __init__(self, reference, seed, quick, workdir):
        # The fits do not depend on the seed.
        self.rows = [r for r in reference["rows"] if r["quick"] or not quick]

    def prepare(self, mods):
        self.mods = mods
        grams = mods.grams
        self.sets = {}
        for row in self.rows:
            kind, *params = row["set"]
            build = grams.full_gram_set if kind == "full" else grams.build_weight_set
            self.sets[row["label"]] = build(*params)

    def write_path(self):
        return []

    def finish(self):
        pass

    def batches(self):
        while True:
            batch = []
            for row in self.rows:
                fitted = {}
                for mode in row["modes"]:
                    batch.append(("fit", self._fit(row, mode), self._check(row, mode, fitted)))
            yield batch

    def _fit(self, row, mode):
        lattice = self.mods.lattice
        s = self.sets[row["label"]]

        def run():
            return lattice.fit_quasipolynomial(s, row["degree"], row["lambda"], mode=mode)

        return run

    def _check(self, row, mode, fitted):
        constant = Fraction(row["constant"])
        # Table I rows start (q, ell) and hold the constant at index 4;
        # Table II rows start (ell, w1, w2) and hold it at index 5.
        table, at = {"I": (self.mods.cli.TABLE_I, 4), "II": (self.mods.cli.TABLE_II, 5)}[row["table"]]
        key = tuple(row["table_key"])
        listed = [entry[at] for entry in table if entry[: len(key)] == key]

        def check(poly):
            label = f"{row['label']} {mode}"
            gate(listed == [constant], f"{label}: cli.TABLE_{row['table']} lists {listed}")
            gate(poly.leading_in_n == constant, f"{label}: leading {poly.leading_in_n} != {constant}")
            counts = row["counts"][mode]
            got = [poly.evaluate(t) for t in range(1, len(counts) + 1)]
            gate(got == counts, f"{label}: point counts {got} != {counts}")
            fitted[mode] = poly
            if len(fitted) == 2:
                gate(
                    self.mods.lattice.reciprocity_check(fitted["F"], fitted["E"]),
                    f"{row['label']}: reciprocity fails",
                )

        return check


class Codebook:
    """Size, build, reload and read the mod-13 d=2 intersection codebook."""

    name = "codebook"
    stream_kind = "read"

    def __init__(self, reference, seed, quick, workdir):
        self.ref = reference["quick" if quick else "full"]
        self.params = reference["params"]
        self.solution_batches = self.ref["reads"]
        self.seed = seed
        self.code_path = workdir / "codebook-code.txt"
        self.book_path = workdir / "codebook-book.txt"

    def prepare(self, mods):
        self.mods = mods
        p = self.params
        self.s = mods.grams.full_gram_set(p["q"], p["ell"])
        self.graph = mods.graphs.build_graph(self.s)
        self.code = mods.aecc.build_code(p["p"], p["alphas"], p["d"])
        self.code_path.write_text(mods.aecc.format_code_file(self.code))
        self.budget = mods.grams.ChannelBudget(t=p["losses"])

    def write_path(self):
        return [
            ("count", self._count, self._check_count),
            ("build", self._build, self._check_build),
            ("reload", self._reload, self._check_reload),
        ]

    def finish(self):
        pass

    def _count(self):
        lattice = self.mods.lattice
        cong = lattice.CongruenceBlock(self.code.rows, self.code.p, self.code.beta)
        system = lattice.flow_system_for_words(self.graph, self.ref["n"], "E", cong)
        return lattice.count_points(system)

    def _check_count(self, count):
        gate(count == self.ref["size"], f"code size {count} != {self.ref['size']}")

    def _build(self):
        p = self.params
        argv = [
            "grc-build", "--method", "intersect", "--set", "full", str(p["q"]), str(p["ell"]),
            "--n", str(self.ref["n"]), "--code", str(self.code_path), "--out", str(self.book_path),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.mods.cli.main(argv)
        return status, out.getvalue()

    def _check_build(self, outcome):
        status, stdout = outcome
        p = self.params
        expected = (
            f"format gramcode/1\ncommand grc-build\nconfig method intersect\n"
            f"config set full {p['q']} {p['ell']}\nconfig n {self.ref['n']}\n"
            f"config code {self.code_path}\ncodewords {self.ref['size']}\n"
            f"distance {p['d'] + 1}\ncodebook-file {self.book_path}\n"
        )
        gate(status == 0, f"grc-build exited {status}")
        gate(stdout == expected, f"grc-build stdout differs:\n{stdout}")

    def _reload(self):
        text = self.book_path.read_text()
        return text, self.mods.codec.parse_codebook_file(text)

    def _check_reload(self, outcome):
        text, book = outcome
        digest = hashlib.sha256(text.encode()).hexdigest()
        gate(digest == self.ref["sha256"], f"codebook file sha256 {digest} != reference")
        gate(len(book) == self.ref["size"] and book.n == self.ref["n"], "reloaded codebook differs")
        self.book = book

    def batches(self):
        rng = random.Random(self.seed)
        while True:
            index = rng.randrange(self.ref["size"])
            yield [("read", self._read(index, rng.getrandbits(64)), self._check_read(index))]

    def _read(self, index, channel_seed):
        m = self.mods

        def run():
            u = self.book.codewords[index]
            x = m.codec.euler_word(u, self.s, self.graph)
            observed, trace = m.channel.transmit(
                x, self.s.ell, self.budget, channel_seed, at_most=True
            )
            result = m.codec.decode_profile(self.book, observed.counts)
            bounded = m.aecc.decode_bounded(self.code, observed.counts, self.params["losses"])
            return u, x, observed, trace, result, bounded

        return run

    def _check_read(self, index):
        def check(outcome):
            u, x, observed, trace, result, bounded = outcome
            q, ell = self.s.q, self.s.ell
            _check_losses_only(trace, self.params["losses"])
            gate(len(x) == self.ref["n"], f"read {index}: word length {len(x)}")
            gate(gram_counts(x.symbols, q, ell) == u, f"read {index}: euler_word profile differs")
            gate(
                observed.counts == gram_counts(x.symbols, q, ell, trace.dropped),
                f"read {index}: observation differs from the channel trace",
            )
            gate(
                result.index == index and result.codeword == u and result.word == x
                and result.distance == len(trace.dropped) and not result.tie,
                f"read {index}: decode_profile returned {result.index} at {result.distance}",
            )
            gate(bounded == u, f"read {index}: decode_bounded returned {bounded}")

        return check


class Storage:
    """Encode, write, sequence with losses and decode random messages."""

    name = "storage"
    stream_kind = "message"

    def __init__(self, reference, seed, quick, workdir):
        self.params = reference["params"]
        self.ref = reference["quick" if quick else "full"]
        self.solution_batches = self.ref["messages"]
        self.seed = seed
        self.check_weights = seed == reference["default_seed"]

    def prepare(self, mods):
        self.mods = mods
        p = self.params
        self.s = mods.grams.build_weight_set(*p["set"])
        self.graph = mods.graphs.build_graph(self.s)
        self.layout = mods.codec.systematic_layout(self.graph, p["m"])
        gate(len(self.layout.info_positions) == p["info"], "info position count differs")
        self.alphas = tuple(range(1, p["info"] + 1))
        self.base = mods.aecc.build_code(p["p"], self.alphas, p["d"])
        self.budget = mods.grams.ChannelBudget(t=p["losses"])

    def write_path(self):
        return []

    def finish(self):
        if self.check_weights:
            gate(
                self.weights == self.ref["loss_weights"],
                f"info-loss weights {self.weights} != {self.ref['loss_weights']} at the default seed",
            )

    def batches(self):
        rng = random.Random(self.seed)
        self.weights = [0] * (self.params["losses"] + 1)
        m, info = self.params["m"], self.params["info"]
        while True:
            message = tuple(rng.randrange(m) for _ in range(info))
            if self._encoded_total(message) > self.params["n"] - self.s.ell + 1:
                continue
            yield [("message", self._message(message, rng.getrandbits(64)), self._check(message))]

    def _encoded_total(self, message):
        """Sum of the systematic encoding of `message` before the loop fill.

        About 4 in 10,000 uniform messages need a longer word than n=260
        and the encoder rightly refuses them, so the message source skips
        them.  Computed here from the layout, independently of codec: the
        info arcs carry the message, and the Hamiltonian cycle, rotated to
        start just after its first minimal prefix sum of node inflows,
        carries 1 + the running inflow on each arc.
        """
        graph, layout = self.graph, self.layout
        inflow = [0] * graph.n_nodes
        for a, v in zip(layout.info_positions, message):
            inflow[graph.arc_term[a]] += v
            inflow[graph.arc_init[a]] -= v
        cycle = [inflow[c] for c in layout.ham_cycle]
        start, lowest, running = 0, 0, 0
        for i, r in enumerate(cycle[:-1]):
            running += r
            if running < lowest:
                lowest, start = running, i + 1
        total, running = sum(message), 0
        for r in cycle[start:] + cycle[:start]:
            total += 1 + running
            running += r
        return total

    def _message(self, message, channel_seed):
        m = self.mods
        p = self.params
        layout, s = self.layout, self.s

        def run():
            u = m.codec.systematic_encode(layout, message, p["n"], override=True)
            x = m.codec.euler_word(u.counts, s, self.graph)
            written = m.grams.profile(x, s)
            observed, trace = m.channel.transmit(x, s.ell, self.budget, channel_seed, at_most=True)
            projected, _foreign = m.codec.project_observed(observed.counts, s)
            received = tuple(projected[a] for a in layout.info_positions)
            code = m.aecc.build_code(p["p"], self.alphas, p["d"], self.base.syndrome(message))
            decoded = m.aecc.decode_bounded(code, received, p["d"])
            return u, x, written, observed, trace, received, decoded

        return run

    def _check(self, message):
        def check(outcome):
            u, x, written, observed, trace, received, decoded = outcome
            s = self.s
            info = self.layout.info_positions
            _check_losses_only(trace, self.params["losses"])
            gate(tuple(u.counts[a] for a in info) == message, "encoder changed the message")
            gate(written.counts == u.counts, "written word's profile differs from the encoding")
            gate(len(x) == self.params["n"], f"word length {len(x)} != {self.params['n']}")
            full = gram_counts(x.symbols, s.q, s.ell, trace.dropped)
            gate(observed.counts == full, "observation differs from the channel trace")
            expected = tuple(full[_rank(s.grams[a], s.q)] for a in info)
            gate(received == expected, "projected info counts differ")
            gate(decoded == message, f"message not recovered: {decoded}")
            self.weights[sum(message) - sum(received)] += 1

        return check


WORKLOADS = {"fit": Fit, "codebook": Codebook, "storage": Storage}
