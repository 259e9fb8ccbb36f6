"""The four workloads: seeded operation streams, the library call behind each
operation, and the check of each result against an independent route.

An operation is a plain tuple of generated inputs (type labels, letter
tuples, bit tuples, coefficient text).  A stream is an endless sequence of
*blocks*; every block of a workload has the same composition of operation
shapes and only the seed-drawn details differ, so runs with different
seeds do comparable work.  A timed run executes the blocks that
:func:`run_ops` takes from the head of the stream for its seed and
seconds, so two commits run the same operations.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import oracle

WORKLOADS = ("products", "integrals", "schubert", "cli")

# Every operation is checked for raising; every CHECK_EVERY-th one (by
# stream index) is also checked against its oracle.  The schubert oracles
# recompute each result, so only one in eight runs.
CHECK_EVERY = {"products": 1, "integrals": 1, "schubert": 8, "cli": 1}

# Longest words as the library's greedy rule produces them; the product and
# Schubert words are prefixes of these, cycled when longer.
LONGEST = {
    "A1": (1,),
    "A2": (1, 2, 1),
    "A3": (1, 2, 1, 3, 2, 1),
    "A4": (1, 2, 1, 3, 2, 1, 4, 3, 2, 1),
    "B2": (1, 2, 1, 2),
    "B3": (1, 2, 1, 3, 2, 1, 3, 2, 3),
    "C3": (1, 2, 1, 3, 2, 1, 3, 2, 3),
    "D4": (1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4),
    "G2": (1, 2, 1, 2, 1, 2),
}


def cycled(label: str, n: int) -> tuple[int, ...]:
    lw = LONGEST[label]
    return tuple(lw[k % len(lw)] for k in range(n))


def random_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 1) for _ in range(n))


def random_subset(rng: random.Random, n: int, positions, k: int) -> tuple[int, ...]:
    """Bits of length ``n`` with ``k`` of ``positions`` on."""
    chosen = set(rng.sample(positions, k))
    return tuple(int(j in chosen) for j in range(n))


def density_half_pair(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two galleries of ``n // 2`` on bits each that share ``n // 4`` of them:
    support density one half, with the overlap fixed at its expected size,
    since the cost of a product grows steeply with the overlap."""
    k, common = n // 2, n // 4
    pos = rng.sample(range(n), 2 * k - common)
    a = set(pos[:k])
    b = set(pos[:common]) | set(pos[k:])
    return tuple(int(j in a) for j in range(n)), tuple(int(j in b) for j in range(n))


def bits_text(bits) -> str:
    return "".join(str(b) for b in bits)


def random_coefficient(rng: random.Random, rank: int) -> str:
    """A small rational polynomial of degree at most one, as text."""
    p = oracle.constant(rank, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for k in rng.sample(range(rank), rng.randint(1, min(2, rank))):
        coef = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        p = oracle.add(p, oracle.mul(oracle.constant(rank, coef), oracle.linear(
            tuple(int(j == k) for j in range(rank)))))
    return oracle.render(p)


# ---- products ---------------------------------------------------------------
# Basis products on a few fixed words reused by every operation, so the
# per-word caches are warm; D4 of length 12 sits above the sigma memo's
# N <= 10 cliff.  Block composition (ops per word) keeps each word's share
# of time comparable, and puts the 90th percentile of the latencies in the
# middle of the A4/D4 length-10 operations: at the edge of a group of
# operations, what the seed picks would move it most.

PRODUCT_WORDS = (
    ("B3", cycled("B3", 8)),
    ("C3", cycled("C3", 9)),
    ("A4", cycled("A4", 10)),
    ("D4", cycled("D4", 10)),
    ("D4", cycled("D4", 12)),
)
PRODUCT_BLOCK = (16, 8, 2, 2, 1)
GENERATOR_SHARE = 0.3


def products_block(rng: random.Random, block: int) -> list[tuple]:
    ops = []
    for wi, count in enumerate(PRODUCT_BLOCK):
        n = len(PRODUCT_WORDS[wi][1])
        # The generator count per word follows the block number, not the
        # seed, so that every seed has the same mix of shapes.
        share = lambda b: round(GENERATOR_SHARE * count * b)  # noqa: E731
        generators = share(block + 1) - share(block)
        for k in range(count):
            if k < generators:
                i = rng.randrange(n)
                b = random_subset(rng, n, range(n), n // 2)
                ops.append(("gen", wi, tuple(int(j == i) for j in range(n)), b))
            else:
                ops.append(("pair", wi, *density_half_pair(rng, n)))
    rng.shuffle(ops)
    return ops


# ---- integrals --------------------------------------------------------------
# One integral per built-in type per block, each on a new word (cold
# caches) over a full or all-but-one gallery.  Lengths per type are chosen
# so that no single type dominates the time.  Basis classes are one op in
# three: they cost a fifth of a combination, and an even split would put
# the median latency in the gap between the two kinds.

INTEGRAL_LENGTHS = {
    "A1": (8, 9), "A2": (6, 7, 8), "B2": (6, 7, 8), "G2": (6, 7, 8),
    "A3": (5, 6, 7), "B3": (5, 6, 7), "C3": (5, 6, 7),
    "A4": (5, 6), "D4": (5, 6),
}


def integrals_block(rng: random.Random, block: int) -> list[tuple]:
    ops = []
    for t, label in enumerate(INTEGRAL_LENGTHS):
        rank = len(oracle.CARTAN[label])
        lengths = INTEGRAL_LENGTHS[label]
        n = lengths[(block + t) % len(lengths)]
        letters = tuple(rng.randint(1, rank) for _ in range(n))
        domain = [1] * n
        if (block + t) % 2:
            domain[rng.randrange(n)] = 0
        domain = tuple(domain)
        on = [k for k, d in enumerate(domain) if d]
        below = lambda: bits_text(random_subset(rng, n, on, (len(on) + 1) // 2))  # noqa: E731
        if (block + t) % 3 == 0:  # one op in three: the median op is a combination
            f = bits_text(domain) if rng.random() < 0.5 else below()
            ops.append(("basis", label, letters, domain, {f: "1"}))
        else:
            coords = {below(): random_coefficient(rng, rank) for _ in range(3)}
            if rng.random() < 0.5:
                coords[bits_text(domain)] = random_coefficient(rng, rank)
            ops.append(("comb", label, letters, domain, coords))
    rng.shuffle(ops)
    return ops


# ---- schubert ---------------------------------------------------------------
# Subword sums at prefixes of the longest word, and square-free products on
# long words; neither touches the gallery layer.  The counts balance the
# two kinds at about half the time each.

BILLEY_TYPES = ("A3", "B3", "C3", "G2", "A4")
ORDINARY_WORDS = (("B3", cycled("B3", 12)), ("A4", cycled("A4", 12)), ("D4", cycled("D4", 12)))
SCHUBERT_BLOCK = (10, 14)  # billey ops, ordinary ops
D4_BILLEY_EVERY = 8  # one block in this many adds a D4 subword sum


def billey_op(rng: random.Random, label: str) -> tuple:
    """v: a prefix of the longest word missing at most two letters; w: a
    random word of a third to two thirds of its length."""
    lw = LONGEST[label]
    v = lw[: rng.randint(max(1, len(lw) - 2), len(lw))]
    rank = len(oracle.CARTAN[label])
    w = tuple(rng.randint(1, rank) for _ in range(rng.randint(len(v) // 3, 2 * len(v) // 3)))
    return ("billey", label, w, v)


def schubert_block(rng: random.Random, block: int) -> list[tuple]:
    ops = [billey_op(rng, BILLEY_TYPES[(block + k) % len(BILLEY_TYPES)])
           for k in range(SCHUBERT_BLOCK[0])]
    if block % D4_BILLEY_EVERY == 0:
        ops.append(billey_op(rng, "D4"))
    for k in range(SCHUBERT_BLOCK[1]):
        wi = (block + k) % len(ORDINARY_WORDS)
        n = len(ORDINARY_WORDS[wi][1])
        ops.append(("ordinary", wi, *density_half_pair(rng, n)))
    rng.shuffle(ops)
    return ops


# ---- cli ----------------------------------------------------------------------
# One `bottsam` process per operation: the README examples, verbatim, and
# seeded variants of every command on at most 8 letters.

README_EXAMPLES = (
    (["--type", "A2", "roots"], None),
    (["--type", "A1", "--word", "1", "table"], "# columns: 0, 1\n0: 1, 1\n1: 0, a1\n"),
    (["--type", "A2", "--word", "1,2,1", "restrict", "011", "--class", "010"], "a2\n"),
    (["--type", "A2", "--word", "1,2,1", "product", "001", "001"], "001: a1, 101: -2, 011: 1\n"),
    (["--type", "A2", "--word", "1,2,1", "integrate", "111", "--class", "111"], "1\n"),
    (["--type", "B2", "--word", "1,2,1,2", "billey", "--w", "1,2", "--v", "1,2,1,2"],
     "a1^2 + 3*a1*a2 + 2*a2^2\n"),
    (["--type", "A2", "--word", "1,2,1", "billey", "--w", "1", "--v", "1,2,1", "--verify"],
     "a1 + a2\nverify: 7 galleries agree, 0 disagree, 1 skipped\n"),
    (["--type", "A2", "--word", "1,2,1", "ordinary"],
     "x1^2 = 0\nx2^2 - x1*x2 = 0\nx3^2 + 2*x1*x3 - x2*x3 = 0\n"),
    (["--type", "A2", "--word", "1,2,1", "ordinary", "--product", "001", "001"],
     "-2*x_{101} + x_{011}\n"),
)
README_PER_BLOCK = 3
CLI_KINDS = ("roots", "table", "restrict", "product", "product", "integrate", "billey", "ordinary")
SMALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
VERIFY_TYPES = ("A2", "B2", "G2", "A3")  # longest word of at most 8 letters


def cli_variant(rng: random.Random, kind: str, k: int) -> tuple:
    as_json = rng.random() < 0.5
    label = rng.choice(SMALL_TYPES)
    rank = len(oracle.CARTAN[label])
    if kind == "roots":
        return ("roots", rng.choice(tuple(oracle.CARTAN)), as_json)
    if kind == "billey":
        label = rng.choice(VERIFY_TYPES)
        _, _, w, v = billey_op(rng, label)
        return ("billey", label, w, v, as_json)
    n = rng.randint(4, 6) if kind == "table" else rng.randint(3, 8)
    letters = tuple(rng.randint(1, rank) for _ in range(n))
    if kind == "table":
        return ("table", label, letters, as_json)
    a, b = bits_text(random_bits(rng, n)), bits_text(random_bits(rng, n))
    if kind == "product":
        check = k % 2 == 1
        if check:  # --check compares a single generator with the closed rule
            i = rng.randrange(n)
            a = bits_text(int(j == i) for j in range(n))
        return ("product", label, letters, a, b, check, as_json)
    if kind == "ordinary":
        return ("ordinary", label, letters, a, b, as_json)
    if rng.random() < 0.5:
        spec = b
    else:
        coords = {bits_text(random_bits(rng, n)): random_coefficient(rng, rank) for _ in range(2)}
        spec = json.dumps({"word": list(letters), "coords": coords})
    return (kind, label, letters, a, spec, as_json)  # restrict / integrate


def cli_block(rng: random.Random, block: int) -> list[tuple]:
    ops = [("readme", (block * README_PER_BLOCK + k) % len(README_EXAMPLES))
           for k in range(README_PER_BLOCK)]
    ops += [cli_variant(rng, kind, k) for k, kind in enumerate(CLI_KINDS)]
    rng.shuffle(ops)
    return ops


def cli_argv(op: tuple) -> list[str]:
    kind = op[0]
    if kind == "readme":
        return list(README_EXAMPLES[op[1]][0])
    as_json = ["--json"] if op[-1] else []
    if kind == "roots":
        return ["--type", op[1], "roots", *as_json]
    word = lambda letters: ",".join(map(str, letters))  # noqa: E731
    if kind == "billey":
        _, label, w, v, _ = op
        return ["--type", label, "--word", word(LONGEST[label]), "billey",
                "--w", word(w), "--v", word(v), "--verify", *as_json]
    base = ["--type", op[1], "--word", word(op[2])]
    if kind == "table":
        return [*base, "table", *as_json]
    if kind == "product":
        return [*base, "product", op[3], op[4], *(["--check"] if op[5] else []), *as_json]
    if kind == "ordinary":
        return [*base, "ordinary", "--product", op[3], op[4], *as_json]
    return [*base, kind, op[3], "--class", op[4], *as_json]


# ---- streams -------------------------------------------------------------------

_BLOCKS = {
    "products": products_block,
    "integrals": integrals_block,
    "schubert": schubert_block,
    "cli": cli_block,
}

# Seconds one block takes at the seed commit on a 2-vCPU Xeon VM.  They
# only size a run's operation list, so that about PASSES passes over it
# fill ``--seconds``; the list depends on the seed and the seconds alone,
# so two commits run the same operations.  Three passes give each
# operation's fastest latency enough chances; the rest of the time goes to
# more operations, which average out what the seed picks.
BLOCK_SECONDS = {"products": 0.72, "integrals": 0.12, "schubert": 0.09, "cli": 1.6}
PASSES = 3


def blocks(workload: str, seed: int):
    """The endless sequence of operation blocks of one workload and seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    for block in itertools.count():
        yield _BLOCKS[workload](rng, block)


def stream(workload: str, seed: int):
    """The endless operation stream of one workload and seed."""
    return itertools.chain.from_iterable(blocks(workload, seed))


def op_list(workload: str, seed: int, count: int) -> list[tuple]:
    return list(itertools.islice(stream(workload, seed), count))


def run_ops(workload: str, seed: int, seconds: float) -> list[tuple]:
    """The whole blocks at the head of the stream that one pass of a run
    executes: at least one block."""
    count = max(1, round(seconds / PASSES / BLOCK_SECONDS[workload]))
    return [op for ops in itertools.islice(blocks(workload, seed), count) for op in ops]


def op_kind(workload: str, op: tuple) -> str:
    if workload == "products":
        return f"{op[0]}:{PRODUCT_WORDS[op[1]][0]}.{len(PRODUCT_WORDS[op[1]][1])}"
    if workload == "integrals":
        return f"{op[0]}:{op[1]}"
    if workload == "schubert":
        return f"billey:{op[1]}" if op[0] == "billey" else f"ordinary:{ORDINARY_WORDS[op[1]][0]}"
    return op[0]


# ---- running operations in-process --------------------------------------------

class Library:
    """The part of ``bottsam`` a workload uses, and the words it reuses.

    Construction is the measured set-up: it imports the package and builds
    every root system and reused word of the workload.  :meth:`warm` runs
    after it, outside the set-up time.
    """

    def __init__(self, workload: str):
        import bottsam

        self.bs = bottsam
        self.workload = workload
        self._prefix_words: dict = {}
        self.rs = {label: bottsam.RootSystem.from_label(label) for label in oracle.CARTAN}
        self.words = []
        if workload == "products":
            self.words = [bottsam.BSWord(self.rs[label], letters) for label, letters in PRODUCT_WORDS]
        elif workload == "schubert":
            self.words = [bottsam.BSWord(self.rs[label], letters) for label, letters in ORDINARY_WORDS]
            for label in BILLEY_TYPES + ("D4",):
                self.rs[label].longest_word()

    def warm(self) -> None:
        """One product per reused word of ``products``, so that the per-word
        caches are warm before the first timed operation."""
        if self.workload != "products":
            return
        for word in self.words:
            unit = self.bs.CohClass.unit(word)
            self.bs.multiply(unit, unit)

    def run(self, op: tuple):
        bs = self.bs
        kind = op[0]
        if kind in ("pair", "gen"):
            word = self.words[op[1]]
            return bs.multiply(bs.CohClass.basis(word, bs.Gallery(op[2])),
                               bs.CohClass.basis(word, bs.Gallery(op[3])))
        if kind in ("basis", "comb"):
            _, label, letters, domain, coords = op
            c = bs.CohClass.from_json_dict(self.rs[label], {"word": list(letters), "coords": coords})
            return bs.integrate(c.word, bs.Gallery(domain), c)
        if kind == "billey":
            rs = self.rs[op[1]]
            return bs.billey(bs.BilleyQuery(rs, rs.weyl_from_word(op[2]), op[3]))
        if kind == "ordinary":
            word = self.words[op[1]]
            return bs.ordinary_multiply(bs.OrdinaryClass.basis(word, bs.Gallery(op[2])),
                                        bs.OrdinaryClass.basis(word, bs.Gallery(op[3])))
        raise ValueError(f"unknown operation {kind!r}")

    # ---- canonical text and checks ------------------------------------------

    def canonical(self, result) -> str:
        if hasattr(result, "to_json_dict"):
            return json.dumps(result.to_json_dict(), sort_keys=True)
        return str(result)

    def check(self, op: tuple, result, index: int) -> bool:
        """Whether ``result`` of ``op`` agrees with an independent route."""
        kind = op[0]
        if kind in ("pair", "gen"):
            return self._check_product(op, result)
        if kind in ("basis", "comb"):
            _, label, letters, domain, coords = op
            rank = len(oracle.CARTAN[label])
            expected = coords.get(bits_text(domain), "0")
            return oracle.parse(str(result), rank) == oracle.parse(expected, rank)
        if kind == "billey":
            return self._check_billey(op, result, index)
        if kind == "ordinary":
            return self._check_ordinary(op, result, index)
        return False

    def _check_product(self, op, result) -> bool:
        bs = self.bs
        _, wi, a, b = op
        label, letters = PRODUCT_WORDS[wi]
        cartan = oracle.CARTAN[label]
        rank = len(cartan)
        doc = result.to_json_dict()
        coords = {oracle.bits_of(e): oracle.parse(t, rank) for e, t in doc["coords"].items()}
        # Restriction at the join of a and b and at one point above it:
        # sum of coordinate * basis value == sigma_a * sigma_b there.
        join = tuple(x | y for x, y in zip(a, b))
        off = [k for k, x in enumerate(join) if not x]
        points = [join]
        if off:
            k = random.Random(repr(op)).choice(off)
            points.append(join[:k] + (1,) + join[k + 1:])
        for ep in points:
            lhs = {}
            for e, c in coords.items():
                lhs = oracle.add(lhs, oracle.mul(c, oracle.sigma(cartan, letters, e, ep)))
            rhs = oracle.mul(oracle.sigma(cartan, letters, a, ep), oracle.sigma(cartan, letters, b, ep))
            if lhs != rhs:
                return False
        # Evaluation at the origin is a ring homomorphism onto the quotient.
        word = self.words[wi]
        ordinary = bs.ordinary_multiply(bs.OrdinaryClass.basis(word, bs.Gallery(a)),
                                        bs.OrdinaryClass.basis(word, bs.Gallery(b)))
        at_origin = {e: c.get((0,) * rank, 0) for e, c in coords.items()}
        at_origin = {e: c for e, c in at_origin.items() if c}
        quotient = {oracle.bits_of(e): Fraction(c) for e, c in ordinary.to_json_dict()["coords"].items()}
        if at_origin != quotient:
            return False
        if op[0] == "gen":
            closed = bs.multiply_generator(word, a.index(1) + 1, bs.Gallery(b))
            return closed.to_json_dict() == doc
        return True

    def _check_billey(self, op, result, index) -> bool:
        bs = self.bs
        _, label, w, v = op
        rs = self.rs[label]
        elem = rs.weyl_from_word(w)
        cartan = oracle.CARTAN[label]
        other = oracle.other_reduced_word(cartan, v)
        if other is None:  # no move applies to v (G2 below 6 letters): brute force
            lw = LONGEST[label]
            prefix = tuple(int(k < len(v)) for k in range(len(lw)))
            if oracle.parse(str(result), len(cartan)) != oracle.subword_sum(cartan, lw, w, prefix):
                return False
        elif bs.billey(bs.BilleyQuery(rs, elem, other)) != result:
            return False
        if index % SLOW_CHECK_EVERY == 0 and len(LONGEST[label]) <= 9:
            lw = bs.BSWord(rs, LONGEST[label])
            prefix = bs.Gallery(tuple(int(k < len(v)) for k in range(len(lw.letters))))
            return bs.check_billey_identity(lw, elem, prefix)
        return True

    def _check_ordinary(self, op, result, index) -> bool:
        bs = self.bs
        _, wi, a, b = op
        word = self.words[wi]
        swapped = bs.ordinary_multiply(bs.OrdinaryClass.basis(word, bs.Gallery(b)),
                                       bs.OrdinaryClass.basis(word, bs.Gallery(a)))
        if swapped != result or index % SLOW_CHECK_EVERY:
            return swapped == result
        # On the 8-letter prefix, the quotient product agrees with the
        # equivariant product evaluated at the origin.
        if wi not in self._prefix_words:
            self._prefix_words[wi] = bs.BSWord(word.rs, word.letters[:8])
        prefix = self._prefix_words[wi]
        pa, pb = bs.Gallery(a[:8]), bs.Gallery(b[:8])
        equivariant = bs.multiply(bs.CohClass.basis(prefix, pa), bs.CohClass.basis(prefix, pb))
        return bs.evaluate_at_origin(equivariant) == bs.ordinary_multiply(
            bs.OrdinaryClass.basis(prefix, pa), bs.OrdinaryClass.basis(prefix, pb))


# The fiber-sum identity (2^9 galleries) and the 8-letter equivariant
# product run on every SLOW_CHECK_EVERY-th operation only.
SLOW_CHECK_EVERY = 16


# ---- cli results ---------------------------------------------------------------

def check_cli(lib: Library, op: tuple, returncode: int, stdout: str) -> bool:
    """Exit code 0, README text byte-identical, JSON equal to the in-process
    library result, and the text value equal to the independent route."""
    if returncode != 0:
        return False
    kind = op[0]
    if kind == "readme":
        argv, expected = README_EXAMPLES[op[1]]
        if expected is None:
            return f"longest word: {' '.join(map(str, LONGEST[argv[1]]))}\n" in stdout
        return stdout == expected
    bs = lib.bs
    as_json = op[-1]
    doc = json.loads(stdout) if as_json else None
    first = stdout.split("\n", 1)[0]
    if kind == "roots":
        lw = list(LONGEST[op[1]])
        return doc["longest_word"] == lw if as_json else f"longest word: {' '.join(map(str, lw))}" in stdout
    rs = lib.rs[op[1]]
    cartan = oracle.CARTAN[op[1]]
    rank = len(cartan)
    if kind == "billey":
        _, _, w, v, _ = op
        value = str(bs.billey(bs.BilleyQuery(rs, rs.weyl_from_word(w), v)))
        if as_json:
            return doc["value"] == value and doc["verify"]["failed"] == 0
        return first == value and " 0 disagree" in stdout
    letters = op[2]
    if kind == "table":
        gals = [g.bits for g in bs.BSWord(rs, letters).galleries()]
        if as_json:
            rows = {oracle.bits_of(e): vals for e, vals in doc["rows"].items()}
        else:
            lines = stdout.splitlines()[1:]
            rows = {oracle.bits_of(line.split(": ", 1)[0]): line.split(": ", 1)[1].split(", ")
                    for line in lines}
        return len(rows) == len(gals) and all(
            oracle.parse(rows[e][k], rank) == oracle.sigma(cartan, letters, e, ep)
            for e in gals for k, ep in enumerate(gals))
    word = bs.BSWord(rs, letters)
    if kind in ("product", "ordinary"):
        a, b = bs.Gallery(oracle.bits_of(op[3])), bs.Gallery(oracle.bits_of(op[4]))
        if kind == "product":
            expected = bs.multiply(bs.CohClass.basis(word, a), bs.CohClass.basis(word, b))
        else:
            expected = bs.ordinary_multiply(bs.OrdinaryClass.basis(word, a), bs.OrdinaryClass.basis(word, b))
        if as_json:
            return doc["coords"] == expected.to_json_dict()["coords"] and (
                kind == "ordinary" or not op[5] or doc.get("check") == "closed one-generator rule agrees")
        return first == str(expected)
    # restrict / integrate: the class is a bit string or an inline JSON document
    _, _, _, point, spec, _ = op
    if spec.startswith("{"):
        coords = {oracle.bits_of(e): oracle.parse(t, rank) for e, t in json.loads(spec)["coords"].items()}
    else:
        coords = {oracle.bits_of(spec): oracle.constant(rank, 1)}
    pt = oracle.bits_of(point)
    if kind == "restrict":
        expected = {}
        for e, c in coords.items():
            expected = oracle.add(expected, oracle.mul(c, oracle.sigma(cartan, letters, e, pt)))
    else:
        expected = coords.get(pt, {})
    value = doc["value"] if as_json else first
    return oracle.parse(value, rank) == expected


def child_env(root: str) -> dict:
    """Environment for child processes: the checkout's ``src`` first on the
    path and a fixed string hash seed."""
    import os

    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env
