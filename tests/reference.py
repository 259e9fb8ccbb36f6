"""Reference routes for the tests: Weyl-group elements as plain integer
matrices, built straight from the Cartan matrix and multiplied row by column.

Coordinates are in the simple-root basis and a matrix acts on coordinate
columns, so column k of an element's matrix is the image of alpha_{k+1}, as
in ``WeylElement.rows``.  The package moves an element by one reflection at a
time (``RootSystem.times_reflection``); nothing here calls it.

Also data that more than one test file uses.
"""

from fractions import Fraction

from bottsam import WeylElement


def identity(n):
    return tuple(tuple(int(j == k) for k in range(n)) for j in range(n))


def matmul(a, b):
    """The product of two matrices given as rows: ``b`` acts first."""
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def act(rows, coords):
    """The image of a coordinate tuple under a matrix given as rows."""
    return tuple(sum(x * c for x, c in zip(row, coords)) for row in rows)


def reflection(cartan, i):
    """The matrix of r_i (1-based): r_i(alpha_k) = alpha_k - A[i][k] alpha_i,
    so only row i differs from the identity."""
    n = len(cartan)
    return tuple(
        tuple(int(j == k) - (j == i - 1) * cartan[i - 1][k] for k in range(n))
        for j in range(n)
    )


def element(rs, word):
    """r_{i_1} ... r_{i_l} as a product of reflection matrices."""
    rows = identity(rs.rank)
    for i in word:
        rows = matmul(rows, reflection(rs.cartan, i))
    return WeylElement(rows)


def reduced_words(rs):
    """A reduced word of each element of W, keyed by its rows: breadth
    first from the identity by reference matrix products, so each element
    is first met by a shortest word."""
    words = {identity(rs.rank): ()}
    frontier = list(words.items())
    while frontier:
        new = []
        for rows, word in frontier:
            for i in range(1, rs.rank + 1):
                moved = matmul(rows, reflection(rs.cartan, i))
                if moved not in words:
                    words[moved] = word + (i,)
                    new.append((moved, word + (i,)))
        frontier = new
    return words


def weights(rs, letters, bits):
    """The localization weights (alpha_1, .., alpha_N) of a gallery, as
    coordinate tuples: alpha_k is the image of the simple root of letter k
    under the product of the reflection matrices at the on positions before
    k."""
    rows, out = identity(rs.rank), []
    for bit, i in zip(bits, letters):
        out.append(tuple(r[i - 1] for r in rows))
        if bit:
            rows = matmul(rows, reflection(rs.cartan, i))
    return tuple(out)


def betas(rs, word):
    """beta_j = r_{i_1} .. r_{i_{j-1}}(alpha_{i_j}) for each position j of a
    word: the weights of the gallery with every position on."""
    return list(weights(rs, word, (1,) * len(word)))


def fundamental_weights(cartan):
    """omega_1, .., omega_r in simple-root coordinates: column i of the
    inverse Cartan matrix, since <omega_i, alpha_j^vee> = delta_ij and row j
    of the Cartan matrix pairs a coordinate tuple with alpha_j^vee.  Found
    by Gauss-Jordan elimination on Fractions."""
    n = len(cartan)
    rows = [[Fraction(a) for a in row] + [Fraction(int(j == k)) for k in range(n)]
            for j, row in enumerate(cartan)]
    for k in range(n):
        pivot = next(j for j in range(k, n) if rows[j][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for j in range(n):
            if j != k and rows[j][k]:
                rows[j] = [x - rows[j][k] * y for x, y in zip(rows[j], rows[k])]
    return [tuple(rows[j][n + i] for j in range(n)) for i in range(n)]


def zero_test_keeps(a, b):
    """Whether ``ordinary_multiply``'s zero test keeps the pair of
    galleries: the t-th position on in both has at least t positions below
    it that are off in both.  Read from the bits, position by position."""
    off = shared = 0
    for x, y in zip(a.bits, b.bits):
        if x and y:
            shared += 1
            if off < shared:
                return False
        elif not (x or y):
            off += 1
    return True


# one case per kind of refusal, at rank 2: the text and the exact message
REFUSALS = [
    ("1 ? 2", "cannot read polynomial text at '? 2'"),
    ("a1 a2 + 1", "expected an operator at 'a2 + 1'"),
    ("*a1", "polynomial text '*a1' starts with '*'"),
    ("a1 + 3/0", "zero denominator in polynomial text 'a1 + 3/0'"),
    ("2*b1", "unknown variable 'b1'"),
    ("a1*a3", "variable index 3 out of range 1..2"),
    (" \t", "empty polynomial text"),
    ("a" + "9" * 4000, f"variable index {'9' * 40!r}... out of range 1..2"),
    ("a1 + 2*" + "9" * 5000, f"number of more than 4300 digits at {'9' * 40!r}..."),
]
