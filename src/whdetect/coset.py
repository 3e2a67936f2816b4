"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT-style relator scanning with immediate coincidence processing via
union-find collapse.  Coset definition order is fixed (first undefined entry
in row-major order), so completed tables are reproducible bit-for-bit.

The working table is stored column-major: one list per generator and one per
inverse, indexed by coset, with -1 for an undefined entry, and the rows are
read off the columns at the end.  Each relator is split once, at its runs,
into segments: stretches of letters, which a scan reads by iterating their
column lists, and runs, which it crosses in one step where it can (below).
A power g^N (N >= 2) of one generator is written from its one column: the
column and its column lists are repeated N times by list multiplication.
Where the forward and backward reads of a scan stop, the cosets between are
defined in one run.  The budget is tested only when the per-coset arrays
grow, since they grow by doubling and never past it.

Two shortcuts rest on one invariant: definitions only add edges and
coincidence processing maps each edge to one between representatives, so a
closed trace stays closed.  A relator that is a power g^N of one generator
is scanned once per g-cycle instead of once per coset: once its scan at a
live coset alpha has closed, one walk round the cycle marks every
alpha.g^i, and the relator is not scanned again at a marked coset (Havas and
Ramsay, Coset enumeration: ACE, 2001).  Every other relator, (ab)^n
included, is scanned at every live coset: a coincidence hands a dead
coset's cycle to the coset that survives it but not its mark, so on
<a, b | a^2, b^2, (ab)^500> marks for (ab)^500 took 500 walks of 500 steps
to spare 500 of its 1,000 scans, and cost more time than they saved.
When g also has a run g^k or g^-k, k >= 2, in another relator, the walk
round a g-cycle records each coset's place on it, and a scan crosses every
such run in one step: from a live coset at place i on a cycle of length L,
g^k leads to the representative of the coset at place (i + k) mod L (Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 2005, sec. 5.1).
A skipped scan or a crossed run would have defined, deduced and merged
nothing, so the definitions, the budget count and the rows are those of
plain HLT, and a presentation such as the dicyclic x^2 a^-l is enumerated
in time linear in the order instead of quadratic.

The completed table is itself the finite group: elements are the cosets,
with the identity at index 0, and the table is the right regular action of
the presentation generators (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, ch. 5).  :func:`enumerate_cosets` returns
its rows and :func:`realize` adds the BFS word tree that names every
element.  This module alone reads the table and the tree: the other layers
use :class:`FiniteGroupRealization`'s left multiplication, conjugation by a
generator, inverses and element names.  A row of the multiplication table
is built only when first read, and only the group ring, the tests and the
benchmark's oracles read the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import eq, itemgetter, length_hint
from typing import Iterable, Sequence

from .words import Presentation, Word

DEFAULT_MAX_COSETS = 200_000

# the most table entries, budget times 2 * rank, that a budget may ask for:
# the columns then hold at most 80 MB of slots, and filling an accepted
# budget on one or two generators stays within 512 MiB
MAX_TABLE_ENTRIES = 10_000_000

# the slots each per-coset array starts with: a small group never grows them
_FIRST_BLOCK = 64


class EnumerationBudgetExceeded(RuntimeError):
    """The coset budget ran out: the group may be infinite or too large."""


class IncompleteTableError(RuntimeError):
    """Operation requires a complete, consistent coset table."""


def _col(letter: tuple[int, int]) -> int:
    g, s = letter
    return 2 * g + (0 if s > 0 else 1)


def _long_runs(cols: Sequence[int], powered: set[int]) -> list[tuple[int, int]]:
    """The maximal runs cols[start:end] of one letter repeated at least
    twice, in order, of the generators in ``powered``."""
    runs, start, n = [], 0, len(cols)
    for i in range(1, n + 1):
        if i == n or cols[i] != cols[start]:
            if i - start >= 2 and cols[start] >> 1 in powered:
                runs.append((start, i))
            start = i
    return runs


class _Enumerator:
    """Mutable HLT enumeration state, with the table stored by columns.

    ``cols[c][a]`` is the coset a.c, or -1 while undefined, where column 2g
    is the generator g and column 2g+1 its inverse.  The columns and every
    other per-coset array (see :meth:`per_coset`) hold ``size`` slots and
    grow together, doubling and never past the budget; a slot beyond the
    last coset is undefined.  They are only ever grown and written in place,
    never replaced, so a relator split once into the lists it reads (see
    :meth:`scan`) stays valid for the whole enumeration.
    Definitions, deductions and coincidences touch the same entries in the
    same order as they would on a table of one list per coset, so
    :meth:`rows` gives the same rows.
    """

    def __init__(self, n_generators: int, max_cosets: int):
        self.size = min(max_cosets, _FIRST_BLOCK)
        self.max_cosets = max_cosets
        self.parent: list[int] = [0]
        self.queue: list[int] = []
        self.arrays: list[tuple[list | bytearray, list | bytearray]] = []
        self.cols: list[list[int]] = [
            self.per_coset([-1]) for _ in range(2 * n_generators)
        ]
        # each column with the column of the inverse letter, set by the caller
        # once the columns are final
        self.pairs: list[tuple[list[int], list[int]]] = []

    def per_coset(self, fill: list | bytearray) -> list | bytearray:
        """A new array of one slot per coset, grown with every other one.

        ``fill`` holds the one value of a new slot: ``[-1]`` for a column,
        ``bytearray(1)`` for marks, ``[None]`` or ``[0]`` for a cycle index.
        """
        array = fill * self.size
        self.arrays.append((array, fill))
        return array

    def _grow(self) -> None:
        """Double every per-coset array, up to the budget; raise the budget
        error when they already hold the budget."""
        if self.size == self.max_cosets:
            raise EnumerationBudgetExceeded(f"coset budget {self.max_cosets} exhausted")
        add = min(self.size, self.max_cosets - self.size)
        for array, fill in self.arrays:
            array += fill * add
        self.size += add

    def rep(self, a: int) -> int:
        # path halving: each coset on the way up is pointed at its grandparent
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def define(self, a: int, col: list[int], inv_col: list[int]) -> int:
        """Define the new coset b = a.x, where col and inv_col are x and x^-1.

        The slots never outnumber the budget, so :meth:`_grow` raises the
        budget error exactly when b would be the coset past the budget.
        """
        b = len(self.parent)
        if b == self.size:
            self._grow()
        self.parent.append(b)
        col[a] = b
        inv_col[b] = a
        return b

    def coincidence(self, a: int, b: int) -> None:
        """Merge a and b and everything the merge forces, the lower number
        surviving each merge.  A coset is passed to :meth:`rep` only when it
        is not its own representative, and each merge is written inline."""
        pairs, parent, queue, rep = self.pairs, self.parent, self.queue, self.rep
        a, b = rep(a), rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            parent[hi] = lo
            queue.append(hi)
        while queue:
            dead = queue.pop()
            mu = parent[dead]  # its representative is looked up below, when needed
            for col, inv_col in pairs:
                delta = col[dead]
                if delta < 0:
                    continue
                col[dead] = -1
                # drop the back-arrow from delta before rerouting
                inv_col[delta] = -1
                d = delta if parent[delta] == delta else rep(delta)
                if parent[mu] != mu:
                    mu = rep(mu)
                x, y = d, col[mu]
                if y < 0:
                    x, y = mu, inv_col[d]
                    if y < 0:
                        col[mu] = d
                        inv_col[d] = mu
                        continue
                # x, a representative, merges with y: d with mu.c, or mu with d.c^-1
                if parent[y] != y:
                    y = rep(y)
                if x != y:
                    lo, hi = (x, y) if x < y else (y, x)
                    parent[hi] = lo
                    queue.append(hi)

    def scan(self, alpha: int, relator: tuple) -> None:
        """Scan a relator at coset alpha, defining cosets as needed.

        ``relator`` is ``(ahead, behind, forward, backward)``.  ``forward``
        and ``backward`` hold, for each letter x in turn, the column list of
        x and that of x^-1.  ``ahead`` splits the relator, in order, into
        stretches of letters and runs, each ``(start, end, cols, run)`` for
        relator[start:end] with ``cols`` its columns; ``run`` is None for a
        stretch, and ``(cycle_of, position, sign)`` for a run of g^sign whose
        cycles :meth:`mark_cycle` records.  ``behind`` is ``ahead`` reversed.
        A stretch is read by iterating its columns, and so is a run at a
        coset on no recorded cycle; from a coset on one, the run is crossed
        in one step, to the representative of the coset that many places
        along the cycle, which is where reading letter by letter leads.

        The forward read from alpha ends at f, at the first undefined letter
        i or after the whole relator, and then f and alpha coincide.  The
        backward read from alpha ends at b, reading down to letter i at most
        and crossing a run only that far; if it reads letter i, f and b
        coincide.  Otherwise it stops at an undefined letter j >= i, the
        cosets f.x_i ... f.x_(j-1) are defined in one run and letter j is
        deduced.  By free reduction a fresh coset's next forward entry is
        undefined, and the entry at j becomes defined only when b is the
        coset just extended and x_j the inverse of the letter defined; the
        run then reads letter j.  So every scan defines, deduces and merges
        as plain HLT does.
        """
        ahead, behind, forward, backward = relator
        parent = self.parent
        f = alpha
        for start, end, cols, run in ahead:
            cycle = None if run is None else run[0][f]
            if cycle is not None:
                f = cycle[(run[1][f] + run[2] * (end - start)) % len(cycle)]
                if parent[f] != f:
                    f = self.rep(f)
                continue
            letters = iter(cols)
            for col in letters:
                nxt = col[f]
                if nxt < 0:
                    break
                f = nxt
            else:
                continue
            # a list iterator knows how many letters it has left
            i = end - 1 - length_hint(letters)
            break
        else:
            if f != alpha:
                self.coincidence(f, alpha)
            return
        b, j = alpha, len(backward) - 1
        for start, end, _, run in behind:
            if start < i:
                start = i
            cycle = None if run is None else run[0][b]
            if cycle is not None:
                b = cycle[(run[1][b] - run[2] * (end - start)) % len(cycle)]
                if parent[b] != b:
                    b = self.rep(b)
                j = start - 1
            else:
                while j >= start:
                    prev = backward[j][b]
                    if prev < 0:
                        break
                    b = prev
                    j -= 1
            if j >= start or start == i:  # stopped, or read down to i
                break
        if j < i:
            self.coincidence(f, b)
            return
        while i < j:
            # f = self.define(f, forward[i], backward[i]), without the call
            new = len(parent)
            if new == self.size:
                self._grow()
            parent.append(new)
            forward[i][f] = new
            backward[i][new] = f
            f = new
            i += 1
            if backward[j][b] >= 0:  # b was just extended by x_j^-1, to f
                b, j = f, j - 1
        if i == j:
            # deduction closing the scan
            forward[i][f] = b
            backward[i][b] = f

    def mark_cycle(
        self, alpha: int, col: list[int], marks: bytearray,
        cycle_of: list | None = None, position: list[int] | None = None,
    ) -> None:
        """Mark alpha.g^i for every i, once alpha's scan of a power of g has
        closed; ``col`` is the column of g, whatever the sign of the power.

        With ``cycle_of`` and ``position`` the walk also records the cycle as
        the list alpha.g^i for i = 0, 1, ...: ``cycle_of[beta]`` is that list
        and ``position[beta]`` beta's place on it.  The cycle stays closed,
        so from a live beta at place i, beta.g^m is the representative of
        ``cycle[(i + m) % len(cycle)]`` for every m.
        """
        beta, cycle = alpha, []
        while True:
            marks[beta] = 1
            if cycle_of is not None:
                cycle_of[beta] = cycle
                position[beta] = len(cycle)
                cycle.append(beta)
            beta = col[beta]
            if beta == alpha:
                return

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The completed table, live cosets renumbered in increasing order.

        Called once, at the end: it trims the columns to the cosets defined.
        """
        n = len(self.parent)
        cols = self.cols
        for col in cols:
            del col[n:]
        live = [a for a, root in enumerate(self.parent) if a == root]
        if len(live) < n:
            # drop the cosets a coincidence killed and renumber the rest
            index = [-1] * n
            for new, old in enumerate(live):
                index[old] = new
            parent, rep = self.parent, self.rep
            cols = [
                [b if b < 0 else index[b if parent[b] == b else rep(b)]
                 for b in [col[a] for a in live]]
                for col in cols
            ]
        if any(-1 in col for col in cols):
            raise IncompleteTableError("enumeration left an undefined entry")
        # with no generator the only coset is 0, and its row is empty
        return tuple(zip(*cols)) or ((),)


def enumerate_cosets(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> tuple[tuple[int, ...], ...]:
    """Run Todd-Coxeter for the trivial subgroup of the presented group.

    Returns the completed table, one row per coset with coset 0 the
    subgroup: ``rows[a][2g]`` is the coset a.g and ``rows[a][2g+1]`` is
    a.g^-1, so the number of rows is the group order.

    The rows, and the coset at which the budget runs out, are those of
    plain HLT, which scans every relator letter by letter at every live
    coset; the module docstring says why skipping the scans of a power at
    the cosets its cycles closed, and crossing a run in one step, change
    neither, and :meth:`_Enumerator.scan` why defining in runs does not.

    Raises :class:`EnumerationBudgetExceeded` when more than ``max_cosets``
    working cosets would be needed (the group may be infinite), and
    ValueError, before allocating anything, for a budget below 1 or above
    ``MAX_TABLE_ENTRIES`` table entries (``max_cosets`` times 2 * rank).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if max_cosets * 2 * p.rank > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"coset budget {max_cosets} for {p.rank} generators needs"
            f" {max_cosets * 2 * p.rank} table entries, more than {MAX_TABLE_ENTRIES}"
        )
    st = _Enumerator(p.rank, max_cosets)
    cols, parent = st.cols, st.parent
    # each relator's columns, as _col gives them: a power g^N (N >= 2) of one
    # generator is its one column repeated N times, and so are its forward
    # and backward lists below
    words = [r.letters for r in p.relators]
    powers = [len(w) > 1 and w.count(w[0]) == len(w) for w in words]
    heads = [
        ([2 * g + (s < 0) for g, s in (w[:1] if power else w)], len(w) if power else 1)
        for w, power in zip(words, powers)
    ]
    letters = [head * k for head, k in heads]
    powered = {w[0] >> 1 for w, power in zip(letters, powers) if power}
    # the runs of powered generators in each relator that is not a power
    runs = [
        _long_runs(w, powered) if powered and not power else []
        for w, power in zip(letters, powers)
    ]
    # per generator g with a power g^N and a run in another relator, and per
    # coset, its g-cycle and its place on that cycle
    crossed = {w[i] >> 1 for w, rs in zip(letters, runs) for i, _ in rs}
    index = {g: (st.per_coset([None]), st.per_coset([0])) for g in crossed}
    relators = []
    for w, (head, k), power, rs in zip(letters, heads, powers, runs):
        forward = [cols[c] for c in head] * k
        backward = [cols[c ^ 1] for c in head] * k
        # the stretches between the runs, and the runs
        ahead, done = [], 0
        for start, end in (*rs, (len(w), len(w))):
            if done < start:
                ahead.append((done, start, forward[done:start], None))
            if start < end:
                run = (*index[w[start] >> 1], -1 if w[start] & 1 else 1)
                ahead.append((start, end, forward[start:end], run))
            done = end
        # a power of g walks the column of g, the direction its places count in
        g = w[0] >> 1 if power else None
        walk = cols[2 * g] if power else None
        marks = st.per_coset(bytearray(1)) if power else None
        cycle = index.get(g, (None, None))
        relators.append(((ahead, ahead[::-1], forward, backward), walk, marks, *cycle))
    scan, mark_cycle, define = st.scan, st.mark_cycle, st.define
    # each column with the column of the inverse letter, for definitions and
    # coincidences
    pairs = st.pairs = [(col, cols[c ^ 1]) for c, col in enumerate(cols)]
    alpha = 0
    while alpha < len(parent):
        if parent[alpha] == alpha:
            for relator, walk, marks, cycle_of, position in relators:
                if marks is not None and marks[alpha]:
                    continue  # alpha.r = alpha is already traced in full
                scan(alpha, relator)
                if parent[alpha] != alpha:
                    break
                if marks is not None:
                    mark_cycle(alpha, walk, marks, cycle_of, position)
            else:
                for col, inv_col in pairs:
                    if col[alpha] < 0:
                        define(alpha, col, inv_col)
        alpha += 1
    return st.rows()


@dataclass(frozen=True)
class FiniteGroupRealization:
    """A finite group as its completed coset table over the trivial subgroup.

    Elements are the cosets 0..order-1 with the identity at 0, and
    ``table`` holds the rows that :func:`enumerate_cosets` returns: the
    right regular action of the presentation generators.  ``tree`` is the
    BFS word tree from the identity, one ``(element, parent, column)`` per
    nonidentity element in discovery order, with element =
    ``table[parent][column]``; each parent tries its columns in order, a.g
    then a.g^-1 for every generator g in turn, so reading it from the
    identity spells a shortest word for each element.  No other module
    reads these two fields; they use what is derived from them here.
    ``element_names`` spells only the elements it is given, as their tree
    words.  ``central`` says which generators commute with every generator,
    so that the class walk and ``inv`` skip their left rows.  ``inv`` and
    ``central`` are built on first read, and so is each row of ``mul``,
    one per element the reader multiplies by on the left; only the group
    ring, the tests and the benchmark's oracles read ``mul``.
    """

    table: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int, int], ...]
    source: Presentation

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def generator_images(self) -> tuple[int, ...]:
        """The element realizing each presentation generator."""
        return self.table[0][0::2]

    @cached_property
    def central(self) -> tuple[bool, ...]:
        """Whether each presentation generator commutes with every generator,
        and so is central: generator i is central when x_i.x_j, read as
        ``table[x_i][2j]``, equals x_j.x_i for every generator j."""
        # products[i][j] = x_i.x_j, so row i against column i
        products = [self.table[x][0::2] for x in self.generator_images]
        return tuple(map(eq, products, zip(*products)))

    def left(self, t: int) -> list[int]:
        """Left multiplication by t: the row b -> t.b, filled along the tree."""
        row = [0] * self.order
        row[0] = t
        table = self.table
        for b, a, c in self.tree:
            row[b] = table[row[a]][c]
        return row

    def conjugation(self, g: int) -> list[int]:
        """The permutation b -> g b g^-1 for the presentation generator g."""
        table, col = self.table, 2 * g + 1  # the column of g^-1, after g's
        return [table[c][col] for c in self.left(table[0][col - 1])]

    def element_names(self, elements: Iterable[int]) -> dict[int, str]:
        """The display name of each given element: its word along the tree,
        "1" for the identity.  Only the given elements are spelled."""
        gens = self.source.generators
        parent = {b: (a, c) for b, a, c in self.tree}
        names = {}
        for g in elements:
            tags, x = [], g
            while x:
                x, c = parent[x]
                name = gens[c >> 1].name
                tags.append(f"{name}^-1" if c & 1 else name)
            names[g] = " ".join(reversed(tags)) or "1"
        return names

    @cached_property
    def mul(self) -> _LeftRows:
        """mul[a][b] = a.b; row a is built with :meth:`left` on first read."""
        return _LeftRows(self)

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """inv[a] = a^-1, along the tree: (a.x)^-1 = x^-1 . a^-1.

        The left action of each letter x^-1 is a row built with
        :meth:`left`, unless x is a central generator or its inverse: then
        x^-1 . y = y . x^-1, and the row is the table's column of x^-1, so
        an abelian group builds no row.
        """
        inv = [0] * self.order
        table, central = self.table, self.central
        lefts: dict[int, list[int]] = {}
        for b, a, c in self.tree:
            col = c ^ 1  # the column of x^-1
            if col not in lefts:
                lefts[col] = (
                    list(map(itemgetter(col), table)) if central[c >> 1]
                    else self.left(table[0][col])
                )
            inv[b] = lefts[col][inv[a]]
        return tuple(inv)

    def evaluate_word(self, w: Word) -> int:
        acc = 0
        for letter in w.letters:
            acc = self.table[acc][_col(letter)]
        return acc


class _LeftRows(dict):
    """The rows of a group's multiplication table, each built on first read."""

    def __init__(self, group: FiniteGroupRealization):
        super().__init__()
        self.group = group

    def __missing__(self, a: int) -> list[int]:
        if not 0 <= a < self.group.order:
            raise KeyError(a)
        row = self[a] = self.group.left(a)
        return row


def realize(
    rows: tuple[tuple[int, ...], ...], p: Presentation
) -> FiniteGroupRealization:
    """Turn the rows of a complete coset table into an explicit finite group.

    The element of coset a is the word read along the BFS tree from coset 0;
    the table itself is the right action of the generators on the elements.
    """
    seen = [False] * len(rows)
    seen[0] = True
    tree: list[tuple[int, int, int]] = []
    queue = [0]
    for a in queue:  # grows while iterated: a FIFO walk, level by level
        for col, b in enumerate(rows[a]):
            if not seen[b]:
                seen[b] = True
                tree.append((b, a, col))
                queue.append(b)
    if len(queue) != len(rows):
        raise IncompleteTableError("coset table is not transitive from coset 0")
    return FiniteGroupRealization(rows, tuple(tree), p)


def element_order(G: FiniteGroupRealization, g: int) -> int:
    """Least k >= 1 with g^k = identity."""
    if not 0 <= g < G.order:
        raise ValueError(f"element {g} out of range")
    row = G.left(g)
    k, acc = 1, g
    while acc != 0:
        acc = row[acc]
        k += 1
    return k


def realize_presentation(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> FiniteGroupRealization:
    """Convenience: enumerate and realize in one step."""
    return realize(enumerate_cosets(p, max_cosets), p)
