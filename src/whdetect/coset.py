"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT-style relator scanning with immediate coincidence processing via
union-find collapse.  Coset definition order is fixed (first undefined entry
in row-major order), so completed tables are reproducible bit-for-bit.

The completed table is converted into a concrete finite group: element set =
cosets with the identity at index 0, full multiplication and inversion
tables, and the images of the presentation generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import Presentation, Word

DEFAULT_MAX_COSETS = 200_000


class EnumerationBudgetExceeded(RuntimeError):
    """The coset budget ran out: the group may be infinite or too large."""


class IncompleteTableError(RuntimeError):
    """Operation requires a complete, consistent coset table."""


def _col(letter: tuple[int, int]) -> int:
    g, s = letter
    return 2 * g + (0 if s > 0 else 1)


def _inv_col(col: int) -> int:
    return col ^ 1


@dataclass(frozen=True)
class CosetTable:
    """A completed, collapsed coset table for the trivial subgroup.

    ``rows[a][2g]`` is the coset a.g, ``rows[a][2g+1]`` is a.g^-1.
    Coset 0 is the subgroup coset; the number of rows is the group order.
    """

    n_generators: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def n_cosets(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        """Dump as CSV: row = coset, one column per generator action."""
        header = "coset," + ",".join(
            f"g{g}{suffix}" for g in range(self.n_generators) for suffix in ("", "_inv")
        )
        lines = [header]
        for a, row in enumerate(self.rows):
            lines.append(f"{a}," + ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"


class _Enumerator:
    """Mutable HLT enumeration state."""

    def __init__(self, n_generators: int, max_cosets: int):
        self.ncols = 2 * n_generators
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent: list[int] = [0]
        self.n_live = 1
        self.queue: list[int] = []

    def rep(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def is_live(self, a: int) -> bool:
        return self.parent[a] == a

    def define(self, a: int, col: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise EnumerationBudgetExceeded(
                f"coset budget {self.max_cosets} exhausted"
            )
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(b)
        self.n_live += 1
        self.table[a][col] = b
        self.table[b][_inv_col(col)] = a
        return b

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.parent[hi] = lo
        self.n_live -= 1
        self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self._merge(a, b)
        while self.queue:
            dead = self.queue.pop()
            row = self.table[dead]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                row[col] = None
                # drop the back-arrow from delta before rerouting
                self.table[delta][_inv_col(col)] = None
                d = self.rep(delta)
                mu = self.rep(dead)
                existing = self.table[mu][col]
                if existing is not None:
                    self._merge(d, existing)
                else:
                    back = self.table[d][_inv_col(col)]
                    if back is not None:
                        self._merge(mu, back)
                    else:
                        self.table[mu][col] = d
                        self.table[d][_inv_col(col)] = mu

    def scan_and_fill(self, alpha: int, relator_cols: Sequence[int]) -> None:
        """Scan a relator at coset alpha, defining cosets as needed."""
        if not relator_cols:
            return
        f, b = alpha, alpha
        i, j = 0, len(relator_cols) - 1
        while True:
            while i <= j:
                nxt = self.table[f][relator_cols[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prev = self.table[b][_inv_col(relator_cols[j])]
                if prev is None:
                    break
                b = prev
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closing the scan
                self.table[f][relator_cols[i]] = b
                self.table[b][_inv_col(relator_cols[i])] = f
                return
            f = self.define(f, relator_cols[i])
            i += 1


def enumerate_cosets(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Run Todd-Coxeter for the trivial subgroup of the presented group.

    Raises :class:`EnumerationBudgetExceeded` when more than ``max_cosets``
    working cosets would be needed (the group may be infinite).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    relator_cols = [[_col(letter) for letter in r.letters] for r in p.relators]
    st = _Enumerator(p.rank, max_cosets)
    alpha = 0
    while alpha < len(st.table):
        if not st.is_live(alpha):
            alpha += 1
            continue
        for rc in relator_cols:
            st.scan_and_fill(alpha, rc)
            if not st.is_live(alpha):
                break
        if st.is_live(alpha):
            for col in range(st.ncols):
                if st.table[alpha][col] is None:
                    st.define(alpha, col)
        alpha += 1

    # compact: renumber live cosets in increasing index order
    live = [a for a in range(len(st.table)) if st.is_live(a)]
    renum = {old: new for new, old in enumerate(live)}
    rows = []
    for old in live:
        row = []
        for col in range(st.ncols):
            entry = st.table[old][col]
            if entry is None:
                raise IncompleteTableError("enumeration left an undefined entry")
            row.append(renum[st.rep(entry)])
        rows.append(tuple(row))
    return CosetTable(p.rank, tuple(rows))


@dataclass(frozen=True)
class FiniteGroupRealization:
    """A finite group as explicit multiplication/inversion tables.

    Elements are 0..order-1 with the identity at 0.  ``generator_images[g]``
    is the element realizing presentation generator g.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    generator_images: tuple[int, ...]
    source: Presentation

    def conjugate(self, g: int, by: int) -> int:
        """by^-1 g by."""
        return self.mul[self.mul[self.inv[by]][g]][by]

    def evaluate_word(self, w: Word) -> int:
        acc = 0
        for g, s in w.letters:
            img = self.generator_images[g]
            acc = self.mul[acc][img if s > 0 else self.inv[img]]
        return acc

    def is_abelian(self) -> bool:
        imgs = self.generator_images
        return all(
            self.mul[a][b] == self.mul[b][a] for a in imgs for b in imgs
        )


def realize(t: CosetTable, p: Presentation) -> FiniteGroupRealization:
    """Turn a complete coset table into an explicit finite group.

    The element of coset a is the word read along the BFS tree from coset 0;
    multiplication is the induced right action.
    """
    n = t.n_cosets
    # BFS spanning tree from coset 0: each coset gets (parent, column)
    order: list[int] = [0]
    parent: list[tuple[int, int] | None] = [None] * n
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for col in range(2 * t.n_generators):
                b = t.rows[a][col]
                if not seen[b]:
                    seen[b] = True
                    parent[b] = (a, col)
                    order.append(b)
                    nxt.append(b)
        frontier = nxt
    if not all(seen):
        raise IncompleteTableError("coset table is not transitive from coset 0")

    # mul[a][b] = a . word(b); word(b) = word(parent) . column, so each row
    # fills along the BFS order in constant time per entry
    mul_rows: list[list[int]] = []
    for a in range(n):
        row = [0] * n
        row[0] = a
        for b in order[1:]:
            pb, col = parent[b]  # type: ignore[misc]
            row[b] = t.rows[row[pb]][col]
        mul_rows.append(row)
    mul = tuple(tuple(row) for row in mul_rows)
    inv = tuple(mul[a].index(0) for a in range(n))
    gen_images = tuple(t.rows[0][2 * g] for g in range(p.rank))
    return FiniteGroupRealization(n, mul, inv, gen_images, p)


def word_tree(G: FiniteGroupRealization) -> list[tuple[int, int, int, int]]:
    """BFS word tree of G from the identity, in discovery order.

    One ``(element, parent, generator, sign)`` per element reached, with
    element = parent . generator^sign.  Each parent tries a.g then a.g^-1 for
    every generator g in turn, so reading the tree from the identity spells a
    shortest word for each element.  Elements the generators do not reach are
    absent.
    """
    steps = [
        (h, g, s)
        for g, img in enumerate(G.generator_images)
        for h, s in ((img, 1), (G.inv[img], -1))
    ]
    seen = [False] * G.order
    seen[0] = True
    tree: list[tuple[int, int, int, int]] = []
    queue = [0]
    for a in queue:  # grows while iterated: a FIFO walk, level by level
        row = G.mul[a]
        for h, g, s in steps:
            b = row[h]
            if not seen[b]:
                seen[b] = True
                tree.append((b, a, g, s))
                queue.append(b)
    return tree


def element_order(G: FiniteGroupRealization, g: int) -> int:
    """Least k >= 1 with g^k = identity."""
    if not 0 <= g < G.order:
        raise ValueError(f"element {g} out of range")
    k, acc = 1, g
    while acc != 0:
        acc = G.mul[acc][g]
        k += 1
    return k


def realize_presentation(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> FiniteGroupRealization:
    """Convenience: enumerate and realize in one step."""
    return realize(enumerate_cosets(p, max_cosets), p)
