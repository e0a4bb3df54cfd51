"""Canonical set partitions of [n] and signed set partitions of <n>,
enumerated exhaustively as a brute-force counting oracle by one streaming
depth-first walk over prefixes of the unsigned partitions (``_rgs_blocks``).

A signed set partition of <n> = {-n..n} consists of a zero-block (contains
0, closed under negation) plus pairs of blocks P / -P.  We store the
zero-block by its positive support only, and one canonical representative
per pair: elements sorted by absolute value, the minimum-absolute-value
element positive, representatives ordered by that minimum.

Type D imposes that the zero-block has at least two positive elements or
none (|zero_support| != 1); ``is_type_d`` holds that rule, and ``_walk``
skips the one-element supports for type D.

Every family's partitions render in one notation per format, text or JSON
(the bytes of ``json.dumps(..., separators=(",", ":"))``).  Every line is
``head + sep.join([*lead, *block texts]) + tail``: ``_frame`` gives the
head, separator, tail and lead (the zero block, in signed text only), and
``_block_text`` each bare block.  ``line_groups`` writes the lines for the
CLI, ``render_text`` and ``render_json`` one partition's.

Every size n is read through ``triangles._size`` and every family through
``triangles._lookup``, so a negative n or a value that is not a Family
raises ValueError here as in ``triangles`` and ``series``.
"""

import heapq
import itertools
from typing import Iterator, NamedTuple, Sequence

from bellpart.triangles import Family, _lookup, _size


class ClassicalSetPartition(NamedTuple):
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def render_text(self) -> str:
        return _line(self.n, None, self.blocks, False)

    def render_json(self) -> str:
        return _line(self.n, None, self.blocks, True)


class SignedSetPartition(NamedTuple):
    n: int
    zero_support: tuple[int, ...]
    pairs: tuple[tuple[int, ...], ...]

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def render_text(self) -> str:
        return _line(self.n, self.zero_support, self.pairs, False)

    def render_json(self) -> str:
        return _line(self.n, self.zero_support, self.pairs, True)


def _frame(
    n: int, zero_support: Sequence[int] | None, as_json: bool
) -> tuple[str, str, str, list[str]]:
    """A line's head, separator, tail and lead: every line is
    ``head + sep.join([*lead, *block texts]) + tail``, where the lead is the
    zero block of signed text and empty otherwise; a classical line has no
    zero_support."""
    if zero_support is None:
        return (f'{{"n":{n},"blocks":[', ",", "]}", []) if as_json else ("", " | ", "", [])
    if as_json:
        support = ",".join(map(str, zero_support))
        return f'{{"n":{n},"zero_support":[{support}],"pairs":[', ",", "]}", []
    return "", " | ", "", ["0" + "".join(f",±{i}" for i in zero_support)]


def _block_text(rep: Sequence[int], signed: bool, as_json: bool) -> str:
    """One block, bare; a text pair shows as ``p/-p``."""
    text = ",".join(map(str, rep))
    if as_json:
        return f"[{text}]"
    return text + "/" + ",".join(str(-x) for x in rep) if signed else text


def _line(n: int, zero_support: Sequence[int] | None, reps: Sequence, as_json: bool) -> str:
    head, sep, tail, lead = _frame(n, zero_support, as_json)
    signed = zero_support is not None
    return head + sep.join([*lead, *(_block_text(r, signed, as_json) for r in reps)]) + tail


def _grown(blocks: tuple, e: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The partitions that add ``e`` to ``blocks``: to each block, then alone."""
    for i, block in enumerate(blocks):
        yield (*blocks[:i], (*block, e), *blocks[i + 1 :])
    yield (*blocks, (e,))


def _rgs_blocks(elements: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All unsigned partitions of ``elements`` in restricted-growth-string
    order, walked depth first over prefixes: those of ``elements[:j]`` grow
    into those of ``elements[:j + 1]`` by ``_grown``, each prefix built once
    and shared by its extensions.  The open prefixes' iterators sit on a
    list, so no element costs a level of recursion.

    Blocks come out ordered by minimum element, elements increasing inside
    each block (``elements`` must be sorted).
    """
    m = len(elements)
    stack = [iter([()])]  # stack[j] walks the partitions of elements[:j]
    while stack:
        for blocks in stack[-1]:
            if len(stack) > m:
                yield blocks
            else:
                stack.append(_grown(blocks, elements[len(stack) - 1]))
                break
        else:
            stack.pop()


def enum_classical(n: int) -> Iterator[ClassicalSetPartition]:
    """Each canonical partition of [n] exactly once; A(n) in total."""
    return (ClassicalSetPartition(n, blocks) for _, blocks in _walk(n, Family.CLASSICAL))


def is_type_d(zero_support: Sequence[int]) -> bool:
    """A signed partition with this zero support is of type D (not just B)."""
    return len(zero_support) != 1


# The sizes of the zero supports each family walks in <n>: TYPE_D skips
# those of exactly one element (``is_type_d``), CLASSICAL takes the empty one
_ZERO_SIZES = {
    Family.CLASSICAL: lambda n: range(1),
    Family.TYPE_B: lambda n: range(n + 1),
    Family.TYPE_D: lambda n: (0, *range(2, n + 1)),
}


def _walk(n: int, family: Family) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Each zero support of <n> in lexicographic order, with each unsigned
    partition of the rest of [n] in RGS order: the walk of ``enum_signed``,
    and for CLASSICAL, which takes only the empty support, of
    ``enum_classical``.  The supports stream: each size comes in
    lexicographic order from ``combinations``, and a tuple sorts before its
    extensions, so merging the sizes needs no list of all 2^n.  A negative n
    (``_size``) or a value that is not a Family (``_lookup``) raises
    ValueError at the first item."""
    elements = range(1, _size(n) + 1)
    sizes = _lookup(_ZERO_SIZES, family)(n)
    for zero_support in heapq.merge(*(itertools.combinations(elements, r) for r in sizes)):
        rest = [i for i in elements if i not in zero_support]
        for blocks in _rgs_blocks(rest):
            yield zero_support, blocks


def _signed_reps(block: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The pair representatives of one unsigned block: its minimum stays
    positive, every other element takes either sign, in binary counting
    order (0 = positive)."""
    return [(block[0], *signed) for signed in itertools.product(*((x, -x) for x in block[1:]))]


def enum_signed(n: int, family: Family) -> Iterator[SignedSetPartition]:
    """Each canonical signed partition of <n> exactly once.

    TYPE_B yields B(n) partitions, TYPE_D yields D(n) (zero-blocks with
    exactly one positive element are skipped).  Order: zero supports in
    lexicographic order, unsigned partitions of the rest in RGS order,
    then sign vectors in binary counting order (0 = positive).
    """
    if family is Family.CLASSICAL:
        raise ValueError(f"not a signed family: {family!r}; use enum_classical")
    for zero_support, blocks in _walk(n, family):
        for pairs in itertools.product(*map(_signed_reps, blocks)):
            yield SignedSetPartition(n, zero_support, pairs)


def line_groups(n: int, family: Family, as_json: bool, pairs: int | None) -> Iterator[list[str]]:
    """The ``render_json`` (``as_json``) or ``render_text`` lines of each
    ``enum_classical(n)`` or ``enum_signed(n, family)`` partition with
    ``pairs`` pairs (blocks, if classical; all if None), in that order, as
    one list per unsigned partition of the walk, with no partition object
    built: each distinct block's texts are rendered once per call."""
    signed = family is not Family.CLASSICAL
    pairs = pairs if pairs is None else _size(pairs, "pairs")
    cache: dict[tuple[int, ...], list[str]] = {}
    for zero_support, blocks in _walk(n, family):
        if pairs is not None and len(blocks) != pairs:
            continue
        head, sep, tail, lead = _frame(n, zero_support if signed else None, as_json)
        for block in blocks:
            if block not in cache:
                reps = _signed_reps(block) if signed else [block]
                cache[block] = [_block_text(r, signed, as_json) for r in reps]
        choices = itertools.product(*([text] for text in lead), *map(cache.get, blocks))
        yield [head + sep.join(parts) + tail for parts in choices]


def classify(p: SignedSetPartition) -> Family:
    """TYPE_D iff the zero-block does not have exactly one positive element."""
    return Family.TYPE_D if is_type_d(p.zero_support) else Family.TYPE_B


def count_by_pairs(n: int, family: Family) -> list[int]:
    """counts[k] = number of enumerated partitions with exactly k pairs
    (blocks, for the classical family); length n + 1."""
    counts = [0] * (_size(n) + 1)
    if family is Family.CLASSICAL:
        for p in enum_classical(n):
            counts[len(p.blocks)] += 1
    else:
        for p in enum_signed(n, family):
            counts[p.num_pairs] += 1
    return counts


def count_single_positive_zero_block(n: int) -> int:
    """By enumeration: type-B partitions of <n> whose zero-block has exactly
    one positive element.  Equals B(n) - D(n), 0 at n = 0."""
    return sum(1 for p in enum_signed(_size(n), Family.TYPE_B) if not is_type_d(p.zero_support))


def count_one_pass(n: int) -> dict[Family, list[int]]:
    """Every family's row of n from one walk over the B(n) signed partitions:
    ``counts[family]`` equals ``count_by_pairs(n, family)``.

    The walk is that of ``enum_signed(n, TYPE_B)``, but no sign vector is
    iterated and no partition object is built.  The classical partitions of
    [n] are the unsigned partitions of the rest of the empty zero support,
    and the type-D ones those whose zero support ``is_type_d``.
    """
    classical, type_b, type_d = ([0] * (_size(n) + 1) for _ in Family)
    for zero_support, blocks in _walk(n, Family.TYPE_B):
        k = len(blocks)
        if not zero_support:
            classical[k] += 1
        # each non-minimum element takes either sign; one partition per sign vector
        visited = 1 << (n - len(zero_support) - k)
        type_b[k] += visited
        if is_type_d(zero_support):
            type_d[k] += visited
    return {Family.CLASSICAL: classical, Family.TYPE_B: type_b, Family.TYPE_D: type_d}
