"""Enumeration oracle, canonical form and classification tests."""

import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpart.partitions import (
    ClassicalSetPartition,
    SignedSetPartition,
    _rgs_blocks,
    _walk,
    classify,
    count_by_pairs,
    count_one_pass,
    count_single_positive_zero_block,
    enum_classical,
    enum_signed,
    is_type_d,
    line_groups,
)
from bellpart.triangles import (
    Family,
    bell_a,
    bell_b,
    bell_d,
    rows,
)

# The paper's worked examples in canonical form: rho and tau are of type D,
# gamma, whose zero block has one positive element, of type B only
RHO = SignedSetPartition(5, (2, 3, 5), ((1,), (4,)))
TAU = SignedSetPartition(5, (), ((1, -2), (3, 5), (4,)))
GAMMA = SignedSetPartition(5, (5,), ((1, 3, -4), (2,)))


def _rgs_reference(elements):
    """The partitions of ``elements`` from their restricted growth strings,
    a[0] = 0 and a[i] <= max(a[:i]) + 1, in lexicographic order."""
    for rgs in itertools.product(*(range(i + 1) for i in range(len(elements)))):
        if all(a <= max(rgs[:i], default=-1) + 1 for i, a in enumerate(rgs)):
            blocks = [[] for _ in range(max(rgs, default=-1) + 1)]
            for a, e in zip(rgs, elements):
                blocks[a].append(e)
            yield tuple(map(tuple, blocks))


class TestRgsBlocks:
    @pytest.mark.parametrize("m", range(8))
    def test_equals_growth_string_order(self, m):
        # sorted elements with gaps, like the rest of a zero support
        elements = [2, 3, 5, 7, 11, 13, 17][:m]
        assert list(_rgs_blocks(elements)) == list(_rgs_reference(elements))

    def test_empty(self):
        assert list(_rgs_blocks([])) == [()]

    def test_deep_walk_streams(self):
        # far past the recursion limit, the first partitions still come out
        elements = list(range(1, 5001))
        walk = _rgs_blocks(elements)
        assert next(walk) == (tuple(elements),)
        assert next(walk) == (tuple(elements[:-1]), (5000,))


class TestClassical:
    def test_n0(self):
        parts = list(enum_classical(0))
        assert len(parts) == 1
        assert parts[0].blocks == ()

    def test_totals(self):
        for n in range(7):
            assert sum(1 for _ in enum_classical(n)) == bell_a(n)

    def test_filtered_counts(self):
        by_blocks = [0] * 5
        for p in enum_classical(4):
            by_blocks[len(p.blocks)] += 1
        assert by_blocks[2] == 7  # S(4,2)

    def test_canonical_block_order(self):
        for p in enum_classical(5):
            mins = [b[0] for b in p.blocks]
            assert mins == sorted(mins)
            for b in p.blocks:
                assert list(b) == sorted(b)

    def test_unique(self):
        parts = list(enum_classical(6))
        assert len(set(parts)) == len(parts)


class TestSigned:
    def test_n0(self):
        for family in (Family.TYPE_B, Family.TYPE_D):
            parts = list(enum_signed(0, family))
            assert parts == [SignedSetPartition(0, (), ())]

    def test_classical_family_rejected(self):
        # enum_signed takes only a signed Family, line_groups any Family, and
        # neither takes a value that is not one, such as its string value
        for family in (Family.CLASSICAL, "b", "d", None):
            with pytest.raises(ValueError):
                next(enum_signed(2, family))
            for as_json in (False, True):
                if family is not Family.CLASSICAL:
                    with pytest.raises(ValueError):
                        next(line_groups(2, family, as_json, None))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(8))
    def test_text_groups_equal_rendered_partitions(self, family, n):
        # line_groups against the enumerations, classical too, in both formats;
        # at n = 7 a block's texts are reused across many groups
        for as_json in (False, True):
            reference = _reference_lines(n, family, as_json)
            for pairs in (None, *range(n + 2)):
                expected = [line for size, line in reference if pairs is None or size == pairs]
                groups = list(line_groups(n, family, as_json, pairs))
                assert [line for lines in groups for line in lines] == expected
                # a group is one unsigned partition's 2^(n - |zero| - k) sign
                # choices, or the one classical partition
                for lines in groups:
                    assert len(lines) & (len(lines) - 1) == 0
                    assert len(lines) == 1 or family is not Family.CLASSICAL

    def test_interleaved_text_groups(self):
        # calls drawn from in turn each give their own lines
        calls = [
            (5, Family.TYPE_B, False, None),
            (6, Family.TYPE_D, True, 2),
            (5, Family.CLASSICAL, True, None),
        ]
        walks = [line_groups(*call) for call in calls]
        lines = [[] for _ in calls]
        for groups in itertools.zip_longest(*walks):
            for out, group in zip(lines, groups):
                out.extend(group or ())
        for out, (n, family, as_json, pairs) in zip(lines, calls):
            reference = _reference_lines(n, family, as_json)
            assert out == [line for size, line in reference if pairs is None or size == pairs]

    def test_d1_single_partition(self):
        parts = list(enum_signed(1, Family.TYPE_D))
        assert len(parts) == 1
        assert parts[0].render_text() == "0 | 1/-1"

    def test_d2_listing(self):
        texts = [p.render_text() for p in enum_signed(2, Family.TYPE_D)]
        assert sorted(texts) == sorted(
            [
                "0,±1,±2",
                "0 | 1,2/-1,-2",
                "0 | 1,-2/-1,2",
                "0 | 1/-1 | 2/-2",
            ]
        )

    def test_b3_total(self):
        assert sum(1 for _ in enum_signed(3, Family.TYPE_B)) == 24

    def test_totals(self):
        for n in range(7):
            assert sum(1 for _ in enum_signed(n, Family.TYPE_B)) == bell_b(n)
            assert sum(1 for _ in enum_signed(n, Family.TYPE_D)) == bell_d(n)

    def test_unique_and_canonical(self):
        for n in range(7):
            parts = list(enum_signed(n, Family.TYPE_B))
            assert len(set(parts)) == len(parts)
            for p in parts:
                assert _is_canonical(p), p

    def test_d_subset_of_b(self):
        b_parts = set(enum_signed(4, Family.TYPE_B))
        d_parts = set(enum_signed(4, Family.TYPE_D))
        assert d_parts <= b_parts
        assert all(len(p.zero_support) == 1 for p in b_parts - d_parts)

    def test_deterministic_order(self):
        first = [p.render_text() for p in enum_signed(3, Family.TYPE_D)]
        second = [p.render_text() for p in enum_signed(3, Family.TYPE_D)]
        assert first == second


def _reference_lines(n, family, as_json):
    """(size, line) of each enumerated partition; a JSON line is dumped here
    from the partition's fields, and must equal its render_json."""
    if family is Family.CLASSICAL:
        parts = ((p, len(p.blocks), {"n": p.n, "blocks": p.blocks}) for p in enum_classical(n))
    else:
        parts = (
            (p, p.num_pairs, {"n": p.n, "zero_support": p.zero_support, "pairs": p.pairs})
            for p in enum_signed(n, family)
        )
    if not as_json:
        return [(size, p.render_text()) for p, size, _ in parts]
    reference = [(p, size, json.dumps(record, separators=(",", ":"))) for p, size, record in parts]
    assert [p.render_json() for p, _, _ in reference] == [line for _, _, line in reference]
    return [(size, line) for _, size, line in reference]


def _is_canonical(p: SignedSetPartition) -> bool:
    """Each pair is sorted by |x| with its first element positive, pairs are
    ordered by that element, the zero support is sorted, and the zero block
    with the pairs and their negations covers <n> exactly once."""
    covered = sorted([*p.zero_support, *(abs(x) for rep in p.pairs for x in rep)])
    firsts = [rep[0] for rep in p.pairs]
    return (
        covered == list(range(1, p.n + 1))
        and list(p.zero_support) == sorted(p.zero_support)
        and all(rep[0] > 0 and list(rep) == sorted(rep, key=abs) for rep in p.pairs)
        and firsts == sorted(firsts)
    )


class TestSignCountLaw:
    @given(st.integers(0, 5), st.data())
    @settings(max_examples=40)
    def test_variants_per_unsigned_shape(self, n, data):
        support = tuple(
            sorted(data.draw(st.sets(st.integers(1, max(n, 1)), max_size=n)))
        ) if n else ()
        support = tuple(i for i in support if i <= n)
        by_shape = {}
        for p in enum_signed(n, Family.TYPE_B):
            if p.zero_support != support:
                continue
            shape = tuple(tuple(sorted(abs(x) for x in rep)) for rep in p.pairs)
            by_shape[shape] = by_shape.get(shape, 0) + 1
        for shape, count in by_shape.items():
            k = len(shape)
            assert count == 2 ** (n - len(support) - k)


class TestClassify:
    def test_example_rho(self):
        assert RHO in set(enum_signed(5, Family.TYPE_D))
        assert classify(RHO) is Family.TYPE_D

    def test_example_tau(self):
        assert TAU in set(enum_signed(5, Family.TYPE_D))
        assert classify(TAU) is Family.TYPE_D

    def test_example_gamma(self):
        assert GAMMA in set(enum_signed(5, Family.TYPE_B))
        assert GAMMA not in set(enum_signed(5, Family.TYPE_D))
        assert classify(GAMMA) is Family.TYPE_B

    def test_n0_is_type_d(self):
        p = SignedSetPartition(0, (), ())
        assert classify(p) is Family.TYPE_D


class TestCounts:
    @pytest.mark.parametrize("family", ["b", "d", None])
    def test_count_by_pairs_rejects_non_family(self, family):
        with pytest.raises(ValueError):
            count_by_pairs(3, family)

    def test_count_by_pairs_examples(self):
        assert count_by_pairs(4, Family.TYPE_D) == [1, 24, 34, 12, 1]
        assert count_by_pairs(0, Family.TYPE_B) == [1]
        assert count_by_pairs(5, Family.TYPE_B) == [1, 121, 330, 170, 25, 1]

    @pytest.mark.parametrize("n", range(7))
    def test_oracle_equivalence(self, n):
        for family in Family:
            assert count_by_pairs(n, family) == next(itertools.islice(rows(family), n, None))

    def test_single_positive_zero_block(self):
        assert count_single_positive_zero_block(1) == 1
        assert count_single_positive_zero_block(2) == 2
        for n in range(1, 7):
            assert count_single_positive_zero_block(n) == bell_b(n) - bell_d(n)

    def test_single_positive_rejects_zero(self):
        # B(0) - D(0) = 0: the zero block of <0> has no positive element
        assert count_single_positive_zero_block(0) == 0


class TestOnePass:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_per_partition_counts(self, n):
        counts = count_one_pass(n)
        for family in Family:
            assert counts[family] == count_by_pairs(n, family)
        # the type-B partitions that are not type D, counted one by one
        single = count_single_positive_zero_block(n)
        assert sum(counts[Family.TYPE_B]) - sum(counts[Family.TYPE_D]) == single

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_one_pass(-1)


def test_render_text_zero_support():
    assert RHO.render_text() == "0,±2,±3,±5 | 1/-1 | 4/-4"


@pytest.mark.parametrize(
    "record, walk, text, as_json",
    [
        # no blocks at all: the frame alone, and the zero block of signed text
        (ClassicalSetPartition(0, ()), (0, Family.CLASSICAL, None), "", '{"n":0,"blocks":[]}'),
        (
            SignedSetPartition(0, (), ()),
            (0, Family.TYPE_B, None),
            "0",
            '{"n":0,"zero_support":[],"pairs":[]}',
        ),
        # pairs after an empty zero support
        (
            SignedSetPartition(3, (), ((1, 2), (3,))),
            (3, Family.TYPE_D, 2),
            "0 | 1,2/-1,-2 | 3/-3",
            '{"n":3,"zero_support":[],"pairs":[[1,2],[3]]}',
        ),
        # a zero support and no pairs
        (
            SignedSetPartition(2, (1, 2), ()),
            (2, Family.TYPE_B, 0),
            "0,±1,±2",
            '{"n":2,"zero_support":[1,2],"pairs":[]}',
        ),
    ],
    ids=["classical-empty", "signed-empty", "pairs-only", "zero-only"],
)
def test_frame_edges(record, walk, text, as_json):
    # each record is the first partition of its walk, so its render_* and
    # line_groups' first line, written by the same frame, must agree
    n, family, pairs = walk
    assert record.render_text() == next(line_groups(n, family, False, pairs))[0] == text
    assert record.render_json() == next(line_groups(n, family, True, pairs))[0] == as_json
    assert json.dumps(record._asdict(), separators=(",", ":")) == as_json


def test_streaming_is_lazy():
    stream = enum_signed(8, Family.TYPE_B)
    first = next(stream)
    assert first.n == 8


@pytest.mark.parametrize("family", Family)
def test_walk_support_order(family):
    # the merged stream of zero supports is their sorted list
    for n in range(9):
        every = sorted(
            itertools.chain.from_iterable(
                itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
            )
        )
        expected = {
            Family.CLASSICAL: [()],
            Family.TYPE_B: every,
            Family.TYPE_D: list(filter(is_type_d, every)),
        }[family]
        walked = [z for z, _ in itertools.groupby(z for z, _ in _walk(n, family))]
        assert walked == expected


@pytest.mark.parametrize("family", [Family.TYPE_B, Family.TYPE_D])
def test_walk_streams_supports(family):
    # the first item builds no list of the 2^18 zero supports (about 31 MB)
    tracemalloc.start()
    try:
        next(_walk(18, family))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
